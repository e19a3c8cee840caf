"""Microbenchmark: fleet decisions/sec across shard counts and caps.

``repro bench fleet`` drives one serverless arrival trace (the bench
variant of the ``serverless`` scenario family: shared kernels, no
per-session variety, so every node does identical work per launch)
through :class:`~repro.fleet.sim.FleetSimulator` over a grid of fleet
sizes and global caps:

* **nodes** — 1, 4, and 8 worker-process shards (1 and 4 in
  ``--quick`` mode).  The single-node entry *is* the streaming
  baseline: one ``SessionManager`` dispatching each launch in order.
* **caps** — ``tight`` (60% of the fleet's aggregate TDP, so budget
  throttling engages every epoch) and ``loose`` (120%, so the
  allocator runs but never bites).

Results append to ``BENCH_fleet.json`` so fleet throughput is tracked
across changes to the shard protocol, and each entry records
``cpu_count``: the multi-node speedup is a property of the host's
parallelism, and a 1-CPU container legitimately reports ~1x where a
4-vCPU CI runner reports >2x.  The optional ``min_speedup`` bound is
therefore asserted by the CLI only when explicitly passed (the CI
fleet lane passes it; local smoke runs do not).

Wall-clock timing is deliberate and allowed here: this module lives in
``repro/experiments/``, the RL001 allowlist.  The *decisions* made
under every grid point are deterministic; only the throughput numbers
vary with the host.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Dict, List, Optional

from repro.fleet import FleetSimulator
from repro.workloads.traces import Trace, build_serverless

__all__ = ["run_bench_fleet", "format_fleet_entry", "DEFAULT_OUTPUT", "SCHEMA"]

#: Trajectory file schema identifier.
SCHEMA = "repro/bench_fleet/v1"

#: Default trajectory file, at the repository root.
DEFAULT_OUTPUT = "BENCH_fleet.json"

#: Fleet sizes timed per cap label.
_FULL_NODES = (1, 4, 8)
_QUICK_NODES = (1, 4)

#: Cap labels as fractions of the fleet's aggregate TDP.
CAP_FRACTIONS = {"tight": 0.6, "loose": 1.2}

#: The node count whose speedup over the single-node baseline is
#: reported (and optionally asserted) per cap label.
SPEEDUP_NODES = 4


def bench_trace(seed: int = 0, *, quick: bool = False) -> Trace:
    """The bench workload: a no-variety serverless arrival trace.

    ``variety=False`` gives every session the same kernel pair, so the
    per-launch work is uniform across nodes and the grid measures shard
    scaling, not placement luck.  Sizes are chosen so decision work
    dominates worker startup and pipe overhead — roughly a thousand
    launches even in quick mode — otherwise multi-node speedups are
    startup-bound regardless of host parallelism.
    """
    sessions, invocations = (16, 20) if quick else (16, 40)
    return build_serverless(
        random.Random(f"{seed}:bench-fleet"),
        seed=seed,
        sessions=sessions,
        invocations=invocations,
        variety=False,
        name="serverless-bench",
        with_assertions=False,
    )


def _time_grid_point(
    trace: Trace, nodes: int, cap_w: float, *, epoch_launches: int
) -> Dict[str, object]:
    """One timed fleet run; the report's decisions fix the work done."""
    sim = FleetSimulator(
        trace,
        nodes=nodes,
        cap_w=cap_w,
        epoch_launches=epoch_launches,
        transport="process" if nodes > 1 else "inline",
    )
    start = time.perf_counter()
    report = sim.run()
    elapsed = time.perf_counter() - start
    total = report.aggregate_stats()
    launches = report.launches()
    return {
        "nodes": nodes,
        "cap_w": round(cap_w, 2),
        "transport": sim.transport,
        "launches": launches,
        "epochs": len(report.epochs),
        "elapsed_s": round(elapsed, 4),
        "decisions_per_s": round(launches / elapsed, 2),
        "energy_j": round(total.energy_j, 4),
        "throughput_ips": round(
            total.instructions / total.kernel_time_s
            if total.kernel_time_s > 0
            else 0.0,
            2,
        ),
        "budget_conserved": all(
            not e.budgets or sum(e.budgets.values()) <= e.cap_w * (1 + 1e-9)
            for e in report.epochs
        ),
    }


def _load_trajectory(path: str) -> List[Dict[str, object]]:
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != SCHEMA:
        return []
    trajectory = payload.get("trajectory", [])
    return trajectory if isinstance(trajectory, list) else []


def run_bench_fleet(
    quick: bool = False,
    output: str = DEFAULT_OUTPUT,
    label: Optional[str] = None,
    seed: int = 0,
    min_speedup: Optional[float] = None,
    epoch_launches: int = 32,
) -> Dict[str, object]:
    """Run the fleet grid and append to the trajectory file.

    Args:
        quick: Smaller trace and the {1, 4}-node grid — the CI smoke
            configuration.
        output: Trajectory JSON path.
        label: Entry label (defaults to ``"quick"``/``"full"``).
        seed: Workload seed; the same seed always builds the same
            trace, so grid points are comparable across entries.
        min_speedup: When given, recorded in the entry so the
            trajectory carries the asserted bound (the CLI enforces
            it against the best per-cap 4-node speedup).
        epoch_launches: Budget-epoch length in dispatched launches.

    Returns:
        The appended trajectory entry.
    """
    from repro.hardware.apu import APUModel

    trace = bench_trace(seed, quick=quick)
    tdp_w = APUModel().tdp_w
    node_grid = _QUICK_NODES if quick else _FULL_NODES

    grid: List[Dict[str, object]] = []
    for cap_label, fraction in sorted(CAP_FRACTIONS.items()):
        for nodes in node_grid:
            point = _time_grid_point(
                trace,
                nodes,
                fraction * tdp_w * nodes,
                epoch_launches=epoch_launches,
            )
            point["cap"] = cap_label
            grid.append(point)

    speedups: Dict[str, float] = {}
    for cap_label in CAP_FRACTIONS:
        rates = {
            p["nodes"]: p["decisions_per_s"]
            for p in grid
            if p["cap"] == cap_label
        }
        if SPEEDUP_NODES in rates and 1 in rates:
            speedups[cap_label] = round(rates[SPEEDUP_NODES] / rates[1], 2)

    entry: Dict[str, object] = {
        "label": label or ("quick" if quick else "full"),
        "quick": quick,
        "seed": seed,
        "trace": {
            "name": trace.header.name,
            "sessions": len(trace.session_ids()),
            "events": len(trace.events),
        },
        "epoch_launches": epoch_launches,
        "cpu_count": os.cpu_count(),
        "grid": grid,
        "speedup_4_node": speedups,
    }
    if min_speedup is not None:
        entry["min_speedup"] = min_speedup

    trajectory = _load_trajectory(output)
    trajectory.append(entry)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump({"schema": SCHEMA, "trajectory": trajectory}, handle, indent=2)
        handle.write("\n")
    return entry


def best_speedup(entry: Dict[str, object]) -> Optional[float]:
    """The entry's best per-cap 4-node speedup, or None if unmeasured."""
    speedups = entry.get("speedup_4_node")
    if not isinstance(speedups, dict) or not speedups:
        return None
    return max(speedups.values())


def format_fleet_entry(entry: Dict[str, object]) -> str:
    """Render one trajectory entry as an aligned text table."""
    trace = entry["trace"]
    assert isinstance(trace, dict)
    lines = [
        f"== bench fleet ({entry['label']}): {trace['name']}, "
        f"{trace['sessions']} sessions / {trace['events']} launches, "
        f"{entry['cpu_count']} cpu(s) ==",
        f"{'cap':6s} {'nodes':>5s} {'cap W':>8s} {'epochs':>6s} "
        f"{'decisions/s':>12s} {'energy J':>10s}",
    ]
    grid = entry["grid"]
    assert isinstance(grid, list)
    for point in grid:
        lines.append(
            f"{point['cap']:6s} {point['nodes']:>5d} {point['cap_w']:>8.1f} "
            f"{point['epochs']:>6d} {point['decisions_per_s']:>12.1f} "
            f"{point['energy_j']:>10.2f}"
        )
    speedups = entry.get("speedup_4_node")
    if isinstance(speedups, dict):
        for cap_label, value in sorted(speedups.items()):
            lines.append(
                f"{SPEEDUP_NODES}-node speedup vs single-node batched "
                f"({cap_label}): {value:.2f}x"
            )
    return "\n".join(lines)

"""Microbenchmark: decisions/sec of the greedy hill-climb hot path.

``repro bench decide`` times :meth:`GreedyHillClimbOptimizer.optimize_kernel`
— the per-kernel-boundary decision the MPC manager makes at runtime —
under each predictor backend, once per session (one sweep started per
decision, its rows computed a cross at a time as the search reads
them) and batched across interleaved sessions
(:meth:`~GreedyHillClimbOptimizer.optimize_kernel_batch`, one stacked
sweep start per step).  Results append to a trajectory file
(``BENCH_decide.json`` by default) so the decisions/sec history is
tracked across changes to the decision core; each entry records the
host's ``cpu_count`` beside its rates.

Wall-clock timing is deliberate and allowed here: this module lives in
``repro/experiments/``, the RL001 allowlist.  The *decisions* being
timed are deterministic — both paths pick identical configurations —
only the throughput numbers vary with the host.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Tuple

from repro.core.optimizer import GreedyHillClimbOptimizer
from repro.core.pattern import KernelRecord
from repro.core.tracker import PerformanceTracker
from repro.hardware.apu import APUModel
from repro.hardware.config import FAILSAFE_CONFIG, ConfigSpace
from repro.ml.predictors import OraclePredictor, PerfPowerPredictor, train_predictor
from repro.workloads.counters import CounterSynthesizer
from repro.workloads.kernel import KernelSpec
from repro.workloads.suites import benchmark

__all__ = ["run_bench_decide", "DEFAULT_OUTPUT", "SCHEMA"]

#: Trajectory file schema identifier.
SCHEMA = "repro/bench_decide/v1"

#: Default trajectory file, at the repository root.
DEFAULT_OUTPUT = "BENCH_decide.json"

#: Decision workload: one case per unique kernel of this benchmark.
DEFAULT_BENCHMARK = "kmeans"

#: Minimum timed decisions per (backend, path) measurement.
_FULL_DECISIONS = 120
_QUICK_DECISIONS = 24


def _decision_cases(
    apu: APUModel, space: ConfigSpace, benchmark_name: str
) -> Tuple[List[Tuple[KernelSpec, PerformanceTracker]], List[KernelSpec]]:
    """(kernel, tracker) pairs for every unique kernel of a benchmark.

    Targets are set to 90% of each kernel's fail-safe throughput so the
    searches have headroom to climb — the representative decision shape,
    not the degenerate everything-infeasible one.
    """
    app = benchmark(benchmark_name)
    fail_safe = space.clamp(FAILSAFE_CONFIG)
    cases = []
    for spec in app.unique_kernels:
        measurement = apu.execute(spec, fail_safe)
        target = 0.9 * spec.instructions / measurement.time_s
        cases.append((spec, PerformanceTracker(target)))
    return cases, list(app.unique_kernels)


def _observed(
    cases: List[Tuple[KernelSpec, PerformanceTracker]],
    synthesizer: CounterSynthesizer,
    sequence: int,
) -> List[Tuple[KernelRecord, PerformanceTracker]]:
    """The cases as a live stream sees them at launch ``sequence``.

    Every launch brings a new counter vector object, so a decision never
    reads a sweep an earlier decision left in the optimizer's cache:
    each timed decision pays for its own sweep, as on a live stream.
    """
    return [
        (
            KernelRecord(
                signature=(),
                counters=synthesizer.observe(spec, sequence),
                instructions=spec.instructions,
            ),
            tracker,
        )
        for spec, tracker in cases
    ]


def _time_path(
    optimizer: GreedyHillClimbOptimizer,
    cases: List[Tuple[KernelSpec, PerformanceTracker]],
    min_decisions: int,
) -> Tuple[float, int]:
    """(decisions/sec, decisions timed) for one optimizer configuration.

    Each decision starts one sweep and runs one search, which computes
    the crosses of rows it reads.
    """
    synthesizer = CounterSynthesizer()
    rounds = -(-min_decisions // len(cases))
    # Counters are built before the timed loop; round 0 warms the
    # predictor and table caches untimed.
    stream = [_observed(cases, synthesizer, seq) for seq in range(rounds + 1)]
    for record, tracker in stream[0]:
        optimizer.optimize_kernel(record, tracker)
    decisions = 0
    start = time.perf_counter()
    for observed in stream[1:]:
        for record, tracker in observed:
            optimizer.optimize_kernel(record, tracker)
            decisions += 1
    elapsed = time.perf_counter() - start
    return decisions / elapsed, decisions


#: Interleaved-session counts timed by the batched backend path.
BATCH_SESSIONS = (8, 64)


def _time_batched(
    optimizer: GreedyHillClimbOptimizer,
    cases: List[Tuple[KernelSpec, PerformanceTracker]],
    sessions: int,
    min_decisions: int,
) -> Tuple[float, int]:
    """(decisions/sec, decisions timed) for batched multi-session steps.

    Models ``SessionManager.step_batch``: each step decides once for
    ``sessions`` interleaved sessions whose pending kernels cycle
    through the benchmark's unique kernels, observed afresh every step,
    so each step is one stacked start of the few sweeps a real
    multi-tenant step dedups to, plus one search per session.
    """
    synthesizer = CounterSynthesizer()
    steps = -(-min_decisions // sessions)
    stream = []
    for seq in range(steps + 1):  # step 0 warms the caches untimed
        observed = _observed(cases, synthesizer, seq)
        stream.append([observed[i % len(observed)] for i in range(sessions)])
    optimizer.optimize_kernel_batch(stream[0])
    decisions = 0
    start = time.perf_counter()
    for batch in stream[1:]:
        optimizer.optimize_kernel_batch(batch)
        decisions += sessions
    elapsed = time.perf_counter() - start
    return decisions / elapsed, decisions


def _bench_health_overhead(
    rf: PerfPowerPredictor,
    sessions: int,
    min_decisions: int,
    benchmark_name: str,
) -> Dict[str, object]:
    """Health-enabled vs NOOP hot-path rates (the <=5% budget).

    Unlike the optimizer microbenchmarks above, this times the shipping
    hot path end to end: :meth:`SessionManager.step_batch` driving
    ``sessions`` MPC sessions on the batched rf backend, once under the
    NOOP instrumentation default and once with metrics, tracing, and
    the model-health monitor installed.  Each step carries the full
    per-launch runtime work (decision, APU execution, accounting), so
    the overhead percentage is what a deployment actually pays for
    observability — not the layer's cost against a bare optimizer loop.

    Host-noise discipline: the arms alternate slice by slice, each
    slice is one *whole invocation* (the per-step cost varies ~10x
    between the begin-run re-optimization phase and steady-state skip
    decisions, so phase-aligning slices gives every slice the same
    workload mix), and the leading arm flips every slice so machine
    drift and GC cadence hit both arms equally.  Both managers consume
    identical event streams and the health layer never feeds back into
    decisions, so the arms stay decision-identical (cross-checked on a
    final untimed step).
    """
    from repro.core.manager import MPCPowerManager
    from repro.obs import NOOP, make_instrumentation
    from repro.runtime.events import launch_events
    from repro.runtime.manager import SessionManager
    from repro.sim.simulator import Simulator
    from repro.sim.turbocore import TurboCorePolicy

    sim = Simulator()
    app = benchmark(benchmark_name)
    turbo = sim.run(app, TurboCorePolicy(tdp_w=sim.apu.tdp_w))
    target = turbo.instructions / turbo.kernel_time_s

    steps_per_slice = len(app.kernels)
    slices = max(2, -(-min_decisions // steps_per_slice))
    timed_steps = slices * steps_per_slice
    # One full invocation warms each arm untimed: the MPC sessions
    # profile their launch pattern there, so every timed slice covers
    # one steady-state ``mpc`` invocation with caches and ledgers hot.
    warm_steps = len(app.kernels)
    total_steps = warm_steps + timed_steps + 1  # +1: equivalence check
    invocations = -(-total_steps // len(app.kernels))
    ids = [f"s{i}" for i in range(sessions)]
    streams = {
        sid: [
            event
            for _ in range(invocations)
            for event in launch_events(app, session_id=sid)
        ]
        for sid in ids
    }
    batches = [
        [streams[sid][step] for sid in ids] for step in range(total_steps)
    ]

    obs = make_instrumentation(keep_spans=False, health=True)

    def build_arm(instrumentation: object) -> SessionManager:
        manager = SessionManager(
            apu=sim.apu, counters=sim.counters, overhead=sim.overhead,
            obs=instrumentation,
        )
        # All sessions share one predictor instance so step_batch
        # groups them into stacked sweep starts — the batched rf
        # backend configuration.
        for sid in ids:
            manager.add_session(
                sid,
                MPCPowerManager(
                    target, rf, overhead_model=sim.overhead,
                    obs=instrumentation,
                ),
            )
        return manager

    noop_arm = build_arm(NOOP)
    health_arm = build_arm(obs)

    def run_slice(manager: SessionManager, base: int, steps: int) -> float:
        start = time.perf_counter()
        for step in range(base, base + steps):
            manager.step_batch(batches[step])
        return time.perf_counter() - start

    run_slice(noop_arm, 0, warm_steps)
    run_slice(health_arm, 0, warm_steps)
    noop_s = health_s = 0.0
    step = warm_steps
    for index in range(slices):
        if index % 2 == 0:
            noop_slice = run_slice(noop_arm, step, steps_per_slice)
            health_slice = run_slice(health_arm, step, steps_per_slice)
        else:
            health_slice = run_slice(health_arm, step, steps_per_slice)
            noop_slice = run_slice(noop_arm, step, steps_per_slice)
        noop_s += noop_slice
        health_s += health_slice
        step += steps_per_slice
    identical = [o.record for o in noop_arm.step_batch(batches[step])] == [
        o.record for o in health_arm.step_batch(batches[step])
    ]
    timed = timed_steps * sessions
    noop_rate = timed / noop_s
    health_rate = timed / health_s
    return {
        "backend": "rf",
        "sessions": sessions,
        "decisions_timed": timed,
        "decisions_identical": identical,
        "noop_decisions_per_s": round(noop_rate, 2),
        "health_decisions_per_s": round(health_rate, 2),
        "overhead_pct": round(100.0 * (1.0 - health_rate / noop_rate), 2),
    }


def _bench_backend(
    name: str,
    predictor: PerfPowerPredictor,
    space: ConfigSpace,
    cases: List[Tuple[KernelSpec, PerformanceTracker]],
    min_decisions: int,
) -> Dict[str, object]:
    """Per-session vs. batched decisions/sec for one backend."""
    optimizer = GreedyHillClimbOptimizer(space, predictor)
    matrix_rate, timed = _time_path(optimizer, cases, min_decisions)
    batched: Dict[str, object] = {}
    for sessions in BATCH_SESSIONS:
        rate, _ = _time_batched(optimizer, cases, sessions, min_decisions)
        batched[str(sessions)] = {
            "decisions_per_s": round(rate, 2),
            "speedup_vs_matrix": round(rate / matrix_rate, 2),
        }
    return {
        "backend": name,
        "matrix_decisions_per_s": round(matrix_rate, 2),
        "decisions_timed": timed,
        "batched": batched,
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


def run_bench_decide(
    quick: bool = False,
    output: str = DEFAULT_OUTPUT,
    label: Optional[str] = None,
    benchmark_name: str = DEFAULT_BENCHMARK,
    cache_dir: Optional[str] = ".cache",
    max_health_overhead_pct: Optional[float] = None,
) -> Dict[str, object]:
    """Run the decide microbenchmark and append to the trajectory file.

    Args:
        quick: Time fewer decisions and use a small Random Forest —
            the CI smoke configuration.
        output: Trajectory JSON path.
        label: Entry label (defaults to ``"quick"``/``"full"``).
        benchmark_name: Benchmark supplying the decision workload.
        cache_dir: Cache directory for the trained forest.
        max_health_overhead_pct: When given, record the bound in the
            entry's ``health_overhead.budget_pct`` so the trajectory
            carries the asserted budget (the CLI enforces it).

    Returns:
        The appended trajectory entry.
    """
    apu = APUModel()
    space = ConfigSpace()
    cases, kernels = _decision_cases(apu, space, benchmark_name)
    min_decisions = _QUICK_DECISIONS if quick else _FULL_DECISIONS

    if quick:
        forest_params = {"n_estimators": 4, "max_depth": 10}
    else:
        forest_params = {}
    rf = train_predictor(apu=apu, cache_dir=cache_dir, **forest_params)
    oracle = OraclePredictor(apu, kernels)

    entry: Dict[str, object] = {
        "label": label or ("quick" if quick else "full"),
        "quick": quick,
        "benchmark": benchmark_name,
        "cases": len(cases),
        "cpu_count": os.cpu_count(),
        "backends": {
            "rf": _bench_backend("rf", rf, space, cases, min_decisions),
            "oracle": _bench_backend(
                "oracle", oracle, space, cases, min_decisions
            ),
        },
        # Model-health cost on the shipping hot path: batched rf
        # step_batch with the monitor installed vs the NOOP default.
        "health_overhead": _bench_health_overhead(
            rf, max(BATCH_SESSIONS), min_decisions, benchmark_name
        ),
    }
    if max_health_overhead_pct is not None:
        overhead = entry["health_overhead"]
        assert isinstance(overhead, dict)
        overhead["budget_pct"] = max_health_overhead_pct

    trajectory = _load_trajectory(output)
    trajectory.append(entry)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump({"schema": SCHEMA, "trajectory": trajectory}, handle, indent=2)
        handle.write("\n")
    return entry


def format_entry(entry: Dict[str, object]) -> str:
    """Render one trajectory entry as an aligned text table."""
    lines = [
        f"== bench decide ({entry['label']}): {entry['benchmark']}, "
        f"{entry['cases']} kernels ==",
        f"{'backend':8s} {'matrix/s':>10s}",
    ]
    backends = entry["backends"]
    assert isinstance(backends, dict)
    for name, stats in backends.items():
        lines.append(f"{name:8s} {stats['matrix_decisions_per_s']:>10.1f}")
    for name, stats in backends.items():
        for sessions, batch in stats.get("batched", {}).items():
            lines.append(
                f"{name:8s} batched@{sessions:>2s}: "
                f"{batch['decisions_per_s']:>9.1f}/s "
                f"({batch['speedup_vs_matrix']:.2f}x vs matrix)"
            )
    overhead = entry.get("health_overhead")
    if isinstance(overhead, dict):
        budget = overhead.get("budget_pct")
        suffix = f", budget {budget:g}%" if budget is not None else ""
        lines.append(
            f"health   batched@{overhead['sessions']}: "
            f"{overhead['health_decisions_per_s']:>9.1f}/s vs "
            f"{overhead['noop_decisions_per_s']:.1f}/s NOOP "
            f"({overhead['overhead_pct']:+.2f}% overhead{suffix})"
        )
    return "\n".join(lines)

"""One measured process: set a workload up, then run its passes.

``run.py`` starts this script once per set-up sample and once for the
measured run::

    python3 perfbench/worker.py --workload paper --seed 0 --passes 2 \
        --cache-dir .bench_build/perfbench [--trace] [--setup-only]

It prints ``READY`` the moment set-up is done (``run.py`` times set-up
from the spawn to that line) and, unless ``--setup-only``, runs the
passes and prints one JSON line with what it measured.  A traced run
writes its spans to ``<cache-dir>/spans-<workload>.pkl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from hostspeed import REF_BLOCK_S, Calibrator  # noqa: E402
from stats import (  # noqa: E402
    FailureCount,
    count_failures,
    decision_digest,
    host_factors,
    nearest_rank,
    tail_percentile,
)
from workloads import INPUT_STREAMS, make_workload  # noqa: E402

#: Stored per-session digests, by workload and seed.
REFERENCE_FILE = os.path.join(HERE, "reference.json")


def load_reference(workload: str, seed: int):
    """The stored digests for ``(workload, seed)``, one per input stream,
    or None."""
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        stored = json.load(handle)
    return stored.get(workload, {}).get(str(seed))


def sim_totals(decisions):
    """Simulated energy (J) and time (s) summed over every session."""
    energy = []
    time_s = []
    for sid in sorted(decisions):
        for d in decisions[sid]:
            energy += [d.gpu_energy_j, d.cpu_energy_j,
                       d.overhead_gpu_energy_j, d.overhead_cpu_energy_j]
            time_s += [d.time_s, d.overhead_time_s]
    return math.fsum(energy), math.fsum(time_s)


class Checker:
    """Checks every pass against the reference and earlier passes.

    Passes are checked per input stream: against the stored digests of
    that stream when there are any, else against the first pass that
    ran on it.  Passes on one stream must also repeat its simulated
    totals exactly.
    """

    def __init__(self, workload, reference):
        self.expected = workload.session_launches()
        self.reference = reference
        self.failures = FailureCount()
        self.first_digests = {}
        self.sim = {}
        self.consistent = True

    def check(self, result, stream):
        if result.shard_error is not None:
            self.failures.add(result.launches, result.launches, "ShardError")
            print(result.shard_error, file=sys.stderr)
            return
        digests = {
            sid: decision_digest(seq) for sid, seq in result.decisions.items()
        }
        if self.reference is not None:
            reference = self.reference[stream]
        else:
            reference = self.first_digests.get(stream)
        self.first_digests.setdefault(stream, digests)
        count_failures(
            self.expected, digests, result.fault_launches, reference,
            self.failures,
        )
        sim = sim_totals(result.decisions)
        if self.sim.setdefault(stream, sim) != sim:
            self.consistent = False


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` reaped children.

    Children report the largest reaped child's peak; fleet nodes do
    identical work, so each is counted at that peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * kids) / 1024.0


def host_metrics(samples, wall, cpu, launches):
    """The host-time metrics of a run, and the tail's percentile."""
    ordered = sorted(samples) or [0.0]
    p50, _ = nearest_rank(ordered, 50.0)
    try:
        pct, tail, beyond = tail_percentile(ordered)
    except ValueError:
        # Only a run cut short by a fault has this few samples; it is
        # reported as failed, with its largest sample as the tail.
        pct, tail, beyond = 100.0, ordered[-1], 0
    return {
        "launches_per_s": launches / wall,
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail * 1e3,
        "cpu_ms_per_launch": cpu * 1e3 / launches,
    }, (pct, beyond)


def pass_scale(samples, factors):
    """Mean of per-sample factors, weighted by the samples' time."""
    total = math.fsum(samples)
    if not total:
        return 1.0
    return math.fsum(s * f for s, f in zip(samples, factors)) / total


def end_to_end(workload, checker, results):
    """End-to-end metrics, host times stated at the reference speed.

    Each latency sample is multiplied by its wall-time calibration
    factor, a pass's wall time by the time-weighted mean of those
    factors, and its CPU time by the same mean of the CPU-time factors.
    The measured values go into the detail.
    """
    samples, raw_samples, scales = [], [], []
    wall = raw_wall = cpu = raw_cpu = 0.0
    for r in results:
        n = len(r.samples_s)
        by_wall = host_factors([(p, w) for p, w, _ in r.host_blocks], n,
                               REF_BLOCK_S)
        by_cpu = host_factors([(p, c) for p, _, c in r.host_blocks], n,
                              REF_BLOCK_S)
        scale = pass_scale(r.samples_s, by_wall)
        samples += [s * f for s, f in zip(r.samples_s, by_wall)]
        raw_samples += r.samples_s
        scales.append(scale)
        wall += r.wall_s * scale
        cpu += r.cpu_s * pass_scale(r.samples_s, by_cpu)
        raw_wall += r.wall_s
        raw_cpu += r.cpu_s
    launches = sum(r.launches for r in results)
    metrics, (pct, beyond) = host_metrics(samples, wall, cpu, launches)
    measured, _ = host_metrics(raw_samples, raw_wall, raw_cpu, launches)
    # Stream 0 runs first in every run, however many passes the host's
    # speed allows, so its totals are the same in every run of a seed.
    energy, sim_time = checker.sim.get(0, (0.0, 0.0))
    workers = workload.size().get("nodes", 0)
    metrics.update({
        "peak_rss_mb": peak_rss_mb(workers),
        "sim_energy_j": energy,
        "sim_time_s": sim_time,
    })
    return metrics, {
        "samples": len(samples),
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "timed_s": raw_wall,
        "measured": measured,
        "host_scale": scales,
        "startup_ms": 1e3 * statistics.median(r.startup_s for r in results),
    }


def within_cap(results, max_seconds, more=1):
    """Whether ``more`` passes are projected to end within ``max_seconds``."""
    if not results:
        return True
    spent = sum(r.wall_s for r in results)
    return spent * (len(results) + more) / len(results) <= max_seconds


def traced_run(workload, checker, passes, max_seconds, rec, setup_range):
    """Untraced and traced passes in turn.

    Returns the per-layer metrics and the passes made and planned.
    """
    from tracing import FLEET_TARGETS, PassGroup, all_targets, per_layer_report

    fleet = workload.name == "fleet"
    if fleet:
        # (transport, wrapper set): an untraced and a parent-only traced
        # process pass for fleet.*, then an untraced and a fully traced
        # inline pass for the worker-side layers and the overhead.
        kinds = [("process", None), ("process", FLEET_TARGETS),
                 ("inline", None), ("inline", all_targets())]
    else:
        kinds = [(None, None), (None, all_targets())]
    groups = [PassGroup() for _ in kinds]
    # At least two cycles, the second in reverse order, so host drift
    # and any first-pass warm-up fall on both sides of the overhead.
    cycles = max(2, passes // len(kinds))
    done = []
    for cycle in range(cycles):
        if not within_cap(done, max_seconds, more=len(kinds)):
            break
        order = list(zip(kinds, groups))
        if cycle % 2:
            order.reverse()
        for (transport, targets), group in order:
            if transport is not None:
                workload.transport = transport
            # Every traced-run pass uses stream 0, so traced and
            # untraced passes do the same work.
            if done:
                workload.prepare(0)
            if targets is None:
                result = workload.run_pass()
                group.add(result)
            else:
                before = dict(rec.counts)
                rec.reset_rows()
                lo = rec.mark()
                rec.install(targets)
                try:
                    result = workload.run_pass()
                finally:
                    rec.uninstall()
                hi = rec.mark()
                delta = {
                    k: v - before.get(k, 0.0) for k, v in rec.counts.items()
                }
                rows = delta.get("ml.rows", 0.0)
                group.add(
                    result, (lo, hi), delta,
                    rec.distinct_rows() / rows if rows else None,
                )
            checker.check(result, 0)
            result.decisions.clear()
            done.append(result)
    if fleet:
        fleet_untraced, fleet_traced, untraced, traced = groups
        report = per_layer_report(
            rec, setup_range, traced, untraced, fleet_traced, fleet_untraced,
            nodes=workload.size()["nodes"],
        )
    else:
        untraced, traced = groups
        report = per_layer_report(rec, setup_range, traced, untraced)
    return report, len(done), cycles * len(kinds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--min-passes", type=int, default=1,
                        help="passes made even past --max-seconds")
    parser.add_argument("--max-seconds", type=float, default=float("inf"),
                        help="start no pass projected to end past this")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="print the first pass's digests instead")
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed, args.cache_dir)
    rec = None
    if args.trace:
        from tracing import Recorder, all_targets

        rec = Recorder()
        rec.install(all_targets())
    try:
        workload.setup()
    finally:
        if rec is not None:
            rec.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.record:
        checker = Checker(workload, None)
        for stream in range(INPUT_STREAMS):
            if stream:
                workload.prepare(stream)
            checker.check(workload.run_pass(), stream)
        if checker.failures.failed:
            print("faults while recording the reference", file=sys.stderr)
            return 1
        digests = [checker.first_digests[s] for s in range(INPUT_STREAMS)]
        print(json.dumps({"digests": digests}), flush=True)
        return 0

    reference = load_reference(args.workload, args.seed)
    checker = Checker(workload, reference)
    out = {
        "reference": "checked" if reference is not None else "unchecked",
        "size": workload.size(),
        "loop": workload.loop,
    }
    if rec is None:
        workload.calibrator = Calibrator()
        for _ in range(workload.warmup_passes):
            result = workload.run_pass()
            checker.check(result, 0)
            result.decisions.clear()
            workload.prepare(0)
        results = []
        while len(results) < args.passes and (
            len(results) < args.min_passes
            or within_cap(results, args.max_seconds)
        ):
            stream = len(results) % INPUT_STREAMS
            if results:
                workload.prepare(stream)
            result = workload.run_pass()
            checker.check(result, stream)
            # Only the timings are kept, so the benchmark's own memory
            # does not grow with the pass count (peak_rss_mb).
            result.decisions.clear()
            results.append(result)
        out["metrics"], out["detail"] = end_to_end(workload, checker, results)
        out["passes"], out["planned"] = len(results), args.passes
    else:
        setup_range = (0, rec.mark())
        out["metrics"], out["passes"], out["planned"] = traced_run(
            workload, checker, args.passes, args.max_seconds, rec, setup_range
        )
        rec.dump(os.path.join(args.cache_dir, f"spans-{args.workload}.pkl"))
    out["attempted"] = checker.failures.attempted
    out["failed"] = checker.failures.failed
    out["failed_pct"] = checker.failures.failed_pct
    out["failure_reasons"] = checker.failures.reasons
    out["consistent"] = checker.consistent
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 25 --trace 0

Workloads are ``paper``, ``tenants`` and ``fleet`` (see
``perfbench/workloads.py`` and ``perfbench/design.json``).  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it prints the per-layer metrics of a traced run.  Either way the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every decision matched and no launch failed.

Set-up is measured in fresh processes, several times per run, from the
spawn until the worker reports the first launch ready.  Host times are
stated at the reference host speed (``perfbench/hostspeed.py``); the
measured values are printed beside them.  The Random
Forest is trained once per checkout into ``.bench_build/perfbench``
before anything is timed.  ``--record`` rewrites the stored reference
digests instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from typing import NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKER = os.path.join(HERE, "worker.py")
CACHE_DIR = os.path.join(".bench_build", "perfbench")
sys.path.insert(0, HERE)

from hostspeed import REF_BLOCK_S, Calibrator, HostClock  # noqa: E402
from stats import host_factors  # noqa: E402

#: Host seconds per pass a run is planned with, so that the pass count,
#: and with it the work and the latency sample count, is fixed by
#: ``--seconds``: at 25 s, 6 paper, 5 tenants and 33 fleet passes
#: (measured 4.0, 4.4 and 0.57 s per pass on the 2-vCPU sizing host).
PASS_SECONDS = {"paper": 4.0, "tenants": 5.0, "fleet": 0.76}

#: The fewest passes that keep each workload's tail at the percentile
#: of its planned run (p99.5, p90 and p99): a run makes at least these,
#: even past PASS_CAP, so a slow host changes no metric's definition.
MIN_PASSES = {"paper": 4, "tenants": 3, "fleet": 17}

#: Set-up samples per run, each in a process of its own.
SETUPS = 3

#: Calibration blocks run before and after each set-up sample.
SETUP_BLOCKS = 2

#: A run starts no pass that would take its timed passes past this
#: multiple of --seconds; only a host more than this much slower than
#: the sizing host hits it, and every run then still ends inside the
#: benchmark's time budget.
PASS_CAP = 1.3

#: Seeds whose decision digests are stored in reference.json.
REFERENCE_SEEDS = (0, 4242)

#: Per-process time limits, in seconds.
SETUP_TIMEOUT = 60
RUN_TIMEOUT = 150
TRAIN_TIMEOUT = 900


def fail(message: str, code: int = 2) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def host_speed_ms() -> float:
    """Median time of a fixed pure-Python loop (a host diagnostic).

    Printed beside the metrics to tell host drift from program change;
    never a metric and never used to scale one.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def worker_cmd(workload: str, seed: int, *extra: str) -> list:
    return [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--cache-dir", CACHE_DIR, *extra,
    ]


def ensure_forest() -> None:
    """Train the shipping forest into the cache once, before timing."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import forest_cache_file

    if forest_cache_file(CACHE_DIR) is not None:
        return
    print("perfbench: forest cache is cold; training it once (a few minutes)",
          file=sys.stderr, flush=True)
    # Train into a scratch directory and move the pickle in whole, so an
    # interrupted training never leaves a truncated cache behind.
    scratch = CACHE_DIR + ".training"
    shutil.rmtree(scratch, ignore_errors=True)
    code = (
        "import sys; sys.path.insert(0, 'src');"
        "from repro.hardware.apu import APUModel;"
        "from repro.ml.predictors import train_predictor;"
        f"train_predictor(apu=APUModel(), cache_dir={scratch!r})"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=TRAIN_TIMEOUT)
    trained = forest_cache_file(scratch)
    if trained is None:
        fail("training finished without writing the forest cache")
    os.replace(trained, os.path.join(CACHE_DIR, os.path.basename(trained)))
    shutil.rmtree(scratch)


def start_worker(cmd: list) -> tuple:
    """Spawn a worker; returns (process, seconds until it said READY)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = ""
    if select.select([proc.stdout], [], [], SETUP_TIMEOUT)[0]:
        line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        fail(f"worker did not finish set-up: {' '.join(cmd)}")
    return proc, ready


def finish_worker(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"worker exceeded {timeout} s")
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def measure_setups(workload: str, seed: int) -> tuple:
    """Set-up times of fresh processes: as measured, and as stated.

    Calibration blocks run in this process before and after each
    set-up sample, while no worker runs, and give each sample its
    factor to the reference speed.
    """
    host = HostClock(Calibrator())
    measured = []
    for i in range(SETUPS):
        for _ in range(SETUP_BLOCKS):
            host.calibrate(i)
        proc, ready = start_worker(worker_cmd(workload, seed, "--setup-only"))
        finish_worker(proc, SETUP_TIMEOUT)
        measured.append(ready)
    for _ in range(SETUP_BLOCKS):
        host.calibrate(SETUPS)
    factors = host_factors([(p, w) for p, w, _ in host.blocks], SETUPS,
                           REF_BLOCK_S)
    return measured, [m * f for m, f in zip(measured, factors)]


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def record_reference() -> int:
    """Rewrite reference.json from one pass per workload, seed and
    input stream."""
    stored = {}
    for workload in PASS_SECONDS:
        stored[workload] = {}
        for seed in REFERENCE_SEEDS:
            proc, _ = start_worker(
                worker_cmd(workload, seed, "--record")
            )
            stored[workload][str(seed)] = json.loads(
                finish_worker(proc, RUN_TIMEOUT)
            )["digests"]
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PASS_SECONDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the stored reference digests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        fail("run from the root of a checkout: src/repro is missing")
    os.makedirs(CACHE_DIR, exist_ok=True)
    # Whichever run comes first in a checkout builds the forest, so no
    # later run of any workload pays for it.
    ensure_forest()
    if args.record:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")

    host_before = host_speed_ms()
    passes = passes_for(args.workload, args.seconds)

    cap = PASS_CAP * args.seconds
    extra = ["--passes", str(passes), "--min-passes",
             str(min(passes, MIN_PASSES[args.workload])),
             "--max-seconds", str(cap)]
    if args.trace:
        extra.append("--trace")
        setups = stated_setups = []
    else:
        setups, stated_setups = measure_setups(args.workload, args.seed)
    proc, ready = start_worker(worker_cmd(args.workload, args.seed, *extra))
    result = json.loads(finish_worker(proc, RUN_TIMEOUT))
    host_after = host_speed_ms()

    metrics = dict(result["metrics"])
    detail = result.get("detail", {})
    if not args.trace:
        metrics["setup_s"] = statistics.median(stated_setups)
    correct = result["failed"] == 0 and result["consistent"]

    size = result["size"]
    planned = result["planned"]
    cut = "" if result["passes"] == planned else f" (time cap; {planned} planned)"
    print(f"workload {args.workload}  seed {args.seed}  passes {result['passes']}"
          f"{cut}  loop: {result['loop']}")
    print("size per pass: " + ", ".join(f"{k} {v}" for k, v in size.items()))
    print(f"reference: {result['reference']}"
          + ("" if result["reference"] == "checked"
             else f" (no stored digests for seed {args.seed}; passes on "
                  "the same input stream checked against each other only)"))
    print(f"launches attempted {result['attempted']}, failed {result['failed']} "
          f"(failed_pct {result['failed_pct']:.4f} %) "
          f"{result['failure_reasons'] or ''}")
    if detail:
        print(f"latency samples {detail['samples']}; tail at "
              f"p{detail['tail_percentile']:g} with {detail['tail_beyond']} "
              f"samples beyond it; timed {detail['timed_s']:.2f} s")
        if detail["startup_ms"]:
            print(f"node workers started in {detail['startup_ms']:.2f} ms "
                  "per pass (median; in wall time, not in a latency sample)")
        scales = detail["host_scale"]
        print(f"host scale per pass (reference / measured speed): min "
              f"{min(scales):.3f}, median {statistics.median(scales):.3f}, "
              f"max {max(scales):.3f}")
    if not args.trace:
        print("setup samples s (measured): "
              + ", ".join(f"{s:.4f}" for s in setups)
              + f"; measured run's own {ready:.4f}")
    print(f"host speed (fixed loop, ms): before {host_before:.2f}, "
          f"after {host_after:.2f}")
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        fail("measured metrics differ from BENCHMARK.json: "
             f"{sorted(set(units) ^ set(metrics))}")
    measured = dict(detail.get("measured", {}))
    if setups:
        measured["setup_s"] = statistics.median(setups)
    for name in sorted(metrics):
        line = f"  {name:40s} {metrics[name]:.6g} {units[name]}"
        if name in measured:
            line += f"  (measured {measured[name]:.6g})"
        print(line)

    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(line))
    return 0 if correct else 1


def declared_units(section: str) -> dict:
    """Metric name to unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[section]}


if __name__ == "__main__":
    sys.exit(main())

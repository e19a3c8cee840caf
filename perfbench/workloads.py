"""The benchmark's three closed-loop workloads.

Each workload is built from a seed, hands the program only the
generated launch events, and runs in *passes*.  A pass is one complete,
deterministic execution of the workload on freshly built sessions with
one of the seed's ``INPUT_STREAMS`` input streams, so passes on
the same stream make exactly the same decisions, and the run's
``sim_*`` metrics are the totals of its first pass, on stream 0.
Sessions for the next pass are built before its timed region starts;
the first pass's build is part of set-up.

One driver feeds each workload, and the next launch, batch or epoch is
sent only when the previous one has returned (a closed loop):

* ``paper``: the 15 Table-IV applications, one MPC session each on the
  shipping Random Forest, streamed one launch at a time through
  ``SessionManager.dispatch`` with no-op observability.  One latency
  sample is one ``dispatch`` call.
* ``tenants``: several MPC sessions per application sharing one forest,
  interleaved round-robin into ``SessionManager.step_batch`` calls with
  live metrics, tracing and health monitoring.  One sample is one
  ``step_batch`` call.
* ``fleet``: the ``repro bench fleet`` serverless trace on two
  process-transport nodes under the tight cap, through
  ``FleetSimulator.run``.  One sample is one budget epoch, delimited
  from outside at the simulator allocator's per-epoch ``apportion``;
  the first starts once the node workers are up.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import os
import resource
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.manager import MPCPowerManager
from repro.experiments import bench_fleet
from repro.fleet import FleetSimulator
from repro.fleet import node as fleet_node
from repro.fleet.shard import ShardError
from repro.hardware.apu import APUModel
from repro.ml.predictors import train_predictor
from repro.obs import make_instrumentation
from repro.runtime.events import KernelLaunch
from repro.runtime.manager import SessionManager
from repro.runtime.session import SessionStats
from repro.sim.simulator import OverheadModel
from repro.workloads.counters import CounterSynthesizer
from repro.workloads.suites import BENCHMARK_NAMES, benchmark
from repro.workloads.traces import replay
from repro.workloads.traces.format import RecordedDecision, Trace, TraceEvent
from repro.workloads.traces.replay import outcome_decision

from hostspeed import Calibrator, HostClock

__all__ = [
    "DEFAULT_SEED",
    "INPUT_STREAMS",
    "PassResult",
    "WORKLOADS",
    "Workload",
    "counter_seed",
    "forest_cache_file",
    "cpu_now",
    "make_workload",
]

#: The seed whose inputs are the repository defaults.
DEFAULT_SEED = 0

#: The counter synthesizer's default noise seed, reached at DEFAULT_SEED.
_DEFAULT_COUNTER_SEED = CounterSynthesizer().seed

#: Fleet size: one node per vCPU of the host the benchmark was sized on.
FLEET_NODES = 2

#: Dispatched launches per fleet budget epoch.
FLEET_EPOCH_LAUNCHES = 32

#: Samples between calibration blocks (``hostspeed``), per workload:
#: a block of about 8 ms every 0.1 to 0.3 s of timed work.
CALIBRATE_EVERY = {"paper": 32, "tenants": 1, "fleet": 16}


#: Input streams per workload seed: counter noise on every workload,
#: and the arrival schedule on ``fleet``.  Pass ``p`` of a run uses
#: stream ``p % INPUT_STREAMS``, so a run's times average over several
#: streams (one stream's decisions can cost 15 % more or less than
#: another's) and, with more passes than streams, passes that share a
#: stream are checked against each other.
INPUT_STREAMS = 5

#: Distance between the seeds of one workload seed's streams.
_STREAM_STRIDE = 1_000_003


def stream_seed(seed: int, stream: int = 0) -> int:
    """The seed of a workload seed's input stream (stream 0: the seed)."""
    return seed + _STREAM_STRIDE * stream


def counter_seed(seed: int, stream: int = 0) -> int:
    """The counter-noise seed of a workload seed's stream.

    Stream 0 of seed 0 is the repository default.
    """
    return _DEFAULT_COUNTER_SEED + stream_seed(seed, stream)


def forest_cache_file(cache_dir: str) -> Optional[str]:
    """The shipping forest's pickle in ``cache_dir``, if it is there.

    ``train_predictor`` loads from the cache when the file exists and
    trains otherwise; the benchmark never lets it train inside a timed
    run, so it looks for the file first.
    """
    matches = sorted(glob.glob(os.path.join(cache_dir, "rf_predictor_*.pkl")))
    return matches[0] if matches else None


def _children_cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime + _children_cpu()


@dataclass
class PassResult:
    """What one pass did, as seen from outside the program."""

    launches: int
    wall_s: float
    cpu_s: float
    samples_s: List[float]
    decisions: Dict[str, List[RecordedDecision]]
    fault_launches: Dict[str, int]
    shard_error: Optional[str] = None
    #: CPU time of reaped fleet node workers (0 elsewhere).
    workers_cpu_s: float = 0.0
    #: Calibration blocks as ``(position, wall s, CPU s)``; empty when
    #: the pass ran without them.  Block time is not in wall_s or cpu_s.
    host_blocks: List[Tuple[int, float, float]] = field(default_factory=list)
    #: Time to start fleet node workers, before the first epoch (0
    #: elsewhere); part of wall_s, not of any latency sample.
    startup_s: float = 0.0


class Workload:
    """One benchmark workload: set-up once, then any number of passes."""

    name = ""
    loop = ""
    #: Untimed passes run on stream 0 before the timed ones.
    warmup_passes = 0

    def __init__(self, seed: int, cache_dir: str) -> None:
        self.seed = seed
        self.cache_dir = cache_dir
        #: When set, passes run calibration blocks between samples.
        self.calibrator: Optional[Calibrator] = None

    def host_clock(self) -> HostClock:
        return HostClock(self.calibrator)

    def setup(self) -> None:
        """Build everything the first pass needs (timed as set-up)."""
        raise NotImplementedError

    def prepare(self, stream: int = 0) -> None:
        """Build fresh sessions for the next pass (outside timing).

        ``stream`` picks the pass's input stream.
        """
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        """Run the prepared pass; only the launch loop is timed."""
        raise NotImplementedError

    def size(self) -> Dict[str, Any]:
        """Sessions, launches and latency samples of one pass."""
        raise NotImplementedError

    def session_launches(self) -> Dict[str, int]:
        """Launches each session makes in one pass."""
        raise NotImplementedError


def _fault_launches(stats: Dict[str, SessionStats],
                    decisions: Dict[str, List[RecordedDecision]]) -> Dict[str, int]:
    """Per-session launches that fell back or whose observe raised."""
    return {
        sid: sum(1 for d in decisions.get(sid, ()) if d.fallback)
        + session.observe_failures
        for sid, session in stats.items()
    }


class _TableIVWorkload(Workload):
    """Shared set-up of the two Table-IV workloads."""

    #: Invocations per session per pass: one profiling, then steady ones.
    invocations = 0
    #: When set, every session instead runs invocations back to back
    #: and stops after this many launches, so all streams are equal.
    launches_per_session: Optional[int] = None
    #: Sessions per Table-IV application.
    sessions_per_app = 1

    def setup(self) -> None:
        self.apu = APUModel()
        self.overhead = OverheadModel()
        if forest_cache_file(self.cache_dir) is None:
            raise RuntimeError(
                f"forest cache in {self.cache_dir!r} is cold; the benchmark "
                "trains it before set-up starts"
            )
        self.forest = train_predictor(apu=self.apu, cache_dir=self.cache_dir)
        self.apps = []
        cut = self.launches_per_session
        for name in BENCHMARK_NAMES:
            invocations = self.invocations
            if cut is not None:
                invocations = -(-cut // len(benchmark(name).kernels))
            # Called through its module so the traced run's wrapper
            # (installed on the module) sees the call.
            trace = replay.trace_from_benchmark(
                name, invocations=invocations, predictor="forest"
            )
            (spec,) = trace.header.sessions
            self.apps.append((name, spec.policy, trace.events[:cut]))
        self.session_events = {}
        for name, _policy, events in self.apps:
            for copy in range(self.sessions_per_app):
                sid = self._session_id(name, copy)
                self.session_events[sid] = [
                    KernelLaunch(index=e.index, spec=e.spec, session_id=sid)
                    for e in events
                ]
        self.prepare()

    def _session_id(self, app: str, copy: int) -> str:
        return app if self.sessions_per_app == 1 else f"{app}#{copy}"

    def _obs(self) -> Any:
        return None

    def prepare(self, stream: int = 0) -> None:
        obs = self._obs()
        self.manager = SessionManager(
            apu=self.apu,
            counters=CounterSynthesizer(seed=counter_seed(self.seed, stream)),
            overhead=self.overhead,
            isolate_faults=True,
            obs=obs,
        )
        for name, policy, _events in self.apps:
            for copy in range(self.sessions_per_app):
                self.manager.add_session(
                    self._session_id(name, copy),
                    MPCPowerManager(
                        policy.target_throughput,
                        self.forest,
                        alpha=policy.alpha,
                        adaptive_horizon=policy.adaptive_horizon,
                        overhead_model=self.overhead,
                        obs=obs,
                    ),
                    app_name=name,
                )

    def _result(self, outcomes: List[Any], wall_s: float, cpu_s: float,
                samples: List[float], host: HostClock) -> PassResult:
        decisions: Dict[str, List[RecordedDecision]] = {}
        for outcome in outcomes:
            decisions.setdefault(outcome.session_id, []).append(
                outcome_decision(outcome)
            )
        return PassResult(
            launches=len(outcomes),
            wall_s=wall_s,
            cpu_s=cpu_s,
            samples_s=samples,
            decisions=decisions,
            fault_launches=_fault_launches(self.manager.stats(), decisions),
            host_blocks=host.blocks,
        )

    def session_launches(self) -> Dict[str, int]:
        return {sid: len(v) for sid, v in self.session_events.items()}

    def size(self) -> Dict[str, Any]:
        launches = sum(len(v) for v in self.session_events.values())
        out: Dict[str, Any] = {
            "sessions": len(self.session_events),
            "launches": launches,
        }
        if self.launches_per_session is None:
            out["invocations_per_session"] = self.invocations
        else:
            out["launches_per_session"] = self.launches_per_session
        return out


class PaperWorkload(_TableIVWorkload):
    """The paper's single-APU setting, one launch at a time."""

    name = "paper"
    loop = "closed, 1 driver, one dispatch call at a time"
    invocations = 3

    def setup(self) -> None:
        super().setup()
        # The paper's APU runs one application at a time: each session
        # streams all of its invocations before the next app starts.
        self.stream = [
            event for events in self.session_events.values() for event in events
        ]

    def run_pass(self) -> PassResult:
        dispatch = self.manager.dispatch
        clock = time.perf_counter
        host = self.host_clock()
        every = CALIBRATE_EVERY[self.name]
        outcomes = []
        samples = []
        cpu = cpu_now()
        start = clock()
        for i, event in enumerate(self.stream):
            if i % every == 0:
                host.calibrate(i)
            t0 = clock()
            outcomes.append(dispatch(event))
            samples.append(clock() - t0)
        wall = clock() - start
        cpu = cpu_now() - cpu
        # Blocks inside the timed region are taken out of it; the
        # closing one runs after it.
        spent_wall, spent_cpu = host.spent()
        host.calibrate(len(samples))
        return self._result(outcomes, wall - spent_wall, cpu - spent_cpu,
                            samples, host)

    def size(self) -> Dict[str, Any]:
        out = super().size()
        out["latency_samples"] = out["launches"]
        return out


class TenantsWorkload(_TableIVWorkload):
    """Several sessions per app, batched round-robin through step_batch."""

    name = "tenants"
    loop = "closed, 1 driver, one step_batch call at a time"
    launches_per_session = 36
    sessions_per_app = 2

    def setup(self) -> None:
        super().setup()
        streams = list(self.session_events.values())
        self.batches = [list(batch) for batch in zip(*streams)]

    def _obs(self) -> Any:
        # The trace replayer's configuration: live registry and tracer
        # plus the model-health monitor.
        return make_instrumentation(health=True)

    def run_pass(self) -> PassResult:
        step_batch = self.manager.step_batch
        clock = time.perf_counter
        host = self.host_clock()
        every = CALIBRATE_EVERY[self.name]
        outcomes: List[Any] = []
        samples = []
        cpu = cpu_now()
        start = clock()
        for i, batch in enumerate(self.batches):
            if i % every == 0:
                host.calibrate(i)
            t0 = clock()
            outcomes.extend(step_batch(batch))
            samples.append(clock() - t0)
        wall = clock() - start
        cpu = cpu_now() - cpu
        # Blocks inside the timed region are taken out of it; the
        # closing one runs after it.
        spent_wall, spent_cpu = host.spent()
        host.calibrate(len(samples))
        return self._result(outcomes, wall - spent_wall, cpu - spent_cpu,
                            samples, host)

    def size(self) -> Dict[str, Any]:
        out = super().size()
        out["latency_samples"] = len(self.batches)
        return out


@contextlib.contextmanager
def seeded_fleet_counters(noise_seed: int) -> Iterator[None]:
    """Give fleet nodes a pass's counter-noise seed.

    ``FleetNode`` builds its own ``CounterSynthesizer`` with the default
    seed and the simulator takes no synthesizer, so the benchmark swaps
    the class the node module builds from; forked shard workers inherit
    the swap.  At the default seed nothing changes.
    """
    original = fleet_node.CounterSynthesizer
    fleet_node.CounterSynthesizer = functools.partial(original, seed=noise_seed)
    try:
        yield
    finally:
        fleet_node.CounterSynthesizer = original


class FleetWorkload(Workload):
    """The serverless trace on two worker-process nodes, tight cap."""

    name = "fleet"
    loop = "closed, 1 driver, one 32-launch budget epoch at a time"
    transport = "process"
    # The first run in a process starts its workers about twice as
    # slowly as later ones (one-time lazy set-up in the parent).
    warmup_passes = 1

    def setup(self) -> None:
        # Each stream's seed picks an arrival schedule; the kernel pair
        # and its Turbo Core target stay the default seed's, so every
        # stream runs the same sessions and launches in another order.
        base = bench_fleet.bench_trace(DEFAULT_SEED, quick=True)
        kernels = {spec.name: spec for spec in base.unique_kernels("fn-0")}
        self.traces = []
        for stream in range(INPUT_STREAMS):
            seed = stream_seed(self.seed, stream)
            arrivals = bench_fleet.bench_trace(seed, quick=True)
            self.traces.append(Trace(
                header=replace(base.header, seed=seed),
                events=tuple(
                    TraceEvent(index=e.index, session=e.session,
                               spec=kernels[e.spec.name])
                    for e in arrivals.events
                ),
            ).ensure_valid())
        self.cap_w = (
            bench_fleet.CAP_FRACTIONS["tight"] * APUModel().tdp_w * FLEET_NODES
        )
        self.prepare()

    def prepare(self, stream: int = 0) -> None:
        self.trace = self.traces[stream]
        self.noise_seed = counter_seed(self.seed, stream)
        self.sim = FleetSimulator(
            self.trace,
            nodes=FLEET_NODES,
            cap_w=self.cap_w,
            epoch_launches=FLEET_EPOCH_LAUNCHES,
            transport=self.transport,
        )

    def run_pass(self) -> PassResult:
        clock = time.perf_counter
        allocator = self.sim.allocator
        apportion = allocator.apportion
        build_shards = self.sim._build_shards
        host = self.host_clock()
        every = CALIBRATE_EVERY[self.name]
        # Sample k runs from starts[k] to ends[k]; a calibration block
        # between two epochs falls between an end and the next start.
        starts: List[float] = []
        ends: List[float] = []

        def timed_build_shards(stack: Any) -> Any:
            # The first epoch starts once the node workers are up.
            # Starting them (a shared-memory export and two forks) is
            # kernel work whose time moved by a quarter between runs of
            # the same code, unseen by the calibration blocks; it stays
            # in the pass's wall and CPU time, not in a latency sample.
            shards = build_shards(stack)
            starts[0] = clock()
            return shards

        def timed_apportion(demands: Any) -> Any:
            ends.append(clock())
            if len(ends) % every == 0:
                host.calibrate(len(ends))
            starts.append(clock())
            return apportion(demands)

        allocator.apportion = timed_apportion
        self.sim._build_shards = timed_build_shards
        error = None
        report = None
        host.calibrate(0)
        spent_wall, spent_cpu = host.spent()
        cpu = cpu_now()
        workers = _children_cpu()
        start = clock()
        starts.append(start)
        try:
            with seeded_fleet_counters(self.noise_seed):
                report = self.sim.run()
        except ShardError as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            del allocator.apportion
            del self.sim._build_shards
        wall = clock() - start
        startup = starts[0] - start
        cpu = cpu_now() - cpu
        workers = _children_cpu() - workers
        samples = [b - a for a, b in zip(starts, ends)]
        # Only the blocks between epochs ran inside the timed region.
        inner_wall, inner_cpu = host.spent()
        wall -= inner_wall - spent_wall
        cpu -= inner_cpu - spent_cpu
        host.calibrate(len(samples))
        if report is None:
            return PassResult(
                launches=len(self.trace.events), wall_s=wall, cpu_s=cpu,
                samples_s=samples, decisions={}, fault_launches={},
                shard_error=error, host_blocks=host.blocks,
            )
        return PassResult(
            launches=report.launches(),
            wall_s=wall,
            cpu_s=cpu,
            samples_s=samples,
            decisions=dict(report.decisions),
            fault_launches=_fault_launches(report.stats, report.decisions),
            workers_cpu_s=workers,
            host_blocks=host.blocks,
            startup_s=startup,
        )

    def session_launches(self) -> Dict[str, int]:
        return {
            sid: len(self.trace.events_for(sid))
            for sid in self.trace.session_ids()
        }

    def size(self) -> Dict[str, Any]:
        launches = len(self.trace.events)
        return {
            "sessions": len(self.trace.session_ids()),
            "launches": launches,
            "latency_samples": -(-launches // FLEET_EPOCH_LAUNCHES),
            "nodes": FLEET_NODES,
        }


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "paper": PaperWorkload,
    "tenants": TenantsWorkload,
    "fleet": FleetWorkload,
}


def make_workload(name: str, seed: int, cache_dir: str) -> Workload:
    """The named workload, not yet set up."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        ) from None
    return factory(seed, cache_dir)

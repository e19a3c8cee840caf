"""The versioned JSONL kernel-launch trace format.

A trace file is one JSON object per line, keys sorted (the same
byte-comparability convention as the observability JSONL traces, see
``docs/trace.schema.json``):

* line 1 is the **header** record: schema version, trace identity, the
  hosting environment (``enforce_tdp``), the session roster (one
  :class:`SessionSpec` per concurrent application, each naming its
  policy via a :class:`PolicySpec`), and the trace's machine-checkable
  :class:`CoverageAssertion` list;
* every following line is a **launch** record: the event's position and
  session, the full ground-truth :class:`~repro.workloads.kernel.KernelSpec`
  of the kernel being launched and, optionally, the **recorded
  decision** a previous replay produced for it — configuration, exact
  measured times/energies, horizon, fail-safe provenance — which
  :class:`~repro.workloads.traces.replay.TraceReplayer` re-checks
  float-for-float.

The structural contract is mirrored by ``docs/kernel_trace.schema.json``
(validated by ``repro trace validate``); :meth:`Trace.validate` adds the
semantic checks a per-line schema cannot express (index contiguity,
session routing, the same-key/same-spec kernel identity invariant).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.hardware.config import HardwareConfig
from repro.runtime.events import KernelLaunch
from repro.workloads.app import Application, Category
from repro.workloads.kernel import KernelSpec, ScalingClass

__all__ = [
    "ASSERTION_METRICS",
    "ASSERTION_OPS",
    "GLOBAL_ONLY_METRICS",
    "POLICY_KINDS",
    "PREDICTOR_KINDS",
    "TRACE_SCHEMA",
    "CoverageAssertion",
    "PolicySpec",
    "RecordedDecision",
    "SessionSpec",
    "Trace",
    "TraceEvent",
    "TraceHeader",
    "kernel_from_dict",
    "kernel_to_dict",
]

#: Bump when the trace file layout changes.
TRACE_SCHEMA = 1

#: Policy kinds a session spec may name.
POLICY_KINDS = ("mpc", "ppk", "turbo", "fixed")

#: Predictor backends a policy spec may request.
PREDICTOR_KINDS = ("oracle", "forest")

#: Comparison operators coverage assertions may use.
ASSERTION_OPS = (">=", "<=", "==", "!=", ">", "<")

#: Metrics coverage assertions may reference.  The first block comes
#: from per-session :class:`~repro.runtime.session.SessionStats`; the
#: second is derived from outcomes or read from the replay's metrics
#: registry; the ``health_*`` block reads the replay's model-health
#: monitor (:mod:`repro.obs.health`): drift events fired, the
#: session-local decision ordinal of the first drift (``inf`` when
#: none — assert with ``<=``), the final state level (0 healthy /
#: 1 degraded / 2 untrusted; worst across sessions for ``"*"``), and
#: state-machine transitions.
ASSERTION_METRICS = (
    "launches",
    "runs",
    "model_evaluations",
    "fail_safe_decisions",
    "fail_safe_fallbacks",
    "fail_safe_total",
    "observe_failures",
    "distinct_configs",
    "sessions",
    "ppk_decisions",
    "mpc_decisions",
    "skip_decisions",
    "pattern_misses",
    "tdp_throttles",
    "health_drift_events",
    "health_first_drift_decision",
    "health_final_state",
    "health_transitions",
)

#: Registry-backed metrics whose counters carry no ``session`` label
#: (the MPC manager does not know its hosting session), so assertions
#: on them must target the whole trace (``session == "*"``).
GLOBAL_ONLY_METRICS = frozenset(
    {"ppk_decisions", "mpc_decisions", "skip_decisions", "pattern_misses", "sessions"}
)

#: KernelSpec fields serialized per launch record, in declaration order.
_KERNEL_FIELDS = (
    "name",
    "scaling_class",
    "compute_work",
    "memory_traffic",
    "parallel_fraction",
    "serial_time_s",
    "cache_interference",
    "cache_sweet_spot_cu",
    "compute_efficiency",
    "instructions",
    "activity_factor",
    "input_id",
)


def kernel_to_dict(spec: KernelSpec) -> Dict[str, Any]:
    """A kernel spec as a JSON-able dict, one key per field (lossless)."""
    payload = {name: getattr(spec, name) for name in _KERNEL_FIELDS}
    payload["scaling_class"] = spec.scaling_class.value
    return payload


def kernel_from_dict(payload: Dict[str, Any]) -> KernelSpec:
    """Rebuild a kernel spec from :func:`kernel_to_dict` output.

    ``instructions`` round-trips exactly: serialized values are always
    positive (the dataclass derives a positive default), so
    ``__post_init__`` never recomputes them on load.
    """
    unknown = set(payload) - set(_KERNEL_FIELDS)
    if unknown:
        raise ValueError(f"unknown kernel fields: {sorted(unknown)}")
    kwargs = dict(payload)
    kwargs["scaling_class"] = ScalingClass(kwargs["scaling_class"])
    return KernelSpec(**kwargs)


@dataclass(frozen=True)
class RecordedDecision:
    """What a previous replay decided and measured for one launch.

    Mirrors the measured side of
    :class:`~repro.sim.trace.LaunchRecord` plus the runtime's
    ``fallback`` provenance, so a checking replay can compare its own
    outcome float-for-float.
    """

    config: HardwareConfig
    time_s: float
    gpu_energy_j: float
    cpu_energy_j: float
    overhead_time_s: float = 0.0
    overhead_gpu_energy_j: float = 0.0
    overhead_cpu_energy_j: float = 0.0
    horizon: int = 0
    fail_safe: bool = False
    fallback: bool = False

    def as_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config.as_dict(),
            "time_s": self.time_s,
            "gpu_energy_j": self.gpu_energy_j,
            "cpu_energy_j": self.cpu_energy_j,
            "overhead_time_s": self.overhead_time_s,
            "overhead_gpu_energy_j": self.overhead_gpu_energy_j,
            "overhead_cpu_energy_j": self.overhead_cpu_energy_j,
            "horizon": self.horizon,
            "fail_safe": self.fail_safe,
            "fallback": self.fallback,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RecordedDecision":
        kwargs = dict(payload)
        kwargs["config"] = HardwareConfig.from_dict(kwargs["config"])
        return cls(**kwargs)


@dataclass(frozen=True)
class TraceEvent:
    """One launch line: a kernel-launch event, optionally with its
    recorded decision."""

    index: int
    session: str
    spec: KernelSpec
    decision: Optional[RecordedDecision] = None

    def as_launch(self) -> KernelLaunch:
        """The runtime event this line replays as."""
        return KernelLaunch(index=self.index, spec=self.spec, session_id=self.session)

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "record": "launch",
            "index": self.index,
            "session": self.session,
            "kernel": kernel_to_dict(self.spec),
        }
        if self.decision is not None:
            payload["decision"] = self.decision.as_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceEvent":
        decision = payload.get("decision")
        return cls(
            index=payload["index"],
            session=payload["session"],
            spec=kernel_from_dict(payload["kernel"]),
            decision=(
                RecordedDecision.from_dict(decision) if decision is not None else None
            ),
        )


@dataclass(frozen=True)
class PolicySpec:
    """How to rebuild a session's policy at replay time.

    ``target_throughput`` is stored as an explicit rate (computed once
    when the trace is recorded or generated), never recomputed on
    replay, so the policy a replayer builds is bit-identical to the one
    the trace was captured against.
    """

    kind: str
    target_throughput: float = 0.0
    alpha: float = 0.05
    adaptive_horizon: bool = True
    predictor: str = "oracle"
    config: Optional[HardwareConfig] = None

    def validate(self) -> List[str]:
        problems = []
        if self.kind not in POLICY_KINDS:
            problems.append(f"unknown policy kind {self.kind!r}")
        if self.predictor not in PREDICTOR_KINDS:
            problems.append(f"unknown predictor {self.predictor!r}")
        if self.kind in ("mpc", "ppk") and self.target_throughput <= 0:
            problems.append(
                f"policy {self.kind!r} needs a positive target_throughput"
            )
        if self.kind == "fixed" and self.config is None:
            problems.append("policy 'fixed' needs a config")
        return problems

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "target_throughput": self.target_throughput,
            "alpha": self.alpha,
            "adaptive_horizon": self.adaptive_horizon,
            "predictor": self.predictor,
        }
        if self.config is not None:
            payload["config"] = self.config.as_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PolicySpec":
        kwargs = dict(payload)
        if "config" in kwargs:
            kwargs["config"] = HardwareConfig.from_dict(kwargs["config"])
        return cls(**kwargs)


@dataclass(frozen=True)
class SessionSpec:
    """One concurrent application stream and the policy hosting it."""

    session_id: str
    app_name: str
    policy: PolicySpec
    charge_overhead: bool = True

    def as_dict(self) -> Dict[str, Any]:
        return {
            "session_id": self.session_id,
            "app_name": self.app_name,
            "policy": self.policy.as_dict(),
            "charge_overhead": self.charge_overhead,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SessionSpec":
        kwargs = dict(payload)
        kwargs["policy"] = PolicySpec.from_dict(kwargs["policy"])
        return cls(**kwargs)


@dataclass(frozen=True)
class CoverageAssertion:
    """A machine-checkable claim about what a replay must exercise.

    Examples: ``ppk_decisions >= 12`` ("the pattern extractor must
    enter fallback at least 12 times"), ``tdp_throttles >= 1`` ("the
    TDP throttle must engage").  ``session`` scopes per-session metrics
    to one stream; ``"*"`` aggregates the whole trace.
    """

    metric: str
    op: str
    value: float
    session: str = "*"

    def check(self, measured: float) -> bool:
        """Whether ``measured`` satisfies this assertion."""
        if self.op == ">=":
            return measured >= self.value
        if self.op == "<=":
            return measured <= self.value
        if self.op == "==":
            return measured == self.value
        if self.op == "!=":
            return measured != self.value
        if self.op == ">":
            return measured > self.value
        if self.op == "<":
            return measured < self.value
        raise ValueError(f"unknown assertion op {self.op!r}")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "op": self.op,
            "value": self.value,
            "session": self.session,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CoverageAssertion":
        return cls(**payload)

    def __str__(self) -> str:
        scope = "" if self.session == "*" else f"[{self.session}]"
        return f"{self.metric}{scope} {self.op} {self.value:g}"


@dataclass(frozen=True)
class TraceHeader:
    """Line 1 of a trace file: identity, environment, roster, contract."""

    name: str
    schema: int = TRACE_SCHEMA
    source: str = ""
    seed: Optional[int] = None
    enforce_tdp: bool = False
    sessions: Tuple[SessionSpec, ...] = ()
    assertions: Tuple[CoverageAssertion, ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "record": "header",
            "schema": self.schema,
            "name": self.name,
            "source": self.source,
            "seed": self.seed,
            "enforce_tdp": self.enforce_tdp,
            "sessions": [spec.as_dict() for spec in self.sessions],
            "assertions": [a.as_dict() for a in self.assertions],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceHeader":
        return cls(
            name=payload["name"],
            schema=payload["schema"],
            source=payload.get("source", ""),
            seed=payload.get("seed"),
            enforce_tdp=payload.get("enforce_tdp", False),
            sessions=tuple(
                SessionSpec.from_dict(s) for s in payload.get("sessions", ())
            ),
            assertions=tuple(
                CoverageAssertion.from_dict(a) for a in payload.get("assertions", ())
            ),
        )


@dataclass(frozen=True)
class Trace:
    """A complete kernel-launch trace: header plus event lines.

    The event order *is* the trace: for multi-session traces the
    interleaving of lines across sessions is the arrival schedule the
    replayer reproduces.
    """

    header: TraceHeader
    events: Tuple[TraceEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    # ----- queries ---------------------------------------------------------

    def session_ids(self) -> List[str]:
        """Declared session ids, in roster order."""
        return [spec.session_id for spec in self.header.sessions]

    def session(self, session_id: str) -> SessionSpec:
        """The declared spec of one session."""
        for spec in self.header.sessions:
            if spec.session_id == session_id:
                return spec
        raise KeyError(f"trace declares no session {session_id!r}")

    def events_for(self, session_id: str) -> List[TraceEvent]:
        """This session's events, in trace order."""
        return [e for e in self.events if e.session == session_id]

    def launch_events(self) -> Iterator[KernelLaunch]:
        """The trace as a runtime event stream, in trace order."""
        for event in self.events:
            yield event.as_launch()

    def unique_kernels(self, session_id: str) -> List[KernelSpec]:
        """Distinct (kernel, input) identities one session launches."""
        seen: Dict[str, KernelSpec] = {}
        for event in self.events_for(session_id):
            seen.setdefault(event.spec.key, event.spec)
        return list(seen.values())

    def applications(self, session_id: str) -> List[Application]:
        """One :class:`Application` per invocation of one session.

        This is the batch-driver view of the stream: each ``index == 0``
        event opens a new invocation, exactly as
        :meth:`~repro.runtime.session.SessionRuntime.process` does.
        """
        spec = self.session(session_id)
        invocations: List[List[KernelSpec]] = []
        for event in self.events_for(session_id):
            if event.index == 0:
                invocations.append([])
            invocations[-1].append(event.spec)
        return [
            Application(
                spec.app_name,
                "trace",
                Category.IRREGULAR_NON_REPEATING,
                kernels=tuple(kernels),
            )
            for kernels in invocations
        ]

    def with_decisions(
        self, decisions: List[Optional[RecordedDecision]]
    ) -> "Trace":
        """A copy of this trace with one recorded decision per event."""
        if len(decisions) != len(self.events):
            raise ValueError(
                f"{len(decisions)} decisions for {len(self.events)} events"
            )
        stamped = tuple(
            TraceEvent(e.index, e.session, e.spec, decision)
            for e, decision in zip(self.events, decisions)
        )
        return Trace(header=self.header, events=stamped)

    # ----- semantic validation --------------------------------------------

    def validate(self) -> List[str]:
        """Semantic problems a per-line schema cannot express.

        Checks schema version, the session roster, per-session index
        contiguity (every invocation starts at 0 and counts up), the
        same-key/same-spec kernel identity invariant
        (:class:`~repro.workloads.app.Application` enforces the same
        rule per invocation; traces enforce it per session so oracle
        predictors stay well-defined), and assertion well-formedness.
        """
        problems: List[str] = []
        if self.header.schema != TRACE_SCHEMA:
            problems.append(
                f"unsupported trace schema {self.header.schema!r} "
                f"(supported: {TRACE_SCHEMA})"
            )
            return problems
        if not self.header.name:
            problems.append("trace name must be non-empty")
        if not self.header.sessions:
            problems.append("trace declares no sessions")
        declared = set()
        for spec in self.header.sessions:
            if not spec.session_id:
                problems.append("session_id must be non-empty")
            if spec.session_id in declared:
                problems.append(f"duplicate session {spec.session_id!r}")
            declared.add(spec.session_id)
            for problem in spec.policy.validate():
                problems.append(f"session {spec.session_id!r}: {problem}")
        if not self.events:
            problems.append("trace has no launch events")

        cursor: Dict[str, int] = {}
        specs_by_key: Dict[str, Dict[str, KernelSpec]] = {}
        for position, event in enumerate(self.events):
            where = f"event {position} (session {event.session!r})"
            if event.session not in declared:
                problems.append(f"{where}: session not declared in header")
                continue
            expected = cursor.get(event.session)
            if expected is None and event.index != 0:
                problems.append(
                    f"{where}: first launch has index {event.index}, expected 0"
                )
            elif expected is not None and event.index not in (0, expected):
                problems.append(
                    f"{where}: out-of-order index {event.index}, "
                    f"expected {expected} (or 0 to start a new invocation)"
                )
            cursor[event.session] = event.index + 1
            known = specs_by_key.setdefault(event.session, {})
            first = known.setdefault(event.spec.key, event.spec)
            if first != event.spec:
                problems.append(
                    f"{where}: kernel key {event.spec.key!r} bound to two "
                    "different specs; give distinct inputs distinct input_id "
                    "values"
                )
        for session_id in declared:
            if session_id not in cursor:
                problems.append(f"session {session_id!r} has no launch events")

        for assertion in self.header.assertions:
            if assertion.metric not in ASSERTION_METRICS:
                problems.append(
                    f"assertion {assertion}: unknown metric {assertion.metric!r}"
                )
            if assertion.op not in ASSERTION_OPS:
                problems.append(
                    f"assertion {assertion}: unknown op {assertion.op!r}"
                )
            if assertion.session != "*" and assertion.session not in declared:
                problems.append(
                    f"assertion {assertion}: unknown session "
                    f"{assertion.session!r}"
                )
            if (
                assertion.metric in GLOBAL_ONLY_METRICS
                and assertion.session != "*"
            ):
                problems.append(
                    f"assertion {assertion}: metric {assertion.metric!r} has "
                    "no per-session counter; use session '*'"
                )
        return problems

    def ensure_valid(self) -> "Trace":
        """Raise :class:`ValueError` listing every semantic problem."""
        problems = self.validate()
        if problems:
            raise ValueError(
                f"invalid trace {self.header.name!r}:\n  " + "\n  ".join(problems)
            )
        return self

    # ----- serialization ---------------------------------------------------

    def dumps(self) -> str:
        """The trace as JSONL text (sorted keys: byte-stable)."""
        lines = [json.dumps(self.header.as_dict(), sort_keys=True)]
        lines.extend(
            json.dumps(event.as_dict(), sort_keys=True) for event in self.events
        )
        return "\n".join(lines) + "\n"

    def dump(self, path: str) -> str:
        """Write the trace to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())
        return path

    @classmethod
    def loads(cls, text: str) -> "Trace":
        """Parse JSONL trace text (inverse of :meth:`dumps`)."""
        header: Optional[TraceHeader] = None
        events: List[TraceEvent] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(payload, dict):
                raise ValueError(f"line {lineno}: expected an object")
            kind = payload.get("record")
            if header is None:
                if kind != "header":
                    raise ValueError(
                        f"line {lineno}: first record must be the header, "
                        f"got {kind!r}"
                    )
                header = TraceHeader.from_dict(payload)
            elif kind == "launch":
                events.append(TraceEvent.from_dict(payload))
            else:
                raise ValueError(f"line {lineno}: unknown record kind {kind!r}")
        if header is None:
            raise ValueError("empty trace: no header record")
        return cls(header=header, events=tuple(events))

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace file written by :meth:`dump`."""
        with open(path, encoding="utf-8") as handle:
            return cls.loads(handle.read())

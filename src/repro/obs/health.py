"""``repro.obs.health`` — streaming model-health monitoring.

The MPC manager stands or falls on its predictor staying accurate
(paper Fig. 13); this module watches that accuracy *while the manager
runs*.  A :class:`HealthMonitor` consumes the per-launch decision spans
the session runtime already produces and maintains, per session:

* an **error ledger** — windowed relative-error histograms and EWMAs of
  ``|predicted - observed| / observed`` for IPS and power, per kernel,
  backed by the shared :class:`~repro.obs.metrics.MetricsRegistry` so
  worker→parent snapshot/merge and ``step_batch`` aggregation work
  unchanged;
* **drift detectors** — a Page–Hinkley test and a windowed mean-shift
  test over the trusted error stream, plus a budget-collapse detector
  over consecutive exhausted-horizon fail-safe skips.  All three are
  deterministic functions of the span stream: no wall clock, no RNG
  (RL001/RL002 clean);
* an **alerting state machine** — ``HEALTHY → DEGRADED → UNTRUSTED``
  with fixed thresholds and recovery hysteresis, surfaced as
  ``repro_health_*`` metrics and ``health`` transition spans
  (``docs/trace.schema.json``).

Sample gating — the part that makes the detectors trustworthy:

* **Profiling launches** (PPK mode before the model is frozen, i.e.
  ``mode == "ppk"`` with no ``pattern_hit`` annotation) are excluded
  entirely: the PPK predictor is one step behind by construction and
  its errors say nothing about the frozen model.
* The **ledger** ingests every remaining prediction, including
  fail-safe-caught ones — that is the Fig.13-style accuracy view.
* The **detectors** only consume *trusted* samples: MPC-mode decisions
  that were neither fail-safe nor fault fallbacks.  Fail-safe launches
  already carry their own signal (the manager reverted), and feeding
  their errors to the detectors would flag scenarios the fail-safe
  fully contains (e.g. the phase-shift family) as drifted.

Everything here only *reads* the span payloads it is handed:
observability never mutates the observed system (a health-on replay
decides exactly like a NOOP one; ``tests/traces/test_replay.py``).
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.metrics import NULL_REGISTRY, LabelKey, label_key
from repro.obs.tracing import NULL_TRACER, SPAN_SCHEMA

__all__ = [
    "ERROR_BUCKETS",
    "HEALTH_SCHEMA",
    "HealthMonitor",
    "HealthState",
    "MeanShift",
    "NULL_HEALTH",
    "NullHealthMonitor",
    "PageHinkley",
    "QUANTITIES",
    "SessionHealth",
    "format_health_report",
]

#: Version stamp of :meth:`HealthMonitor.report` payloads.
HEALTH_SCHEMA = 1

#: Relative-error histogram buckets (1% .. 5x; +Inf is implicit).
ERROR_BUCKETS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 2.0, 5.0)

#: The two predicted-vs-observed quantities every decision span carries.
QUANTITIES = ("ips", "power")

#: (quantity, predicted attr, observed attr) span keys, in ledger order.
_QUANTITY_KEYS = (
    ("ips", "predicted_ips", "observed_ips"),
    ("power", "predicted_power_w", "observed_power_w"),
)

# ----- monitor thresholds ---------------------------------------------------

#: Trusted-sample window retained per quantity for the report's
#: windowed mean/max columns.
WINDOW = 32
#: Smoothing factor of the per-quantity error EWMA.
EWMA_ALPHA = 0.25
#: EWMA level above which a session is at least ``DEGRADED``.
DEGRADED_ERROR = 0.5
#: EWMA level above which a session is ``UNTRUSTED``.
UNTRUSTED_ERROR = 1.5
#: Consecutive trusted samples with EWMA at or below
#: :data:`DEGRADED_ERROR` needed to de-escalate one level: the
#: hysteresis guard against flapping.
RECOVERY_SAMPLES = 8
#: Trusted samples a session must accumulate before the error-stream
#: detectors (EWMA floor, Page–Hinkley, mean-shift) may escalate its
#: state.  Ledgers, EWMAs and detector state update from the first
#: sample; only the *alarms* wait, because a distribution claim needs
#: data and a single extreme sample must not condemn a session.  The
#: budget-collapse detector is outcome-based and is never gated.
WARMUP_SAMPLES = 16
#: Page–Hinkley drift allowance per sample.
PH_DELTA = 0.05
#: Page–Hinkley cumulative-deviation trip level.
PH_THRESHOLD = 2.0
#: Half-window (samples) of the mean-shift detector: it compares the
#: most recent ``SHIFT_WINDOW`` samples against the ``SHIFT_WINDOW``
#: before them.
SHIFT_WINDOW = 8
#: Mean increase between the two halves that counts as a shift.
SHIFT_THRESHOLD = 0.35
#: Consecutive exhausted-horizon fail-safe ``skip`` decisions that count
#: as a budget collapse.
SKIP_CASCADE = 3


class HealthState(IntEnum):
    """Per-session model-health level, ordered by severity."""

    HEALTHY = 0
    DEGRADED = 1
    UNTRUSTED = 2


class PageHinkley:
    """Page–Hinkley test for an upward shift in a stream's mean.

    Tracks the cumulative deviation of each sample from the running
    mean (minus a per-sample allowance ``delta``); fires when the
    cumulative sum rises more than ``threshold`` above its running
    minimum, then resets itself so repeated drifts re-arm.
    """

    __slots__ = ("delta", "threshold", "count", "mean", "cumulative", "minimum")

    def __init__(self, delta: float = 0.05, threshold: float = 2.0) -> None:
        self.delta = delta
        self.threshold = threshold
        self.count = 0
        self.mean = 0.0
        self.cumulative = 0.0
        self.minimum = 0.0

    def reset(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.cumulative = 0.0
        self.minimum = 0.0

    def update(self, value: float) -> bool:
        """Ingest one sample; ``True`` when a drift fires."""
        self.count += 1
        self.mean += (value - self.mean) / self.count
        self.cumulative += value - self.mean - self.delta
        if self.cumulative < self.minimum:
            self.minimum = self.cumulative
        if self.cumulative - self.minimum > self.threshold:
            self.reset()
            return True
        return False


class MeanShift:
    """Windowed mean-shift test: recent half-window vs. the one before.

    Fires when the mean of the newest ``window`` samples exceeds the
    mean of the preceding ``window`` samples by more than
    ``threshold``, then clears its buffer so the same shift is not
    reported twice.

    The buffer is a fixed ring with incremental half-window sums: an
    update costs O(1) instead of re-summing ``2 * window`` samples,
    which matters because the health monitor runs two of these per
    trusted decision on the manager's hot path.
    """

    __slots__ = (
        "window", "threshold", "_buf", "_head", "_size", "_older", "_recent",
        "_trip",
    )

    def __init__(self, window: int = 8, threshold: float = 0.35) -> None:
        self.window = window
        self.threshold = threshold
        self._buf = [0.0] * (2 * window)
        self._head = 0
        self._size = 0
        self._older = 0.0  # sum of the first `window` buffered samples
        self._recent = 0.0  # sum of the last `window` buffered samples
        # mean(recent) - mean(older) > threshold, in sum space.
        self._trip = threshold * window

    def reset(self) -> None:
        self._head = 0
        self._size = 0
        self._older = 0.0
        self._recent = 0.0

    @property
    def values(self) -> Tuple[float, ...]:
        """The buffered samples, oldest first (inspection only)."""
        cap = 2 * self.window
        return tuple(
            self._buf[(self._head + i) % cap] for i in range(self._size)
        )

    def update(self, value: float) -> bool:
        """Ingest one sample; ``True`` when a shift fires."""
        window = self.window
        cap = 2 * window
        size = self._size
        if size < cap:
            # Filling: head is 0 until the ring wraps for the first time.
            self._buf[size] = value
            self._size = size + 1
            if size < window:
                self._older += value
                return False
            self._recent += value
            if size + 1 < cap:
                return False
        else:
            buf = self._buf
            head = self._head
            crossing_at = head + window
            if crossing_at >= cap:
                crossing_at -= cap
            crossing = buf[crossing_at]
            self._older += crossing - buf[head]
            self._recent += value - crossing
            buf[head] = value
            head += 1
            self._head = 0 if head == cap else head
        if self._recent - self._older > self._trip:
            self.reset()
            return True
        return False


class _KernelLedger:
    """Exact per-kernel error accumulators behind the report table."""

    __slots__ = ("samples", "sum_ips", "max_ips", "sum_power", "max_power")

    def __init__(self) -> None:
        self.samples = 0
        self.sum_ips = 0.0
        self.max_ips = 0.0
        self.sum_power = 0.0
        self.max_power = 0.0

    def add(self, e_ips: Optional[float], e_power: Optional[float]) -> None:
        self.samples += 1
        if e_ips is not None:
            self.sum_ips += e_ips
            if e_ips > self.max_ips:
                self.max_ips = e_ips
        if e_power is not None:
            self.sum_power += e_power
            if e_power > self.max_power:
                self.max_power = e_power

    def as_dict(self) -> Dict[str, Any]:
        n = self.samples
        return {
            "samples": n,
            "mean_ips": self.sum_ips / n if n else 0.0,
            "max_ips": self.max_ips,
            "mean_power": self.sum_power / n if n else 0.0,
            "max_power": self.max_power,
        }


class SessionHealth:
    """Streaming health state of one session (owned by the monitor)."""

    __slots__ = (
        "session", "decisions", "samples", "trusted_samples", "state",
        "ewma", "kernels", "transitions", "drift_events",
        "first_drift_decision", "clean_streak", "skip_streak", "events",
        # Per-quantity detector/window state, unrolled into slots —
        # the trusted-sample path touches all of them every decision.
        "ph_ips", "ph_power", "ms_ips", "ms_power", "win_ips", "win_power",
        # Canonical label keys of this session's series, resolved once
        # so the per-decision fold never re-canonicalizes label sets.
        "key", "key_trusted", "key_untrusted", "key_ewma_ips",
        "key_ewma_power", "key_error", "key_events",
    )

    def __init__(self, session: str) -> None:
        self.session = session
        self.decisions = 0
        self.samples = 0
        self.trusted_samples = 0
        self.state = HealthState.HEALTHY
        self.ewma: Dict[str, Optional[float]] = dict.fromkeys(QUANTITIES)
        self.kernels: Dict[str, _KernelLedger] = {}
        self.transitions: List[Dict[str, Any]] = []
        self.drift_events = 0
        self.first_drift_decision: Optional[int] = None
        self.clean_streak = 0
        self.skip_streak = 0
        self.events: Dict[str, int] = {}
        self.ph_ips = PageHinkley(PH_DELTA, PH_THRESHOLD)
        self.ph_power = PageHinkley(PH_DELTA, PH_THRESHOLD)
        self.ms_ips = MeanShift(SHIFT_WINDOW, SHIFT_THRESHOLD)
        self.ms_power = MeanShift(SHIFT_WINDOW, SHIFT_THRESHOLD)
        self.win_ips: Deque[float] = deque(maxlen=WINDOW)
        self.win_power: Deque[float] = deque(maxlen=WINDOW)
        self.key = label_key({"session": session})
        self.key_trusted = label_key({"session": session, "trusted": "yes"})
        self.key_untrusted = label_key({"session": session, "trusted": "no"})
        self.key_ewma_ips = label_key({"session": session, "quantity": "ips"})
        self.key_ewma_power = label_key({"session": session, "quantity": "power"})
        # kernel -> (ips error key, power error key)
        self.key_error: Dict[str, Tuple[LabelKey, LabelKey]] = {}
        # event kind -> key
        self.key_events: Dict[str, LabelKey] = {}

    def as_dict(self) -> Dict[str, Any]:
        """This session's health as a JSON-able dict."""
        window_stats: Dict[str, Any] = {}
        for quantity, values in (
            ("ips", self.win_ips), ("power", self.win_power)
        ):
            window_stats[quantity] = {
                "samples": len(values),
                "mean": sum(values) / len(values) if values else 0.0,
                "max": max(values) if values else 0.0,
            }
        return {
            "session": self.session,
            "state": self.state.name,
            "state_level": int(self.state),
            "decisions": self.decisions,
            "samples": self.samples,
            "trusted_samples": self.trusted_samples,
            "drift_events": self.drift_events,
            "first_drift_decision": self.first_drift_decision,
            "ewma": dict(self.ewma),
            "window": window_stats,
            "events": dict(self.events),
            "transitions": list(self.transitions),
            "kernels": {
                kernel: ledger.as_dict()
                for kernel, ledger in sorted(self.kernels.items())
            },
        }


def relative_errors(attrs: Dict[str, Any]) -> Optional[Dict[str, float]]:
    """``|predicted - observed| / |observed|`` per quantity, if present."""
    out: Dict[str, float] = {}
    for quantity, predicted_key, observed_key in _QUANTITY_KEYS:
        predicted = attrs.get(predicted_key)
        observed = attrs.get(observed_key)
        if predicted is None or observed is None or not observed:
            continue
        out[quantity] = abs(predicted - observed) / abs(observed)
    return out or None


#: One launch as the health fold writes it: (session, event keys fired,
#: the kernel's error keys or ``None``, trusted, e_ips, e_power).
Sample = Tuple[Any, ...]


class HealthMonitor:
    """Error ledgers + drift detectors + health states over launch spans.

    A live session folds each launch through :meth:`ingest` and
    :meth:`fold`; recorded span streams go through :meth:`observe_span`
    / :meth:`observe_launch`, which do both — the same deterministic
    computation.
    """

    enabled = True

    def __init__(
        self,
        registry: Optional[Any] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.sessions: Dict[str, SessionHealth] = {}
        registry = self.registry
        self._m_decisions = registry.counter(
            "repro_health_decisions_total",
            "Launch decisions seen by the health monitor",
        )
        self._m_samples = registry.counter(
            "repro_health_samples_total",
            "Prediction-error samples ingested "
            "(trusted=yes samples also feed the drift detectors)",
        )
        self._m_error = registry.histogram(
            "repro_health_rel_error",
            "Relative |predicted-observed|/observed error per decision",
            buckets=ERROR_BUCKETS,
        )
        self._m_ewma = registry.gauge(
            "repro_health_ewma",
            "EWMA of the relative prediction error over trusted samples",
        )
        self._m_state = registry.gauge(
            "repro_health_state",
            "Session health state (0 healthy, 1 degraded, 2 untrusted)",
        )
        self._m_transitions = registry.counter(
            "repro_health_transitions_total",
            "Health state-machine transitions by destination state",
        )
        self._m_drift = registry.counter(
            "repro_health_drift_events_total",
            "Model-drift events by detector",
        )
        self._m_events = registry.counter(
            "repro_health_events_total",
            "Health-relevant decision events "
            "(fail_safe/fallback/budget_skip/pattern_miss)",
        )

    # ----- ingestion ---------------------------------------------------------

    def observe_span(self, payload: Dict[str, Any]) -> None:
        """Ingest one finished span payload; non-launch spans are ignored."""
        if payload.get("name") != "launch":
            return
        attrs = payload.get("attributes")
        if not attrs:
            return
        self.observe_launch(attrs, at=payload.get("end_s") or 0.0)

    def observe_launch(self, attrs: Dict[str, Any], at: float = 0.0) -> None:
        """Ingest one launch span's attributes and write its series."""
        sample = self.ingest(attrs, at)
        with self.registry.lock:
            self.fold(sample)

    def ingest(self, attrs: Dict[str, Any], at: float = 0.0) -> Sample:
        """Ledgers, detectors and state for one launch, outside the
        lock (its rare writes lock themselves); returns what
        :meth:`fold` writes."""
        get = attrs.get
        session = get("session")
        health = self.sessions.get(session)
        if health is None:
            # Slow path: canonicalize the id (handles missing/odd
            # values) and register the session.  A launch with no
            # session id comes from a plain application run (the
            # experiment engine, `repro run`), which is its own health
            # session, named by its app and policy.
            session = str(session or "") or f"{get('app')}/{get('policy')}"
            health = self.sessions.get(session)
            if health is None:
                health = self.sessions[session] = SessionHealth(session)
                self._m_state.set(0.0, session=session)
        health.decisions += 1

        mode = get("mode")
        fail_safe = get("fail_safe")
        fallback = get("fallback")
        fired: List[LabelKey] = []
        if fail_safe:
            fired.append(self._event(health, "fail_safe"))
        if fallback:
            fired.append(self._event(health, "fallback"))
        if get("pattern_hit") is False:
            fired.append(self._event(health, "pattern_miss"))

        # Budget collapse: a run of exhausted-horizon fail-safe skips
        # means the manager has stopped optimizing entirely — drift by
        # outcome even when no prediction samples flow.  The streak
        # resets at application-run boundaries (index 0).
        if get("index") == 0:
            health.skip_streak = 0
        if mode == "skip" and fail_safe:
            fired.append(self._event(health, "budget_skip"))
            health.skip_streak += 1
            if health.skip_streak >= SKIP_CASCADE:
                health.skip_streak = 0
                self._drift(health, "budget-collapse", at)
        else:
            health.skip_streak = 0

        # Profiling-mode PPK predictions are one step behind by design;
        # their error says nothing about the frozen model.
        if mode == "ppk" and "pattern_hit" not in attrs:
            return health, fired, None, False, None, None
        # Inline relative_errors(): the per-decision path skips the
        # dict round-trip (same math, exercised against the function
        # by the unit tests).
        observed = get("observed_ips")
        predicted = get("predicted_ips")
        e_ips = (
            abs(predicted - observed) / abs(observed)
            if observed and predicted is not None
            else None
        )
        observed = get("observed_power_w")
        predicted = get("predicted_power_w")
        e_power = (
            abs(predicted - observed) / abs(observed)
            if observed and predicted is not None
            else None
        )
        if e_ips is None and e_power is None:
            return health, fired, None, False, None, None

        kernel = str(get("kernel") or "")
        ledger = health.kernels.get(kernel)
        if ledger is None:
            ledger = health.kernels[kernel] = _KernelLedger()
        ledger.add(e_ips, e_power)
        keys = health.key_error.get(kernel)
        if keys is None:
            keys = health.key_error[kernel] = (
                label_key({"session": health.session, "kernel": kernel,
                           "quantity": "ips"}),
                label_key({"session": health.session, "kernel": kernel,
                           "quantity": "power"}),
            )
        health.samples += 1
        trusted = mode == "mpc" and not fail_safe and not fallback
        if trusted:
            health.trusted_samples += 1
            self._ingest_trusted(health, e_ips, e_power, at)
        return health, fired, keys, trusted, e_ips, e_power

    def fold(self, sample: Sample) -> None:
        """Write one ingested launch's series (registry lock held)."""
        health, fired, keys, trusted, e_ips, e_power = sample
        self._m_decisions.add(health.key)
        for key in fired:
            self._m_events.add(key)
        if keys is None:
            return
        self._m_samples.add(health.key_trusted if trusted else health.key_untrusted)
        ewma = health.ewma
        if e_ips is not None:
            self._m_error.add(keys[0], e_ips)
            if trusted:
                self._m_ewma.put(health.key_ewma_ips, ewma["ips"])
        if e_power is not None:
            self._m_error.add(keys[1], e_power)
            if trusted:
                self._m_ewma.put(health.key_ewma_power, ewma["power"])

    def _ingest_trusted(
        self,
        health: SessionHealth,
        e_ips: Optional[float],
        e_power: Optional[float],
        at: float,
    ) -> None:
        """EWMA + detectors + state thresholds for one trusted sample."""
        # Detector state and EWMAs track every trusted sample, but the
        # alarms stay disarmed until the session has seen enough of
        # them: a distribution claim needs data, and one extreme
        # sample must not condemn a session.
        armed = health.trusted_samples >= WARMUP_SAMPLES
        alpha = EWMA_ALPHA
        ewma = health.ewma
        worst = 0.0
        if e_ips is not None:
            previous = ewma["ips"]
            current = (
                e_ips
                if previous is None
                else previous + alpha * (e_ips - previous)
            )
            ewma["ips"] = current
            health.win_ips.append(e_ips)
            if current > worst:
                worst = current
            if health.ph_ips.update(e_ips) and armed:
                self._drift(health, "page-hinkley:ips", at)
            if health.ms_ips.update(e_ips) and armed:
                self._drift(health, "mean-shift:ips", at)
        if e_power is not None:
            previous = ewma["power"]
            current = (
                e_power
                if previous is None
                else previous + alpha * (e_power - previous)
            )
            ewma["power"] = current
            health.win_power.append(e_power)
            if current > worst:
                worst = current
            if health.ph_power.update(e_power) and armed:
                self._drift(health, "page-hinkley:power", at)
            if health.ms_power.update(e_power) and armed:
                self._drift(health, "mean-shift:power", at)

        # EWMA magnitude imposes a floor on the state; falling back
        # below the degraded threshold de-escalates one level per
        # `recovery_samples` consecutive clean samples (hysteresis).
        if worst > DEGRADED_ERROR:
            health.clean_streak = 0
            if not armed:
                pass
            elif (
                worst > UNTRUSTED_ERROR
                and health.state < HealthState.UNTRUSTED
            ):
                self._transition(health, HealthState.UNTRUSTED, "ewma", at)
            elif health.state < HealthState.DEGRADED:
                self._transition(health, HealthState.DEGRADED, "ewma", at)
        else:
            health.clean_streak += 1
            if (
                health.state > HealthState.HEALTHY
                and health.clean_streak >= RECOVERY_SAMPLES
            ):
                health.clean_streak = 0
                self._transition(
                    health, HealthState(health.state - 1), "recovery", at
                )

    # ----- events, drift, transitions ----------------------------------------

    @staticmethod
    def _event(health: SessionHealth, kind: str) -> LabelKey:
        """Count an event in the ledger; its series key for the fold."""
        health.events[kind] = health.events.get(kind, 0) + 1
        key = health.key_events.get(kind)
        if key is None:
            key = health.key_events[kind] = label_key(
                {"session": health.session, "kind": kind}
            )
        return key

    def _drift(self, health: SessionHealth, detector: str, at: float) -> None:
        health.drift_events += 1
        if health.first_drift_decision is None:
            health.first_drift_decision = health.decisions
        health.clean_streak = 0
        self._m_drift.inc(session=health.session, detector=detector)
        if health.state < HealthState.UNTRUSTED:
            self._transition(
                health,
                HealthState(health.state + 1),
                "drift",
                at,
                detector=detector,
            )

    def _transition(
        self,
        health: SessionHealth,
        to: HealthState,
        reason: str,
        at: float,
        detector: Optional[str] = None,
    ) -> None:
        from_state = health.state
        health.state = to
        record: Dict[str, Any] = {
            "decision": health.decisions,
            "from": from_state.name,
            "to": to.name,
            "reason": reason,
        }
        if detector is not None:
            record["detector"] = detector
        health.transitions.append(record)
        self._m_state.set(float(to), session=health.session)
        self._m_transitions.inc(session=health.session, to=to.name.lower())
        self.tracer.emit(
            {
                "schema": SPAN_SCHEMA,
                "name": "health",
                "start_s": at,
                "end_s": at,
                "attributes": {
                    "session": health.session,
                    "from_state": from_state.name.lower(),
                    "to_state": to.name.lower(),
                    "reason": reason,
                    "detector": detector or "",
                    "decision": health.decisions,
                    "drift_events": health.drift_events,
                },
            }
        )

    # ----- aggregation -------------------------------------------------------

    def _scoped(self, session: Optional[str]) -> Tuple[SessionHealth, ...]:
        if session is None or session == "*":
            return tuple(self.sessions.values())
        health = self.sessions.get(session)
        return (health,) if health is not None else ()

    def drift_events(self, session: Optional[str] = None) -> int:
        """Drift events for one session, or the whole-trace total."""
        return sum(h.drift_events for h in self._scoped(session))

    def first_drift_decision(self, session: Optional[str] = None) -> float:
        """Session-local decision ordinal of the first drift event.

        ``inf`` when no drift fired; scoped to one session or, for
        ``None``/``"*"``, the minimum across sessions (the earliest any
        session drifted, in its own decision count).
        """
        ordinals = [
            h.first_drift_decision
            for h in self._scoped(session)
            if h.first_drift_decision is not None
        ]
        return float(min(ordinals)) if ordinals else float("inf")

    def final_state(self, session: Optional[str] = None) -> int:
        """Health level of a session (worst across sessions for ``"*"``)."""
        states = [int(h.state) for h in self._scoped(session)]
        return max(states) if states else 0

    def transitions_count(self, session: Optional[str] = None) -> int:
        """State-machine transitions for a session or the whole trace."""
        return sum(len(h.transitions) for h in self._scoped(session))

    def report(self) -> Dict[str, Any]:
        """The full health report as a JSON-able dict."""
        return {
            "schema": HEALTH_SCHEMA,
            "config": {
                "window": WINDOW,
                "ewma_alpha": EWMA_ALPHA,
                "degraded_error": DEGRADED_ERROR,
                "untrusted_error": UNTRUSTED_ERROR,
                "recovery_samples": RECOVERY_SAMPLES,
                "warmup_samples": WARMUP_SAMPLES,
                "ph_delta": PH_DELTA,
                "ph_threshold": PH_THRESHOLD,
                "shift_window": SHIFT_WINDOW,
                "shift_threshold": SHIFT_THRESHOLD,
                "skip_cascade": SKIP_CASCADE,
            },
            "sessions": {
                name: health.as_dict()
                for name, health in sorted(self.sessions.items())
            },
        }


class NullHealthMonitor:
    """The do-nothing monitor installed on NOOP instrumentation."""

    __slots__ = ()

    enabled = False

    def observe_span(self, payload: Dict[str, Any]) -> None:
        pass

    def observe_launch(self, attrs: Dict[str, Any], at: float = 0.0) -> None:
        pass

    def drift_events(self, session: Optional[str] = None) -> int:
        return 0

    def first_drift_decision(self, session: Optional[str] = None) -> float:
        return float("inf")

    def final_state(self, session: Optional[str] = None) -> int:
        return 0

    def transitions_count(self, session: Optional[str] = None) -> int:
        return 0

    def report(self) -> Dict[str, Any]:
        return {"schema": HEALTH_SCHEMA, "config": {}, "sessions": {}}


#: The shared disabled monitor; safe to use from any thread.
NULL_HEALTH = NullHealthMonitor()


def _format_ewma(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.3f}"


def format_health_report(report: Dict[str, Any]) -> str:
    """Render a :meth:`HealthMonitor.report` as an aligned text table."""
    sessions = report.get("sessions", {})
    lines = [f"== model health: {len(sessions)} session(s) =="]
    if not sessions:
        lines.append("(no launch decisions observed)")
        return "\n".join(lines)
    # The name columns are as wide as their longest entry, so engine
    # and CLI session names (``<app>/<policy>``) keep the table aligned.
    width = max(len("session"), *map(len, sessions))
    kernel_width = max(
        [len("kernel")]
        + [len(kernel) for health in sessions.values()
           for kernel in health.get("kernels", {})]
    )
    header = (
        f"{'session':{width}s} {'state':10s} {'decisions':>9s} {'samples':>8s} "
        f"{'trusted':>8s} {'drift':>6s} {'first':>6s} "
        f"{'ewma(ips)':>10s} {'ewma(pow)':>10s}"
    )
    lines.append(header)
    for name, health in sessions.items():
        first = health.get("first_drift_decision")
        ewma = health.get("ewma", {})
        lines.append(
            f"{name:{width}s} {health['state']:10s} {health['decisions']:>9d} "
            f"{health['samples']:>8d} {health['trusted_samples']:>8d} "
            f"{health['drift_events']:>6d} "
            f"{'-' if first is None else first:>6} "
            f"{_format_ewma(ewma.get('ips')):>10s} "
            f"{_format_ewma(ewma.get('power')):>10s}"
        )
    for name, health in sessions.items():
        kernels = health.get("kernels", {})
        transitions = health.get("transitions", [])
        if not kernels and not transitions:
            continue
        lines.append(f"-- {name} --")
        if kernels:
            lines.append(
                f"  {'kernel':{kernel_width}s} {'samples':>8s} "
                f"{'ips mean/max':>14s} {'power mean/max':>15s}"
            )
            for kernel, ledger in kernels.items():
                lines.append(
                    f"  {kernel:{kernel_width}s} {ledger['samples']:>8d} "
                    f"{ledger['mean_ips']:>6.3f}/{ledger['max_ips']:<6.3f} "
                    f"{ledger['mean_power']:>7.3f}/{ledger['max_power']:<6.3f}"
                )
        for transition in transitions:
            detector = transition.get("detector")
            suffix = f" ({detector})" if detector else ""
            lines.append(
                f"  decision {transition['decision']}: "
                f"{transition['from']} -> {transition['to']} "
                f"[{transition['reason']}]{suffix}"
            )
    return "\n".join(lines)

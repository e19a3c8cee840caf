"""The streaming runtime layer: sessions, typed events, policy hosting.

``repro.runtime`` sits between the policy layer (:mod:`repro.core`,
:mod:`repro.sim.policy`) and the drivers that feed it work (the offline
:class:`~repro.sim.simulator.Simulator`, the CLI's streaming mode, the
experiment engine).  It owns the online control loop the paper's
framework runs at every kernel-launch boundary:

* :mod:`~repro.runtime.events` — the typed event protocol: a session
  consumes :class:`KernelLaunch` events and emits
  :class:`LaunchOutcome` events.
* :mod:`~repro.runtime.lifecycle` — the formal policy lifecycle state
  machine (``PROFILING -> FROZEN -> MPC``).
* :mod:`~repro.runtime.session` — :class:`SessionRuntime`, the
  fault-isolating host that executes the decide / throttle /
  charge-overhead / observe sequence for one application session, and
  snapshots/restores policy state for migration.
* :mod:`~repro.runtime.manager` — :class:`SessionManager`, which hosts
  many concurrent sessions keyed by application/session id and routes
  an interleaved event stream between them.

The layer is driver-agnostic by construction: the same policy object
produces identical decisions whether it is driven by offline replay
(``Simulator.run``), a streaming iterator (``SessionRuntime.run_stream``),
or interleaved with other applications (``SessionManager.run_stream``).
"""

from repro.runtime.events import KernelLaunch, LaunchOutcome, launch_events
from repro.runtime.lifecycle import LifecycleError, PolicyLifecycle, PolicyState
from repro.runtime.manager import SessionManager
from repro.runtime.session import SessionRuntime, SessionStats, invocation_pair

__all__ = [
    "KernelLaunch",
    "LaunchOutcome",
    "launch_events",
    "LifecycleError",
    "PolicyLifecycle",
    "PolicyState",
    "SessionManager",
    "SessionRuntime",
    "SessionStats",
    "invocation_pair",
]

"""The formal policy lifecycle state machine.

The paper's manager has three phases (Section IV): on an application's
first invocation it *profiles* (running PPK while the pattern extractor
records the execution order), at the end of that invocation the profile
is *frozen* into a search order and horizon statistics, and every later
invocation runs true *MPC*.  The seed implementation encoded this as
``self._stats is None`` branching; the runtime makes it an explicit,
validated state machine so sessions can be inspected, serialized, and
migrated:

    PROFILING ──freeze──▶ FROZEN ──first MPC decision──▶ MPC

Transitions are one-way: a policy never returns to profiling (the
paper's framework keeps its pattern store for the process lifetime).
Restoring a snapshot rebuilds the machine directly in the snapshotted
state.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet

__all__ = ["LifecycleError", "PolicyState", "PolicyLifecycle"]


class LifecycleError(RuntimeError):
    """An operation was attempted in an incompatible lifecycle state."""


class PolicyState(enum.Enum):
    """Lifecycle phase of a profile-then-optimize policy."""

    #: First invocation: run PPK while the execution pattern is recorded.
    PROFILING = "profiling"
    #: Profile frozen into search order + horizon statistics; the next
    #: decision will be the first true MPC decision.
    FROZEN = "frozen"
    #: Steady state: receding-horizon MPC against the frozen profile.
    MPC = "mpc"


#: Legal transitions; anything else raises :class:`LifecycleError`.
_ALLOWED: Dict[PolicyState, FrozenSet[PolicyState]] = {
    PolicyState.PROFILING: frozenset({PolicyState.FROZEN}),
    PolicyState.FROZEN: frozenset({PolicyState.MPC}),
    PolicyState.MPC: frozenset(),
}


class PolicyLifecycle:
    """A validated ``PROFILING -> FROZEN -> MPC`` state machine.

    Args:
        initial: Starting state; new policies begin in ``PROFILING``,
            restored snapshots may start anywhere.
    """

    def __init__(self, initial: PolicyState = PolicyState.PROFILING) -> None:
        self._state = initial

    @property
    def state(self) -> PolicyState:
        """The current lifecycle state."""
        return self._state

    def transition(self, target: PolicyState) -> None:
        """Advance to ``target``; raises on an illegal transition."""
        if target not in _ALLOWED[self._state]:
            raise LifecycleError(
                f"illegal lifecycle transition {self._state.value!r} -> "
                f"{target.value!r}"
            )
        self._state = target

    def __repr__(self) -> str:
        return f"PolicyLifecycle({self._state.value!r})"

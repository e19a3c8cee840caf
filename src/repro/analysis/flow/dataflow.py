"""Forward dataflow over :mod:`repro.analysis.flow.cfg` graphs.

A tiny worklist fixpoint engine.  Analyses plug in three pieces:

* ``entry_state`` — the abstract state at function entry,
* ``join`` — merge of states at control-flow joins (set intersection
  for *must* facts like "lock held", union for *may* facts like
  "payload not yet validated"), and
* ``transfer`` / ``transfer_exc`` — the effect of one atom on the
  state along its normal and exceptional out-edges.  ``transfer_exc``
  defaults to the *pre*-state (an atom that raised did not complete),
  which is exactly right for bindings: a cache read that raised never
  bound its payload, so nothing is unvalidated on that edge.

States must be immutable values with structural equality over a finite
domain (``frozenset`` of tokens in all the shipped analyses), which
guarantees the fixpoint terminates on loops: each block's in-state can
only change a bounded number of times before stabilizing.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generic, Optional, TypeVar

from .cfg import CFG, Atom

__all__ = ["ForwardAnalysis", "run_forward", "LockSet"]

S = TypeVar("S")

#: Abstract state of the lock analyses: the set of normalized lock
#: tokens (``"self.lock"``-style dotted names) held at a program point.
LockSet = frozenset  # frozenset[str]; bare for py3.9 compatibility


class ForwardAnalysis(Generic[S]):
    """Base class for forward analyses; subclass and override."""

    def entry_state(self, cfg: CFG) -> S:
        raise NotImplementedError

    def join(self, a: S, b: S) -> S:
        raise NotImplementedError

    def transfer(self, atom: Atom, state: S) -> S:
        raise NotImplementedError

    def transfer_exc(self, atom: Atom, state: S) -> S:
        """State along the exceptional out-edge (default: pre-state)."""
        return state


def run_forward(cfg: CFG, analysis: "ForwardAnalysis[S]") -> Dict[int, S]:
    """Iterate to fixpoint; returns the in-state of every reached block.

    Blocks absent from the result are unreachable (e.g. code after a
    ``while True`` with no ``break``) and should not be checked.
    """
    in_states: Dict[int, S] = {cfg.entry: analysis.entry_state(cfg)}
    worklist = deque([cfg.entry])
    pending = {cfg.entry}
    while worklist:
        block_id = worklist.popleft()
        pending.discard(block_id)
        block = cfg.blocks[block_id]
        state = in_states[block_id]
        if block.atom is not None:
            out = analysis.transfer(block.atom, state)
            out_exc = analysis.transfer_exc(block.atom, state)
        else:
            out = out_exc = state
        edges = [(succ, out) for succ in block.succ]
        edges += [(succ, out_exc) for succ in block.exc_succ]
        for succ, flowing in edges:
            old: Optional[S] = in_states.get(succ)
            new = flowing if old is None else analysis.join(old, flowing)
            if old is None or new != old:
                in_states[succ] = new
                if succ not in pending:
                    worklist.append(succ)
                    pending.add(succ)
    return in_states

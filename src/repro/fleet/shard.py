"""Shard transports: how the fleet reaches its nodes.

Two interchangeable transports drive :class:`~repro.fleet.node.FleetNode`
behind one post/collect protocol:

* :class:`InlineShard` executes node methods in-process — the
  reference semantics, what the determinism tests compare the process
  transport against, and how the fleet parent hosts ``node-0`` itself;
* :class:`ProcessShard` is a :class:`~repro.workers.Worker` hosting
  the node (one per node past ``node-0``; the engine's workers host
  experiment contexts on the same transport).  A worker that dies or
  misses :data:`~repro.workers.REPLY_DEADLINE_S` raises
  :class:`ShardError` naming its exit code or the deadline.

Both carriers raise a failing node method as :class:`ShardError` with
its traceback and keep serving later posts.

The protocol is split into :meth:`post` and :meth:`collect` so the
parent can post one epoch's work to *every* node before collecting any
result — the fan-out that buys wall-clock parallelism without threads
(so every metrics registry keeps one writer thread).  An inline shard
runs its posted calls when they are collected, so the parent computes
``node-0`` while the workers compute the rest.
A budget epoch is one round trip per node: the fleet posts a single
``epoch`` command (budget, new sessions, slim launches) to each node
and collects one reply (decisions, demand, obs deltas).
"""

from __future__ import annotations

import traceback
from typing import Any, List, Tuple

from repro.fleet.node import FleetNode
from repro.workers import Worker, WorkerError

__all__ = ["InlineShard", "ProcessShard", "ShardError"]


class ShardError(WorkerError):
    """A shard's node method failed, or its worker died or hung.

    ``remote_traceback`` carries the node method's original traceback
    or the transport's reason: the worker's exit code, the reply
    deadline it missed, or an argument that did not pickle.
    """

    noun = "shard"

    @property
    def node_id(self) -> str:
        """The failing node's fleet id."""
        return self.worker_id


class InlineShard:
    """The in-process transport: a FleetNode called directly.

    Posted calls run, in post order, when :meth:`collect` is called,
    so calls posted to worker shards first overlap with them; until
    then the shard holds the arguments themselves, not a copy, so the
    caller leaves them unchanged between the two.  A call
    that raises an ``Exception`` surfaces as :class:`ShardError`; the
    calls posted after it stay queued for the next collect, as a
    worker keeps serving — the same observable protocol as
    :class:`ProcessShard`.
    """

    def __init__(self, node_id: str, **node_kwargs: Any) -> None:
        self.node_id = node_id
        self.node = FleetNode(node_id, **node_kwargs)
        self._pending: List[Tuple[str, Tuple[Any, ...]]] = []

    def post(self, command: str, *args: Any) -> None:
        """Queue one node-method call."""
        self._pending.append((command, args))

    def collect(self) -> List[Any]:
        """Run every posted call; their results, in post order."""
        results = []
        while self._pending:
            command, args = self._pending.pop(0)
            try:
                results.append(getattr(self.node, command)(*args))
            except Exception as exc:
                raise ShardError(
                    self.node_id, command, traceback.format_exc()
                ) from exc
        return results

    def close(self) -> None:
        """Release the shard (no-op in-process)."""


class ProcessShard(Worker):
    """The worker-process transport: a FleetNode on its own worker.

    The fleet parent hosts ``node-0`` inline; every other node of a
    process fleet runs on one of these.

    Args:
        node_id: The node's fleet id.
        **node_kwargs: Forwarded to the worker-side ``FleetNode``
            (``obs`` is not forwardable — the worker always builds its
            own live instrumentation and ships it back via
            ``drain_obs``).
    """

    error = ShardError

    def __init__(self, node_id: str, **node_kwargs: Any) -> None:
        if "obs" in node_kwargs:
            raise ValueError(
                "ProcessShard workers own their instrumentation; "
                "merge via drain_obs instead of passing obs"
            )
        self.node_id = node_id
        super().__init__(node_id, FleetNode, node_id, **node_kwargs)

"""Shard transports: how the fleet reaches its nodes.

Two interchangeable transports drive :class:`~repro.fleet.node.FleetNode`
behind one post/collect protocol:

* :class:`InlineShard` executes node methods in-process — the
  reference semantics, what the determinism tests compare the process
  transport against, and how the fleet parent hosts ``node-0`` itself;
* :class:`ProcessShard` runs the node on a long-lived worker process
  (one per node past ``node-0``, as the engine lane runs request
  workers), speaking a ``(command, args)`` / ``("ok" | "err", payload)``
  pipe protocol.  A worker that dies or misses
  :data:`REPLY_DEADLINE_S` raises :class:`ShardError` naming its exit
  code or the deadline.

Both carriers raise a failing node method as :class:`ShardError` with
its traceback, mirroring ``EngineWorkerError``, and keep serving later
posts.

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

import multiprocessing
import pickle
import traceback
from typing import Any, List, Tuple

from repro.fleet.node import FleetNode

__all__ = ["InlineShard", "ProcessShard", "REPLY_DEADLINE_S", "ShardError"]

#: Seconds the parent waits for one worker reply before it gives the
#: worker up as hung: far past any epoch, a forest spec's first training
#: included.  Inline shards run in the parent and have no deadline.
REPLY_DEADLINE_S = 900.0


class ShardError(RuntimeError):
    """A shard's node method failed, or its worker died.

    ``remote_traceback`` carries the node method's original traceback
    or, for a worker lost mid-protocol, the reason naming its exit code
    or the reply deadline it missed.
    """

    def __init__(self, node_id: str, command: str, remote_traceback: str) -> None:
        self.node_id = node_id
        self.command = command
        self.remote_traceback = remote_traceback
        super().__init__(
            f"shard {node_id!r} failed executing {command!r}\n"
            f"--- original node traceback ---\n{remote_traceback}"
        )


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


def _shard_worker(conn: Any, config_bytes: bytes) -> None:
    """Long-lived worker loop: build the node, serve commands until EOF.

    Never raises across the process boundary: failures travel back as
    ``("err", traceback_text)`` and the loop keeps serving, so one bad
    command cannot wedge the epoch protocol.
    """
    config = pickle.loads(config_bytes)
    node_id = config.pop("node_id")
    node = FleetNode(node_id, **config)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        if message is None:
            break
        command, args = message
        try:
            conn.send(("ok", getattr(node, command)(*args)))
        except BaseException:
            conn.send(("err", traceback.format_exc()))
    conn.close()


class ProcessShard:
    """The worker-process transport: one long-lived process per node.

    The fleet parent hosts ``node-0`` inline; every other node of a
    process fleet runs on one of these.

    Args:
        node_id: The node's fleet id.
        **node_kwargs: Forwarded to the worker-side ``FleetNode``
            (``obs`` is not forwardable — the worker always builds its
            own live instrumentation and ships it back via
            ``drain_obs``).
    """

    def __init__(self, node_id: str, **node_kwargs: Any) -> None:
        if "obs" in node_kwargs:
            raise ValueError(
                "ProcessShard workers own their instrumentation; "
                "merge via drain_obs instead of passing obs"
            )
        self.node_id = node_id
        config = dict(node_kwargs)
        config["node_id"] = node_id
        parent_conn, child_conn = multiprocessing.Pipe()
        self._conn = parent_conn
        self._pending: List[str] = []
        self._hung = False  # set when a reply misses its deadline
        self._process = multiprocessing.Process(
            target=_shard_worker,
            args=(child_conn, pickle.dumps(config, pickle.HIGHEST_PROTOCOL)),
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    def _lost(self, command: str, when: str) -> ShardError:
        """The error for a pipe the worker closed by dying."""
        self._process.join(timeout=5.0)
        return ShardError(
            self.node_id, command,
            f"worker exited with code {self._process.exitcode} {when}",
        )

    def post(self, command: str, *args: Any) -> None:
        """Send one command; the worker executes commands in order."""
        try:
            self._conn.send((command, args))
        except OSError as exc:
            raise self._lost(command, "before the command was sent") from exc
        self._pending.append(command)

    def collect(self) -> List[Any]:
        """Every posted command's result, in post order, each within
        :data:`REPLY_DEADLINE_S` (else :class:`ShardError`; then close)."""
        results = []
        while self._pending:
            command = self._pending[0]
            try:
                if not self._conn.poll(REPLY_DEADLINE_S):
                    self._hung = True
                    raise ShardError(
                        self.node_id, command,
                        f"worker sent no reply within the {REPLY_DEADLINE_S:g} s "
                        "reply deadline",
                    )
                status, payload = self._conn.recv()
            except (EOFError, OSError) as exc:
                raise self._lost(command, "before replying") from exc
            self._pending.pop(0)
            if status != "ok":
                raise ShardError(self.node_id, command, payload)
            results.append(payload)
        return results

    def close(self) -> None:
        """Shut the worker down and reap it."""
        try:
            self._conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self._conn.close()
        self._process.join(timeout=0.0 if self._hung else 10.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)

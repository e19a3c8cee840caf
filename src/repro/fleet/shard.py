"""Shard transports: how the fleet reaches its nodes.

Two interchangeable transports drive :class:`~repro.fleet.node.FleetNode`
behind one post/collect protocol:

* :class:`InlineShard` executes node methods in-process — the
  reference semantics, and what the determinism tests compare the
  process transport against;
* :class:`ProcessShard` runs the node on a long-lived worker process
  (one per node, as the engine lane runs request workers), speaking a
  ``(command, args)`` / ``("ok" | "err", payload)`` pipe protocol.
  Worker failures re-raise parent-side as :class:`ShardError` with the
  original remote traceback, mirroring ``EngineWorkerError``; a worker
  that dies raises :class:`ShardError` naming its exit code.

The protocol is split into :meth:`post` and :meth:`collect` so the
parent can post one epoch's work to *every* node before collecting any
result — the fan-out that buys wall-clock parallelism without threads
(so every metrics registry keeps one writer thread).
A budget epoch is one round trip per node: the fleet posts a single
``epoch`` command (budget, new sessions, slim launches) to each node
and collects one reply (decisions, demand, obs deltas).
"""

from __future__ import annotations

import multiprocessing
import pickle
from typing import Any, List

from repro.fleet.node import FleetNode

__all__ = ["InlineShard", "ProcessShard", "ShardError"]


class ShardError(RuntimeError):
    """A shard worker failed or died.

    ``remote_traceback`` carries the worker's original traceback or, for
    a worker lost mid-protocol, the reason naming its exit code.
    """

    def __init__(self, node_id: str, command: str, remote_traceback: str) -> None:
        self.node_id = node_id
        self.command = command
        self.remote_traceback = remote_traceback
        super().__init__(
            f"shard {node_id!r} failed executing {command!r}\n"
            f"--- original worker traceback ---\n{remote_traceback}"
        )


class InlineShard:
    """The in-process transport: a FleetNode called directly.

    Results are computed eagerly at :meth:`post` time (the parent *is*
    the node), buffered, and handed back by :meth:`collect` in post
    order — the same observable protocol as :class:`ProcessShard`.
    """

    def __init__(self, node_id: str, **node_kwargs: Any) -> None:
        self.node_id = node_id
        self.node = FleetNode(node_id, **node_kwargs)
        self._results: List[Any] = []

    def post(self, command: str, *args: Any) -> None:
        """Queue one node-method call."""
        self._results.append(getattr(self.node, command)(*args))

    def collect(self) -> List[Any]:
        """Results of every posted call since the last collect, in order."""
        results, self._results = self._results, []
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
            import traceback

            conn.send(("err", traceback.format_exc()))
    conn.close()


class ProcessShard:
    """The worker-process transport: one long-lived process per node.

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
        """Block for every posted command's result, in post order."""
        results = []
        while self._pending:
            try:
                status, payload = self._conn.recv()
            except (EOFError, OSError) as exc:
                raise self._lost(self._pending[0], "before replying") from exc
            command = self._pending.pop(0)
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
        self._process.join(timeout=10.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)

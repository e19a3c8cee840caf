"""The worker-process transport: one hosted object per worker process.

A :class:`Worker` starts one long-lived process, builds an object in it
from a pickled factory and its arguments, and serves
``(command, args)`` messages by calling the object's method
``command``, answering ``("ok", result)`` or ``("err", traceback)``.
The fleet's :class:`~repro.fleet.shard.ProcessShard` hosts a
:class:`~repro.fleet.node.FleetNode` this way, and each experiment
engine worker hosts one experiment context.

Every fault path is written here once, raising :attr:`Worker.error`
(a :class:`WorkerError`) that names the worker and the command: a
hosted method that raised (the worker keeps serving), an argument that
does not pickle (raised in the parent before anything is sent), a
worker that died (naming its exit code) and a reply that missed
:data:`REPLY_DEADLINE_S` (naming the deadline).  Every reply is waited
for in :func:`wait`, also by a caller waiting on several workers at
once, and :meth:`Worker.close` terminates a worker still owing one.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import pickle
import traceback
from typing import Any, Callable, List, Sequence, Type

__all__ = ["REPLY_DEADLINE_S", "Worker", "WorkerError", "wait"]

#: Seconds the parent waits for a worker's reply before it gives the
#: worker up as hung: far past any fleet epoch or engine request, a
#: forest spec's first training included.
REPLY_DEADLINE_S = 900.0


class WorkerError(RuntimeError):
    """A hosted call failed, did not pickle, or lost its worker.

    ``remote_traceback`` carries the call's original traceback or the
    transport's reason: the pickling error, the worker's exit code or
    the reply deadline it missed.  ``command`` is the method called or,
    for the factory's arguments, the factory's name.
    """

    #: What the message calls the failing party.
    noun = "worker"

    def __init__(self, worker_id: str, command: str, remote_traceback: str) -> None:
        self.worker_id = worker_id
        self.command = command
        self.remote_traceback = remote_traceback
        super().__init__(
            f"{self.noun} {worker_id!r} failed executing {command!r}\n"
            f"--- original {self.noun} traceback ---\n{remote_traceback}"
        )


def _serve(conn: Any, spec: bytes) -> None:
    """The worker loop: build the hosted object, serve commands until EOF.

    Never raises across the process boundary, so one bad command cannot
    wedge the protocol.  A factory that raised answers every command
    with its traceback.
    """
    try:
        factory, args, kwargs = pickle.loads(spec)
        hosted, startup = factory(*args, **kwargs), None
    except BaseException:
        hosted, startup = None, traceback.format_exc()
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        if message is None:
            break
        command, args = message
        try:
            if startup is not None:
                conn.send(("err", startup))
            else:
                conn.send(("ok", getattr(hosted, command)(*args)))
        except BaseException:
            conn.send(("err", traceback.format_exc()))
    conn.close()


class Worker:
    """One long-lived process hosting ``factory(*args, **kwargs)``.

    Commands run in post order, and :meth:`collect` returns their
    results in that order.
    """

    #: The error this worker raises; a subclass names its own.
    error: Type[WorkerError] = WorkerError

    def __init__(
        self, worker_id: str, factory: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> None:
        self.worker_id = worker_id
        spec = self._pickled(
            getattr(factory, "__name__", repr(factory)), (factory, args, kwargs)
        )
        parent_conn, child_conn = multiprocessing.Pipe()
        self._conn = parent_conn
        self._pending: List[str] = []
        self._process = multiprocessing.Process(
            target=_serve, args=(child_conn, spec), daemon=True
        )
        self._process.start()
        child_conn.close()

    def _pickled(self, command: str, payload: Any) -> bytes:
        try:
            return pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise self.error(
                self.worker_id, command, f"arguments do not pickle: {exc!r}"
            ) from exc

    def _lost(self, command: str, when: str) -> WorkerError:
        """The error for a pipe the worker closed by dying."""
        self._process.join(timeout=5.0)
        return self.error(
            self.worker_id, command,
            f"worker exited with code {self._process.exitcode} {when}",
        )

    def post(self, command: str, *args: Any) -> None:
        """Send one command; the worker executes commands in order."""
        message = self._pickled(command, (command, args))
        try:
            self._conn.send_bytes(message)
        except OSError as exc:
            raise self._lost(command, "before the command was sent") from exc
        self._pending.append(command)

    def collect(self) -> List[Any]:
        """Every posted command's result, in post order, each within
        :data:`REPLY_DEADLINE_S`."""
        results = []
        while self._pending:
            command = self._pending[0]
            wait([self])
            try:
                status, payload = self._conn.recv()
            except (EOFError, OSError) as exc:
                raise self._lost(command, "before replying") from exc
            self._pending.pop(0)
            if status != "ok":
                raise self.error(self.worker_id, command, payload)
            results.append(payload)
        return results

    def close(self) -> None:
        """Shut the worker down and reap it; a worker still owing a
        reply (busy, hung or dead) is terminated at once."""
        try:
            self._conn.send(None)
        except OSError:
            pass
        self._conn.close()
        self._process.join(timeout=0.0 if self._pending else 10.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)


def wait(workers: Sequence[Worker]) -> List[Worker]:
    """The workers, each awaiting a reply, whose reply has arrived.

    Blocks until one has; if none has within :data:`REPLY_DEADLINE_S`,
    raises the first worker's error naming the deadline.
    """
    ready = multiprocessing.connection.wait(
        [worker._conn for worker in workers], REPLY_DEADLINE_S
    )
    if not ready:
        first = workers[0]
        raise first.error(
            first.worker_id, first._pending[0],
            f"worker sent no reply within the {REPLY_DEADLINE_S:g} s "
            "reply deadline",
        )
    return [worker for worker in workers if worker._conn in ready]

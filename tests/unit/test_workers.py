"""The worker-process transport: post/collect, wait and every fault path.

The engine's workers and the fleet's process shards both run on
:mod:`repro.workers`, so these tests carry both lanes' markers.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import workers
from repro.fleet import ProcessShard, ShardError
from repro.workers import Worker, WorkerError, wait

pytestmark = [pytest.mark.engine, pytest.mark.fleet]


class Host:
    """What the test workers host."""

    def __init__(self, *args):
        self.args = args

    def built_with(self):
        return self.args

    def echo(self, value):
        return value

    def fail(self):
        raise KeyError("no such entry")

    def sleep(self, seconds):
        time.sleep(seconds)
        return seconds


class Unbuildable:
    def __init__(self):
        raise ValueError("cannot build this host")


@pytest.fixture()
def worker():
    worker = Worker("w", Host, 1, 2)
    yield worker
    worker.close()


@pytest.fixture()
def give_up_after_20s():
    """Fails a test that waits past its deadline instead of hanging it."""

    def give_up(signum, frame):
        raise TimeoutError("waited past the reply deadline")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_results_come_back_in_post_order(worker):
    worker.post("built_with")
    worker.post("echo", {"a": [1.5]})
    worker.post("echo", None)
    assert worker.collect() == [(1, 2), {"a": [1.5]}, None]
    assert worker.collect() == []


def test_remote_traceback_travels_back_and_the_worker_keeps_serving(worker):
    worker.post("echo", 1)
    worker.post("fail")
    worker.post("echo", 3)
    with pytest.raises(WorkerError) as excinfo:
        worker.collect()
    assert excinfo.value.worker_id == "w"
    assert excinfo.value.command == "fail"
    assert "KeyError: 'no such entry'" in excinfo.value.remote_traceback
    assert "Traceback" in str(excinfo.value)
    # The command posted after the failure still runs.
    assert worker.collect() == [3]


def test_a_failing_factory_answers_with_its_traceback():
    worker = Worker("w", Unbuildable)
    try:
        worker.post("anything")
        with pytest.raises(WorkerError) as excinfo:
            worker.collect()
        assert excinfo.value.command == "anything"
        assert "cannot build this host" in excinfo.value.remote_traceback
    finally:
        worker.close()


def test_dead_worker_raises_with_its_exit_code(worker):
    worker.post("sleep", 60.0)
    os.kill(worker._process.pid, signal.SIGKILL)
    with pytest.raises(WorkerError) as excinfo:
        worker.collect()
    assert excinfo.value.command == "sleep"
    assert "worker exited with code -9 before replying" in str(excinfo.value)
    with pytest.raises(WorkerError) as excinfo:
        worker.post("echo", 1)
    assert excinfo.value.command == "echo"
    assert "worker exited with code -9 before the command was sent" in str(
        excinfo.value
    )
    worker.close()  # closing a dead worker twice stays safe


def test_hung_worker_raises_at_the_reply_deadline(monkeypatch, give_up_after_20s):
    monkeypatch.setattr(workers, "REPLY_DEADLINE_S", 0.5)
    worker = Worker("w", Host)
    try:
        worker.post("sleep", 60.0)
        with pytest.raises(WorkerError) as excinfo:
            worker.collect()
        assert excinfo.value.command == "sleep"
        assert "no reply within the 0.5 s reply deadline" in str(excinfo.value)
        start = time.monotonic()
        worker.close()
        assert time.monotonic() - start < 5.0
        assert not worker._process.is_alive()
    finally:
        worker.close()


def test_close_terminates_a_worker_still_owing_a_reply(worker):
    worker.post("sleep", 60.0)
    start = time.monotonic()
    worker.close()
    assert time.monotonic() - start < 5.0
    assert worker._process.exitcode == -signal.SIGTERM


def test_wait_returns_the_workers_whose_reply_arrived(
    monkeypatch, give_up_after_20s
):
    monkeypatch.setattr(workers, "REPLY_DEADLINE_S", 0.5)
    slow, fast = Worker("slow", Host), Worker("fast", Host)
    try:
        slow.post("sleep", 60.0)
        fast.post("echo", 7)
        assert wait([slow, fast]) == [fast]
        assert fast.collect() == [7]
        # With no reply within the deadline, the first worker is named.
        with pytest.raises(WorkerError) as excinfo:
            wait([slow])
        assert excinfo.value.worker_id == "slow"
        assert excinfo.value.command == "sleep"
        assert "reply deadline" in excinfo.value.remote_traceback
    finally:
        slow.close()
        fast.close()


def test_unpicklable_arguments_raise_before_anything_is_sent(worker):
    """Pickle safety is the transport's runtime guarantee: an argument
    that cannot cross to a worker raises in the parent, naming the
    worker and the command, before a process starts or a byte is sent."""
    before = set(multiprocessing.active_children())
    with pytest.raises(WorkerError) as excinfo:
        Worker("unstarted", Host, threading.Lock())
    assert excinfo.value.worker_id == "unstarted"
    assert excinfo.value.command == "Host"
    assert isinstance(excinfo.value.__cause__, TypeError)
    assert "arguments do not pickle" in excinfo.value.remote_traceback
    assert set(multiprocessing.active_children()) <= before

    with pytest.raises(WorkerError) as excinfo:
        worker.post("echo", threading.Lock())
    assert excinfo.value.worker_id == "w"
    assert excinfo.value.command == "echo"
    assert isinstance(excinfo.value.__cause__, TypeError)
    with pytest.raises(WorkerError) as excinfo:
        worker.post("echo", lambda: None)
    assert excinfo.value.command == "echo"
    # Nothing was sent: the next reply is the next command's.
    worker.post("echo", 2)
    assert worker.collect() == [2]


def test_process_shards_raise_shard_errors_through_the_transport():
    shard = ProcessShard("node-1")
    try:
        with pytest.raises(ShardError) as excinfo:
            shard.post("set_budget", threading.Lock())
        assert isinstance(excinfo.value, WorkerError)
        assert excinfo.value.node_id == "node-1"
        assert excinfo.value.command == "set_budget"
        assert isinstance(excinfo.value.__cause__, TypeError)
    finally:
        shard.close()

"""Shard transports: the post/collect protocol and worker failures."""

import os
import signal
import time

import pytest

from repro.fleet import InlineShard, ProcessShard, ShardError
from repro.fleet import shard as shard_module
from repro.fleet.node import FleetNode

from tests.fleet.conftest import build_schedule_trace

pytestmark = pytest.mark.fleet


@pytest.fixture()
def mini():
    trace = build_schedule_trace(["s"] * 4, name="shard-mini")
    return (
        trace.session("s"),
        trace.unique_kernels("s"),
        [(e.index, e.session, e.spec.key) for e in trace.events],
    )


def drive(shard, spec, kernels, events):
    shard.post("add_session", spec, kernels)
    shard.post("step", events)
    shard.post("demand")
    results = shard.collect()
    return results[1], results[2]


def test_process_shard_matches_inline(mini):
    spec, kernels, events = mini
    inline = InlineShard("n")
    process = ProcessShard("n")
    try:
        inline_out = drive(inline, spec, kernels, events)
        process_out = drive(process, spec, kernels, events)
        assert process_out == inline_out
    finally:
        process.close()
        inline.close()


def test_worker_failure_raises_shard_error_with_remote_traceback(mini):
    spec, kernels, events = mini
    shard = ProcessShard("n")
    try:
        shard.post("remove_session", "never-added")
        with pytest.raises(ShardError) as excinfo:
            shard.collect()
        assert excinfo.value.node_id == "n"
        assert excinfo.value.command == "remove_session"
        assert "KeyError" in excinfo.value.remote_traceback
        # One bad command does not wedge the worker: it keeps serving.
        shard.post("add_session", spec, kernels)
        shard.post("step", events)
        _, decisions = shard.collect()
        assert len(decisions) == len(events)
    finally:
        shard.close()


def test_shard_error_is_attributed_to_the_right_command(mini):
    spec, kernels, events = mini
    shard = ProcessShard("n")
    try:
        shard.post("add_session", spec, kernels)
        shard.post("remove_session", "never-added")  # fails
        shard.post("demand")
        with pytest.raises(ShardError) as excinfo:
            shard.collect()
        assert excinfo.value.command == "remove_session"
    finally:
        shard.close()


def test_dead_worker_raises_shard_error_with_exit_code(mini):
    spec, kernels, _ = mini
    shard = ProcessShard("n")
    try:
        shard.post("session_ids")
        assert shard.collect() == [[]]
        # Stopped, the worker cannot answer the next post before it dies.
        os.kill(shard._process.pid, signal.SIGSTOP)
        shard.post("add_session", spec, kernels)
        shard._process.kill()
        shard._process.join()
        with pytest.raises(ShardError) as excinfo:
            shard.collect()
        assert excinfo.value.command == "add_session"
        assert "worker exited with code -9 before replying" in str(excinfo.value)
        with pytest.raises(ShardError) as excinfo:
            shard.post("demand")
        assert excinfo.value.command == "demand"
        assert "worker exited with code -9" in str(excinfo.value)
    finally:
        shard.close()
    shard.close()  # closing a dead shard twice stays safe


def test_hung_worker_raises_shard_error_at_the_reply_deadline(mini, monkeypatch):
    spec, kernels, events = mini

    def hang(self, events):
        time.sleep(60.0)

    def give_up(signum, frame):
        raise TimeoutError("collect waited past the reply deadline")

    # The worker forks after the patch, so its step hangs.
    monkeypatch.setattr(FleetNode, "step", hang)
    monkeypatch.setattr(shard_module, "REPLY_DEADLINE_S", 0.5)
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(20)
    shard = ProcessShard("n")
    try:
        shard.post("add_session", spec, kernels)
        shard.post("step", events)
        with pytest.raises(ShardError) as excinfo:
            shard.collect()
        assert excinfo.value.node_id == "n"
        assert excinfo.value.command == "step"
        assert "no reply within the 0.5 s reply deadline" in str(excinfo.value)
        start = time.monotonic()
        shard.close()
        assert time.monotonic() - start < 5.0
        assert not shard._process.is_alive()
    finally:
        shard.close()
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_process_shard_rejects_obs_kwarg():
    with pytest.raises(ValueError, match="drain_obs"):
        ProcessShard("n", obs=object())


def test_close_is_safe_to_repeat(mini):
    shard = ProcessShard("n")
    shard.close()
    shard.close()

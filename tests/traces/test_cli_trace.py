"""Tests for the ``repro trace`` CLI surface."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.workloads.traces import Trace, stamp_decisions

from .conftest import small_trace

pytestmark = pytest.mark.traces


@pytest.fixture(scope="module")
def stamped_file(tmp_path_factory):
    """A stamped small trace on disk (stamped once per module)."""
    path = tmp_path_factory.mktemp("cli") / "small.jsonl"
    stamp_decisions(small_trace()).dump(str(path))
    return str(path)


def test_record_writes_a_stamped_trace(tmp_path, capsys):
    out = str(tmp_path / "xs.jsonl")
    assert main(["trace", "record", "XSBench", "-o", out]) == 0
    trace = Trace.load(out)
    assert trace.header.source == "record:XSBench"
    assert all(event.decision is not None for event in trace.events)
    assert out in capsys.readouterr().out


def test_replay_faithful_trace_exits_zero(stamped_file, capsys):
    assert main(["trace", "replay", stamped_file]) == 0
    out = capsys.readouterr().out
    assert "16 launches" in out
    assert "0 mismatches" not in out  # faithful replays don't warn


def test_replay_tampered_trace_exits_one(stamped_file, tmp_path, capsys):
    trace = Trace.load(stamped_file)
    decisions = [e.decision for e in trace.events]
    decisions[0] = dataclasses.replace(
        decisions[0], gpu_energy_j=decisions[0].gpu_energy_j + 1e-9
    )
    bad = str(tmp_path / "tampered.jsonl")
    trace.with_decisions(decisions).dump(bad)
    assert main(["trace", "replay", bad]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_replay_writes_obs_artifacts(stamped_file, tmp_path):
    spans = str(tmp_path / "spans.jsonl")
    metrics = str(tmp_path / "metrics.prom")
    code = main(
        ["trace", "replay", stamped_file,
         "--trace-out", spans, "--metrics-out", metrics]
    )
    assert code == 0
    names = {json.loads(line)["name"] for line in open(spans, encoding="utf-8")}
    assert names == {"launch", "replay"}
    assert "repro_mpc_decisions_total" in open(metrics, encoding="utf-8").read()


def test_replay_rejects_structurally_broken_file(tmp_path, capsys):
    text = small_trace().dumps()
    broken = str(tmp_path / "broken.jsonl")
    with open(broken, "w", encoding="utf-8") as handle:
        # Drop the header: the file starts with a bare launch record.
        handle.write("\n".join(text.splitlines()[1:]) + "\n")
    assert main(["trace", "replay", broken]) == 2
    assert "header" in capsys.readouterr().err


def test_validate_accepts_good_trace(stamped_file, capsys):
    assert main(["trace", "validate", stamped_file]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_flags_semantic_problems(tmp_path, capsys):
    trace = small_trace()
    lines = trace.dumps().splitlines()
    del lines[1]  # first launch gone: session now starts at index 1
    bad = str(tmp_path / "bad.jsonl")
    with open(bad, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    assert main(["trace", "validate", bad]) == 1
    assert "expected 0" in capsys.readouterr().out


def test_generate_writes_validating_corpus(tmp_path, capsys):
    out = str(tmp_path / "corpus")
    assert main(["trace", "generate", "tdp-storm", "--seed", "5",
                 "--output-dir", out]) == 0
    path = f"{out}/tdp-storm-seed5.jsonl"
    assert path in capsys.readouterr().out
    assert main(["trace", "validate", path]) == 0


def test_generate_unknown_family_exits_two(tmp_path, capsys):
    code = main(
        ["trace", "generate", "quiet-day", "--output-dir", str(tmp_path)]
    )
    assert code == 2
    assert "unknown family" in capsys.readouterr().err

"""Reporter behaviour: text formatting, JSON schema stability, round-trip."""

import json

import pytest

from repro.analysis import (
    REPORT_SCHEMA,
    parse_json,
    render_catalogue,
    render_json,
    render_text,
)

from tests.analysis.conftest import lint_fixture

pytestmark = pytest.mark.analysis


def test_json_round_trip_is_lossless():
    result = lint_fixture("rl001", "rl004")
    parsed = parse_json(render_json(result))
    assert parsed == result


def test_json_layout():
    payload = json.loads(render_json(lint_fixture("rl002/bad_rng.py")))
    assert payload["schema"] == REPORT_SCHEMA == 4
    assert payload["tool"] == "repro-lint"
    assert payload["summary"]["findings"] == len(payload["findings"])
    assert payload["summary"]["errors"] == 3
    first = payload["findings"][0]
    assert set(first) == {"path", "line", "col", "rule", "severity", "message"}


def test_json_rules_metadata_names_scope_and_index_need():
    """The metadata names no scope and no index need: every rule checks
    one module at a time."""
    payload = json.loads(render_json(lint_fixture("rl002/good_rng.py")))
    by_id = {entry["id"]: entry for entry in payload["rules"]}
    assert set(by_id) == set(payload["rules_run"])
    assert by_id["RL002"] == {
        "id": "RL002", "name": "unseeded-rng", "severity": "error",
    }


def test_unknown_schema_rejected():
    payload = json.loads(render_json(lint_fixture("rl002/good_rng.py")))
    payload["schema"] = REPORT_SCHEMA + 1
    with pytest.raises(ValueError):
        parse_json(json.dumps(payload))


def test_text_report_has_location_lines_and_summary():
    result = lint_fixture("rl001")
    text = render_text(result)
    lines = text.splitlines()
    assert len(lines) == len(result.findings) + 1
    assert lines[0].count(":") >= 3  # path:line:col: id severity: message
    assert "3 files checked" in lines[-1]
    assert "3 errors" in lines[-1]


def test_catalogue_lists_every_rule_with_scope():
    """One line per rule: id, name, severity and description, and no
    scope, as every rule checks one module at a time."""
    lines = render_catalogue().splitlines()
    assert [line.split()[0] for line in lines] == ["RL001", "RL002", "RL004"]
    assert lines[1] == (
        "RL002 unseeded-rng [error]: "
        "random draws must come from an explicitly seeded generator"
    )

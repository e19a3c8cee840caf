"""Observability pins: span and metric bytes of two live runs.

``obs_pins/digests.json`` holds the sha256 of the span JSONL and the
Prometheus text of a health-on ``step_batch`` replay of every golden
trace and of a 4-node rebalancing fleet run (see
``obs_pins/generate.py``).  The other byte-identity checks compare two
runs of one commit (process against inline, ``--jobs 1`` against
``--jobs 4``); these compare a run against what an earlier commit
wrote, so a change to how spans and metrics are produced cannot move
their bytes unnoticed.

Regenerate with ``python tests/differential/obs_pins/generate.py`` when
a change to the exported bytes is intentional.
"""

import json

import pytest

from .golden.generate import GOLDEN_FAMILIES
from .obs_pins.generate import DIGESTS_PATH, fleet_digests, replay_digests

pytestmark = pytest.mark.obs


def _pinned(run):
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)[run]


@pytest.mark.parametrize("family", GOLDEN_FAMILIES)
def test_batched_health_replay_matches_pinned_digests(family):
    assert replay_digests(family) == _pinned(f"replay/{family}")


def test_rebalancing_fleet_run_matches_pinned_digests():
    assert fleet_digests() == _pinned("fleet/serverless")

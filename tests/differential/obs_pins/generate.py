"""Regenerate the checked-in observability digests.

``digests.json`` pins the sha256 of the span JSONL and the Prometheus
text of two live-observability runs:

* a health-on ``step_batch`` replay of each golden trace in
  ``../golden/`` (``tests.batched_replay.replay_batched``);
* a 4-node inline ``FleetSimulator`` run of ``golden/serverless.jsonl``
  under a 250 W cap with rebalancing.

``test_obs_pins.py`` recomputes them: a change to how the decision
path writes spans or metrics that moves a single byte shows up there.
When such a change is intentional, regenerate and commit:

    PYTHONPATH=src python tests/differential/obs_pins/generate.py
"""

import hashlib
import json
import os

from repro.fleet import FleetSimulator
from repro.obs.exporters import prometheus_text
from repro.workloads.traces import Trace
from tests.batched_replay import replay_batched
from tests.differential.golden.generate import GOLDEN_DIR, GOLDEN_FAMILIES

PINS_DIR = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(PINS_DIR, "digests.json")

#: The fleet run: nodes, cap and rebalancing.
FLEET_NODES = 4
FLEET_CAP_W = 250.0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _jsonl(spans) -> str:
    """Spans as ``repro.obs.exporters.write_jsonl`` writes them."""
    return "".join(json.dumps(span, sort_keys=True) + "\n" for span in spans)


def _digests(spans, registry):
    return {
        "spans": _sha256(_jsonl(spans)),
        "metrics": _sha256(prometheus_text(registry)),
    }


def _golden(family: str) -> Trace:
    return Trace.load(os.path.join(GOLDEN_DIR, f"{family}.jsonl"))


def replay_digests(family: str):
    """Digests of a health-on batched replay of one golden trace."""
    report = replay_batched(_golden(family))
    return _digests(report.health.tracer.spans, report.registry)


def fleet_digests():
    """Digests of the 4-node rebalancing fleet run of ``serverless``."""
    report = FleetSimulator(
        _golden("serverless"), nodes=FLEET_NODES, cap_w=FLEET_CAP_W,
        rebalance=True,
    ).run()
    return _digests(report.spans, report.registry)


def compute():
    """Every pinned digest, keyed by run name."""
    runs = {f"replay/{family}": replay_digests(family) for family in GOLDEN_FAMILIES}
    runs["fleet/serverless"] = fleet_digests()
    return runs


def main() -> None:
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(compute(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DIGESTS_PATH}")


if __name__ == "__main__":
    main()

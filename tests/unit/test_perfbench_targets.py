"""Every function the benchmark's traced run wraps must exist.

``perfbench/run.py --trace 1`` looks each target up with ``getattr``
when it installs its wrappers, so a renamed or deleted method would
otherwise surface only as an ``AttributeError`` in a traced run.
"""

import importlib
import os

import pytest

PERFBENCH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir, "perfbench"
)


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(os.path.abspath(PERFBENCH))
        yield importlib.import_module("tracing")


def _resolve(target):
    module_name, owner_name, attr = target
    owner = importlib.import_module(module_name)
    if owner_name:
        owner = getattr(owner, owner_name, None)
    return getattr(owner, attr, None)


def test_every_trace_target_resolves(tracing):
    targets = [*tracing.all_targets(), *tracing.FLEET_TARGETS]
    assert targets
    unresolved = [
        name for _, name, target in targets if not callable(_resolve(target))
    ]
    assert unresolved == []

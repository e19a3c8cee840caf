"""Shared plumbing for the flow-sensitive rules (RL009, RL012).

Both rules govern the same territory: modules under a ``repro/``
component, which matches both the shipped tree
(``src/repro/obs/metrics.py``) and the fixture mirror-trees
(``tests/analysis/fixtures/rl009/repro/obs/bad.py``) while leaving
ordinary test files alone — tests exercise unlocked fast paths on
purpose.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.analysis.index import ModuleInfo, ProjectIndex, path_matches

__all__ = ["FLOW_PATHS", "flow_modules", "Seen"]

#: Path fragments the flow rules govern.
FLOW_PATHS = ("repro/",)

#: Dedupe key: duplicated ``finally`` bodies mean one source statement
#: can sit in several CFG blocks; findings collapse per source point.
Seen = Set[Tuple[int, int, str]]


def flow_modules(index: ProjectIndex) -> List[ModuleInfo]:
    """The indexed modules the flow rules apply to."""
    return [
        module
        for module in index.modules
        if any(path_matches(module.rel_path, path) for path in FLOW_PATHS)
    ]

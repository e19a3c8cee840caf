"""A one-level call-graph layer over the :class:`ProjectIndex`.

The flow analyses are intraprocedural; this module is what lets facts
cross a function boundary *once*: it indexes every annotated definition
in the project so a rule looking at a call site can ask "does the thing
being called carry a contract?".

Resolution is name-based, matching how the codebase actually calls
things:

* Method calls (``obj.helper(...)``) match annotated defs by attribute
  name — any class, any module.  The annotation grammar is sparse
  enough (``requires-lock``) that name collisions across unrelated
  classes would themselves be a smell.
* Plain calls resolve through the module's import-alias map first, so
  ``from pkg.mod import helper`` and ``mod.helper(...)`` both land on
  the annotated ``helper`` definition; the match is on the final
  component.

``ProjectFlow`` also records the raw caller -> callee-name edges per
function, which the stats output and the tests use to reason about
propagation without re-walking every AST.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.index import ModuleInfo, ProjectIndex

from .annotations import FunctionFlow, module_flow
from .cfg import calls_in

__all__ = ["ProjectFlow", "project_flow", "call_name"]

#: Cache key under which :func:`project_flow` memoizes on the index.
_CACHE_KEY = "flow-callgraph"


def call_name(call: ast.Call, module: Optional[ModuleInfo] = None) -> Optional[str]:
    """The name a call dispatches on.

    Attribute calls yield the attribute (``registry.snapshot`` ->
    ``snapshot``); plain calls yield the last component of the
    alias-resolved dotted name (``mod.helper`` -> ``helper``).  Subscripted or computed callees yield the
    final attribute when there is one (``d[k].close`` -> ``close``),
    else ``None``.
    """
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        resolved = module.resolve(func) if module is not None else func.id
        return (resolved or func.id).rsplit(".", 1)[-1]
    return None


@dataclass
class ProjectFlow:
    """Project-wide contract index plus the function-level call graph.

    Attributes:
        requires_lock: Callee name -> lock attribute its callers must
            hold (explicit annotations only; the implicit
            ``*_unlocked`` convention needs no table).
        calls: Function qualname (``rel_path::Class.method``) -> names
            it calls, for one-level propagation queries.
    """

    requires_lock: Dict[str, str] = field(default_factory=dict)
    calls: Dict[str, List[str]] = field(default_factory=dict)

    def required_lock_for_call(
        self, call: ast.Call, module: Optional[ModuleInfo] = None
    ) -> Optional[str]:
        """Lock attribute a call site must hold, or ``None``.

        ``*_unlocked`` callees require ``lock`` by convention; other
        callees require whatever their annotation declares.
        """
        name = call_name(call, module)
        if name is None:
            return None
        if name.endswith("_unlocked"):
            return "lock"
        return self.requires_lock.get(name)


def _register(flow: ProjectFlow, func: FunctionFlow) -> None:
    required = func.annotations.get("requires-lock")
    if required:
        flow.requires_lock[func.name] = required


def project_flow(index: ProjectIndex) -> ProjectFlow:
    """The contract index of a project (memoized on ``index.caches``)."""
    cached = index.caches.get(_CACHE_KEY)
    if isinstance(cached, ProjectFlow):
        return cached
    flow = ProjectFlow()
    for module in index.modules:
        mod_flow = module_flow(module)
        for func in mod_flow.functions:
            _register(flow, func)
            callees: List[str] = []
            for call in calls_in(func.node):
                name = call_name(call, module)
                if name is not None:
                    callees.append(name)
            flow.calls[f"{module.rel_path}::{func.qualname}"] = callees
    index.caches[_CACHE_KEY] = flow
    return flow

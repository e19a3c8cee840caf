"""Flow-sensitive analysis tier: CFGs, dataflow, contracts, call graph.

This package powers RL009 and RL012.  Layering, bottom-up:

* :mod:`repro.analysis.flow.cfg` — per-function control-flow graphs
  with normal and exceptional edges.
* :mod:`repro.analysis.flow.dataflow` — the forward worklist fixpoint
  engine analyses plug into.
* :mod:`repro.analysis.flow.annotations` — the ``# repro-lint:``
  contract-comment grammar plus the per-module flow model
  (functions, classes) built on it.
* :mod:`repro.analysis.flow.callgraph` — the project-wide contract
  index that lets call sites see callee annotations (one-level
  interprocedural propagation).
* :mod:`repro.analysis.flow.locksets` — the held-locks must-analysis
  shared by the lock-discipline and shared-mutation rules.

See ``docs/ANALYSIS.md`` ("The flow engine") for the model and the
annotation syntax.
"""

from .annotations import (
    ClassFlow,
    FunctionFlow,
    ModuleFlow,
    is_lock_name,
    lock_token,
    module_flow,
    scan_annotation_comments,
)
from .callgraph import ProjectFlow, call_name, project_flow
from .cfg import CFG, Atom, Block, build_cfg, calls_in
from .dataflow import ForwardAnalysis, run_forward
from .locksets import HeldLocks, held_lock_states

__all__ = [
    "Atom",
    "Block",
    "CFG",
    "build_cfg",
    "calls_in",
    "ForwardAnalysis",
    "run_forward",
    "scan_annotation_comments",
    "module_flow",
    "ModuleFlow",
    "FunctionFlow",
    "ClassFlow",
    "is_lock_name",
    "lock_token",
    "ProjectFlow",
    "project_flow",
    "call_name",
    "HeldLocks",
    "held_lock_states",
]

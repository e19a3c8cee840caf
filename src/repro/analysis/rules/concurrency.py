"""RL004 worker-pickle-safety: ProcessPool payloads must pickle cleanly.

Everything handed to a ``ProcessPoolExecutor`` — the submitted callable,
its arguments, and the pool's ``initializer``/``initargs`` — crosses a
process boundary by pickling.  Lambdas and nested functions fail
outright; locks, open files, and the observability bundle (tracer /
metrics registry, which hold thread-local state and locks) either fail
or, worse, pickle a *copy* whose mutations are silently lost in the
parent.  The engine's contract is that workers receive plain value
objects (requests, spec dicts) and ship plain value objects back.

The rule resolves pool receivers statically: a name bound (by
assignment or ``with ... as``) to a ``ProcessPoolExecutor(...)`` call.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.index import ModuleInfo, dotted_name
from repro.analysis.registry import rule
from repro.analysis.rules.common import ScopeMap

__all__ = ["check_worker_pickle_safety"]

#: Constructor calls whose results must never travel to a worker.
_UNPICKLABLE_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Barrier",
        "open",
        "io.open",
        "builtins.open",
    }
)

#: Obs-bundle constructors (suffix-matched; they carry locks and
#: thread-local state, and worker-side mutations would be lost anyway).
_OBS_FACTORY_SUFFIXES = (
    "Instrumentation",
    "Tracer",
    "MetricsRegistry",
    "make_instrumentation",
)

#: Bare names that denote the obs bundle when passed wholesale.
_OBS_NAMES = frozenset({"obs", "tracer", "registry", "instrumentation"})


def _is_pool_constructor(module: ModuleInfo, node: ast.expr) -> bool:
    resolved = module.resolve(node)
    return resolved is not None and resolved.endswith("ProcessPoolExecutor")


def _resolves_to_pool(
    module: ModuleInfo, scopes: ScopeMap, node: ast.expr
) -> bool:
    """Whether an expression denotes a ProcessPoolExecutor instance."""
    if isinstance(node, ast.Call):
        return _is_pool_constructor(module, node.func)
    if isinstance(node, ast.Name):
        value = scopes.lookup(node, node.id)
        return (
            value is not None
            and isinstance(value, ast.Call)
            and _is_pool_constructor(module, value.func)
        )
    return False


def _finding(module: ModuleInfo, node: ast.AST, message: str) -> Finding:
    return Finding(
        path=module.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        rule_id="RL004",
        severity=Severity.ERROR,
        message=message,
    )


def _check_target(
    module: ModuleInfo, scopes: ScopeMap, node: ast.expr
) -> Optional[Finding]:
    """Validate the callable submitted to (or initializing) a pool."""
    if isinstance(node, ast.Lambda):
        return _finding(
            module, node,
            "lambda submitted to a process pool is not picklable; "
            "use a module-level function",
        )
    if isinstance(node, ast.Attribute):
        return _finding(
            module, node,
            f"bound callable {dotted_name(node) or node.attr!r} submitted "
            "to a process pool may capture unpicklable state; submit a "
            "module-level function and pass plain data",
        )
    if isinstance(node, ast.Name):
        if scopes.is_nested_def(node, node.id):
            return _finding(
                module, node,
                f"nested function {node.id!r} submitted to a process pool "
                "is not picklable; move it to module level",
            )
        value = scopes.lookup(node, node.id)
        if isinstance(value, ast.Lambda):
            return _finding(
                module, node,
                f"{node.id!r} is a lambda; lambdas are not picklable "
                "across the process boundary",
            )
    return None


def _payload_problem(
    module: ModuleInfo, scopes: ScopeMap, node: ast.expr
) -> Optional[str]:
    """Why an argument expression is unsafe to ship to a worker."""
    if isinstance(node, ast.Lambda):
        return "a lambda is not picklable"
    if isinstance(node, ast.Call):
        return _call_problem(module, node)
    if isinstance(node, ast.Name):
        if node.id in _OBS_NAMES:
            return (
                f"{node.id!r} is the observability bundle; ship value "
                "snapshots (registry.snapshot() / span dicts) instead"
            )
        value = scopes.lookup(node, node.id)
        if isinstance(value, ast.Lambda):
            return f"{node.id!r} is bound to a lambda"
        if isinstance(value, ast.Call):
            problem = _call_problem(module, value)
            if problem is not None:
                return f"{node.id!r} is {problem}"
    if isinstance(node, ast.Attribute) and node.attr in _OBS_NAMES:
        return (
            f"{dotted_name(node) or node.attr!r} is the observability "
            "bundle; ship value snapshots instead"
        )
    return None


def _call_problem(module: ModuleInfo, call: ast.Call) -> Optional[str]:
    resolved = module.resolve(call.func)
    if resolved is None:
        return None
    if resolved in _UNPICKLABLE_FACTORIES:
        kind = "an open file" if resolved.endswith("open") else "a lock"
        return f"{kind} ({resolved}) and cannot cross the process boundary"
    if any(resolved.endswith(suffix) for suffix in _OBS_FACTORY_SUFFIXES):
        return (
            f"the observability bundle ({resolved}); workers must ship "
            "value snapshots back instead"
        )
    return None


def _check_payload(
    module: ModuleInfo, scopes: ScopeMap, node: ast.expr
) -> Optional[Finding]:
    problem = _payload_problem(module, scopes, node)
    if problem is None:
        return None
    return _finding(
        module, node, f"process-pool payload is unsafe to pickle: {problem}"
    )


@rule(
    "RL004",
    "worker-pickle-safety",
    "process-pool submissions must be module-level callables with "
    "plain-value payloads (no locks, files, or obs bundles)",
)
def check_worker_pickle_safety(module: ModuleInfo) -> Iterator[Finding]:
    """Flag unpicklable process-pool targets and payloads."""
    # Built at the first pool-shaped call: most modules have none.
    scopes: Optional[ScopeMap] = None
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        submit = isinstance(func, ast.Attribute) and func.attr == "submit"
        if not submit and not _is_pool_constructor(module, func):
            continue
        if scopes is None:
            scopes = ScopeMap(module.tree)
        # pool.submit(target, *args, **kwargs)
        if submit:
            if not _resolves_to_pool(module, scopes, func.value):
                continue
            if node.args:
                finding = _check_target(module, scopes, node.args[0])
                if finding is not None:
                    yield finding
            for arg in node.args[1:]:
                finding = _check_payload(module, scopes, arg)
                if finding is not None:
                    yield finding
            for keyword in node.keywords:
                finding = _check_payload(module, scopes, keyword.value)
                if finding is not None:
                    yield finding
        # ProcessPoolExecutor(initializer=..., initargs=(...))
        else:
            for keyword in node.keywords:
                if keyword.arg == "initializer":
                    finding = _check_target(module, scopes, keyword.value)
                    if finding is not None:
                        yield finding
                elif keyword.arg == "initargs":
                    elements = (
                        keyword.value.elts
                        if isinstance(keyword.value, (ast.Tuple, ast.List))
                        else [keyword.value]
                    )
                    for element in elements:
                        finding = _check_payload(module, scopes, element)
                        if finding is not None:
                            yield finding

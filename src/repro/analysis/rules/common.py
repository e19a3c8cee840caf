"""Shared AST scope analysis for the built-in rules.

The rules here never need full type inference — they need to answer
three cheap questions about a node:

* which function (stack) encloses it,
* what expression a local name was last bound to in that function, and
* whether a name is one of that function's parameters or nested
  definitions.

:class:`ScopeMap` precomputes all of that in one pass per module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple, Union

__all__ = ["FunctionScope", "ScopeMap"]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Sentinel for names bound by loops/comprehensions (value unknowable).
LOOP_BOUND = ast.Constant(value=None)


@dataclass
class FunctionScope:
    """Static facts about one function body.

    Attributes:
        node: The function definition.
        assignments: Local name -> last assigned expression (walked in
            source order; loop targets map to :data:`LOOP_BOUND`).
        params: Parameter names.
        nested_defs: Names of functions/classes defined inside.
    """

    node: FunctionNode
    assignments: Dict[str, ast.expr] = field(default_factory=dict)
    params: Set[str] = field(default_factory=set)
    nested_defs: Set[str] = field(default_factory=set)


def _bind_target(scope: FunctionScope, target: ast.expr, value: ast.expr) -> None:
    if isinstance(target, ast.Name):
        scope.assignments[target.id] = value
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _bind_target(scope, element, LOOP_BOUND)
    elif isinstance(target, ast.Starred):
        _bind_target(scope, target.value, LOOP_BOUND)


def _collect_scope(func: FunctionNode) -> FunctionScope:
    scope = FunctionScope(node=func)
    args = func.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg):
        if arg is not None:
            scope.params.add(arg.arg)

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope.nested_defs.add(child.name)
                continue  # bindings inside nested defs are theirs
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    _bind_target(scope, target, child.value)
            elif isinstance(child, ast.AnnAssign) and child.value is not None:
                _bind_target(scope, child.target, child.value)
            elif isinstance(child, ast.AugAssign):
                _bind_target(scope, child.target, LOOP_BOUND)
            elif isinstance(child, (ast.For, ast.AsyncFor)):
                _bind_target(scope, child.target, LOOP_BOUND)
            elif isinstance(child, (ast.With, ast.AsyncWith)):
                for item in child.items:
                    if item.optional_vars is not None:
                        _bind_target(
                            scope, item.optional_vars, item.context_expr
                        )
            elif isinstance(child, ast.comprehension):
                _bind_target(scope, child.target, LOOP_BOUND)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    scope.assignments[bound] = LOOP_BOUND
            visit(child)

    visit(func)
    return scope


class ScopeMap:
    """Per-module map from AST nodes to their enclosing function scopes."""

    def __init__(self, tree: ast.Module) -> None:
        self._stack_of: Dict[int, Tuple[FunctionScope, ...]] = {}
        self._scopes: Dict[int, FunctionScope] = {}
        self._walk(tree, ())

    def _walk(self, node: ast.AST, stack: Tuple[FunctionScope, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            child_stack = stack
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = self._scopes.get(id(child))
                if scope is None:
                    scope = _collect_scope(child)
                    self._scopes[id(child)] = scope
                child_stack = stack + (scope,)
            self._stack_of[id(child)] = child_stack
            self._walk(child, child_stack)

    def stack_for(self, node: ast.AST) -> Tuple[FunctionScope, ...]:
        """Enclosing function scopes, outermost first (empty at module level)."""
        return self._stack_of.get(id(node), ())

    def lookup(self, node: ast.AST, name: str) -> Optional[ast.expr]:
        """The expression a name was last assigned in the innermost
        enclosing function that binds it, else ``None``."""
        for scope in reversed(self.stack_for(node)):
            if name in scope.assignments:
                return scope.assignments[name]
            if name in scope.params or name in scope.nested_defs:
                return None
        return None

    def is_nested_def(self, node: ast.AST, name: str) -> bool:
        """Whether a name refers to a def nested inside an enclosing
        function (and therefore not picklable)."""
        for scope in reversed(self.stack_for(node)):
            if name in scope.nested_defs:
                return True
            if name in scope.assignments or name in scope.params:
                return False
        return False


"""Flow annotations: the comment grammar that feeds RL009 and RL012.

The pattern-match rules (RL001, RL002, RL004) read code as-is; the
flow rules additionally honor machine-checked *contract comments*,
styled after the existing suppression directives and scanned the same
way (via :mod:`tokenize`, so strings never match)::

    # repro-lint: requires-lock=lock          (on a def, or line above)
    # repro-lint: shared-state=_metrics,sources   (on a class)

* ``requires-lock=<attr>`` — the function may only run while the
  receiver's ``<attr>`` lock is held; RL009 checks every call site and
  seeds the lock as held inside the body.  Methods named ``*_unlocked``
  get this contract implicitly (attr ``lock``).
* ``shared-state=<a>,<b>`` — the named attributes of the class are
  mutated from multiple threads; RL012 requires every write outside
  ``__init__`` to happen under a lock frame.

Annotations attach to the statement on their own line, or to the
statement directly below when written on a line of their own (above
any decorators).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.index import ModuleInfo

from .cfg import CFG, FunctionNode, build_cfg

__all__ = [
    "scan_annotation_comments",
    "FunctionFlow",
    "ClassFlow",
    "ModuleFlow",
    "module_flow",
    "normalize_lock_component",
    "is_lock_name",
    "lock_token",
]

#: One ``key`` or ``key=value`` contract inside a comment token.
_ANNOTATION_RE = re.compile(
    r"repro-lint:\s*"
    r"(?P<key>requires-lock|shared-state)"
    r"(?:\s*=\s*(?P<value>[A-Za-z0-9_.,]+))?"
)

#: Cache key under which :func:`module_flow` memoizes on the module.
_CACHE_KEY = "flow"


def scan_annotation_comments(source: str) -> Dict[int, Dict[str, str]]:
    """Map 1-based line -> ``{key: value}`` for every contract comment."""
    annotations: Dict[int, Dict[str, str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return annotations
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        for match in _ANNOTATION_RE.finditer(token.string):
            line = annotations.setdefault(token.start[0], {})
            line[match.group("key")] = match.group("value") or ""
    return annotations


# ----- lock-name heuristics ----------------------------------------------------------


def normalize_lock_component(component: str) -> str:
    """Strip leading underscores from an attribute/variable name."""
    return component.lstrip("_")


def is_lock_name(component: str) -> bool:
    """Whether a name denotes a lock by convention.

    Matches ``lock``, ``mutex``, and any ``*_lock`` after stripping
    leading underscores — so ``_lock``, ``_m_lock`` and
    ``registry.lock`` qualify while ``clock`` does not.
    """
    norm = normalize_lock_component(component)
    return norm in ("lock", "mutex") or norm.endswith("_lock")


def lock_token(dotted: str) -> Optional[str]:
    """Canonical held-lock token for a dotted name, if lock-like.

    ``self._lock`` and ``self.lock`` canonicalize to the same token
    (``self.lock`` — aliased attributes of the same object), while
    ``self._m_lock`` keeps its distinct identity as ``self.m_lock``.
    """
    parts = dotted.split(".")
    if not is_lock_name(parts[-1]):
        return None
    parts[-1] = normalize_lock_component(parts[-1])
    return ".".join(parts)


# ----- per-module flow model ---------------------------------------------------------


@dataclass
class FunctionFlow:
    """One function definition plus its flow contracts.

    Attributes:
        node: The ``def`` AST node.
        name: Bare function name.
        qualname: Dotted name within the module (``Class.method``).
        class_name: Enclosing class when the def is a method.
        annotations: Contract comments attached to the def.
    """

    node: FunctionNode
    name: str
    qualname: str
    class_name: Optional[str] = None
    annotations: Dict[str, str] = field(default_factory=dict)
    _cfg: Optional[CFG] = field(default=None, repr=False, compare=False)

    def cfg(self) -> CFG:
        """The function's control-flow graph (built once, cached)."""
        if self._cfg is None:
            self._cfg = build_cfg(self.node)
        return self._cfg

    @property
    def requires_lock(self) -> Optional[str]:
        """Lock attribute the caller must hold, or ``None``.

        ``*_unlocked`` naming implies ``requires-lock=lock``.
        """
        explicit = self.annotations.get("requires-lock")
        if explicit:
            return explicit
        if self.name.endswith("_unlocked"):
            return "lock"
        return None

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class ClassFlow:
    """One class definition plus its flow contracts.

    Attributes:
        node: The ``class`` AST node.
        name: Class name.
        shared_state: Attribute names declared mutable-across-threads
            via ``shared-state=``.
    """

    node: ast.ClassDef
    name: str
    shared_state: Tuple[str, ...] = ()


@dataclass
class ModuleFlow:
    """Flow-level facts of one module.

    Attributes:
        module: The underlying parsed module.
        functions: Every function/method definition, outermost first.
        classes: Every class definition.
        annotations: Raw line -> contract map.
    """

    module: ModuleInfo
    functions: List[FunctionFlow] = field(default_factory=list)
    classes: List[ClassFlow] = field(default_factory=list)
    annotations: Dict[int, Dict[str, str]] = field(default_factory=dict)

    def methods_of(self, class_name: str) -> List[FunctionFlow]:
        return [f for f in self.functions if f.class_name == class_name]


def _attached(
    annotations: Dict[int, Dict[str, str]], node: ast.stmt
) -> Dict[str, str]:
    """Contracts on the statement's own line or the line above it.

    For decorated defs "above" means above the first decorator.
    """
    first = node.lineno
    for decorator in getattr(node, "decorator_list", []):
        first = min(first, decorator.lineno)
    merged: Dict[str, str] = {}
    for line in (first - 1, node.lineno):
        merged.update(annotations.get(line, {}))
    return merged


class _FlowVisitor(ast.NodeVisitor):
    def __init__(self, flow: ModuleFlow) -> None:
        self.flow = flow
        self.class_stack: List[str] = []
        self.qual_stack: List[str] = []

    def _visit_def(self, node: FunctionNode) -> None:
        qualname = ".".join(self.qual_stack + [node.name])
        # ``class_name`` is only set for direct methods: a def nested
        # inside a method is a closure, not a method of the class.
        direct_method = bool(self.qual_stack) and (
            self.class_stack and self.qual_stack[-1] == self.class_stack[-1]
        )
        self.flow.functions.append(
            FunctionFlow(
                node=node,
                name=node.name,
                qualname=qualname,
                class_name=self.class_stack[-1] if direct_method else None,
                annotations=_attached(self.flow.annotations, node),
            )
        )
        self.qual_stack.append(node.name)
        self.generic_visit(node)
        self.qual_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_def(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        attached = _attached(self.flow.annotations, node)
        shared = tuple(
            part.strip()
            for part in attached.get("shared-state", "").split(",")
            if part.strip()
        )
        self.flow.classes.append(
            ClassFlow(node=node, name=node.name, shared_state=shared)
        )
        self.class_stack.append(node.name)
        self.qual_stack.append(node.name)
        self.generic_visit(node)
        self.qual_stack.pop()
        self.class_stack.pop()


def module_flow(module: ModuleInfo) -> ModuleFlow:
    """The flow model of a module (memoized on ``module.caches``)."""
    cached = module.caches.get(_CACHE_KEY)
    if isinstance(cached, ModuleFlow):
        return cached
    flow = ModuleFlow(
        module=module, annotations=scan_annotation_comments(module.source)
    )
    _FlowVisitor(flow).visit(module.tree)
    module.caches[_CACHE_KEY] = flow
    return flow

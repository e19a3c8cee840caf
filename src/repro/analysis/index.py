"""The parsed modules rules run against.

The engine parses every discovered file once into a :class:`ModuleInfo`
(AST, source, suppressions, normalized path).  Each module carries its
import alias map, so every rule resolves ``np.random.default_rng`` and
friends the same way.

Path scoping uses the *normalized relative path* (``rel_path``, always
``/``-separated).  Rules match path fragments such as
``"repro/sim/"`` against it, which makes the same rule work both on the
real tree (``src/repro/sim/simulator.py``) and on fixture trees that
mirror the layout (``tests/analysis/fixtures/rl001/repro/sim/bad.py``).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.suppressions import Suppressions, scan_suppressions

__all__ = [
    "ModuleInfo",
    "build_module",
    "dotted_name",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """The dotted name of a ``Name``/``Attribute`` chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class ModuleInfo:
    """One parsed source file.

    Attributes:
        path: The path as discovered (used in findings).
        rel_path: Normalized ``/``-separated relative path for scoping.
        tree: Parsed AST.
        source: Raw source text.
        suppressions: The file's suppression directives.
        import_aliases: Local name -> imported dotted name, e.g.
            ``{"np": "numpy", "perf_counter": "time.perf_counter"}``.
    """

    path: str
    rel_path: str
    tree: ast.Module
    source: str
    suppressions: Suppressions
    import_aliases: Dict[str, str] = field(default_factory=dict)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully-qualified dotted name of a ``Name``/``Attribute`` chain.

        Import aliases are expanded: with ``import numpy as np``,
        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng``.
        """
        name = dotted_name(node)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        target = self.import_aliases.get(head)
        if target is None:
            return name
        return f"{target}.{rest}" if rest else target


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def build_module(path: str, root: Optional[str] = None) -> ModuleInfo:
    """Parse one source file into a :class:`ModuleInfo`.

    Raises:
        SyntaxError: When the file does not parse; the engine converts
            this into a parse-error finding.
    """
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    rel = os.path.relpath(path, root) if root else path
    rel_path = rel.replace(os.sep, "/")
    tree = ast.parse(source, filename=path)
    return ModuleInfo(
        path=path,
        rel_path=rel_path,
        tree=tree,
        source=source,
        suppressions=scan_suppressions(source),
        import_aliases=_import_aliases(tree),
    )


def path_matches(rel_path: str, fragment: str) -> bool:
    """Whether a normalized path contains a ``/``-separated fragment.

    A fragment ending in ``/`` matches a directory anywhere in the
    path (including at the start); otherwise it must match a suffix at
    a component boundary: ``"repro/sim/"`` matches
    ``src/repro/sim/simulator.py`` and ``"engine/variants.py"``
    matches ``src/repro/engine/variants.py``.
    """
    haystack = "/" + rel_path
    if fragment.endswith("/"):
        return "/" + fragment in haystack
    return haystack.endswith("/" + fragment)

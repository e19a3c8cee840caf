"""Per-line and per-file suppression comments.

Syntax (anywhere a comment is legal)::

    x = time.time()  # repro-lint: disable=RL001
    y = foo()        # repro-lint: disable=RL001,RL002
    # repro-lint: disable-file=RL002
    # repro-lint: disable-file=ALL

``disable`` applies to the findings reported on the comment's own line;
``disable-file`` applies to the whole file regardless of where it
appears.  ``ALL`` matches every rule.  Comments are found with
:mod:`tokenize`, so directives inside string literals are ignored.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Tuple

from repro.analysis.findings import Finding

__all__ = ["Suppressions", "scan_suppressions"]

#: Matches one directive inside a comment token.
_DIRECTIVE_RE = re.compile(
    r"repro-lint:\s*(?P<kind>disable-file|disable)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

#: Wildcard rule name matching every rule.
ALL_RULES = "ALL"


@dataclass(frozen=True)
class Suppressions:
    """The suppression directives of one source file.

    Attributes:
        file_wide: Rule ids disabled for the entire file.
        by_line: Rule ids disabled on specific 1-based lines.
    """

    file_wide: FrozenSet[str] = frozenset()
    by_line: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether a finding is silenced by a directive."""
        if self._matches(self.file_wide, finding.rule_id):
            return True
        return self._matches(
            self.by_line.get(finding.line, frozenset()), finding.rule_id
        )

    @staticmethod
    def _matches(rules: FrozenSet[str], rule_id: str) -> bool:
        return ALL_RULES in rules or rule_id in rules


def _directives(source: str) -> Iterator[Tuple[int, str, FrozenSet[str]]]:
    """Yield ``(line, kind, rules)`` for every directive comment."""
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        for match in _DIRECTIVE_RE.finditer(token.string):
            rules = frozenset(
                part.strip() for part in match.group("rules").split(",")
            )
            yield token.start[0], match.group("kind"), rules


def scan_suppressions(source: str) -> Suppressions:
    """Collect the suppression directives of a source file."""
    file_wide: FrozenSet[str] = frozenset()
    by_line: Dict[int, FrozenSet[str]] = {}
    for line, kind, rules in _directives(source):
        if kind == "disable-file":
            file_wide = file_wide | rules
        else:
            by_line[line] = by_line.get(line, frozenset()) | rules
    return Suppressions(file_wide=file_wide, by_line=by_line)

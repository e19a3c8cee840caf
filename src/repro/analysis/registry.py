"""The pluggable rule registry.

A rule is a plain function registered with the :func:`rule` decorator.
It is called once per linted file with that file's
:class:`~repro.analysis.index.ModuleInfo` and yields findings for it.

Registration is import-time: :mod:`repro.analysis.rules` imports every
rule module, so constructing an engine is enough to see the full
catalogue.  Third-party checks can register the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.index import ModuleInfo

__all__ = ["Rule", "rule", "all_rules", "get_rule", "resolve_selection"]

ModuleCheck = Callable[[ModuleInfo], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered invariant check.

    Attributes:
        id: Stable identifier (``"RL001"``); used in suppressions and
            ``--select``/``--ignore``.
        name: Short kebab-case name for reports.
        severity: Default severity of the rule's findings.
        description: One-line rationale shown in the catalogue.
        check: The per-file check.
    """

    id: str
    name: str
    severity: Severity
    description: str
    check: ModuleCheck


_REGISTRY: Dict[str, Rule] = {}


def rule(
    id: str,
    name: str,
    description: str,
    severity: Severity = Severity.ERROR,
) -> Callable[[ModuleCheck], ModuleCheck]:
    """Register a check function as a lint rule.

    Args:
        id: Unique rule id; re-registering an id replaces the rule
            (useful for tests), but ids must be unique per run.
        name: Short kebab-case rule name.
        description: One-line rationale.
        severity: Default severity for the rule's findings.
    """

    def decorator(check: ModuleCheck) -> ModuleCheck:
        _REGISTRY[id] = Rule(
            id=id,
            name=name,
            severity=severity,
            description=description,
            check=check,
        )
        return check

    return decorator


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, ordered by id."""
    return tuple(_REGISTRY[key] for key in sorted(_REGISTRY))


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id."""
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown rule {rule_id!r}; known: {known}") from None


def resolve_selection(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """The rules a ``--select``/``--ignore`` pair enables.

    ``select=None`` means every registered rule; unknown ids in either
    list raise ``KeyError`` so typos fail loudly instead of silently
    linting nothing.
    """
    if select is None:
        chosen = list(all_rules())
    else:
        chosen = [get_rule(rule_id) for rule_id in select]
    ignored = {get_rule(rule_id).id for rule_id in (ignore or ())}
    return [r for r in chosen if r.id not in ignored]

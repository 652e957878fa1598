"""Shared diagnostic types used by the parser and the static validator."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .graph import WorkflowGraph

ERROR = "error"
WARNING = "warning"

# Rule identifiers, in reporting order.
SYNTAX = "SYNTAX"
W1 = "W1"
W2 = "W2"
W3 = "W3"
W4 = "W4"
W5 = "W5"
STRUCT = "STRUCT"

RULE_ORDER = (SYNTAX, W1, W2, W3, W4, W5, STRUCT)
_RULE_INDEX = {rule: i for i, rule in enumerate(RULE_ORDER)}


class _SpanFields(NamedTuple):
    line: int
    column: int
    length: int


class SourceSpan(_SpanFields):
    """1-based location of a statement inside a workflow source text.

    An immutable tuple; the constructor checks the bounds, and
    ``tuple.__new__`` (which the parser uses) trusts its caller.
    """

    __slots__ = ()

    def __new__(cls, line: int, column: int = 1, length: int = 0):
        if line < 1 or column < 1:
            raise ValueError("SourceSpan line and column are 1-based")
        return tuple.__new__(cls, (line, column, length))

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Diagnostic(NamedTuple):
    """One validator or parser finding: an immutable tuple of its five fields."""

    rule: str
    severity: str
    message: str
    subject: str | None = None
    span: SourceSpan | None = None

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def render(self) -> str:
        """Line format: ``RULE severity subject:location message``."""
        subject = self.subject if self.subject is not None else "-"
        location = str(self.span) if self.span is not None else "-"
        return f"{self.rule} {self.severity} {subject}:{location} {self.message}"

    def to_dict(self) -> dict:
        out = {
            "rule": self.rule,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
        }
        if self.span is not None:
            out["line"] = self.span.line
            out["column"] = self.span.column
        return out


def sort_diagnostics(diags) -> list[Diagnostic]:
    """Stable rule-order sort: rule, then subject, then message."""
    return sorted(
        diags,
        key=lambda d: (_RULE_INDEX.get(d.rule, len(RULE_ORDER)), d.subject or "", d.message),
    )


@dataclass(frozen=True)
class Verdict:
    """Binary membership verdict plus the findings behind it.

    ``graph`` is the graph a passing source text lowered to, so a caller
    keeps the value that was checked instead of rebuilding it; it is None
    for failing verdicts and for verdicts on graph values.
    """

    q: int
    diagnostics: tuple[Diagnostic, ...]
    graph: WorkflowGraph | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        has_error = any(d.is_error for d in self.diagnostics)
        if self.q != (0 if has_error else 1):
            raise ValueError("verdict q must be 1 exactly when no error diagnostics exist")

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.is_error)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if not d.is_error)

    def render(self) -> str:
        return "\n".join(d.render() for d in self.diagnostics)

    def to_json(self) -> str:
        return json.dumps(
            {"q": self.q, "diagnostics": [d.to_dict() for d in self.diagnostics]},
            indent=2,
            sort_keys=False,
        )


def make_verdict(diagnostics, graph=None) -> Verdict:
    diags = tuple(diagnostics)
    q = 0 if any(d.is_error for d in diags) else 1
    return Verdict(q, diags, graph if q == 1 else None)

"""Source locations, diagnostics, and the toolkit error type.

Every stage (lexer, parser, resolver, validator, engine, simulator, exporter)
reports problems either as a list of :class:`Diagnostic` values or by raising
:class:`CiotError` carrying such a list plus a stable error code.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class SourceSpan:
    """1-based region of source text; ``end_*`` is inclusive."""

    line: int
    column: int
    end_line: int
    end_column: int

    @staticmethod
    def point(line: int, column: int) -> "SourceSpan":
        return SourceSpan(line, column, line, column)

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        start = min((self.line, self.column), (other.line, other.column))
        end = max((self.end_line, self.end_column), (other.end_line, other.end_column))
        return SourceSpan(start[0], start[1], end[0], end[1])


@dataclass(frozen=True)
class Diagnostic:
    """One finding, renderable as ``file:line:col: severity RULE message``."""

    rule: str
    severity: Severity
    message: str
    span: SourceSpan | None = None
    file: str | None = None

    def render(self) -> str:
        name = self.file or "<input>"
        if self.span is not None:
            loc = f"{name}:{self.span.line}:{self.span.column}"
        else:
            loc = name
        return f"{loc}: {self.severity.value} {self.rule} {self.message}"


# Stable error codes used across the toolkit.
E_LEX = "E_LEX"
E_PARSE = "E_PARSE"
E_IO = "E_IO"
E_UNKNOWN_REF = "E_UNKNOWN_REF"
E_DUPLICATE = "E_DUPLICATE"
E_CYCLE = "E_CYCLE"
E_TYPE_MISMATCH = "E_TYPE_MISMATCH"
E_UNKNOWN_NAME = "E_UNKNOWN_NAME"
E_INSTANTIATE = "E_INSTANTIATE"
E_BAD_TARGET = "E_BAD_TARGET"
E_TYPE = "E_TYPE"
E_EVAL = "E_EVAL"
E_NO_ROUTE = "E_NO_ROUTE"
E_STEP_LIMIT = "E_STEP_LIMIT"
E_SCENARIO = "E_SCENARIO"
E_DOMAIN = "E_DOMAIN"
E_UNBOUND_SENSOR = "E_UNBOUND_SENSOR"
E_TRACE = "E_TRACE"
E_NO_MACHINE = "E_NO_MACHINE"
E_USAGE = "E_USAGE"


class CiotError(Exception):
    """Toolkit failure with a stable code and the diagnostics behind it."""

    def __init__(self, code: str, diagnostics: list[Diagnostic] | None = None) -> None:
        self.code = code
        self.diagnostics: list[Diagnostic] = list(diagnostics or [])
        super().__init__(self.diagnostics[0].message if self.diagnostics else code)

    @classmethod
    def of(cls, code: str, message: str, span: SourceSpan | None = None, file: str | None = None) -> "CiotError":
        """An error carrying one diagnostic whose rule is ``code``."""
        return cls(code, [error(code, message, span, file)])


def error(rule: str, message: str, span: SourceSpan | None = None, file: str | None = None) -> Diagnostic:
    return Diagnostic(rule, Severity.ERROR, message, span, file)


def warning(rule: str, message: str, span: SourceSpan | None = None, file: str | None = None) -> Diagnostic:
    return Diagnostic(rule, Severity.WARNING, message, span, file)

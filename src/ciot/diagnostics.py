"""Source locations, diagnostics, and the toolkit error type.

Every stage (lexer, parser, resolver, validator, engine, simulator, exporter)
reports problems either as a list of :class:`Diagnostic` values or by raising
:class:`CiotError` carrying such a list plus a stable error code.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import NamedTuple


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class SourceSpan(NamedTuple):
    """1-based region of source text; ``end_*`` is inclusive.

    A plain tuple underneath: it equals, unpacks and orders like
    ``(line, column, end_line, end_column)``. Spans are built with
    ``tuple.__new__``, which skips the slower generated constructor."""

    line: int
    column: int
    end_line: int
    end_column: int


# (start, end) character offsets into one text, ``end`` exclusive.
Offsets = tuple[int, int]


class Locator:
    """Line and column of character offsets into one text.

    Tokens, syntax tree nodes (expression nodes too) and metamodel objects
    keep offsets; a :class:`SourceSpan` is built only for a diagnostic, by
    ``bisect`` over the offsets at which the text's lines start, a table
    built once per text. A line ends at ``"\\n"``, and each character (a tab
    or a ``"\\r"`` too) is one column."""

    __slots__ = ("starts",)

    def __init__(self, text: str) -> None:
        self.starts = list(accumulate((len(line) + 1 for line in text.split("\n")[:-1]), initial=0))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Locator) and self.starts == other.starts

    def span(self, start: int, end: int) -> SourceSpan:
        """The span of ``text[start:end]``; an empty one (end of input) is
        the one column at ``start``."""
        starts = self.starts
        line = bisect_right(starts, start)
        first = starts[line - 1]
        last = end - 1 if end > start else start
        if line == len(starts) or last < starts[line]:  # one line, as every token
            return tuple.__new__(SourceSpan, (line, start - first + 1, line, last - first + 1))
        end_line = bisect_right(starts, last, line)
        return tuple.__new__(SourceSpan, (line, start - first + 1, end_line, last - starts[end_line - 1] + 1))


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


def require_type(value: object, kind: type | tuple[type, ...], what: str) -> None:
    """Raise E_USAGE unless ``value``, the argument ``what`` handed to an
    entry point (a text, a path, a model, a runtime, a scenario, a result),
    is a ``kind``, or one of several."""
    if not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise CiotError.of(E_USAGE, f"{what} must be a {names}, got {type(value).__name__}")


def read_text(path: str | os.PathLike) -> str:
    """The UTF-8 text of the file at ``path``, one leading byte-order mark
    dropped, or E_IO (with ``path`` as the diagnostic's file) when it cannot
    be read or is not UTF-8. A ``path`` that is not a str or an
    ``os.PathLike``, such as a file descriptor, is E_USAGE: ``open`` would
    take an int as a descriptor and close it."""
    require_type(path, (str, os.PathLike), "path")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CiotError.of(E_IO, f"cannot read {path!r}: {exc}", None, path) from exc


def error(rule: str, message: str, span: SourceSpan | None = None, file: str | None = None) -> Diagnostic:
    return Diagnostic(rule, Severity.ERROR, message, span, file)

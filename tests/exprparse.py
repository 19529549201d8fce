"""Parse one guard or effect expression on its own, for tests.

The package parses expressions only inside model text; tests that pin the
expression grammar, its error messages or the guard evaluator start from a
bare expression, through the parser's own stream and expression rule.
"""

from __future__ import annotations

from ciot.guards import Expr
from ciot.lexer import TokenKind, describe
from ciot.parser import _parse_expr, _Stream


def parse_expression(source: str, file: str | None = None) -> Expr:
    ts = _Stream(source, file)
    expr = _parse_expr(ts)
    if ts.current[0] is not TokenKind.EOI:
        ts.fail(f"expected end of input, got {describe(ts.current)}")
    return expr

"""Tokenizer for the component-model DSL.

Produces a flat token list ending in an end-of-input token. Each token keeps
its raw source text, so joining token texts reproduces the input modulo
whitespace and ``//`` comments.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .diagnostics import E_LEX, CiotError, SourceSpan


class TokenKind(Enum):
    IDENT = "identifier"
    KEYWORD = "keyword"
    INT = "int literal"
    FLOAT = "float literal"
    STRING = "string literal"
    PUNCT = "punctuation"
    EOI = "end of input"


KEYWORDS = frozenset(
    {
        "payload",
        "interface",
        "component",
        "op",
        "port",
        "provides",
        "requires",
        "property",
        "instance",
        "connect",
        "event",
        "action",
        "incoming",
        "outgoing",
        "generic",
        "send",
        "receive",
        "statemachine",
        "initial",
        "state",
        "entry",
        "exit",
        "continuous",
        "transition",
        "when",
        "self",
        "and",
        "or",
        "not",
        "true",
        "false",
        "int",
        "float",
        "bool",
        "string",
    }
)

# Names that keep their meaning inside expressions and therefore can never be
# used as member names (payload fields, properties, assignment targets).
EXPR_RESERVED = frozenset({"and", "or", "not", "true", "false", "payload"})

# One token per match, after optional blanks. No token spans a newline, so
# the source is scanned line by line. Two-character punctuation comes first
# so ":=", "->", "--" and the two-character comparisons win; FLOAT comes
# before INT so "1.5" is one token while "1." is INT then ".". A line's scan
# stops at "//" or at its end, whichever comes first.
_SCAN = re.compile(
    r"""[ \t\r]*(?:
        (?P<STRING>"(?:[^"\\]|\\.)*")
      | (?P<FLOAT>[0-9]+\.[0-9]+)
      | (?P<INT>[0-9]+)
      | (?P<WORD>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<PUNCT>:=|->|--|==|!=|<=|>=|[{}()\[\]:;,.<>=])
      | (?P<STOP>//|\Z)
    )""",
    re.VERBOSE,
)
_BLANKS = re.compile(r"[ \t\r]*")
_KINDS = {"STRING": TokenKind.STRING, "FLOAT": TokenKind.FLOAT, "INT": TokenKind.INT, "PUNCT": TokenKind.PUNCT}
# Escapes that stand for another character; after any other backslash the
# next character stands for itself.
_ESCAPES = {"n": "\n", "t": "\t"}
# Tokens and spans are built without their generated constructors, which
# take nearly twice as long.
_new = tuple.__new__


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        _, text, line, column = self
        return _new(SourceSpan, (line, column, line, column + (len(text) or 1) - 1))

    def describe(self) -> str:
        if self.kind is TokenKind.EOI:
            return "end of input"
        return f"{self.kind.value} {self.text!r}"


def tokenize(source: str, file: str | None = None) -> list[Token]:
    """Tokenize ``source``; raises CiotError (E_LEX) on the first bad character."""
    tokens: list[Token] = []
    append = tokens.append
    match = _SCAN.match
    for lineno, line in enumerate(source.split("\n"), 1):
        pos = 0
        while m := match(line, pos):
            group = m.lastgroup
            if group == "STOP":
                break
            text = m[group]
            if group == "WORD":
                kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            else:
                kind = _KINDS[group]
            append(_new(Token, (kind, text, lineno, m.start(group) + 1)))
            pos = m.end()
        else:
            at = _BLANKS.match(line, pos).end()
            c = line[at]
            message = "unterminated string literal" if c == '"' else f"unexpected character {c!r}"
            raise CiotError.of(E_LEX, message, SourceSpan.point(lineno, at + 1), file)
    # After a trailing comment, end of input sits where the comment starts.
    append(_new(Token, (TokenKind.EOI, "", lineno, m.start("STOP") + 1)))
    return tokens


def decode_string(quoted: str) -> str:
    """Decode a string literal's quoted text: strip the quotes and resolve
    escapes. ``\\n`` and ``\\t`` are a newline and a tab; a backslash before
    any other character stands for that character."""
    raw = quoted[1:-1]
    out: list[str] = []
    i = 0
    while i < len(raw):
        c = raw[i]
        if c == "\\" and i + 1 < len(raw):
            nxt = raw[i + 1]
            out.append(_ESCAPES.get(nxt, nxt))
            i += 2
            continue
        out.append(c)
        i += 1
    return "".join(out)

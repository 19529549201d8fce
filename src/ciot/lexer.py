"""Tokenizer for the component-model DSL.

Produces a flat token list ending in an end-of-input token. A token is a
plain ``(kind, text, start)`` tuple: its kind, its raw source text and the
character offset where it starts. Joining token texts reproduces the input
modulo whitespace and ``//`` comments. Line and column are not tracked here:
a :class:`~ciot.diagnostics.Locator` turns offsets into a ``SourceSpan``
where one is kept.

A kind is one of the plain strings of :class:`TokenKind`, the text an error
message names it by, and is compared by identity. It is not an ``Enum``
member for two reasons. On Python 3.10 and 3.11 every attribute lookup on an
``Enum`` class goes through the metaclass's ``__getattr__``, several times
slower than on a plain class, and the parser looks a kind up for most tokens.
And a tuple that holds only strings and ints is untracked by the garbage
collector after its first collection, while one holding an ``Enum`` member
stays tracked, so every young collection would walk each token again.

End of input sits at the start of a ``//`` comment that ends the last line,
and otherwise at the end of the text.
"""

from __future__ import annotations

import re

from .diagnostics import CiotError, Locator, require_type


class TokenKind:
    """The token kinds: each is the text a message names it by."""

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

# One token per match, after blanks: spaces, tabs, carriage returns, newlines
# and "//" comments. A comment among the blanks must run to a newline: it
# cannot stop early and let a token start inside it, and one that ends the
# text is where end of input sits. The blank run is unrolled (a run of white
# space, then comments each followed by one), so the engine never tries a
# blank twice. Alternatives go from the most common token to the least;
# two-character punctuation comes first so ":=", "->", "--" and the
# two-character comparisons win, and FLOAT comes before INT so "1.5" is one
# token while "1." is INT then ".". No token spans a newline. BAD matches any
# other character, so the scan of ``finditer`` never searches past one: each
# match starts where the last one ended, and the first BAD ends the scan.
_SCAN = re.compile(
    r"""[ \t\r\n]*(?://[^\n]*(?=\n)[ \t\r\n]*)*
    (?:
        (?P<WORD>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<PUNCT>:=|->|--|==|!=|<=|>=|[{}()\[\]:;,.<>=])
      | (?P<STRING>"(?:[^"\\\n]|\\.)*")
      | (?P<FLOAT>[0-9]+\.[0-9]+)
      | (?P<INT>[0-9]+)
      | (?P<EOI>(?://[^\n]*)?\Z)
      | (?P<BAD>.)
    )""",
    re.VERBOSE,
)
_KINDS = {"STRING": TokenKind.STRING, "FLOAT": TokenKind.FLOAT, "INT": TokenKind.INT, "PUNCT": TokenKind.PUNCT}
# Escapes that stand for another character; after any other backslash the
# next character stands for itself.
_ESCAPES = {"n": "\n", "t": "\t"}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)

# A token: (kind, text, start offset), the kind one of TokenKind's strings.
# Plain tuples, which the lexer builds faster than any named type and the
# collector untracks, as it does any tuple of strings and ints.
Token = tuple[str, str, int]


def describe(token: Token) -> str:
    """The token as an error message names it: ``keyword 'state'``."""
    kind, text, _ = token
    if kind is TokenKind.EOI:
        return kind
    return f"{kind} {text!r}"


def tokenize(source: str, file: str | None = None) -> list[Token]:
    """Tokenize ``source``; raises CiotError (E_LEX) on the first bad character."""
    require_type(source, str, "text")
    tokens: list[Token] = []
    append = tokens.append
    keyword, ident = TokenKind.KEYWORD, TokenKind.IDENT
    # One str per distinct word, which its tokens (and the tree's names)
    # share: this keeps a parse's peak memory down, which an int start offset
    # per token would otherwise raise.
    words: dict[str, str] = {}
    for m in _SCAN.finditer(source):
        group = m.lastgroup
        text = m[group]
        if group == "WORD":
            text = words.setdefault(text, text)
            append((keyword if text in KEYWORDS else ident, text, m.start(group)))
        elif group == "EOI":
            append((TokenKind.EOI, "", m.start(group)))
            return tokens
        elif group == "BAD":
            message = "unterminated string literal" if text == '"' else f"unexpected character {text!r}"
            at = m.start(group)
            raise CiotError.of("E_LEX", message, Locator(source).span(at, at), file)
        else:
            append((_KINDS[group], text, m.start(group)))
    raise AssertionError  # unreachable: EOI matches at the end of any text


def decode_string(quoted: str) -> str:
    """Decode a string literal's quoted text: strip the quotes and resolve
    escapes. ``\\n`` and ``\\t`` are a newline and a tab; a backslash before
    any other character stands for that character."""
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), quoted[1:-1])

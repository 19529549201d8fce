from __future__ import annotations

import gc
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ciot.diagnostics import CiotError, Locator, SourceSpan
from ciot.lexer import KEYWORDS, Token, TokenKind, decode_string, tokenize


def kinds(tokens: list[Token]) -> list[str]:
    return [kind for kind, _, _ in tokens]


def texts(tokens: list[Token]) -> list[str]:
    return [text for _, text, _ in tokens]


def spans(source: str, tokens: list[Token]) -> list[SourceSpan]:
    """Each token's span, read through the source's locator."""
    at = Locator(source).span
    return [at(start, start + len(text)) for _, text, start in tokens]


def test_component_header_tokens():
    toks = tokenize("component Board {}")
    assert kinds(toks) == [
        TokenKind.KEYWORD,
        TokenKind.IDENT,
        TokenKind.PUNCT,
        TokenKind.PUNCT,
        TokenKind.EOI,
    ]
    assert texts(toks)[:4] == ["component", "Board", "{", "}"]


def test_guard_fragment_tokens():
    toks = tokenize("payload.duration >= 300")
    assert kinds(toks)[:-1] == [
        TokenKind.KEYWORD,
        TokenKind.PUNCT,
        TokenKind.IDENT,
        TokenKind.PUNCT,
        TokenKind.INT,
    ]
    assert texts(toks)[4] == "300"


def test_unterminated_string_reports_start_column():
    with pytest.raises(CiotError) as exc:
        tokenize('"unterminated')
    assert exc.value.code == "E_LEX"
    span = exc.value.diagnostics[0].span
    assert (span.line, span.column) == (1, 1)


def test_illegal_character_position():
    with pytest.raises(CiotError) as exc:
        tokenize("port p1;\nx @ y")
    span = exc.value.diagnostics[0].span
    assert (span.line, span.column) == (2, 3)


def test_lines_and_columns_are_one_based():
    source = "a\n  bb\nccc"
    a, bb, ccc = spans(source, tokenize(source))[:3]
    assert (a.line, a.column) == (1, 1)
    assert (bb.line, bb.column) == (2, 3)
    assert (ccc.line, ccc.column) == (3, 1)


def test_longest_match_punctuation():
    toks = tokenize(":= -> -- == != <= >= < > = : .")
    assert texts(toks)[:-1] == [":=", "->", "--", "==", "!=", "<=", ">=", "<", ">", "=", ":", "."]


def test_float_needs_digits_on_both_sides():
    toks = tokenize("1.5 300 1.")
    assert kinds(toks)[:-1] == [TokenKind.FLOAT, TokenKind.INT, TokenKind.INT, TokenKind.PUNCT]
    assert texts(toks)[2:4] == ["1", "."]


def test_keywords_versus_identifiers():
    toks = tokenize("state state1 _x transition Transitions")
    assert kinds(toks)[:-1] == [
        TokenKind.KEYWORD,
        TokenKind.IDENT,
        TokenKind.IDENT,
        TokenKind.KEYWORD,
        TokenKind.IDENT,
    ]


def test_end_of_input_after_trailing_comment_sits_at_comment_start():
    source = "port p1; // tail"
    toks = tokenize(source)
    eoi = spans(source, toks)[-1]
    assert (kinds(toks)[-1], eoi.line, eoi.column) == (TokenKind.EOI, 1, 10)
    source = "port p1; // tail\n"
    eoi = spans(source, tokenize(source))[-1]
    assert (eoi.line, eoi.column) == (2, 1)


def test_kinds_are_plain_strings_and_tokens_are_left_untracked(parking_path):
    """A token holds only strings and an int, so the collector stops tracking
    it at its first collection and no later one walks it."""
    tokens = tokenize(pathlib.Path(parking_path).read_text(encoding="utf-8"))
    gc.collect()
    assert all(type(kind) is str for kind in kinds(tokens))
    assert not any(gc.is_tracked(tok) for tok in tokens)


def test_comments_and_blank_lines_are_skipped():
    source = "// header\nport p1; // tail\n\n// done"
    toks = tokenize(source)
    assert texts(toks)[:-1] == ["port", "p1", ";"]
    assert spans(source, toks)[0].line == 2


def test_string_escapes_decode():
    toks = tokenize('"a\\"b\\\\c\\nd\\te"')
    assert kinds(toks)[0] is TokenKind.STRING
    assert decode_string(texts(toks)[0]) == 'a"b\\c\nd\te'


@pytest.mark.parametrize(
    "quoted, decoded",
    [('"a\\"', "a\\"), ('"a\\\nb"', "a\nb")],
    ids=["trailing_backslash", "backslash_newline"],
)
def test_string_escapes_the_lexer_never_forms_decode(quoted, decoded):
    """--inject decodes a quoted value that no string token can be: a lone
    backslash before the closing quote stands for itself, and one before a
    newline escapes the newline."""
    assert decode_string(quoted) == decoded


def _strip_outside_strings(source: str) -> str:
    """Source minus whitespace and comments, keeping string literals whole."""
    out = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == '"':
            j = i + 1
            while j < n and source[j] != '"':
                j += 2 if source[j] == "\\" else 1
            out.append(source[i : j + 1])
            i = j + 1
        elif source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
        elif c in " \t\r\n":
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def test_concatenation_reproduces_corpus_source(parking_path):
    with open(parking_path, encoding="utf-8") as fh:
        source = fh.read()
    toks = tokenize(source)
    assert "".join(texts(toks)) == _strip_outside_strings(source)


_WORD = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True).filter(
    lambda w: w not in KEYWORDS
)
_PIECE = st.one_of(
    _WORD,
    st.integers(min_value=0, max_value=10**6).map(str),
    st.sampled_from(sorted(KEYWORDS)),
    st.sampled_from([":=", "->", "--", "==", "{", "}", ";", ","]),
)


@given(st.lists(_PIECE, min_size=1, max_size=30))
def test_token_texts_round_trip(pieces):
    source = " ".join(pieces)
    toks = tokenize(source)
    assert "".join(texts(toks)) == source.replace(" ", "")


# --- positions ------------------------------------------------------------------

_STRING_BODY = st.lists(
    st.one_of(
        st.characters(blacklist_characters='"\\\n', blacklist_categories=("Cs",)),
        st.sampled_from(['\\"', "\\\\", "\\n", "\\t", "\\x"]),
    ),
    max_size=6,
).map("".join)
# Every punctuation mark of the language.
PUNCTUATION = frozenset([":=", "->", "--", "==", "!=", "<=", ">=", "{", "}", "(", ")", "[", "]", ":", ";", ",", ".", "<", ">", "="])
_TOKEN = st.one_of(
    _WORD,
    st.sampled_from(sorted(KEYWORDS)),
    st.integers(min_value=0, max_value=10**6).map(str),
    st.tuples(st.integers(0, 999), st.integers(0, 999)).map(lambda p: f"{p[0]}.{p[1]}"),
    st.sampled_from(sorted(PUNCTUATION)),
    _STRING_BODY.map(lambda body: f'"{body}"'),
)
_GAP = st.sampled_from(["", " ", "  ", "\t", "\r", "\n", "\r\n", " \n\t", " // note \u00e9\n", "//\n"])
_BLANKS = st.text(alphabet=" \t\r", max_size=3)


@st.composite
def _sources(draw, max_tokens: int = 20) -> str:
    """Valid token text with blanks, newlines and comments between tokens,
    possibly ending in a comment with no final newline."""
    tokens = draw(st.lists(_TOKEN, max_size=max_tokens))
    gaps = draw(st.lists(_GAP, min_size=len(tokens), max_size=len(tokens)))
    tail = draw(st.sampled_from(["", "\n", " // trailing", "//"]))
    return "".join(g + t for g, t in zip(gaps, tokens)) + tail


def _at(source: str, line: int, column: int, length: int) -> str:
    return source.split("\n")[line - 1][column - 1 : column - 1 + length]


@given(_sources())
def test_each_token_text_sits_at_its_position(source):
    toks = tokenize(source)
    positions = [(span.line, span.column) for span in spans(source, toks)]
    for (line, column), text in zip(positions[:-1], texts(toks)):
        assert _at(source, line, column, len(text)) == text
    assert positions == sorted(set(positions))
    assert kinds(toks)[-1] is TokenKind.EOI
    assert positions[-1][0] == source.count("\n") + 1


@settings(max_examples=50)
@given(_sources(8), _BLANKS, _STRING_BODY, _sources(4))
def test_unterminated_string_reported_at_its_quote(prefix, blanks, body, rest):
    source = f'{prefix}\n{blanks}"{body}\n{rest}'
    with pytest.raises(CiotError) as exc:
        tokenize(source)
    diag = exc.value.diagnostics[0]
    assert (diag.rule, diag.message) == ("E_LEX", "unterminated string literal")
    assert (diag.span.line, diag.span.column) == (prefix.count("\n") + 2, len(blanks) + 1)


@settings(max_examples=50)
@given(_sources(8), _BLANKS, st.sampled_from("@#$%^&?!'`~|+*/\\\x0b\x0c\x00\u00e9\u00b2\u00a0\u2028\u0663"), _sources(4))
def test_stray_character_reported_at_its_position(prefix, blanks, char, rest):
    source = f"{prefix}\n{blanks}{char} {rest}"
    with pytest.raises(CiotError) as exc:
        tokenize(source)
    diag = exc.value.diagnostics[0]
    assert (diag.rule, diag.message) == ("E_LEX", f"unexpected character {char!r}")
    assert (diag.span.line, diag.span.column) == (prefix.count("\n") + 2, len(blanks) + 1)


@given(_sources())
@example('"when" "{" "" when_ _or or1 007 1.5 x.y')
def test_only_keywords_and_punctuation_have_their_texts(source):
    """The parser knows a keyword or a punctuation mark by its text alone."""
    for kind, text, _ in tokenize(source):
        if kind is TokenKind.KEYWORD:
            assert text in KEYWORDS
        elif kind is TokenKind.PUNCT:
            assert text in PUNCTUATION
        else:
            assert text not in KEYWORDS and text not in PUNCTUATION


@given(_sources())
def test_locator_agrees_with_counting_newlines(source):
    at = Locator(source).span
    for offset in range(len(source) + 1):
        line = source.count("\n", 0, offset) + 1
        column = offset - source.rfind("\n", 0, offset)
        assert at(offset, offset) == (line, column, line, column)
        if offset < len(source):
            assert at(0, offset + 1) == (1, 1, line, column)


# A scan that searched past a bad character, or whose blanks could match in
# more than one way, would take minutes on these; no timing is asserted.
@pytest.mark.parametrize(
    "blanks, line, column",
    [(" " * 100_000, 1, 100_001), ("\n" * 100_000, 100_001, 1), ("// c\n" * 25_000, 25_001, 1)],
    ids=["spaces", "newlines", "comments"],
)
@pytest.mark.parametrize(
    "bad, message", [("@", "unexpected character '@'"), ('"', "unterminated string literal")], ids=["stray", "quote"]
)
def test_bad_character_after_many_blanks(blanks, line, column, bad, message):
    with pytest.raises(CiotError) as exc:
        tokenize(blanks + bad)
    assert [(d.rule, d.message, d.span.line, d.span.column) for d in exc.value.diagnostics] == [
        ("E_LEX", message, line, column)
    ]


def test_end_of_input_after_many_blank_lines():
    source = "instance a: A;" + "\n" * 100_000
    toks = tokenize(source)
    assert texts(toks) == ["instance", "a", ":", "A", ";", ""]
    eoi = spans(source, toks)[-1]
    assert (kinds(toks)[-1], eoi.line, eoi.column) == (TokenKind.EOI, 100_001, 1)


@pytest.mark.parametrize("source, line, column", [('// a "\n@', 2, 1), ('// x\n// y "\n  @ z', 3, 3)])
def test_comment_is_not_reread_before_a_bad_character(source, line, column):
    """The words and quotes of a comment never become tokens, also when the
    scan fails after it."""
    with pytest.raises(CiotError) as exc:
        tokenize(source)
    assert [(d.message, d.span.line, d.span.column) for d in exc.value.diagnostics] == [
        ("unexpected character '@'", line, column)
    ]


# --- differential: a character-at-a-time reference scanner ------------------

_TWO_CHAR_PUNCT = (":=", "->", "--", "==", "!=", "<=", ">=")
_ONE_CHAR_PUNCT = "{}()[]:;,.<>="
_DIGITS = "0123456789"


def _is_word_char(c: str, first: bool) -> bool:
    return c.isascii() and (c.isalpha() or c == "_" or (not first and c in _DIGITS))


def _reference_tokens(source: str):
    """The tokens of ``source`` as ``(kind, text, start)`` tuples, or
    ``("E_LEX", message, line, column)`` for the first bad character, by the
    rules of docs/grammar.md, walking the text one character at a time."""
    tokens = []
    i, n = 0, len(source)
    while True:
        while i < n:
            if source[i] in " \t\r\n":
                i += 1
            elif source.startswith("//", i) and "\n" in source[i:]:
                i = source.index("\n", i)
            else:
                break
        if i == n or source.startswith("//", i):
            tokens.append((TokenKind.EOI, "", i))
            return tokens
        c = source[i]
        j = i + 1
        if _is_word_char(c, first=True):
            while j < n and _is_word_char(source[j], first=False):
                j += 1
            kind = TokenKind.KEYWORD if source[i:j] in KEYWORDS else TokenKind.IDENT
        elif c in _DIGITS:
            while j < n and source[j] in _DIGITS:
                j += 1
            kind = TokenKind.INT
            if source[j : j + 1] == "." and j + 1 < n and source[j + 1] in _DIGITS:
                j += 2
                while j < n and source[j] in _DIGITS:
                    j += 1
                kind = TokenKind.FLOAT
        elif c == '"':
            while j < n and source[j] not in '"\n':
                if source[j] == "\\":
                    if j + 1 == n or source[j + 1] == "\n":
                        break
                    j += 1
                j += 1
            if j == n or source[j] != '"':
                return _reference_error(source, i, "unterminated string literal")
            j += 1
            kind = TokenKind.STRING
        elif source[i : i + 2] in _TWO_CHAR_PUNCT:
            j += 1
            kind = TokenKind.PUNCT
        elif c in _ONE_CHAR_PUNCT:
            kind = TokenKind.PUNCT
        else:
            return _reference_error(source, i, f"unexpected character {c!r}")
        tokens.append((kind, source[i:j], i))
        i = j


def _reference_error(source: str, at: int, message: str):
    line = source.count("\n", 0, at) + 1
    column = at - source.rfind("\n", 0, at)
    return ("E_LEX", message, line, column)


_STRAY = "@#$%^&?!'`~|+*/-\\\x0b\x0c\x00\u00e9\u00b2\u00a0\u2028\u0663"
_ESCAPED_BODY = st.lists(
    st.one_of(st.sampled_from("ab \t\u00e9"), st.sampled_from(['\\"', "\\\\", "\\n", "\\t", "\\x", "\\", "\\\n"])),
    max_size=5,
).map("".join)
_VALID_PIECE = st.one_of(
    _WORD,
    st.sampled_from(sorted(KEYWORDS)),
    st.integers(min_value=0, max_value=10**6).map(str),
    st.tuples(st.integers(0, 99), st.integers(0, 99)).map(lambda p: f"{p[0]}.{p[1]}"),
    st.just("1."),
    st.sampled_from(sorted(PUNCTUATION)),
    _ESCAPED_BODY.map(lambda body: f'"{body}"'),
    st.sampled_from(["// c", "//", "// x \u00e9 \"\n", "//\n", "// @\r\n"]),
    st.sampled_from([" ", "\t", "\r", "\n", "\r\n", "  \n\t"]),
)
# Pieces are joined with nothing between them, so they also abut ("1." then
# "5" is "1.5"); texts of any piece mostly end in an error, so half the texts
# are drawn from pieces that are tokens or blanks alone.
_LEX_TEXT = st.one_of(
    st.lists(_VALID_PIECE, max_size=40),
    st.lists(st.one_of(_VALID_PIECE, _ESCAPED_BODY.map(lambda body: f'"{body}'), st.sampled_from(_STRAY)), max_size=25),
).map("".join)


@settings(max_examples=300)
@given(_LEX_TEXT)
@example('"a\\"b\\\\" 1. 1.5 x// c\r\n@')
@example('"\\')
@example("a // tail")
def test_tokenize_agrees_with_a_character_at_a_time_scan(source):
    try:
        got = tokenize(source)
    except CiotError as exc:
        diag = exc.diagnostics[0]
        got = (diag.rule, diag.message, diag.span.line, diag.span.column)
    assert got == _reference_tokens(source)

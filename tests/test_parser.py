from __future__ import annotations

import gc
import pathlib
import sys
import tracemalloc

import pytest

from ciot import parser
from ciot.cli import main
from ciot.diagnostics import CiotError, SourceSpan
from ciot.engine import instantiate
from ciot.guards import Binary, Literal, NameRef, PayloadFieldRef, Unary
from ciot.export import export_model, statemachine_to_dot
from ciot.lexer import TokenKind, tokenize
from ciot.loader import collect_diagnostics, load_text
from ciot.metamodel import with_property_initial
from ciot.parser import MAX_EXPR_DEPTH, Ref, parse
from ciot.sim import load_scenario

from exprparse import parse_expression

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"
SYNTAX_DIR = CORPUS_DIR / "syntax_errors"

# filename -> (rule, line, column) of the first diagnostic; positions sit on
# the defective token, per the seeded defect comment in each file.
EXPECTED_SYNTAX_ERRORS = {
    "bad_character.ciot": ("E_LEX", 1, 13),
    "missing_semicolon.ciot": ("E_PARSE", 3, 1),
    "reserved_component_name.ciot": ("E_PARSE", 1, 11),
    "truncated_file.ciot": ("E_PARSE", 7, 1),
    "unterminated_string.ciot": ("E_LEX", 2, 30),
}


def test_corpus_declaration_counts(parking_path):
    with open(parking_path, encoding="utf-8") as fh:
        ast = parse(fh.read(), parking_path)
    assert len(ast.components) == 4
    assert len(ast.interfaces) == 6
    assert len(ast.payloads) == 2
    assert len(ast.instances) == 1


def test_empty_file_parses_to_empty_model():
    ast = parse("")
    assert ast.payloads == [] and ast.interfaces == []
    assert ast.components == [] and ast.instances == []


def test_comment_only_file():
    ast = parse("// nothing here\n// still nothing\n")
    assert ast.components == []


def test_truncated_component_fails():
    with pytest.raises(CiotError) as exc:
        parse("component X { state")
    assert exc.value.code == "E_PARSE"


def test_unknown_top_level_keyword():
    with pytest.raises(CiotError) as exc:
        parse("connect a.b -- c.d;")
    assert exc.value.code == "E_PARSE"
    assert "top-level" in exc.value.diagnostics[0].message


def test_component_needs_known_kind():
    with pytest.raises(CiotError) as exc:
        parse("component X : Widget {}")
    assert "IoTElement" in exc.value.diagnostics[0].message


def test_port_requires_some_interface():
    src = "component X : Board { port p1; }"
    with pytest.raises(CiotError) as exc:
        parse(src)
    assert "provide or require" in exc.value.diagnostics[0].message


def test_port_clauses_parse_in_either_order():
    def clauses(port: str) -> tuple[list[str], list[str]]:
        [ast_port] = parse(f"component X : Board {{ {port} }}").components[0].ports
        return [r.name for r in ast_port.provides], [r.name for r in ast_port.requires]

    assert clauses("port p provides I, K requires J;") == (["I", "K"], ["J"])
    assert clauses("port p requires J provides I, K;") == (["I", "K"], ["J"])


# A repeated port clause fails at its repeated keyword, with that keyword's full span.
@pytest.mark.parametrize(
    "port, rendered, span",
    [
        (
            "port p provides I provides J;",
            "<input>:1:46: error E_PARSE duplicate provides clause on port",
            (1, 46, 1, 53),
        ),
        (
            "port p requires I requires J;",
            "<input>:1:46: error E_PARSE duplicate requires clause on port",
            (1, 46, 1, 53),
        ),
        (
            "port p provides I requires J provides K;",
            "<input>:1:57: error E_PARSE duplicate provides clause on port",
            (1, 57, 1, 64),
        ),
        (
            "port p requires I provides J requires K;",
            "<input>:1:57: error E_PARSE duplicate requires clause on port",
            (1, 57, 1, 64),
        ),
    ],
)
def test_repeated_port_clause_is_one_pinned_error(port, rendered, span):
    _, diags = collect_diagnostics(f"component C : IoTElement {{ {port} }}")
    assert [(d.render(), _full(d.span)) for d in diags] == [(rendered, span)]


def test_duplicate_statemachine_block_rejected():
    src = "component X : Board { statemachine {} statemachine {} }"
    with pytest.raises(CiotError) as exc:
        parse(src)
    assert "already has a statemachine" in exc.value.diagnostics[0].message


def test_keyword_member_names_allowed_where_safe():
    # `state` is a keyword but a legal payload field and property name.
    ast = parse("payload P { state: string; }\ncomponent X : Board { property state: int = 0; }")
    assert ast.payloads[0].fields[0].name == "state"
    assert ast.components[0].properties[0].name == "state"


def test_expression_reserved_member_names_rejected():
    with pytest.raises(CiotError) as exc:
        parse("payload P { true: bool; }")
    assert "reserved" in exc.value.diagnostics[0].message


def test_entity_names_must_not_be_keywords():
    with pytest.raises(CiotError) as exc:
        parse("component state : Board {}")
    assert exc.value.code == "E_PARSE"


def test_parse_is_deterministic(parking_path):
    with open(parking_path, encoding="utf-8") as fh:
        source = fh.read()
    assert parse(source, parking_path) == parse(source, parking_path)


def _traced(build):
    """What ``build()`` returns, the bytes it holds and its traced peak."""
    gc.collect()
    tracemalloc.start()
    try:
        out = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


def test_parse_frees_each_token_once_read(parking_path, monkeypatch):
    """The parser lexes a bounded chunk of tokens at a time and pops each
    token once read, so its peak is the tree it returns, not the tree and
    every token (1.01 of the tree here; 1.17 while the whole text was lexed
    first). The chunks are the one-call token list cut in order, and their
    names share one str per word."""
    source = pathlib.Path(parking_path).read_text(encoding="utf-8") * 48
    tree, tree_held, peak = _traced(lambda: parse(source))
    assert peak <= 1.1 * tree_held

    lexed = []

    def kept(*args, **kwargs):
        lexed.append((kwargs["limit"], tokenize(*args, **kwargs)))
        return lexed[-1][1]

    monkeypatch.setattr(parser, "tokenize", kept)
    whole = tokenize(source)
    assert parse(source) == tree
    assert len(lexed) > 1
    assert sum(len(tokens) for _, tokens in lexed) == len(whole)
    assert all(len(tokens) <= limit for limit, tokens in lexed)
    assert [tok for _, tokens in lexed for tok in tokens] == whole
    assert [tok for _, tokens in lexed for tok in tokens if tok[0] is TokenKind.EOI] == whole[-1:]
    words = [text for _, tokens in lexed for kind, text, _ in tokens if kind is TokenKind.IDENT]
    assert len({id(text) for text in words}) == len(set(words))


def test_lexical_error_past_the_first_chunk_wins_over_a_parse_error(tmp_path, parking_path, capsys):
    """A parse error on line 1 stops the parse in the text's first chunk of
    tokens; the stray "@" lies chunks later, and it is the one error reported
    by ``parse``, ``load_text``, ``collect_diagnostics`` and ``ciot validate``."""
    model = pathlib.Path(parking_path).read_text(encoding="utf-8")
    source = "component ;\n" + model * 4 + "@\n"
    at = source.index("@")
    assert len(tokenize(source[:at])) > 2 * parser._CHUNK
    line = source.count("\n", 0, at) + 1
    expected = f"bad.ciot:{line}:1: error E_LEX unexpected character '@'"

    for entry in (parse, load_text):
        with pytest.raises(CiotError) as exc:
            entry(source, "bad.ciot")
        assert [d.render() for d in exc.value.diagnostics] == [expected]
    assert [d.render() for d in collect_diagnostics(source, "bad.ciot")[1]] == [expected]

    path = tmp_path / "bad.ciot"
    path.write_text(source, encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("errors=1 warnings=0\n", f"{tmp_path}/{expected}\n")


def _nodes(node):
    """``node`` and every syntax tree node under it; expression trees, spans
    and the locator are leaves."""
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack += item
        elif isinstance(item, tuple) and hasattr(item, "_fields"):
            yield item
            stack += item


def test_every_node_has_one_item_per_field(corpus_dir):
    """The parser builds nodes with ``tuple.__new__``, which checks no arity:
    a node missing an item would fail only where that field is read."""
    doc = (corpus_dir.parent / "docs" / "grammar.md").read_text(encoding="utf-8")
    texts = [
        (corpus_dir / "parking_node.ciot").read_text(encoding="utf-8"),
        *(p.read_text(encoding="utf-8") for p in sorted((corpus_dir / "mutations").glob("*.ciot"))),
        doc.split("## A small complete example", 1)[1].split("```\n", 2)[1],
    ]
    seen = set()
    for text in texts:
        for node in _nodes(parse(text)):
            seen.add(type(node))
            assert len(node) == len(type(node)._fields), node
    assert seen == {Ref} | {cls for name, cls in vars(parser).items() if name.startswith("Ast")}


@pytest.mark.parametrize("fname", sorted(EXPECTED_SYNTAX_ERRORS))
def test_seeded_syntax_error_positions(fname):
    rule, line, column = EXPECTED_SYNTAX_ERRORS[fname]
    text = (SYNTAX_DIR / fname).read_text(encoding="utf-8")
    with pytest.raises(CiotError) as exc:
        parse(text, fname)
    diag = exc.value.diagnostics[0]
    assert diag.rule == rule
    assert (diag.span.line, diag.span.column) == (line, column)


def test_connector_endpoints():
    src = (
        "component X : Board {\n"
        "    port pa provides I1;\n"
        "    instance kid: Y;\n"
        "    connect self.pa -- kid.pb;\n"
        "}\n"
    )
    ast = parse(src)
    conn = ast.components[0].connectors[0]
    assert conn.a.instance is None and conn.a.port.name == "pa"
    assert conn.b.instance.name == "kid" and conn.b.port.name == "pb"


def test_transition_forms():
    src = (
        "component X : Board { statemachine {\n"
        "    initial state A {}\n"
        "    state B {}\n"
        "    transition A -> B;\n"
        "    transition A -> B when go;\n"
        "    transition B -> A [x == 1];\n"
        "    transition B -> A when go [x == 1];\n"
        "} }"
    )
    machine = parse(src).components[0].machine
    forms = [(t.trigger is not None, t.guard is not None) for t in machine.transitions]
    assert forms == [(False, False), (True, False), (False, True), (True, True)]


# --- expression nesting limit ---------------------------------------------------

GUARD = 'payload.state == "high"'

# shape -> (expression with n of the repeated token, that token, largest n
# accepted). Open "(" and "not" are counted on the way down; operators,
# comparisons included, as the height of the tree, so n "not" over a
# comparison, or a chain of n comparisons, is n + 1 or n operators high.
NESTED = {
    "paren": (lambda n: "(" * n + GUARD + ")" * n, "(", MAX_EXPR_DEPTH),
    "not": (lambda n: "not " * n + GUARD, "not", MAX_EXPR_DEPTH - 1),
    "and": (lambda n: " and ".join([GUARD] * n), "and", MAX_EXPR_DEPTH),
}


def _nth(text: str, sub: str, n: int) -> int:
    at = -1
    for _ in range(n):
        at = text.index(sub, at + 1)
    return at


def _with_first_guard(parking_path: str, guard: str) -> str:
    source = pathlib.Path(parking_path).read_text(encoding="utf-8")
    return source.replace(f"[{GUARD}]", f"[{guard}]", 1)


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_limit_is_exact(shape):
    build, _, deepest = NESTED[shape]
    parse_expression(build(deepest))
    with pytest.raises(CiotError) as exc:
        parse_expression(build(deepest + 1))
    assert exc.value.code == "E_PARSE"
    assert exc.value.diagnostics[0].message == f"expression nested deeper than {MAX_EXPR_DEPTH} levels"


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_deep_guard_is_parse_error_at_offending_token(parking_path, shape):
    build, token, _ = NESTED[shape]
    guard = build(3000)
    source = _with_first_guard(parking_path, guard)
    model, diags = collect_diagnostics(source, "deep.ciot")
    assert model is None
    [diag] = diags
    assert diag.rule == "E_PARSE"
    line = source.splitlines()[diag.span.line - 1]
    assert line.strip().endswith(f"[{guard}];")
    # "(" and "not" fail on the way down, at the first one past the limit;
    # "and" fails on the way up, at the one whose node would be too high
    n = MAX_EXPR_DEPTH if token == "and" else MAX_EXPR_DEPTH + 1
    assert diag.span.column == line.index("[") + 2 + _nth(guard, token, n)


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_guard_at_nesting_limit_runs_everywhere(parking_path, shape):
    """Typing, guard rendering at instantiate and export all walk the tree
    recursively; at the limit none comes near the recursion limit."""
    build, _, deepest = NESTED[shape]
    model, diags = collect_diagnostics(_with_first_guard(parking_path, build(deepest)))
    assert diags == []
    instantiate(with_property_initial(model, "threshold", 250.0))
    assert export_model(model)


def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_guard_at_nesting_limit_parsed_from_deep_code_is_a_parse_error(parking_path):
    """At the limit the parser recurses about 720 frames deep, so ``parse``
    called from code 300 frames deep runs out of stack under the default
    recursion limit, and says so with E_PARSE at the guard."""
    source = _with_first_guard(parking_path, NESTED["paren"][0](MAX_EXPR_DEPTH))
    parse(source)

    def from_depth(frames: int):
        return parse(source, "deep.ciot") if frames <= 0 else from_depth(frames - 1)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(CiotError) as exc:
            from_depth(300 - _stack_depth())
    finally:
        sys.setrecursionlimit(limit)
    [diag] = exc.value.diagnostics
    assert (exc.value.code, diag.file) == ("E_PARSE", "deep.ciot")
    assert diag.message == "expression nested too deeply for the Python stack left to the parser"
    line = source.splitlines()[diag.span.line - 1]
    assert line.strip().endswith(f"[{NESTED['paren'][0](MAX_EXPR_DEPTH)}];")
    assert line[diag.span.column - 1] == "("


def test_guard_at_nesting_limit_typed_from_deep_code_is_an_r4_finding(parking_path):
    """The parser reads an ``and`` chain in a loop, but typing recurses once
    per level of its tree, about 100 frames at the limit: ``load_text`` with
    50 frames of stack left reports the guard as R4, not a RecursionError."""
    guard = NESTED["and"][0](MAX_EXPR_DEPTH)
    source = _with_first_guard(parking_path, guard)
    load_text(source)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        with pytest.raises(CiotError) as exc:
            load_text(source, "deep.ciot")
    finally:
        sys.setrecursionlimit(limit)
    [diag] = exc.value.diagnostics
    assert (diag.rule, diag.file) == ("R4", "deep.ciot")
    assert diag.message == (
        "guard on transition OFF -> ON of component 'RedLED' does not type-check: "
        "expression nested too deeply for the Python stack left to the validator"
    )
    line = source.splitlines()[diag.span.line - 1]
    assert line[diag.span.column - 1 :].startswith(guard)


# An ``and`` chain at the nesting limit in each place ``instantiate``
# compiles one: the corpus text it replaces, that text's form with the chain
# in it, the chain's operand, and what the error names.
DEEP_AT_INSTANTIATE = {
    "guard": (f"[{GUARD}]", "[{}]", GUARD, "guard on transition OFF -> ON of component 'RedLED'"),
    "effect": (
        "sent := false;",
        "sent := {};",
        "sent",
        "effect expression in action 'actSense' of component 'UltrasonicSensor'",
    ),
}


@pytest.mark.parametrize("place", sorted(DEEP_AT_INSTANTIATE))
def test_expression_at_nesting_limit_instantiated_from_deep_code_is_an_instantiate_error(parking_path, place):
    """Rendering and compiling an expression at ``instantiate`` recurse once
    per level of its tree, about 100 frames for an ``and`` chain at the
    limit: with 60 frames of stack left, ``instantiate`` raises E_INSTANTIATE
    at the expression, not a RecursionError."""
    replaced, form, operand, what = DEEP_AT_INSTANTIATE[place]
    chain = " and ".join([operand] * MAX_EXPR_DEPTH)
    source = pathlib.Path(parking_path).read_text(encoding="utf-8").replace(replaced, form.format(chain), 1)
    model = with_property_initial(load_text(source, "deep.ciot"), "threshold", 250.0)
    instantiate(model)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        with pytest.raises(CiotError) as exc:
            instantiate(model)
    finally:
        sys.setrecursionlimit(limit)
    [diag] = exc.value.diagnostics
    assert (exc.value.code, diag.file) == ("E_INSTANTIATE", "deep.ciot")
    assert diag.message == f"{what}: expression nested too deeply for the Python stack left to instantiate"
    line = source.splitlines()[diag.span.line - 1]
    assert line[diag.span.column - 1 :].startswith(chain)


@pytest.mark.parametrize("place", sorted(DEEP_AT_INSTANTIATE))
def test_expression_at_nesting_limit_exported_from_deep_code_is_a_usage_error(parking_path, place):
    """Export renders each guard and effect recursively too: with 60 frames
    of stack left, ``export_model`` (and ``statemachine_to_dot`` of the
    guard's machine) raises E_USAGE at the expression, not a RecursionError."""
    replaced, form, operand, what = DEEP_AT_INSTANTIATE[place]
    chain = " and ".join([operand] * MAX_EXPR_DEPTH)
    source = pathlib.Path(parking_path).read_text(encoding="utf-8").replace(replaced, form.format(chain), 1)
    model = load_text(source, "deep.ciot")
    exports = [export_model]
    if place == "guard":
        exports.append(lambda m: statemachine_to_dot(m, "RedLED"))
    for export in exports:
        assert export(model).count(" and ") == MAX_EXPR_DEPTH - 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 60)
        try:
            with pytest.raises(CiotError) as exc:
                export(model)
        finally:
            sys.setrecursionlimit(limit)
        [diag] = exc.value.diagnostics
        assert (exc.value.code, diag.file) == ("E_USAGE", "deep.ciot")
        assert diag.message == f"{what}: expression nested too deeply for the Python stack left to export"
        line = source.splitlines()[diag.span.line - 1]
        assert line[diag.span.column - 1 :].startswith(chain)


# Literals that lex but do not convert: an INT past the interpreter's
# int-string digit limit (4,300 by default; the test only needs "far past"),
# and a FLOAT that float() turns into inf.
OUT_OF_RANGE = {
    "int_past_digit_limit": ("int", "1" + "0" * 5000, "integer literal of 5001 digits is out of range"),
    "float_to_inf": ("float", "1" + "0" * 400 + ".0", "float literal is out of range"),
    "int_leading_zeros": ("int", "0" * 5000 + "1" + "0" * 5000, "integer literal of 5001 digits is out of range"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
@pytest.mark.parametrize("where", ["initial", "guard"])
def test_out_of_range_literal_is_parse_error_at_literal(case, where):
    type_name, literal, message = OUT_OF_RANGE[case]
    if where == "initial":
        source = f"component C : Board {{\n    property x: {type_name} = {literal};\n}}\n"
    else:
        source = (
            f"component C : Board {{\n    property x: {type_name} = 0;\n"
            "    statemachine {\n        initial state A {}\n"
            f"        transition A -> A [x == {literal}];\n    }}\n}}\n"
        )
    model, diags = collect_diagnostics(source, "range.ciot")
    assert model is None
    [diag] = diags
    assert (diag.rule, diag.message) == ("E_PARSE", message)
    line = source.splitlines()[diag.span.line - 1]
    assert line.index(literal) + 1 == diag.span.column
    assert diag.span.end_column - diag.span.column + 1 == len(literal)


def test_int_literal_padded_past_digit_limit_reads_as_its_value():
    """Leading zeros do not count against the interpreter's int-string digit limit."""
    model = load_text("component C : Board {\n    property n: int = " + "0" * 4999 + "5;\n}\n")
    [prop] = model.component_named("C").properties
    assert (prop.initial, type(prop.initial)) == (5, int)


# --- front-end output pinned per corpus file ------------------------------------

# file -> (rendered diagnostic, full span) of the one diagnostic that
# collect_diagnostics reports for each mutant and each seeded syntax error.
EXPECTED_CORPUS_DIAGNOSTICS = {
    "mutations/r1_no_initial.ciot": (
        "r1_no_initial.ciot:141:5: error R1 state machine of component 'Node' has no initial state",
        (141, 5, 155, 5),
    ),
    "mutations/r2_missing_provides.ciot": (
        "r2_missing_provides.ciot:117:5: error R2 connector self.pRed -- red.p1 in component 'Node': "
        "red.p1 requires interface 'ISendBlinkRed' but self.pRed does not provide it",
        (117, 5, 117, 32),
    ),
    "mutations/r3_generic_for_incoming.ciot": (
        "r3_generic_for_incoming.ciot:42:5: error R3 incoming event 'evtCommand' must bind a "
        "ReceivePayload action, but 'actReceiveCommand' is Generic",
        (42, 5, 42, 82),
    ),
    "mutations/r4_guard_type.ciot": (
        "r4_guard_type.ciot:149:69: error R4 guard on transition ACQUISITION -> RED_OFF_GREEN_ON of "
        "component 'Node' does not type-check: '>=' needs numeric operands, got float and string",
        (149, 69, 149, 94),
    ),
    "mutations/r5_element_with_child.ciot": (
        "r5_element_with_child.ciot:39:1: error R5 IoTElement 'RedLED' must be a leaf but declares "
        "subcomponents: extra",
        (39, 1, 56, 1),
    ),
    "mutations/r6_unreachable_state.ciot": (
        "r6_unreachable_state.ciot:96:9: warning R6 state 'ORPHAN' of component 'UltrasonicSensor' "
        "is unreachable from the initial state",
        (96, 9, 96, 23),
    ),
    "mutations/r7_payload_not_carried.ciot": (
        "r7_payload_not_carried.ciot:121:5: error R7 incoming event 'evtReading' on port 'pSense' of "
        "component 'Node' expects payload 'SensePayload', but no interface on that port carries it",
        (121, 5, 121, 81),
    ),
    "syntax_errors/bad_character.ciot": (
        "bad_character.ciot:1:13: error E_LEX unexpected character '@'",
        (1, 13, 1, 13),
    ),
    "syntax_errors/missing_semicolon.ciot": (
        "missing_semicolon.ciot:3:1: error E_PARSE expected punctuation ';', got punctuation '}'",
        (3, 1, 3, 1),
    ),
    "syntax_errors/reserved_component_name.ciot": (
        "reserved_component_name.ciot:1:11: error E_PARSE expected component name (identifier), "
        "got keyword 'and'",
        (1, 11, 1, 13),
    ),
    "syntax_errors/truncated_file.ciot": (
        "truncated_file.ciot:7:1: error E_PARSE expected a component member (property, port, instance, "
        "connect, event, action, or statemachine), got end of input",
        (7, 1, 7, 1),
    ),
    "syntax_errors/unterminated_string.ciot": (
        "unterminated_string.ciot:2:30: error E_LEX unterminated string literal",
        (2, 30, 2, 30),
    ),
}


def test_corpus_diagnostics_cover_every_defective_file():
    found = {
        f"{path.parent.name}/{path.name}"
        for folder in ("mutations", "syntax_errors")
        for path in (CORPUS_DIR / folder).glob("*.ciot")
    }
    assert found == set(EXPECTED_CORPUS_DIAGNOSTICS)


@pytest.mark.parametrize("relpath", sorted(EXPECTED_CORPUS_DIAGNOSTICS))
def test_corpus_diagnostic_and_full_span(relpath):
    rendered, span = EXPECTED_CORPUS_DIAGNOSTICS[relpath]
    path = CORPUS_DIR / relpath
    _, diags = collect_diagnostics(path.read_text(encoding="utf-8"), path.name)
    assert [(d.render(), _full(d.span)) for d in diags] == [(rendered, span)]


def _full(span: SourceSpan) -> tuple[int, int, int, int]:
    return (span.line, span.column, span.end_line, span.end_column)


def test_span_is_a_four_tuple():
    span = SourceSpan(2, 5, 3, 1)
    assert span == (2, 5, 3, 1)
    line, column, end_line, end_column = span
    assert (line, column, end_line, end_column) == (span.line, span.column, span.end_line, span.end_column)
    assert SourceSpan(2, 5, 2, 5) < span < SourceSpan(2, 6, 2, 6)
    assert repr(span) == "SourceSpan(line=2, column=5, end_line=3, end_column=1)"


def test_top_level_declaration_spans_run_from_keyword_to_terminator(parking_path):
    source = pathlib.Path(parking_path).read_text(encoding="utf-8")
    lines = source.split("\n")
    ast = parse(source, parking_path)
    declarations = [
        *(("payload", d.span, "}") for d in ast.payloads),
        *(("interface", d.span, "}") for d in ast.interfaces),
        *(("component", d.span, "}") for d in ast.components),
        *(("instance", d.span, ";") for d in ast.instances),
    ]
    assert len(declarations) == 13
    for keyword, offsets, terminator in declarations:
        line, column, end_line, end_column = _full(ast.locator.span(*offsets))
        assert lines[line - 1][column - 1 :].startswith(keyword + " ")
        assert lines[end_line - 1][end_column - 1] == terminator


def _subtrees(roots):
    roots = list(roots)
    while roots:
        expr = roots.pop()
        yield expr
        roots += [getattr(expr, child) for child in ("operand", "left", "right") if hasattr(expr, child)]


def test_expression_nodes_keep_the_offsets_of_their_tokens(parking_path):
    corpus = pathlib.Path(parking_path).read_text(encoding="utf-8")
    expression = 'not (x < 1.5) and payload . f != "s" or (((on)))'
    components = parse(corpus).components
    guards_and_effects = [
        *(e.expr for c in components for a in c.actions for e in a.effects),
        *(t.guard for c in components if c.machine for t in c.machine.transitions if t.guard),
    ]
    kinds = set()
    for source, trees in [(corpus, guards_and_effects), (expression, [parse_expression(expression)])]:
        tokens = {start: text for _, text, start in tokenize(source)}
        for expr in _subtrees(trees):
            kinds.add(type(expr))
            start, end = expr.span
            assert type(start) is int and type(end) is int
            if isinstance(expr, (NameRef, Literal)):
                assert source[start:end] == tokens[start]
            if isinstance(expr, NameRef):
                assert tokens[start] == expr.name
            elif isinstance(expr, PayloadFieldRef):
                assert (tokens[start], source[start:end].split(".")[-1].strip()) == ("payload", expr.field)
            elif isinstance(expr, Unary):
                assert (tokens[start], end) == ("not", expr.operand.span[1])
            elif isinstance(expr, Binary):
                assert (start, end) == (expr.left.span[0], expr.right.span[1])
    assert kinds == {Literal, NameRef, PayloadFieldRef, Unary, Binary}


@pytest.mark.parametrize(
    "entry, text, message",
    [
        (tokenize, None, "text must be a str, got NoneType"),
        (parse, b"component", "text must be a str, got bytes"),
        (load_text, None, "text must be a str, got NoneType"),
        (collect_diagnostics, b"component", "text must be a str, got bytes"),
        (load_scenario, None, "text must be a str, got NoneType"),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_text_entry_points_reject_non_str_text(entry, text, message):
    with pytest.raises(CiotError) as exc:
        entry(text)
    assert exc.value.code == "E_USAGE"
    assert [d.render() for d in exc.value.diagnostics] == [f"<input>: error E_USAGE {message}"]


# One message per token kind, and the texts ``expect`` and the enum words
# print: each names the token's kind as its text.
_PARSE_MESSAGES = {
    "x": "1:1: error E_PARSE expected a top-level declaration (payload, interface, component, or instance), "
    "got identifier 'x'",
    "state": "1:1: error E_PARSE expected a top-level declaration (payload, interface, component, or instance), "
    "got keyword 'state'",
    "3": "1:1: error E_PARSE expected a top-level declaration (payload, interface, component, or instance), "
    "got int literal '3'",
    "1.5": "1:1: error E_PARSE expected a top-level declaration (payload, interface, component, or instance), "
    "got float literal '1.5'",
    '"s"': "1:1: error E_PARSE expected a top-level declaration (payload, interface, component, or instance), "
    "got string literal '\"s\"'",
    ";": "1:1: error E_PARSE expected a top-level declaration (payload, interface, component, or instance), "
    "got punctuation ';'",
    "component": "1:10: error E_PARSE expected component name (identifier), got end of input",
    "payload P x": "1:11: error E_PARSE expected punctuation '{', got identifier 'x'",
    "interface I { x": "1:15: error E_PARSE expected keyword 'op', got identifier 'x'",
    "interface I { op o(P) }": "1:23: error E_PARSE expected punctuation ';', got punctuation '}'",
    "component C : Gadget {}": "1:15: error E_PARSE expected a component kind (IoTElement, Board, or VirtualEntity), "
    "got identifier 'Gadget'",
    "component C : state {}": "1:15: error E_PARSE expected a component kind (IoTElement, Board, or VirtualEntity), "
    "got keyword 'state'",
    "component C : Board { event e port; }": "1:31: error E_PARSE expected an event direction "
    "(incoming, outgoing, generic), got keyword 'port'",
    "component C : Board { event e Incoming; }": "1:31: error E_PARSE expected an event direction "
    "(incoming, outgoing, generic), got identifier 'Incoming'",
    "component C : Board { action a incoming; }": "1:32: error E_PARSE expected an action kind "
    "(send, receive, generic), got keyword 'incoming'",
    "component C : Board { property p: int = x; }": "1:41: error E_PARSE expected a literal, got identifier 'x'",
}


@pytest.mark.parametrize("text", sorted(_PARSE_MESSAGES))
def test_parse_error_names_the_token_by_its_kind(text):
    with pytest.raises(CiotError) as exc:
        parse(text)
    assert [d.render() for d in exc.value.diagnostics] == [f"<input>:{_PARSE_MESSAGES[text]}"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("payload x", "1:9: error E_PARSE expected '.' after 'payload', got identifier 'x'"),
        ("x y", "1:3: error E_PARSE expected end of input, got identifier 'y'"),
        ("(x", "1:3: error E_PARSE expected punctuation ')', got end of input"),
        ("x <", "1:4: error E_PARSE expected an expression, got end of input"),
        ("x < 1 2.5", "1:7: error E_PARSE expected end of input, got float literal '2.5'"),
    ],
)
def test_expression_parse_error_names_the_token_by_its_kind(text, message):
    with pytest.raises(CiotError) as exc:
        parse_expression(text)
    assert [d.render() for d in exc.value.diagnostics] == [f"<input>:{message}"]

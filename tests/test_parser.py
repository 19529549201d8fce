from __future__ import annotations

import pathlib

import pytest

from ciot.diagnostics import CiotError
from ciot.engine import instantiate
from ciot.export import export_model
from ciot.loader import collect_diagnostics
from ciot.metamodel import with_property_initial
from ciot.parser import MAX_EXPR_DEPTH, parse, parse_expression

SYNTAX_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "syntax_errors"

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


# Literals that lex but do not convert: an INT past the interpreter's
# int-string digit limit (4,300 by default; the test only needs "far past"),
# and a FLOAT that float() turns into inf.
OUT_OF_RANGE = {
    "int_past_digit_limit": ("int", "1" + "0" * 5000, "integer literal of 5001 digits is out of range"),
    "float_to_inf": ("float", "1" + "0" * 400 + ".0", "float literal is out of range"),
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

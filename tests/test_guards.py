from __future__ import annotations

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ciot.diagnostics import CiotError, Locator
from ciot.engine import inject, instantiate, run_to_quiescence
from ciot.guards import (
    Binary,
    GuardScope,
    Literal,
    NameRef,
    PayloadFieldRef,
    PrimType,
    Unary,
    compile_expr,
    describe_value,
    eval_guard,
    expr_to_text,
    fit_value,
    format_value,
    typecheck_guard,
)
from ciot.loader import collect_diagnostics, load_text
from ciot.metamodel import with_property_initial
from ciot.trace import render_trace

from exprparse import parse_expression

NUMERIC_SCOPE = GuardScope(
    properties={"x": PrimType.INT, "rate": PrimType.FLOAT, "on": PrimType.BOOL, "tag": PrimType.STRING},
    payload_fields={"duration": PrimType.FLOAT, "state": PrimType.STRING},
)


def tc(src: str, scope: GuardScope = NUMERIC_SCOPE) -> PrimType:
    return typecheck_guard(parse_expression(src), scope)


def ev(src: str, properties=None, payload=None):
    return eval_guard(parse_expression(src), properties or {}, payload)


# -- typechecking -------------------------------------------------------------


def test_comparisons_produce_bool():
    assert tc("x < 5") is PrimType.BOOL
    assert tc("payload.duration >= 300") is PrimType.BOOL
    assert tc("x == 5 and on") is PrimType.BOOL


def test_int_float_mix_widens():
    assert tc("x < rate") is PrimType.BOOL
    assert tc("rate == 2") is PrimType.BOOL
    for left, right in [("x", "rate"), ("rate", "x"), ("1", "2.5"), ("2.5", "1")]:
        for op in ("==", "!=", "<", "<=", ">", ">="):
            assert tc(f"{left} {op} {right}") is PrimType.BOOL


def test_ordering_rejects_non_numeric():
    with pytest.raises(CiotError) as exc:
        tc("tag < tag")
    assert exc.value.code == "E_TYPE_MISMATCH"
    assert str(exc.value) == "'<' needs numeric operands, got string and string"
    for src, types in [("on >= on", "bool and bool"), ("rate >= on", "float and bool")]:
        with pytest.raises(CiotError) as exc:
            tc(src)
        assert str(exc.value) == f"'>=' needs numeric operands, got {types}"


def test_equality_requires_same_type():
    assert tc('tag == "high"') is PrimType.BOOL
    with pytest.raises(CiotError) as exc:
        tc("tag == 1")
    assert str(exc.value) == "cannot compare string with int"
    with pytest.raises(CiotError) as exc:
        tc("on == 1")
    assert str(exc.value) == "cannot compare bool with int"


def test_boolean_ops_need_bool_operands():
    with pytest.raises(CiotError) as exc:
        tc("x and on")
    assert exc.value.code == "E_TYPE_MISMATCH"
    with pytest.raises(CiotError):
        tc("not x")


def test_unknown_property_name():
    with pytest.raises(CiotError) as exc:
        tc("missing == 1")
    assert exc.value.code == "E_UNKNOWN_NAME"


def test_payload_outside_scope():
    scope = GuardScope(properties={"x": PrimType.INT}, payload_fields=None)
    with pytest.raises(CiotError) as exc:
        tc("payload.duration >= 1", scope)
    assert exc.value.code == "E_UNKNOWN_NAME"


def test_unknown_payload_field():
    with pytest.raises(CiotError) as exc:
        tc("payload.missing == 1")
    assert exc.value.code == "E_UNKNOWN_NAME"


def test_guard_expression_may_be_non_bool_subterm():
    # The checker infers types; demanding BOOL at the top is the caller's job.
    assert tc("x") is PrimType.INT


# -- evaluation ---------------------------------------------------------------


def test_threshold_examples():
    assert ev("payload.duration >= 300", payload={"duration": 300.0}) is True
    assert ev("payload.duration >= 300", payload={"duration": 299.9}) is False


def test_boolean_algebra_example():
    assert ev("not (x > 0) or x == 5", {"x": 5}) is True
    assert ev("not (x > 0) or x == 5", {"x": 3}) is False


def test_string_equality():
    assert ev('payload.state == "high"', payload={"state": "high"}) is True
    assert ev('payload.state != "high"', payload={"state": "low"}) is True


def test_bool_never_equals_int():
    # Python would say True == 1; the expression language must not.
    expr = Binary("==", Literal(True, PrimType.BOOL), Literal(1, PrimType.INT))
    assert eval_guard(expr, {}) is False
    expr = Binary("!=", Literal(False, PrimType.BOOL), Literal(0, PrimType.INT))
    assert eval_guard(expr, {}) is True


def test_int_float_equality_widens():
    assert ev("x == 300", {"x": 300}) is True
    assert ev("payload.duration == 300", payload={"duration": 300.0}) is True


def test_missing_name_at_eval_is_e_eval():
    with pytest.raises(CiotError) as exc:
        ev("ghost == 1")
    assert exc.value.code == "E_EVAL"
    with pytest.raises(CiotError) as exc:
        ev("payload.ghost == 1", payload={})
    assert exc.value.code == "E_EVAL"


def test_evaluation_is_pure():
    props = {"x": 1}
    payload = {"duration": 2.0}
    ev("x == 1 and payload.duration < 3", props, payload)
    assert props == {"x": 1} and payload == {"duration": 2.0}


# -- canonical text -----------------------------------------------------------


def test_format_value_forms():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(300) == "300"
    assert format_value(2.5) == "2.5"
    assert format_value('say "hi"\n') == '"say \\"hi\\"\\n"'


def test_expr_to_text_examples():
    assert expr_to_text(parse_expression("payload.duration >= 300")) == "payload.duration >= 300"
    assert expr_to_text(parse_expression("not (x > 0) or x == 5")) == "not x > 0 or x == 5"


def _chain(level: str, depth: int) -> str:
    text = "x"
    for i in reversed(range(depth)):
        text = level.format(i=i, inner=text)
    return text


# The deepest chains of each kind that the parser accepts: every level opens
# one "not" and one "(", against its limit of 100.
@pytest.mark.parametrize(
    "source",
    [_chain("not a{i} == ({inner})", 50), _chain("not (a{i} and {inner})", 50)],
    ids=["not_over_comparison", "not_over_and"],
)
def test_deepest_chain_renders_to_text_that_reparses_equal(source):
    expr = parse_expression(source)
    assert parse_expression(expr_to_text(expr)) == expr


_names = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda n: n not in ("and", "or", "not", "true", "false", "payload")
    and n not in ("int", "float", "bool", "string", "state", "exit", "entry", "op", "when", "self")
)
_floats = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_atoms = st.one_of(
    st.integers(min_value=0, max_value=9999).map(lambda v: Literal(v, PrimType.INT)),
    _floats.map(lambda v: Literal(v, PrimType.FLOAT)),
    st.booleans().map(lambda v: Literal(v, PrimType.BOOL)),
    st.text(alphabet="abc xyz_", max_size=6).map(lambda v: Literal(v, PrimType.STRING)),
    _names.map(NameRef),
    _names.map(PayloadFieldRef),
)


def _exprs():
    return st.recursive(
        _atoms,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(["and", "or"]), sub, sub).map(lambda t: Binary(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), sub, sub).map(
                lambda t: Binary(t[0], t[1], t[2])
            ),
            sub.map(lambda e: Unary("not", e)),
        ),
        max_leaves=12,
    )


@given(_exprs())
def test_rendered_expression_reparses_equal(expr):
    text = expr_to_text(expr)
    assert parse_expression(text) == expr


# --- the value-fits-type rule --------------------------------------------

# Ints at the edge of float range: 2**1024 - 2**970 - 1 still rounds to the
# largest float, 2**1024 - 2**970 rounds past it and overflows.
_EDGE_INTS = [10**400, -(10**400), 2**1024 - 2**970 - 1, 2**1024 - 2**970, 2**53 + 1]
_VALUES = st.one_of(
    st.booleans(),
    st.integers(),
    st.sampled_from(_EDGE_INTS),
    st.floats(),  # nan and +-inf included
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126) | st.sampled_from("\n\t"), max_size=6),
)


def _type_id(value):
    """Name a type word by its constant, such as ``PrimType.INT``; any other value keeps pytest's id."""
    return next((f"PrimType.{name}" for name in ("INT", "FLOAT", "BOOL", "STRING") if getattr(PrimType, name) is value), None)


@pytest.mark.parametrize(
    "t, value, stored",
    [
        (PrimType.INT, 7, 7),
        (PrimType.INT, 10**400, 10**400),
        (PrimType.INT, True, None),
        (PrimType.INT, 7.0, None),
        (PrimType.FLOAT, 3, 3.0),
        (PrimType.FLOAT, 2**1024 - 2**970 - 1, 1.7976931348623157e308),
        (PrimType.FLOAT, 2**1024 - 2**970, None),
        (PrimType.FLOAT, 0.5, 0.5),
        (PrimType.FLOAT, float("nan"), None),
        (PrimType.FLOAT, float("-inf"), None),
        (PrimType.FLOAT, False, None),
        (PrimType.BOOL, True, True),
        (PrimType.BOOL, 1, None),
        (PrimType.STRING, "on", "on"),
        (PrimType.STRING, 1, None),
        (None, 1, None),
    ],
    ids=_type_id,
)
def test_fit_value_rule(t, value, stored):
    result = fit_value(t, value)
    assert type(result) is type(stored) and result == stored



def test_fit_value_follows_the_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert fit_value(PrimType.INT, 10**640 - 1) == 10**640 - 1
        assert fit_value(PrimType.INT, 10**640) is None
        assert fit_value(PrimType.INT, -(10**640)) is None
        sys.set_int_max_str_digits(0)
        assert fit_value(PrimType.INT, 10**5000) == 10**5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_unprintable_int_ends_in_a_code_and_every_stored_int_renders():
    model = load_text(_one_property_model(PrimType.INT, "0"))
    with pytest.raises(CiotError) as exc:
        with_property_initial(model, "p", 10**5000)
    assert exc.value.code == "E_DOMAIN"
    rt = instantiate(model)
    with pytest.raises(CiotError) as exc:
        inject(rt, "c", "p1", "e", {"f": 10**5000})
    assert exc.value.code == "E_TYPE"
    assert exc.value.diagnostics[0].message.endswith("got an int of 16610 bits")
    largest = 10 ** sys.get_int_max_str_digits() - 1
    rt = instantiate(with_property_initial(model, "p", largest))
    inject(rt, "c", "p1", "e", {"f": largest})
    run_to_quiescence(rt, 10)
    assert str(largest) in render_trace(rt.trace)

_DEFAULT_LITERAL = {PrimType.INT: "0", PrimType.FLOAT: "0.0", PrimType.BOOL: "false", PrimType.STRING: '""'}


def _one_property_model(t: PrimType, literal: str) -> str:
    return (
        f"payload P {{ f: {t}; }}\n"
        "interface I { op o(P); }\n"
        "component C : IoTElement {\n"
        f"    property p: {t} = {literal};\n"
        "    port p1 provides I;\n"
        "    event e incoming port p1 payload P action a;\n"
        "    action a receive port p1 payload P;\n"
        "}\n"
        "instance c: C;\n"
    )


def _literal(value) -> str | None:
    """Model text denoting ``value`` (a float: some finite float), or None
    where no literal can: negative numbers and non-finite floats."""
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        text = format(value, "f")
    else:
        text = format_value(value)
    return None if text.startswith("-") else text


def _same(a, b) -> bool:
    return type(a) is type(b) and a == b


@settings(max_examples=150, deadline=None)
@given(t=st.sampled_from((PrimType.INT, PrimType.FLOAT, PrimType.BOOL, PrimType.STRING)), value=_VALUES)
def test_fit_value_is_the_verdict_at_every_site(t, value):
    fit = fit_value(t, value)
    model = load_text(_one_property_model(t, _DEFAULT_LITERAL[t]), check=False)

    if fit is None:
        with pytest.raises(CiotError) as exc:
            with_property_initial(model, "p", value)
        assert exc.value.code == "E_DOMAIN"
    else:
        assert _same(instantiate(with_property_initial(model, "p", value)).instances["c"].properties["p"], fit)

    rt = instantiate(model)
    if fit is None:
        with pytest.raises(CiotError) as exc:
            inject(rt, "c", "p1", "e", {"f": value})
        assert exc.value.code == "E_TYPE"
        assert not rt.instances["c"].inbox
    else:
        inject(rt, "c", "p1", "e", {"f": value})
        [(event, (_, name, eseq, source, payload))] = rt.instances["c"].inbox
        assert (event.name, name, eseq, source) == ("e", "e", 0, "env")
        assert _same(payload["f"], fit)

    model.components[0].properties[0].initial = value
    if fit is None:
        with pytest.raises(CiotError) as exc:
            instantiate(model)
        assert exc.value.code == "E_INSTANTIATE"
    else:
        assert _same(instantiate(model).instances["c"].properties["p"], fit)

    literal = _literal(value)
    if literal is not None:
        parsed, diags = collect_diagnostics(_one_property_model(t, literal))
        initial = parsed.components[0].properties[0].initial
        assert _same(initial, value) or isinstance(value, float) and type(initial) is float
        assert [d.rule for d in diags] == (["R4"] if fit_value(t, initial) is None else [])


# --- one evaluator: compiled evaluation against a reference tree walk -------

_PROPERTY_NAMES = ("a", "b", "c")
_FIELD_NAMES = ("f", "g", "h")
_PRIM_OF = {bool: PrimType.BOOL, int: PrimType.INT, float: PrimType.FLOAT, str: PrimType.STRING}
# Few values, with 0 and 1 in every numeric type and as bools, so equal
# values of unlike types (the bool/int and int/float edges) meet often.
_SCALARS = st.one_of(
    st.sampled_from([0, 1, 2]),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.booleans(),
    st.sampled_from(["", "x"]),
)
_SPANS = st.tuples(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=60))
_COMPARISONS = ["==", "!=", "<", "<=", ">", ">="]
# Names sit at offsets into a text of 40 lines of 80 columns, which
# ``_locate`` turns into a SourceSpan as ``Model.locate`` does for a model.
_LOCATOR = Locator("\n".join(" " * 80 for _ in range(40)))


def _locate(span):
    return _LOCATOR.span(*span)


def _at(line, column, length):
    """The offsets of ``length`` characters from ``line``:``column`` of the located text."""
    start = (line - 1) * 81 + column - 1
    return (start, start + length)


def _spanned(node, names):
    return st.tuples(st.sampled_from(names), _SPANS).map(lambda t: node(t[0], _at(*t[1], len(t[0]))))


def _binary(ops, left, right):
    return st.tuples(st.sampled_from(ops), left, right).map(lambda t: Binary(*t))


_LEAVES = st.one_of(
    _SCALARS.map(lambda v: Literal(v, _PRIM_OF[type(v)])),
    _spanned(NameRef, _PROPERTY_NAMES),
    _spanned(PayloadFieldRef, _FIELD_NAMES),
)


def _sometimes_negated(nodes):
    return st.tuples(st.integers(min_value=0, max_value=3), nodes).map(
        lambda t: Unary("not", t[1]) if t[0] == 0 else t[1]
    )


# Comparisons of two leaves, the usual guard, are drawn directly as well as
# built up from subtrees. "not" wraps a node now and then: as a branch of its
# own it would crowd out the rest, since it spends none of the leaves.
_DIFF_EXPRS = st.recursive(
    _sometimes_negated(_LEAVES | _binary(_COMPARISONS, _LEAVES, _LEAVES)),
    lambda sub: _sometimes_negated(_binary(["and", "or"] + _COMPARISONS, sub, sub)),
    max_leaves=10,
)


def _scopes(names):
    """Every name bound (values decide), or any subset of them (names go missing)."""
    return st.fixed_dictionaries({name: _SCALARS for name in names}) | st.dictionaries(st.sampled_from(names), _SCALARS)


_PROPERTIES = _scopes(_PROPERTY_NAMES)
_PAYLOADS = st.none() | _scopes(_FIELD_NAMES)


def _reference_eval(expr, properties, payload):
    """The evaluation rules written out as a plain tree walk: ``and``/``or``
    decide on the left operand's truth before the right one is looked at and
    yield a bool, ``==``/``!=`` never equate a bool with a number, ints and
    floats compare by value, and a missing name is E_EVAL at its span."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, NameRef):
        if expr.name not in properties:
            raise CiotError.of("E_EVAL", f"unknown property {expr.name!r} at evaluation", _locate(expr.span))
        return properties[expr.name]
    if isinstance(expr, PayloadFieldRef):
        if payload is None or expr.field not in payload:
            raise CiotError.of("E_EVAL", f"payload field {expr.field!r} absent at evaluation", _locate(expr.span))
        return payload[expr.field]
    if isinstance(expr, Unary):
        return not _reference_eval(expr.operand, properties, payload)
    lv = _reference_eval(expr.left, properties, payload)
    if expr.op in ("and", "or"):
        if bool(lv) == (expr.op == "or"):  # the left operand decides
            return bool(lv)
        return bool(_reference_eval(expr.right, properties, payload))
    rv = _reference_eval(expr.right, properties, payload)
    if expr.op in ("==", "!="):
        equal = isinstance(lv, bool) == isinstance(rv, bool) and lv == rv
        return equal if expr.op == "==" else not equal
    if expr.op == "<":
        return lv < rv
    if expr.op == "<=":
        return lv <= rv
    if expr.op == ">":
        return lv > rv
    return lv >= rv


def _outcome(evaluate, expr, properties, payload):
    """A value with its exact type, an E_EVAL diagnostic, or a Python
    TypeError (an ordering of unlike types, which typing rules out)."""
    try:
        value = evaluate(expr, properties, payload)
    except CiotError as exc:
        [diag] = exc.diagnostics
        return ("error", exc.code, diag.message, diag.span)
    except TypeError:
        return ("type error",)
    return ("value", type(value), value)


@settings(max_examples=500, deadline=None)
@given(expr=_DIFF_EXPRS, properties=_PROPERTIES, payload=_PAYLOADS)
def test_evaluation_matches_reference_tree_walk(expr, properties, payload):
    got = _outcome(lambda e, p, q: compile_expr(e, _locate)(p, q), expr, properties, payload)
    assert got == _outcome(_reference_eval, expr, properties, payload)


@settings(max_examples=100, deadline=None)
@given(expr=_DIFF_EXPRS, scopes=st.lists(st.tuples(_PROPERTIES, _PAYLOADS), min_size=1, max_size=5))
def test_compiled_once_evaluates_each_scope_afresh(expr, scopes):
    compiled = compile_expr(expr, _locate)
    for properties, payload in scopes:
        got = _outcome(lambda _, p, q: compiled(p, q), expr, properties, payload)
        assert got == _outcome(_reference_eval, expr, properties, payload)


# Leaf comparisons, which compile to one fused closure, at the edges where
# Python's own comparison and the evaluation rules part: bool against int
# and float, int against float, -0.0, ints past float precision, the
# non-finite floats, and str against everything.
_EDGE_SCALARS = st.sampled_from([0, 1, 1.0, -0.0, 2**53 + 1, float(2**53), math.nan, True, False, "", "1"])
_EDGE_LEAVES = st.one_of(
    _EDGE_SCALARS.map(lambda v: Literal(v, _PRIM_OF[type(v)])),
    _spanned(NameRef, _PROPERTY_NAMES[:2]),
    _spanned(PayloadFieldRef, _FIELD_NAMES[:2]),
)


def _edge_scopes(names):
    return st.fixed_dictionaries({name: _EDGE_SCALARS for name in names}) | st.dictionaries(
        st.sampled_from(names), _EDGE_SCALARS
    )


_A, _F = NameRef("a", _at(1, 1, 1)), PayloadFieldRef("f", _at(1, 6, 9))


@settings(max_examples=800, deadline=None)
@given(
    expr=_binary(_COMPARISONS, _EDGE_LEAVES, _EDGE_LEAVES),
    scopes=st.lists(st.tuples(_edge_scopes(_PROPERTY_NAMES[:2]), st.none() | _edge_scopes(_FIELD_NAMES[:2])), min_size=1, max_size=4),
)
@example(expr=Binary("==", _A, Literal(True, PrimType.BOOL)), scopes=[({"a": 1}, None), ({"a": True}, None)])
@example(expr=Binary("!=", _F, Literal(1, PrimType.INT)), scopes=[({}, {"f": True}), ({}, {"f": 1.0})])
@example(expr=Binary("==", Literal("1", PrimType.STRING), _A), scopes=[({"a": 1}, None), ({"a": "1"}, None)])
@example(expr=Binary("<", _F, _A), scopes=[({"a": 1}, None), ({}, {"f": 1}), ({"a": "1"}, {"f": 1})])
def test_fused_leaf_comparison_matches_reference_tree_walk(expr, scopes):
    compiled = compile_expr(expr, _locate)
    assert compiled.__qualname__ == "_fused.<locals>.fused"  # the fused closure is what runs here
    for properties, payload in scopes:
        got = _outcome(lambda _, p, q: compiled(p, q), expr, properties, payload)
        assert got == _outcome(_reference_eval, expr, properties, payload)


_GHOST = NameRef("ghost", _at(3, 9, 5))


@pytest.mark.parametrize(
    "expr, expected",
    [
        (Binary("and", Literal(False, PrimType.BOOL), _GHOST), False),
        (Binary("or", Literal(True, PrimType.BOOL), _GHOST), True),
        (Binary("and", Literal(1, PrimType.INT), Literal(2.5, PrimType.FLOAT)), True),
        (Binary("or", Literal("", PrimType.STRING), Literal(0, PrimType.INT)), False),
    ],
    ids=["false_and_ghost", "true_or_ghost", "and_is_bool", "or_is_bool"],
)
def test_deciding_left_operand_skips_the_right(expr, expected):
    assert eval_guard(expr, {}) is expected


def test_missing_names_fail_at_their_span():
    field = PayloadFieldRef("gone", _at(2, 4, 12))
    for expr, message, span in [
        (Binary("and", Literal(True, PrimType.BOOL), _GHOST), "unknown property 'ghost' at evaluation", (3, 9, 3, 13)),
        (Binary("==", field, Literal(1, PrimType.INT)), "payload field 'gone' absent at evaluation", (2, 4, 2, 15)),
    ]:
        for payload in (None, {"other": 1}):
            # eval_guard has no text to locate the name in.
            for evaluate, expected in ((compile_expr(expr, _locate), span), (lambda *scope: eval_guard(expr, *scope), None)):
                with pytest.raises(CiotError) as exc:
                    evaluate({"x": 1}, payload)
                assert exc.value.code == "E_EVAL"
                [diag] = exc.value.diagnostics
                assert (diag.message, diag.span) == (message, expected)


@pytest.mark.parametrize(
    "value, shown",
    [
        (2.5, "2.5"),
        ("a\"b", '"a\\"b"'),
        (10**400, "an int of 1329 bits"),
        ((0, "x"), "(0, 'x')"),
        (None, "None"),
        ([10**5000], "a list that cannot be printed"),
        ({"v": 10**5000}, "a dict that cannot be printed"),
    ],
)
def test_describe_value_never_raises(value, shown):
    assert describe_value(value) == shown


def test_describe_value_of_nesting_past_the_recursion_limit():
    nested: list = []
    for _ in range(100_000):
        nested = [nested]
    assert describe_value(nested) == "a list that cannot be printed"

"""Guard and effect expressions.

The expression language is deliberately small: literals, property references,
``payload.<field>`` references, the six comparison operators, and and/or/not.
There is no arithmetic. Comparisons require same-typed operands except that
int and float mix by widening to float; ordering comparisons additionally
require numeric operands.

There is one evaluator, ``compile_expr``: it turns an expression into a
function of the properties and the payload. The engine compiles each guard
and effect once per ``instantiate``; ``eval_guard`` compiles and calls.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Union

from .diagnostics import E_EVAL, E_TYPE_MISMATCH, E_UNKNOWN_NAME, CiotError, Offsets, error


class PrimType(Enum):
    # The one primitive-type enum; metamodel re-exports it. Defined here so
    # this module needs neither the metamodel nor the engine.
    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    STRING = "string"


@dataclass
class Literal:
    value: int | float | bool | str
    type: PrimType
    span: Offsets | None = field(default=None, compare=False, repr=False)


@dataclass
class NameRef:
    """Bare name; refers to a property of the owning component."""

    name: str
    span: Offsets | None = field(default=None, compare=False, repr=False)


@dataclass
class PayloadFieldRef:
    """``payload.<field>`` reference into the in-scope payload record."""

    field: str
    span: Offsets | None = field(default=None, compare=False, repr=False)


@dataclass
class Unary:
    op: str  # "not"
    operand: "Expr"
    span: Offsets | None = field(default=None, compare=False, repr=False)


@dataclass
class Binary:
    op: str  # "and" "or" "==" "!=" "<" "<=" ">" ">="
    left: "Expr"
    right: "Expr"
    span: Offsets | None = field(default=None, compare=False, repr=False)


Expr = Union[Literal, NameRef, PayloadFieldRef, Unary, Binary]

ORDERING_OPS = ("<", "<=", ">", ">=")
BOOLEAN_OPS = ("and", "or")


@dataclass(frozen=True)
class GuardScope:
    """Static typing context: property types plus optional payload field types."""

    properties: Mapping[str, PrimType]
    payload_fields: Mapping[str, PrimType] | None = None


class TypeCheckError(CiotError):
    """A typing error; ``at`` is the offsets of the offending expression node."""

    def __init__(self, code: str, message: str, at: Offsets | None) -> None:
        super().__init__(code, [error(code, message)])
        self.at = at


def typecheck_guard(expr: Expr, scope: GuardScope) -> PrimType:
    """Infer the expression's type; a guard must come out BOOL.

    Raises TypeCheckError (code E_TYPE_MISMATCH or E_UNKNOWN_NAME) at the
    offending subexpression.
    """
    if isinstance(expr, Literal):
        return expr.type
    if isinstance(expr, NameRef):
        t = scope.properties.get(expr.name)
        if t is None:
            raise TypeCheckError(E_UNKNOWN_NAME, f"unknown property {expr.name!r}", expr.span)
        return t
    if isinstance(expr, PayloadFieldRef):
        if scope.payload_fields is None:
            raise TypeCheckError(E_UNKNOWN_NAME, f"payload.{expr.field} used where no payload is in scope", expr.span)
        t = scope.payload_fields.get(expr.field)
        if t is None:
            raise TypeCheckError(E_UNKNOWN_NAME, f"payload has no field {expr.field!r}", expr.span)
        return t
    if isinstance(expr, Unary):
        t = typecheck_guard(expr.operand, scope)
        if t is not PrimType.BOOL:
            raise TypeCheckError(E_TYPE_MISMATCH, f"'not' needs a bool operand, got {t.value}", expr.span)
        return PrimType.BOOL
    if isinstance(expr, Binary):
        if expr.op in BOOLEAN_OPS:
            for side in (expr.left, expr.right):
                t = typecheck_guard(side, scope)
                if t is not PrimType.BOOL:
                    message = f"{expr.op!r} needs bool operands, got {t.value}"
                    raise TypeCheckError(E_TYPE_MISMATCH, message, side.span or expr.span)
            return PrimType.BOOL
        lt = typecheck_guard(expr.left, scope)
        rt = typecheck_guard(expr.right, scope)
        numeric = {PrimType.INT, PrimType.FLOAT}
        if expr.op in ORDERING_OPS:
            if lt not in numeric or rt not in numeric:
                message = f"{expr.op!r} needs numeric operands, got {lt.value} and {rt.value}"
                raise TypeCheckError(E_TYPE_MISMATCH, message, expr.span)
            return PrimType.BOOL
        # Equality: same type, or int/float widened.
        if lt is rt or (lt in numeric and rt in numeric):
            return PrimType.BOOL
        raise TypeCheckError(E_TYPE_MISMATCH, f"cannot compare {lt.value} with {rt.value}", expr.span)
    raise TypeError(f"not an expression node: {expr!r}")


def assignable(target: PrimType, source: PrimType) -> bool:
    """Whether a value of type ``source`` may be stored where ``target`` is declared."""
    if target is source:
        return True
    return target is PrimType.FLOAT and source is PrimType.INT


def fit_value(t: PrimType, value):
    """The value a ``t`` property or payload field stores for ``value``, or
    None when ``value`` does not fit.

    The value-level form of ``assignable``: an int fits only where the
    interpreter's int-string digit limit lets it print (a trace prints it)
    and widens to float only where ``float()`` can represent it, a float
    fits only if it is finite, and a bool fits only ``bool`` although Python
    counts it as an int. Anything that is not a ``PrimType`` (a record type,
    None) fits nothing.
    """
    if isinstance(value, bool):
        return value if t is PrimType.BOOL else None
    if isinstance(value, int):
        if t is PrimType.INT:
            # Within float range an int has at most 309 digits, below any
            # limit the interpreter accepts (none is under 640 digits).
            return value if value.bit_length() <= 1024 or _prints(value) else None
        if t is PrimType.FLOAT:
            try:
                return float(value)
            except OverflowError:
                return None
        return None
    if isinstance(value, float):
        return value if t is PrimType.FLOAT and math.isfinite(value) else None
    if isinstance(value, str):
        return value if t is PrimType.STRING else None
    return None


def _prints(value: int) -> bool:
    limit = sys.get_int_max_str_digits()
    return not limit or abs(value) < 10**limit


def describe_value(value) -> str:
    """``value`` for a diagnostic: literal syntax, or an int's size when it
    is beyond float range (and may be too long to print). Anything else is
    its ``repr``, or its type when that fails (an int in it past the
    interpreter's digit limit, or nesting past its recursion limit)."""
    if isinstance(value, int) and not isinstance(value, bool) and value.bit_length() > 1024:
        return f"an int of {value.bit_length()} bits"
    if isinstance(value, (int, float, str)):
        return format_value(value)
    try:
        return repr(value)
    except (ValueError, RecursionError):
        return f"a {type(value).__name__} that cannot be printed"


def eval_guard(
    expr: Expr,
    properties: Mapping[str, int | float | bool | str],
    payload: Mapping[str, object] | None = None,
):
    """Evaluate a typechecked expression once; guards yield a Python bool.

    ``compile_expr(expr, locate)(properties, payload)`` with a ``locate``
    that gives no span, so an E_EVAL has none. Nothing in the package calls
    it: only the benchmark's per-layer attribution (``perfbench/layers.py``)
    reads it, by name, and tests."""
    return compile_expr(expr, lambda span: None)(properties, payload)


def compile_expr(
    expr: Expr, locate: Callable, source: str | None = None
) -> Callable[[Mapping, Mapping | None], object]:
    """The expression as a function of ``(properties, payload)``.

    This is the one evaluator. ``and``/``or`` short-circuit on their left
    operand's truth and yield a bool; ``==``/``!=`` keep bool apart from int
    (``_eq``); ints and floats compare by Python's widening. A name missing
    at evaluation (an expression that skipped the typechecker) raises
    CiotError with code E_EVAL at the span that ``locate`` (such as
    ``Model.locate``) gives for the name's offsets, in the file ``source``
    (such as ``Model.source``). A comparison of two
    leaves runs as one closure (``_fused``) with the same results and errors.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda properties, payload: value
    if isinstance(expr, NameRef):
        return _read_property(expr.name, expr.span, locate, source)
    if isinstance(expr, PayloadFieldRef):
        return _read_field(expr.field, expr.span, locate, source)
    if isinstance(expr, Unary):
        operand = compile_expr(expr.operand, locate, source)
        return lambda properties, payload: not operand(properties, payload)
    if isinstance(expr, Binary):
        compare = _COMPARE.get(expr.op)
        fused = _fused(expr, compare, locate, source) if compare is not None else None
        if fused is not None:
            return fused
        left, right = compile_expr(expr.left, locate, source), compile_expr(expr.right, locate, source)
        if expr.op == "and":
            return lambda properties, payload: bool(left(properties, payload)) and bool(right(properties, payload))
        if expr.op == "or":
            return lambda properties, payload: bool(left(properties, payload)) or bool(right(properties, payload))
        if compare is not None:
            return lambda properties, payload: compare(left(properties, payload), right(properties, payload))
    raise TypeError(f"not an expression node: {expr!r}")


def _fused(expr: Binary, compare: Callable, locate: Callable, source: str | None) -> Callable | None:
    """A comparison of two leaves (properties, payload fields, literals) as
    one closure; None when an operand is not a leaf.

    A ``KeyError`` or ``TypeError`` (a name missing, no payload in scope,
    unlike types ordered) reruns the comparison with its operands compiled
    and read one by one, so it fails with the error, message and span of
    the operand that fails. They are compiled only then.
    """
    sides = (expr.left, expr.right)
    literals = tuple(leaf.value if isinstance(leaf, Literal) else None for leaf in sides)
    reads = []  # per side: (0 properties, 1 payload, 2 literals; key)
    for side, leaf in enumerate(sides):
        if isinstance(leaf, NameRef):
            reads.append((0, leaf.name))
        elif isinstance(leaf, PayloadFieldRef):
            reads.append((1, leaf.field))
        elif isinstance(leaf, Literal):
            reads.append((2, side))
        else:
            return None
    (i, a), (j, b) = reads
    general = compare
    if expr.op in ("==", "!="):
        # A str literal equals only a str, and a bool literal only itself.
        if any(isinstance(v, str) for v in literals):
            compare = operator.eq if expr.op == "==" else operator.ne
        elif any(isinstance(v, bool) for v in literals):
            compare = operator.is_ if expr.op == "==" else operator.is_not

    def fused(properties, payload):
        try:
            scopes = (properties, payload, literals)
            return compare(scopes[i][a], scopes[j][b])
        except (KeyError, TypeError):
            left, right = (compile_expr(side, locate, source) for side in sides)
            return general(left(properties, payload), right(properties, payload))

    return fused


def _read_property(name: str, span: Offsets | None, locate: Callable, source: str | None):
    def read(properties, payload):
        try:
            return properties[name]
        except KeyError:
            raise CiotError.of(E_EVAL, f"unknown property {name!r} at evaluation", locate(span), source) from None

    return read


def _read_field(name: str, span: Offsets | None, locate: Callable, source: str | None):
    def read(properties, payload):
        try:
            return payload[name]
        except (KeyError, TypeError):  # TypeError: no payload in scope
            raise CiotError.of(E_EVAL, f"payload field {name!r} absent at evaluation", locate(span), source) from None

    return read


def _eq(a, b) -> bool:
    # bool is an int subtype in Python; keep bool distinct from int here.
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    return a == b


_COMPARE = {
    "==": _eq,
    "!=": lambda a, b: not _eq(a, b),
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


_PRECEDENCE = {"or": 1, "and": 2, "not": 3, "cmp": 4}


def expr_to_text(expr: Expr) -> str:
    """Canonical text form; reparsing it yields a structurally equal tree."""
    return _render(expr, 0)


def _render(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, Literal):
        return format_value(expr.value)
    if isinstance(expr, NameRef):
        return expr.name
    if isinstance(expr, PayloadFieldRef):
        return f"payload.{expr.field}"
    if isinstance(expr, Unary):
        inner = _render(expr.operand, _PRECEDENCE["not"])
        if isinstance(expr.operand, Binary):
            inner = f"({inner})"
        text = f"not {inner}"
        return f"({text})" if parent_prec > _PRECEDENCE["not"] else text
    if isinstance(expr, Binary):
        if expr.op in BOOLEAN_OPS:
            prec = _PRECEDENCE[expr.op]
            left = _render(expr.left, prec)
            # Left chains stay flat (only this operator binds at this level);
            # a looser operand, or a right operand at this level, gets
            # parentheses so tree shape survives reparse.
            if _binds_looser(expr.left, prec):
                left = f"({left})"
            right = _render(expr.right, prec)
            if _binds_looser(expr.right, prec) or _same_level(expr.right, prec):
                right = f"({right})"
            text = f"{left} {expr.op} {right}"
            return f"({text})" if parent_prec > prec else text
        prec = _PRECEDENCE["cmp"]
        left = _render(expr.left, prec)
        if isinstance(expr.left, (Binary, Unary)):
            left = f"({left})"
        right = _render(expr.right, prec)
        if isinstance(expr.right, (Binary, Unary)):
            right = f"({right})"
        text = f"{left} {expr.op} {right}"
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"not an expression node: {expr!r}")


def _prec_of(expr: Expr) -> int:
    if isinstance(expr, Binary):
        return _PRECEDENCE.get(expr.op, _PRECEDENCE["cmp"])
    if isinstance(expr, Unary):
        return _PRECEDENCE["not"]
    return 99


def _binds_looser(expr: Expr, prec: int) -> bool:
    return _prec_of(expr) < prec


def _same_level(expr: Expr, prec: int) -> bool:
    return isinstance(expr, (Binary, Unary)) and _prec_of(expr) == prec


def format_value(value: int | float | bool | str) -> str:
    """Canonical literal rendering shared by the printer and trace output."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        escaped = (
            value.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\t", "\\t")
        )
        return f'"{escaped}"'
    raise TypeError(f"unsupported literal value: {value!r}")

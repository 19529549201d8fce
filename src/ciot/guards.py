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
import re
import sys
from decimal import Decimal
from typing import Callable, Mapping

from .diagnostics import CiotError, Offsets, Record, error


class PrimType:
    """The primitive types: each is its model-text word."""

    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    STRING = "string"


class Literal(Record):
    """Literal value of a primitive type."""

    __slots__ = ("value", "type", "span")

    def __init__(self, value: int | float | bool | str, type: PrimType, span: Offsets | None = None) -> None:
        self.value = value
        self.type = type
        self.span = span


class NameRef(Record):
    """Bare name; refers to a property of the owning component."""

    __slots__ = ("name", "span")

    def __init__(self, name: str, span: Offsets | None = None) -> None:
        self.name = name
        self.span = span


class PayloadFieldRef(Record):
    """``payload.<field>`` reference into the in-scope payload record."""

    __slots__ = ("field", "span")

    def __init__(self, field: str, span: Offsets | None = None) -> None:
        self.field = field
        self.span = span


class Unary(Record):
    """``not`` applied to its operand."""

    __slots__ = ("op", "operand", "span")

    def __init__(self, op: str, operand: Expr, span: Offsets | None = None) -> None:
        self.op = op  # "not"
        self.operand = operand
        self.span = span


class Binary(Record):
    """Comparison or boolean operator over two operands."""

    __slots__ = ("op", "left", "right", "span")

    def __init__(self, op: str, left: Expr, right: Expr, span: Offsets | None = None) -> None:
        self.op = op  # "and" "or" "==" "!=" "<" "<=" ">" ">="
        self.left = left
        self.right = right
        self.span = span


# ``|``, not ``typing.Union``: typing's process-wide cache would keep these
# classes, and through their methods this module, alive after a re-import.
Expr = Literal | NameRef | PayloadFieldRef | Unary | Binary

ORDERING_OPS = ("<", "<=", ">", ">=")
BOOLEAN_OPS = ("and", "or")
PRIM_TYPES = (PrimType.INT, PrimType.FLOAT, PrimType.BOOL, PrimType.STRING)
_NUMERIC = (PrimType.INT, PrimType.FLOAT)


class TypeCheckError(CiotError):
    """A typing error; ``at`` is the offsets of the offending expression node."""

    def __init__(self, code: str, message: str, at: Offsets | None) -> None:
        super().__init__(code, [error(code, message)])
        self.at = at


def typecheck_guard(
    expr: Expr, properties: Mapping[str, PrimType], payload_fields: Mapping[str, PrimType] | None = None
) -> PrimType:
    """Infer the expression's type from the property types and the payload
    field types (None where no payload is in scope); a guard must come out
    BOOL.

    Raises TypeCheckError (code E_TYPE_MISMATCH or E_UNKNOWN_NAME) at the
    offending subexpression.
    """
    if isinstance(expr, Literal):
        return expr.type
    if isinstance(expr, NameRef):
        t = properties.get(expr.name)
        if t is None:
            raise TypeCheckError("E_UNKNOWN_NAME", f"unknown property {expr.name!r}", expr.span)
        return t
    if isinstance(expr, PayloadFieldRef):
        if payload_fields is None:
            raise TypeCheckError("E_UNKNOWN_NAME", f"payload.{expr.field} used where no payload is in scope", expr.span)
        t = payload_fields.get(expr.field)
        if t is None:
            raise TypeCheckError("E_UNKNOWN_NAME", f"payload has no field {expr.field!r}", expr.span)
        return t
    if isinstance(expr, Unary):
        t = typecheck_guard(expr.operand, properties, payload_fields)
        if t != PrimType.BOOL:
            raise TypeCheckError("E_TYPE_MISMATCH", f"'not' needs a bool operand, got {t}", expr.span)
        return PrimType.BOOL
    if isinstance(expr, Binary):
        if expr.op in BOOLEAN_OPS:
            for side in (expr.left, expr.right):
                t = typecheck_guard(side, properties, payload_fields)
                if t != PrimType.BOOL:
                    message = f"{expr.op!r} needs bool operands, got {t}"
                    raise TypeCheckError("E_TYPE_MISMATCH", message, side.span or expr.span)
            return PrimType.BOOL
        lt = typecheck_guard(expr.left, properties, payload_fields)
        rt = typecheck_guard(expr.right, properties, payload_fields)
        if expr.op in ORDERING_OPS:
            if lt not in _NUMERIC or rt not in _NUMERIC:
                message = f"{expr.op!r} needs numeric operands, got {lt} and {rt}"
                raise TypeCheckError("E_TYPE_MISMATCH", message, expr.span)
            return PrimType.BOOL
        # Equality: same type, or int/float widened.
        if lt == rt or (lt in _NUMERIC and rt in _NUMERIC):
            return PrimType.BOOL
        raise TypeCheckError("E_TYPE_MISMATCH", f"cannot compare {lt} with {rt}", expr.span)
    raise TypeError(f"not an expression node: {expr!r}")


def assignable(target: PrimType, source: PrimType) -> bool:
    """Whether a value of type ``source`` may be stored where ``target`` is declared."""
    if target == source:
        return True
    return target == PrimType.FLOAT and source == PrimType.INT


def fit_value(t: PrimType, value):
    """The value a ``t`` property or payload field stores for ``value``, or
    None when ``value`` does not fit.

    The value-level form of ``assignable``: an int fits only where the
    interpreter's int-string digit limit lets it print (a trace prints it)
    and widens to float only where ``float()`` can represent it, a float
    fits only if it is finite, and a bool fits only ``bool`` although Python
    counts it as an int. Anything that is not a ``PrimType`` word (a record
    type, None) fits nothing.
    """
    if isinstance(value, bool):
        return value if t == PrimType.BOOL else None
    if isinstance(value, int):
        if t == PrimType.INT:
            # Within float range an int has at most 309 digits, below any
            # limit the interpreter accepts (none is under 640 digits).
            return value if value.bit_length() <= 1024 or _prints(value) else None
        if t == PrimType.FLOAT:
            try:
                return float(value)
            except OverflowError:
                return None
        return None
    if isinstance(value, float):
        return value if t == PrimType.FLOAT and math.isfinite(value) else None
    if isinstance(value, str):
        return value if t == PrimType.STRING else None
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


# Digits as ``int()`` and ``float()`` read them: any Unicode decimal digits,
# with single underscores between them.
_DIGITS = r"\d(?:_?\d)*"
_INT_DIGITS = re.compile(rf"[+-]?{_DIGITS}")
_NUMBER_DIGITS = re.compile(rf"[+-]?(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:[eE][+-]?{_DIGITS})?")


def read_number(text: str, kinds: tuple[type, ...], what: str, code: str, file: str | None = None):
    """``text`` read by the first of ``kinds`` (``int``, ``float``) that
    accepts it, or None. Digits that do not fit (``read_long_int`` refuses
    them, ``float()`` reads them as inf) are ``code``, naming the number
    ``what`` by its count of digits as ``read_long_int`` counts them, not
    by its text."""
    for kind in kinds:
        try:
            number = kind(text)
        except ValueError:
            if kind is not int or not _INT_DIGITS.fullmatch(text):
                continue
            number, digits = read_long_int(text)
            if number is not None:
                return number
        else:
            if abs(number) != math.inf or not _NUMBER_DIGITS.fullmatch(text):
                return number
            digits = len(_significant_digits(text))
        raise CiotError.of(code, f"{what} of {digits} digits is out of range", None, file)
    return None


def read_long_int(text: str) -> tuple[int | None, int]:
    """Integer text that ``int()`` refuses for its length, as its value (None
    past the interpreter's int-string digit limit) and its count of digits,
    where leading zeros of any script and ``_`` separators do not count."""
    digits = _significant_digits(text) or "0"
    if len(digits) > sys.get_int_max_str_digits():
        return None, len(digits)
    return int(text[0] + digits if text[0] in "+-" else digits), len(digits)


def _significant_digits(text: str) -> str:
    """The decimal digits of ``text`` in ASCII, leading zeros dropped."""
    return "".join(str(int(ch)) for ch in text if ch.isdecimal()).lstrip("0")


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
    one closure; None when an operand is not a leaf. Without it, perfbench's
    fleet op took 4.8–4.9% longer and its corpus op 0.8–1.8% (medians of 30
    rounds in each of two runs, Python 3.11, shared 2-CPU Xeon).

    A ``KeyError`` or ``TypeError`` (a name missing, no payload in scope,
    unlike types ordered) reruns the comparison with its operands compiled
    and read one by one, so it fails with the error, message and span of
    the operand that fails. They are compiled only then."""
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
            raise CiotError.of("E_EVAL", f"unknown property {name!r} at evaluation", locate(span), source) from None

    return read


def _read_field(name: str, span: Offsets | None, locate: Callable, source: str | None):
    def read(properties, payload):
        try:
            return payload[name]
        except (KeyError, TypeError):  # TypeError: no payload in scope
            raise CiotError.of("E_EVAL", f"payload field {name!r} absent at evaluation", locate(span), source) from None

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


# How tightly a node binds, as the parser reads it: or 1, and 2, not 3, a
# comparison 4, a leaf 5.
_STRENGTH = {"or": 1, "and": 2}


def expr_to_text(expr: Expr) -> str:
    """Canonical text form; reparsing it yields a structurally equal tree.
    A subexpression is parenthesized only where the grammar needs it."""
    return _render(expr, 0)


def _render(expr: Expr, need: int) -> str:
    """``expr`` as text in a slot that needs binding strength ``need``:
    wrapped once if it binds looser. and/or chain to the left, so their left
    operand needs their own strength and their right one more; ``not`` takes
    a ``not`` or a comparison, and a comparison takes two leaves."""
    if isinstance(expr, Literal):
        return literal_text(expr.value)
    if isinstance(expr, NameRef):
        return expr.name
    if isinstance(expr, PayloadFieldRef):
        return f"payload.{expr.field}"
    if isinstance(expr, Unary):
        strength, text = 3, f"not {_render(expr.operand, 3)}"
    elif isinstance(expr, Binary):
        strength = _STRENGTH.get(expr.op, 4)
        left, right = (strength, strength + 1) if strength < 4 else (5, 5)
        text = f"{_render(expr.left, left)} {expr.op} {_render(expr.right, right)}"
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    return f"({text})" if strength < need else text


def literal_text(value: int | float | bool | str) -> str:
    """``value`` as model text, which the lexer reads back: ``format_value``,
    except that a finite float is written positionally with the digits of its
    ``repr`` (``1e-05`` is ``0.00001``, ``1e+16`` is ``10000000000000000.0``)."""
    if isinstance(value, float) and math.isfinite(value):
        text = format(Decimal(repr(value)), "f")
        return text if "." in text else text + ".0"
    return format_value(value)


def format_value(value: int | float | bool | str) -> str:
    """A value as trace output and diagnostics write it: literal syntax, a
    float by its ``repr``."""
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

"""Recursive-descent parser for the component-model DSL.

Produces a raw syntax tree whose name references are unresolved strings with
source spans; the resolver binds them into a :class:`~ciot.metamodel.Model`.
The normative grammar lives in ``docs/grammar.md``.

Syntax tree spans, guard and effect expression nodes' included, are
``(start, end)`` character offsets, ``end`` exclusive, from the first token
of a node to its last; the metamodel keeps the same tuples. The tree carries
the text's :class:`~ciot.diagnostics.Locator`, which turns them into a
``SourceSpan`` only for a diagnostic.

Record rule: a record written once and read once, as every syntax tree node
is (the parser builds it, the resolver reads it), is a ``NamedTuple`` built
with ``_new``. A record that is filled in place, or that compares without
its span (the expression nodes, the metamodel), is a slotted
:class:`~ciot.diagnostics.Record`.

Naming rule: entity names (payloads, interfaces, components, ports, events,
actions, states, instances) must be plain identifiers. Member positions
(payload fields, property names, assignment targets, names after ``payload.``)
also accept keywords, except the expression-reserved words
``true false and or not payload``.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, NoReturn

from .diagnostics import CiotError, Locator, Offsets
from .guards import PRIM_TYPES, Binary, Expr, Literal, NameRef, PayloadFieldRef, PrimType, Unary, read_long_int
from .lexer import EXPR_RESERVED, KEYWORDS, Token, TokenKind, decode_string, describe, tokenize
from .metamodel import ACTION_KEYWORDS, COMPONENT_KINDS, ActionKind, ComponentKind, EventDirection

# The words each position accepts, each mapped to its class constant.
_PRIM_NAMES = {t: t for t in PRIM_TYPES}
_COMPONENT_KINDS = {k: k for k in COMPONENT_KINDS}
_DIRECTIONS = {d: d for d in (EventDirection.INCOMING, EventDirection.OUTGOING, EventDirection.GENERIC)}
_COMPARISONS = frozenset({"==", "!=", "<", "<=", ">", ">="})
_LITERAL_KINDS = frozenset({TokenKind.INT, TokenKind.FLOAT, TokenKind.STRING})


class Ref(NamedTuple):
    """Unresolved name occurrence."""

    name: str
    span: Offsets


class AstTypeRef(NamedTuple):
    prim: PrimType | None
    payload: Ref | None
    span: Offsets


class AstPayloadField(NamedTuple):
    name: str
    name_span: Offsets
    type: AstTypeRef


class AstPayload(NamedTuple):
    name: Ref
    fields: list[AstPayloadField]
    span: Offsets


class AstOperation(NamedTuple):
    name: Ref
    payload: Ref


class AstInterface(NamedTuple):
    name: Ref
    operations: list[AstOperation]
    span: Offsets


class AstProperty(NamedTuple):
    name: str
    name_span: Offsets
    type: PrimType
    initial: Literal


class AstPort(NamedTuple):
    name: Ref
    provides: list[Ref]
    requires: list[Ref]
    span: Offsets


class AstInstance(NamedTuple):
    name: Ref
    component: Ref
    span: Offsets


class AstEndpoint(NamedTuple):
    instance: Ref | None  # None means "self"
    port: Ref
    span: Offsets


class AstConnector(NamedTuple):
    a: AstEndpoint
    b: AstEndpoint
    span: Offsets


class AstAssign(NamedTuple):
    target: str
    target_span: Offsets
    expr: Expr


class AstAction(NamedTuple):
    name: Ref
    kind: ActionKind
    port: Ref | None
    payload: Ref | None
    effects: list[AstAssign]
    span: Offsets


class AstEvent(NamedTuple):
    name: Ref
    direction: EventDirection
    port: Ref | None
    payload: Ref | None
    action: Ref
    span: Offsets


class AstState(NamedTuple):
    name: Ref
    initial: bool
    entry: list[Ref]
    exit: list[Ref]
    continuous: list[Ref]
    span: Offsets


class AstTransition(NamedTuple):
    source: Ref
    target: Ref
    trigger: Ref | None
    guard: Expr | None
    span: Offsets


class AstMachine(NamedTuple):
    states: list[AstState]
    transitions: list[AstTransition]
    span: Offsets


class AstComponent(NamedTuple):
    name: Ref
    kind: ComponentKind
    properties: list[AstProperty]
    ports: list[AstPort]
    instances: list[AstInstance]
    connectors: list[AstConnector]
    events: list[AstEvent]
    actions: list[AstAction]
    machine: AstMachine | None
    span: Offsets


class AstModel(NamedTuple):
    payloads: list[AstPayload]
    interfaces: list[AstInterface]
    components: list[AstComponent]
    instances: list[AstInstance]
    locator: Locator
    file: str | None


class _Stream:
    """The parser's cursor over the tokens of one text, with the text's
    locator.

    The whole text is lexed first, so a lexical error wins over any parse
    error. The cursor then pops each token from a reversed copy of the list
    ``tokenize`` returned, so a token is freed once it has been read, not
    when the parse returns, and that list itself is left as it was. The
    end-of-input token stays current once it is reached.

    Tokens are tested by text alone: no identifier, literal or end-of-input
    token has the text of a keyword or a punctuation mark, so a keyword or a
    punctuation mark is known by its text."""

    def __init__(self, source: str, file: str | None) -> None:
        self.next = tokenize(source, file)[::-1].pop
        self.locator = Locator(source)
        self.current = self.next()
        self.file = file
        self.nesting = 0  # open "(" and "not" in the expression being parsed

    def advance(self) -> Token:
        tok = self.current
        if tok[0] is not TokenKind.EOI:
            self.current = self.next()
        return tok

    def check(self, text: str) -> bool:
        return self.current[1] == text

    def accept(self, text: str) -> Token | None:
        tok = self.current
        if tok[1] != text:
            return None
        self.current = self.next()
        return tok

    def expect(self, text: str, what: str | None = None) -> Token:
        tok = self.current
        if tok[1] == text:
            self.current = self.next()
            return tok
        if what is None:
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.PUNCT
            what = f"{kind} {text!r}"
        return self.fail(f"expected {what}, got {describe(tok)}")

    def fail(self, message: str, tok: Token | None = None) -> NoReturn:
        """Raise E_PARSE at ``tok``, by default the current token."""
        _, text, start = tok or self.current
        raise CiotError.of("E_PARSE", message, self.locator.span(start, start + len(text)), self.file)


# Syntax tree nodes are built without the generated NamedTuple constructor,
# which takes more than twice as long. It checks no arity, so each call names
# every field of its class.
_new = tuple.__new__


def _end(tok: Token) -> int:
    """The offset just past ``tok``."""
    return tok[2] + len(tok[1])


def parse(source: str, file: str | None = None) -> AstModel:
    """Parse DSL text into a raw syntax tree (raises CiotError E_LEX/E_PARSE)."""
    ts = _Stream(source, file)
    payloads: list[AstPayload] = []
    interfaces: list[AstInterface] = []
    components: list[AstComponent] = []
    instances: list[AstInstance] = []
    while ts.current[0] is not TokenKind.EOI:
        if ts.check("payload"):
            payloads.append(_parse_payload(ts))
        elif ts.check("interface"):
            interfaces.append(_parse_interface(ts))
        elif ts.check("component"):
            components.append(_parse_component(ts))
        elif ts.check("instance"):
            instances.append(_parse_instance(ts))
        else:
            ts.fail(
                "expected a top-level declaration "
                f"(payload, interface, component, or instance), got {describe(ts.current)}"
            )
    return _new(AstModel, (payloads, interfaces, components, instances, ts.locator, file))


def _entity_name(ts: _Stream, what: str) -> Ref:
    tok = kind, text, start = ts.current
    if kind is TokenKind.IDENT:
        ts.advance()
        return _new(Ref, (text, (start, start + len(text))))
    if kind is TokenKind.KEYWORD:
        ts.fail(f"expected {what} (identifier), got keyword {text!r}")
    ts.fail(f"expected {what} (identifier), got {describe(tok)}")


def _member_name(ts: _Stream, what: str) -> tuple[str, Offsets]:
    tok = kind, text, start = ts.current
    if kind is TokenKind.IDENT or (kind is TokenKind.KEYWORD and text not in EXPR_RESERVED):
        ts.advance()
        return text, (start, start + len(text))
    if kind is TokenKind.KEYWORD:
        ts.fail(f"expected {what}, got {text!r} (reserved in expressions)")
    ts.fail(f"expected {what}, got {describe(tok)}")


def _clause(ts: _Stream, keyword: str, what: str) -> Ref | None:
    """The name of an optional ``keyword IDENT`` clause; None without ``keyword``."""
    return _entity_name(ts, what) if ts.accept(keyword) else None


def _fixed_word(ts: _Stream, kind: str, members: dict, what: str):
    """The constant ``members`` maps the current token's text to; E_PARSE
    when the token is not of ``kind`` or ``members`` lacks its text."""
    tok = ts.current
    if tok[0] is kind:
        value = members.get(tok[1])
        if value is not None:
            ts.advance()
            return value
    ts.fail(f"expected {what}, got {describe(tok)}")


def _parse_payload(ts: _Stream) -> AstPayload:
    start = ts.expect("payload")[2]
    name = _entity_name(ts, "payload name")
    ts.expect("{")
    fields: list[AstPayloadField] = []
    while not ts.check("}"):
        fname, fspan = _member_name(ts, "field name")
        ts.expect(":")
        ftype = _parse_type_ref(ts)
        ts.expect(";")
        fields.append(_new(AstPayloadField, (fname, fspan, ftype)))
    return _new(AstPayload, (name, fields, (start, _end(ts.expect("}")))))


def _parse_type_ref(ts: _Stream) -> AstTypeRef:
    tok = kind, text, start = ts.current
    span = (start, start + len(text))
    if text in _PRIM_NAMES:
        ts.advance()
        return _new(AstTypeRef, (_PRIM_NAMES[text], None, span))
    if kind is TokenKind.IDENT:
        ts.advance()
        return _new(AstTypeRef, (None, _new(Ref, (text, span)), span))
    ts.fail(f"expected a type (int, float, bool, string, or payload name), got {describe(tok)}")


def _parse_interface(ts: _Stream) -> AstInterface:
    start = ts.expect("interface")[2]
    name = _entity_name(ts, "interface name")
    ts.expect("{")
    ops: list[AstOperation] = []
    while not ts.check("}"):
        ts.expect("op")
        op_name = _entity_name(ts, "operation name")
        ts.expect("(")
        payload = _entity_name(ts, "payload name")
        ts.expect(")")
        ts.expect(";")
        ops.append(_new(AstOperation, (op_name, payload)))
    return _new(AstInterface, (name, ops, (start, _end(ts.expect("}")))))


def _parse_instance(ts: _Stream) -> AstInstance:
    start = ts.expect("instance")[2]
    name = _entity_name(ts, "instance name")
    ts.expect(":")
    comp = _entity_name(ts, "component name")
    return _new(AstInstance, (name, comp, (start, _end(ts.expect(";")))))


def _parse_component(ts: _Stream) -> AstComponent:
    start = ts.expect("component")[2]
    name = _entity_name(ts, "component name")
    ts.expect(":")
    kind = _fixed_word(ts, TokenKind.IDENT, _COMPONENT_KINDS, "a component kind (IoTElement, Board, or VirtualEntity)")
    properties: list[AstProperty] = []
    ports: list[AstPort] = []
    instances: list[AstInstance] = []
    connectors: list[AstConnector] = []
    events: list[AstEvent] = []
    actions: list[AstAction] = []
    machine: AstMachine | None = None
    ts.expect("{")
    while not ts.check("}"):
        if ts.check("property"):
            properties.append(_parse_property(ts))
        elif ts.check("port"):
            ports.append(_parse_port(ts))
        elif ts.check("instance"):
            instances.append(_parse_instance(ts))
        elif ts.check("connect"):
            connectors.append(_parse_connector(ts))
        elif ts.check("event"):
            events.append(_parse_event(ts))
        elif ts.check("action"):
            actions.append(_parse_action(ts))
        elif ts.check("statemachine"):
            if machine is not None:
                ts.fail("component already has a statemachine block")
            machine = _parse_machine(ts)
        else:
            ts.fail(
                "expected a component member (property, port, instance, connect, "
                f"event, action, or statemachine), got {describe(ts.current)}"
            )
    span = (start, _end(ts.expect("}")))
    return _new(AstComponent, (name, kind, properties, ports, instances, connectors, events, actions, machine, span))


def _parse_property(ts: _Stream) -> AstProperty:
    ts.expect("property")
    name, name_span = _member_name(ts, "property name")
    ts.expect(":")
    type_tok = _, type_text, _ = ts.current
    if type_text not in _PRIM_NAMES:
        ts.fail(f"expected a primitive type (int, float, bool, string), got {describe(type_tok)}")
    ts.advance()
    ts.expect("=")
    initial = _parse_literal(ts)
    ts.expect(";")
    return _new(AstProperty, (name, name_span, _PRIM_NAMES[type_text], initial))


def _parse_literal(ts: _Stream) -> Literal:
    tok = kind, text, start = ts.current
    span = (start, start + len(text))
    if kind is TokenKind.INT:
        try:
            value = int(text)
        except ValueError:  # past the interpreter's int-string digit limit
            value, digits = read_long_int(text)
            if value is None:
                ts.fail(f"integer literal of {digits} digits is out of range")
        ts.advance()
        return Literal(value, PrimType.INT, span)
    if kind is TokenKind.FLOAT:
        value = float(text)
        if math.isinf(value):
            ts.fail("float literal is out of range")
        ts.advance()
        return Literal(value, PrimType.FLOAT, span)
    if kind is TokenKind.STRING:
        ts.advance()
        return Literal(decode_string(text), PrimType.STRING, span)
    if text in ("true", "false"):
        ts.advance()
        return Literal(text == "true", PrimType.BOOL, span)
    ts.fail(f"expected a literal, got {describe(tok)}")


def _parse_port(ts: _Stream) -> AstPort:
    start = ts.expect("port")[2]
    name = _entity_name(ts, "port name")
    clauses: dict[str, list[Ref]] = {}  # "provides" and "requires", each at most once, in either order
    while (keyword := ts.current[1]) in ("provides", "requires"):
        if keyword in clauses:
            ts.fail(f"duplicate {keyword} clause on port")
        ts.advance()
        clauses[keyword] = _ref_list(ts, "interface name")
    if not clauses:
        ts.fail("port must provide or require at least one interface")
    span = (start, _end(ts.expect(";")))
    return _new(AstPort, (name, clauses.get("provides", []), clauses.get("requires", []), span))


def _ref_list(ts: _Stream, what: str) -> list[Ref]:
    refs = [_entity_name(ts, what)]
    while ts.accept(","):
        refs.append(_entity_name(ts, what))
    return refs


def _parse_connector(ts: _Stream) -> AstConnector:
    start = ts.expect("connect")[2]
    a = _parse_endpoint(ts)
    ts.expect("--")
    b = _parse_endpoint(ts)
    return _new(AstConnector, (a, b, (start, _end(ts.expect(";")))))


def _parse_endpoint(ts: _Stream) -> AstEndpoint:
    if ts.check("self"):
        start = ts.advance()[2]
        inst: Ref | None = None
    else:
        inst = _entity_name(ts, "instance name or 'self'")
        start = inst.span[0]
    ts.expect(".")
    port = _entity_name(ts, "port name")
    return _new(AstEndpoint, (inst, port, (start, port.span[1])))


def _parse_event(ts: _Stream) -> AstEvent:
    start = ts.expect("event")[2]
    name = _entity_name(ts, "event name")
    direction = _fixed_word(ts, TokenKind.KEYWORD, _DIRECTIONS, "an event direction (incoming, outgoing, generic)")
    port = _clause(ts, "port", "port name")
    payload = _clause(ts, "payload", "payload name")
    ts.expect("action")
    action = _entity_name(ts, "action name")
    return _new(AstEvent, (name, direction, port, payload, action, (start, _end(ts.expect(";")))))


def _parse_action(ts: _Stream) -> AstAction:
    start = ts.expect("action")[2]
    name = _entity_name(ts, "action name")
    kind = _fixed_word(ts, TokenKind.KEYWORD, ACTION_KEYWORDS, "an action kind (send, receive, generic)")
    port = _clause(ts, "port", "port name")
    payload = _clause(ts, "payload", "payload name")
    effects: list[AstAssign] = []
    if ts.accept("{"):
        while not ts.check("}"):
            target, target_span = _member_name(ts, "property name")
            ts.expect(":=")
            expr = _parse_expr(ts)
            ts.expect(";")
            effects.append(_new(AstAssign, (target, target_span, expr)))
        end = ts.expect("}")
    else:
        end = ts.expect(";")
    return _new(AstAction, (name, kind, port, payload, effects, (start, _end(end))))


def _parse_machine(ts: _Stream) -> AstMachine:
    start = ts.expect("statemachine")[2]
    ts.expect("{")
    states: list[AstState] = []
    transitions: list[AstTransition] = []
    while not ts.check("}"):
        if ts.check("initial") or ts.check("state"):
            states.append(_parse_state(ts))
        elif ts.check("transition"):
            transitions.append(_parse_transition(ts))
        else:
            ts.fail(f"expected a state or transition declaration, got {describe(ts.current)}")
    return _new(AstMachine, (states, transitions, (start, _end(ts.expect("}")))))


def _parse_state(ts: _Stream) -> AstState:
    initial = ts.accept("initial") is not None
    start = ts.expect("state")[2]
    name = _entity_name(ts, "state name")
    ts.expect("{")
    positions: dict[str, list[Ref]] = {"entry": [], "exit": [], "continuous": []}
    while not ts.check("}"):
        tok = ts.current
        refs = positions.get(tok[1])
        if refs is None:
            ts.fail(f"expected entry, exit, or continuous, got {describe(tok)}")
        ts.advance()
        refs.extend(_ref_list(ts, "event name"))
        ts.expect(";")
    entry, exit_, continuous = positions.values()
    return _new(AstState, (name, initial, entry, exit_, continuous, (start, _end(ts.expect("}")))))


def _parse_transition(ts: _Stream) -> AstTransition:
    start = ts.expect("transition")[2]
    source = _entity_name(ts, "source state name")
    ts.expect("->")
    target = _entity_name(ts, "target state name")
    trigger = _clause(ts, "when", "event name")
    guard = None
    if ts.accept("["):
        guard = _parse_expr(ts)
        ts.expect("]")
    return _new(AstTransition, (source, target, trigger, guard, (start, _end(ts.expect(";")))))


# Expression parsing: or < and < not < comparison < atom. Each function
# returns the tree and its height (the number of operator nodes on its
# longest path).

# Deepest expression the parser accepts. Open "(" and "not" are counted on the
# way down, which bounds the parser's own recursion; the height is checked on
# the way up, which bounds the tree (a long and/or chain included) that
# typing, evaluation and rendering walk recursively.
MAX_EXPR_DEPTH = 100
_TOO_DEEP = f"expression nested deeper than {MAX_EXPR_DEPTH} levels"
_TOO_DEEP_FOR_STACK = "expression nested too deeply for the Python stack left to the parser"

_Parsed = tuple[Expr, int]  # (tree, height)


def _parse_expr(ts: _Stream) -> Expr:
    try:
        return _parse_or(ts)[0]
    except RecursionError:  # ``parse`` called from code too deep for an expression within the limit
        ts.fail(_TOO_DEEP_FOR_STACK)


def _node_height(ts: _Stream, child_height: int, op_tok: Token) -> int:
    """Height of a new operator node over its tallest child; E_PARSE past the limit."""
    if child_height >= MAX_EXPR_DEPTH:
        ts.fail(_TOO_DEEP, op_tok)
    return child_height + 1


def _open(ts: _Stream) -> Token:
    """Consume a "(" or "not" that opens a nested expression; E_PARSE past the limit."""
    if ts.nesting >= MAX_EXPR_DEPTH:
        ts.fail(_TOO_DEEP)
    ts.nesting += 1
    return ts.advance()


def _parse_or(ts: _Stream) -> _Parsed:
    """expr = and_expr { "or" and_expr }"""
    return _parse_chain(ts, "or", _parse_and)


def _parse_and(ts: _Stream) -> _Parsed:
    """and_expr = unary { "and" unary }"""
    return _parse_chain(ts, "and", _parse_unary)


def _parse_chain(ts: _Stream, op: str, operand: Callable[[_Stream], _Parsed]) -> _Parsed:
    """``operand { op operand }``, chained to the left."""
    expr, height = operand(ts)
    while ts.check(op):
        op_tok = ts.advance()
        right, right_height = operand(ts)
        height = _node_height(ts, max(height, right_height), op_tok)
        expr = Binary(op, expr, right, (expr.span[0], right.span[1]))
    return expr, height


def _parse_unary(ts: _Stream) -> _Parsed:
    if ts.check("not"):
        tok = _open(ts)
        operand, height = _parse_unary(ts)
        ts.nesting -= 1
        return Unary("not", operand, (tok[2], operand.span[1])), _node_height(ts, height, tok)
    return _parse_comparison(ts)


def _parse_comparison(ts: _Stream) -> _Parsed:
    left, height = _parse_atom(ts)
    tok = ts.current
    if tok[1] in _COMPARISONS:
        ts.advance()
        right, right_height = _parse_atom(ts)
        height = _node_height(ts, max(height, right_height), tok)
        return Binary(tok[1], left, right, (left.span[0], right.span[1])), height
    return left, height


def _parse_atom(ts: _Stream) -> _Parsed:
    tok = kind, text, start = ts.current
    if kind in _LITERAL_KINDS or text in ("true", "false"):
        return _parse_literal(ts), 0
    if text == "payload":
        ts.advance()
        ts.expect(".", what="'.' after 'payload'")
        member = ts.current
        if member[0] not in (TokenKind.IDENT, TokenKind.KEYWORD):
            ts.fail(f"expected payload field name, got {describe(member)}")
        ts.advance()
        return PayloadFieldRef(member[1], (start, _end(member))), 0
    if kind is TokenKind.IDENT or (kind is TokenKind.KEYWORD and text not in EXPR_RESERVED):
        ts.advance()
        return NameRef(text, (start, _end(tok))), 0
    if text == "(":
        _open(ts)
        inner = _parse_or(ts)
        ts.expect(")")
        ts.nesting -= 1
        return inner
    ts.fail(f"expected an expression, got {describe(tok)}")

"""Model validation.

Rules (errors unless noted):

* R1  every state machine has exactly one initial state
* R2  port/connector wiring: connector peers provide what the other side
      requires, no interface sits in both lists of one port, and no port is
      wired by more than one connector of the same owner
* R3  event/action kind consistency: a known event direction, paired
      incoming-ReceivePayload, outgoing-SendPayload, generic-Generic; port
      and payload agreement between event and action; entry/exit/continuous
      references must not be incoming; engine-constructed payloads
      (SendPayload, generic events used in entry/exit/continuous position)
      must be buildable from same-named properties
* R4  typing: every property and payload-field type is a known word or a
      payload; transition guards type to bool over properties plus the
      trigger's payload fields; effect assignments type against the declared
      property (int widens to float); a property's initial value fits its
      type (``guards.fit_value``: also a finite float, an int within float
      range for a float property)
* R5  a known component kind; IoTElement components are leaves (no
      subcomponents)
* R6  unreachable state (warning)
* R7  an incoming event's payload must be carried by some interface on its
      port, otherwise no peer could ever send it

Each check yields ``(rule, message, span)`` findings, ``span`` the offsets
of the declaration or expression node at fault; ``validate`` alone makes them
diagnostics, attaching the model's source and the severity, and locating each
span in the model's text.
``validate`` is pure: same model in, same diagnostic list out, model untouched.
"""

from __future__ import annotations

from collections.abc import Iterator

from .diagnostics import Diagnostic, Offsets, Severity
from .guards import PRIM_TYPES, GuardScope, PrimType, TypeCheckError, assignable, describe_value, fit_value, typecheck_guard
from .metamodel import (
    COMPONENT_KINDS,
    ActionKind,
    ComponentDef,
    ComponentKind,
    EventDef,
    EventDirection,
    Model,
    PayloadDef,
    StateMachine,
)

_Finding = tuple[str, str, Offsets | None]
_TOO_DEEP_FOR_STACK = "expression nested too deeply for the Python stack left to the validator"

_EXPECTED_ACTION = {
    EventDirection.INCOMING: ActionKind.RECEIVE_PAYLOAD,
    EventDirection.OUTGOING: ActionKind.SEND_PAYLOAD,
    EventDirection.GENERIC: ActionKind.GENERIC,
}


def validate(model: Model) -> list[Diagnostic]:
    """Check R1-R7 over a resolved model; deterministic diagnostic order."""
    file = model.source
    return [
        Diagnostic(
            rule,
            Severity.WARNING if rule == "R6" else Severity.ERROR,
            message,
            model.locate(span),
            file,
        )
        for rule, message, span in _check_model(model)
    ]


def _check_model(model: Model) -> Iterator[_Finding]:
    for payload in model.payloads:  # R4
        for fld in payload.fields:
            if not isinstance(fld.type, PayloadDef) and fld.type not in PRIM_TYPES:
                yield "R4", f"field {fld.name!r} of payload {payload.name!r} has unknown type {fld.type!r}", fld.span
    for comp in model.components:
        yield from _check_component(comp)


def _check_component(comp: ComponentDef) -> Iterator[_Finding]:
    yield from _check_ports(comp)  # R2 (port-local)
    yield from _check_connectors(comp)  # R2 (wiring)
    yield from _check_events(comp)  # R3, R7
    yield from _check_property_initials(comp)  # R4
    yield from _check_effects(comp)  # R4
    if comp.kind not in COMPONENT_KINDS:  # R5
        yield "R5", f"component {comp.name!r} has unknown kind {comp.kind!r}", comp.span
    elif comp.kind == ComponentKind.IOT_ELEMENT and comp.subcomponents:
        names = ", ".join(d.name for d in comp.subcomponents)
        yield "R5", f"IoTElement {comp.name!r} must be a leaf but declares subcomponents: {names}", comp.span
    if comp.state_machine is not None:
        yield from _check_machine(comp, comp.state_machine)  # R1, R4, R6


def _check_ports(comp: ComponentDef) -> Iterator[_Finding]:
    for port in comp.ports:
        provided = {i.name for i in port.provided}
        for iface in port.required:
            if iface.name in provided:
                yield (
                    "R2",
                    f"interface {iface.name!r} appears in both provides and requires "
                    f"of port {port.name!r} on component {comp.name!r}",
                    port.span,
                )


def _check_connectors(comp: ComponentDef) -> Iterator[_Finding]:
    wired: dict[tuple[str, str], int] = {}
    for conn in comp.connectors:
        for ep in (conn.a, conn.b):
            key = ("self" if ep.instance is None else ep.instance.name, ep.port.name)
            wired[key] = wired.get(key, 0) + 1
            if wired[key] == 2:
                yield (
                    "R2",
                    f"port {key[1]!r} of {key[0]!r} is wired by more than one connector "
                    f"in component {comp.name!r}",
                    conn.span,
                )
        for ep, peer in ((conn.a, conn.b), (conn.b, conn.a)):
            provided = {i.name for i in peer.port.provided}
            for iface in ep.port.required:
                if iface.name not in provided:
                    yield (
                        "R2",
                        f"connector {conn.a.describe()} -- {conn.b.describe()} in component "
                        f"{comp.name!r}: {ep.describe()} requires interface {iface.name!r} "
                        f"but {peer.describe()} does not provide it",
                        conn.span,
                    )


def _positioned_events(comp: ComponentDef) -> list[tuple[EventDef, str]]:
    out: list[tuple[EventDef, str]] = []
    if comp.state_machine is None:
        return out
    for state in comp.state_machine.states:
        for position, events in (("entry", state.entry), ("exit", state.exit), ("continuous", state.continuous)):
            for ev in events:
                out.append((ev, f"{position} of state {state.name!r}"))
    return out


def _check_events(comp: ComponentDef) -> Iterator[_Finding]:
    for ev in comp.events:
        expected = _EXPECTED_ACTION.get(ev.direction)
        if expected is None:
            yield "R3", f"event {ev.name!r} has unknown direction {ev.direction!r}", ev.span
        elif ev.action.kind != expected:
            yield (
                "R3",
                f"{ev.direction} event {ev.name!r} must bind a {expected} action, "
                f"but {ev.action.name!r} is {ev.action.kind}",
                ev.span,
            )
        if ev.direction == EventDirection.GENERIC:
            if ev.port is not None:
                yield "R3", f"generic event {ev.name!r} must not name a port", ev.span
        elif ev.port is None:
            yield "R3", f"{ev.direction} event {ev.name!r} must name a port", ev.span
        if ev.payload is not None and ev.action.payload is not None and ev.payload is not ev.action.payload:
            yield (
                "R3",
                f"event {ev.name!r} carries payload {ev.payload.name!r} but its action "
                f"{ev.action.name!r} declares {ev.action.payload.name!r}",
                ev.span,
            )
        elif (ev.payload is None) != (ev.action.payload is None):
            has, lacks = (ev.name, ev.action.name) if ev.payload is not None else (ev.action.name, ev.name)
            yield "R3", f"{has!r} declares a payload type but {lacks!r} does not", ev.span
        if ev.port is not None and ev.action.port is not None and ev.port is not ev.action.port:
            yield (
                "R3",
                f"event {ev.name!r} is bound to port {ev.port.name!r} but its action "
                f"{ev.action.name!r} names port {ev.action.port.name!r}",
                ev.span,
            )
        yield from _check_r7(comp, ev)

    for act in comp.actions:
        if act.kind == ActionKind.GENERIC and act.port is not None:
            yield "R3", f"Generic action {act.name!r} must not name a port", act.span
        if act.kind != ActionKind.GENERIC and act.port is None:
            yield "R3", f"{act.kind} action {act.name!r} must name a port", act.span
        if act.kind == ActionKind.SEND_PAYLOAD:
            if act.payload is None:
                yield "R3", f"SendPayload action {act.name!r} must declare a payload type", act.span
            else:
                yield from _check_constructible(comp, act.payload, f"SendPayload action {act.name!r}", act.span)

    for ev, where in _positioned_events(comp):
        if ev.direction == EventDirection.INCOMING:
            yield "R3", f"incoming event {ev.name!r} cannot be used in {where}", ev.span
        elif ev.direction == EventDirection.GENERIC and ev.payload is not None:
            yield from _check_constructible(comp, ev.payload, f"generic event {ev.name!r} used in {where}", ev.span)


def _check_constructible(comp: ComponentDef, payload: PayloadDef, what: str, span) -> Iterator[_Finding]:
    """Engine-built payloads read same-named properties; verify that works."""
    for fld in payload.fields:
        prop = comp.property_named(fld.name)
        if prop is None:
            yield (
                "R3",
                f"{what}: payload {payload.name!r} field {fld.name!r} has no same-named "
                f"property on component {comp.name!r} to read from",
                span,
            )
        elif isinstance(fld.type, PayloadDef):
            yield (
                "R3",
                f"{what}: payload {payload.name!r} field {fld.name!r} is record-typed and "
                f"cannot be built from a primitive property",
                span,
            )
        elif not assignable(fld.type, prop.type):
            yield (
                "R3",
                f"{what}: payload field {fld.name!r} is {fld.type} but property "
                f"{fld.name!r} is {prop.type}",
                span,
            )


def _check_r7(comp: ComponentDef, ev: EventDef) -> Iterator[_Finding]:
    if ev.direction != EventDirection.INCOMING or ev.port is None or ev.payload is None:
        return
    for iface in ev.port.interfaces():
        for op in iface.operations:
            if op.payload is ev.payload:
                return
    yield (
        "R7",
        f"incoming event {ev.name!r} on port {ev.port.name!r} of component {comp.name!r} "
        f"expects payload {ev.payload.name!r}, but no interface on that port carries it",
        ev.span,
    )


def _prop_scope(comp: ComponentDef) -> dict[str, PrimType]:
    return {p.name: p.type for p in comp.properties}


def _payload_scope(payload: PayloadDef | None) -> dict[str, PrimType] | None:
    if payload is None:
        return None
    # Record-typed fields stay out of expression scope; payload.<field> only
    # reaches primitive fields.
    return {f.name: f.type for f in payload.fields if isinstance(f.type, str)}


def _check_property_initials(comp: ComponentDef) -> Iterator[_Finding]:
    for prop in comp.properties:
        if prop.type not in PRIM_TYPES:
            yield "R4", f"property {prop.name!r} of component {comp.name!r} has unknown type {prop.type!r}", prop.span
        elif fit_value(prop.type, prop.initial) is None:
            yield (
                "R4",
                f"property {prop.name!r} of component {comp.name!r} is {prop.type} "
                f"but its initial value is {describe_value(prop.initial)}",
                prop.span,
            )


def _check_effects(comp: ComponentDef) -> Iterator[_Finding]:
    props = _prop_scope(comp)
    for act in comp.actions:
        # SendPayload effects see properties only; the outgoing record is
        # built after them. Receive/generic actions also see their payload.
        payload_fields = None if act.kind == ActionKind.SEND_PAYLOAD else _payload_scope(act.payload)
        scope = GuardScope(props, payload_fields)
        for eff in act.effects:
            target_type = props.get(eff.target)
            if target_type is None:
                yield "R4", f"effect in action {act.name!r} assigns unknown property {eff.target!r}", eff.span
                continue
            value_type = _type_of(eff.expr, scope, f"effect expression in action {act.name!r}")
            if not isinstance(value_type, str):
                yield value_type
            elif not assignable(target_type, value_type):
                yield (
                    "R4",
                    f"effect in action {act.name!r} assigns {value_type} to "
                    f"{target_type} property {eff.target!r}",
                    eff.span,
                )


def _type_of(expr, scope: GuardScope, what: str) -> PrimType | _Finding:
    """The type of ``expr``, or the R4 finding "``what`` does not type-check"
    at the typing error's span, or at ``expr``'s when typing runs out of stack."""
    try:
        return typecheck_guard(expr, scope)
    except TypeCheckError as exc:
        return "R4", f"{what} does not type-check: {exc}", exc.at
    except RecursionError:  # ``validate`` called from code too deep for an expression within the limit
        return "R4", f"{what} does not type-check: {_TOO_DEEP_FOR_STACK}", expr.span


def _check_machine(comp: ComponentDef, machine: StateMachine) -> Iterator[_Finding]:
    initials = [s for s in machine.states if s.is_initial]
    if not initials:
        yield "R1", f"state machine of component {comp.name!r} has no initial state", machine.span
    elif len(initials) > 1:
        names = ", ".join(s.name for s in initials)
        yield "R1", f"state machine of component {comp.name!r} has multiple initial states: {names}", machine.span

    props = _prop_scope(comp)
    for t in machine.transitions:
        if t.guard is None:
            continue
        payload_fields = _payload_scope(t.trigger.payload) if t.trigger is not None else None
        what = f"guard on transition {t.source.name} -> {t.target.name} of component {comp.name!r}"
        guard_type = _type_of(t.guard, GuardScope(props, payload_fields), what)
        if not isinstance(guard_type, str):
            yield guard_type
        elif guard_type != PrimType.BOOL:
            yield "R4", f"{what} must be bool, got {guard_type}", t.span

    # R6 needs a unique entry point; skip it while R1 is violated so one
    # seeded defect reports exactly one rule. The resolver binds every
    # transition target to a declared state, so the walk goes by name.
    if len(initials) == 1:
        edges: dict[str, list[str]] = {}
        for t in machine.transitions:
            edges.setdefault(t.source.name, []).append(t.target.name)
        reached = {initials[0].name}
        frontier = [initials[0].name]
        while frontier:
            for nxt in edges.get(frontier.pop(), ()):  # declaration order
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        for s in machine.states:
            if s.name not in reached:
                yield "R6", f"state {s.name!r} of component {comp.name!r} is unreachable from the initial state", s.span

"""Model validation.

Rules (errors unless noted):

* R1  every state machine has exactly one initial state
* R2  port/connector wiring: connector peers provide what the other side
      requires, no interface sits in both lists of one port, and no port is
      wired by more than one connector of the same owner
* R3  event/action kind consistency: incoming-ReceivePayload,
      outgoing-SendPayload, generic-Generic pairing; port and payload
      agreement between event and action; entry/exit/continuous references
      must not be incoming; engine-constructed payloads (SendPayload, generic
      events used in entry/exit/continuous position) must be buildable from
      same-named properties
* R4  expression typing: transition guards type to bool over properties plus
      the trigger's payload fields; effect assignments type against the
      declared property (int widens to float); a property's initial value
      fits its type (``guards.fit_value``: also a finite float, an int
      within float range for a float property)
* R5  IoTElement components are leaves (no subcomponents)
* R6  unreachable state (warning)
* R7  an incoming event's payload must be carried by some interface on its
      port, otherwise no peer could ever send it

``validate`` is pure: same model in, same diagnostic list out, model untouched.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, Severity, error, warning
from .guards import CiotError, GuardScope, PrimType, assignable, describe_value, fit_value, typecheck_guard
from .metamodel import (
    ActionKind,
    ComponentDef,
    ComponentKind,
    EventDef,
    EventDirection,
    Model,
    PayloadDef,
    StateMachine,
)

_EXPECTED_ACTION = {
    EventDirection.INCOMING: ActionKind.RECEIVE_PAYLOAD,
    EventDirection.OUTGOING: ActionKind.SEND_PAYLOAD,
    EventDirection.GENERIC: ActionKind.GENERIC,
}


def validate(model: Model) -> list[Diagnostic]:
    """Check R1-R7 over a resolved model; deterministic diagnostic order."""
    diags: list[Diagnostic] = []
    file = model.source
    for comp in model.components:
        _check_component(comp, file, diags)
    return diags


def error_count(diags: list[Diagnostic]) -> int:
    return sum(1 for d in diags if d.severity is Severity.ERROR)


def _check_component(comp: ComponentDef, file: str | None, diags: list[Diagnostic]) -> None:
    _check_ports(comp, file, diags)  # R2 (port-local)
    _check_connectors(comp, file, diags)  # R2 (wiring)
    _check_events(comp, file, diags)  # R3, R7
    _check_property_initials(comp, file, diags)  # R4
    _check_effects(comp, file, diags)  # R4
    if comp.kind is ComponentKind.IOT_ELEMENT and comp.subcomponents:  # R5
        names = ", ".join(d.name for d in comp.subcomponents)
        diags.append(
            error(
                "R5",
                f"IoTElement {comp.name!r} must be a leaf but declares subcomponents: {names}",
                comp.span,
                file,
            )
        )
    if comp.state_machine is not None:
        _check_machine(comp, comp.state_machine, file, diags)  # R1, R4, R6


def _check_ports(comp: ComponentDef, file, diags) -> None:
    for port in comp.ports:
        provided = {i.name for i in port.provided}
        for iface in port.required:
            if iface.name in provided:
                diags.append(
                    error(
                        "R2",
                        f"interface {iface.name!r} appears in both provides and requires "
                        f"of port {port.name!r} on component {comp.name!r}",
                        port.span,
                        file,
                    )
                )


def _check_connectors(comp: ComponentDef, file, diags) -> None:
    wired: dict[tuple[str, str], int] = {}
    for conn in comp.connectors:
        for ep in (conn.a, conn.b):
            key = ("self" if ep.instance is None else ep.instance.name, ep.port.name)
            wired[key] = wired.get(key, 0) + 1
            if wired[key] == 2:
                diags.append(
                    error(
                        "R2",
                        f"port {key[1]!r} of {key[0]!r} is wired by more than one connector "
                        f"in component {comp.name!r}",
                        conn.span,
                        file,
                    )
                )
        for ep, peer in ((conn.a, conn.b), (conn.b, conn.a)):
            provided = {i.name for i in peer.port.provided}
            for iface in ep.port.required:
                if iface.name not in provided:
                    diags.append(
                        error(
                            "R2",
                            f"connector {conn.a.describe()} -- {conn.b.describe()} in component "
                            f"{comp.name!r}: {ep.describe()} requires interface {iface.name!r} "
                            f"but {peer.describe()} does not provide it",
                            conn.span,
                            file,
                        )
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


def _check_events(comp: ComponentDef, file, diags) -> None:
    r3 = lambda msg, span: diags.append(error("R3", msg, span, file))  # noqa: E731

    for ev in comp.events:
        expected = _EXPECTED_ACTION[ev.direction]
        if ev.action.kind is not expected:
            r3(
                f"{ev.direction.value} event {ev.name!r} must bind a {expected.value} action, "
                f"but {ev.action.name!r} is {ev.action.kind.value}",
                ev.span,
            )
        if ev.direction is EventDirection.GENERIC:
            if ev.port is not None:
                r3(f"generic event {ev.name!r} must not name a port", ev.span)
        elif ev.port is None:
            r3(f"{ev.direction.value} event {ev.name!r} must name a port", ev.span)
        if ev.payload is not None and ev.action.payload is not None and ev.payload is not ev.action.payload:
            r3(
                f"event {ev.name!r} carries payload {ev.payload.name!r} but its action "
                f"{ev.action.name!r} declares {ev.action.payload.name!r}",
                ev.span,
            )
        elif (ev.payload is None) != (ev.action.payload is None):
            has, lacks = (ev.name, ev.action.name) if ev.payload is not None else (ev.action.name, ev.name)
            r3(f"{has!r} declares a payload type but {lacks!r} does not", ev.span)
        if ev.port is not None and ev.action.port is not None and ev.port is not ev.action.port:
            r3(
                f"event {ev.name!r} is bound to port {ev.port.name!r} but its action "
                f"{ev.action.name!r} names port {ev.action.port.name!r}",
                ev.span,
            )
        _check_r7(comp, ev, file, diags)

    for act in comp.actions:
        if act.kind is ActionKind.GENERIC and act.port is not None:
            r3(f"Generic action {act.name!r} must not name a port", act.span)
        if act.kind is not ActionKind.GENERIC and act.port is None:
            r3(f"{act.kind.value} action {act.name!r} must name a port", act.span)
        if act.kind is ActionKind.SEND_PAYLOAD:
            if act.payload is None:
                r3(f"SendPayload action {act.name!r} must declare a payload type", act.span)
            else:
                _check_constructible(comp, act.payload, f"SendPayload action {act.name!r}", act.span, file, diags)

    for ev, where in _positioned_events(comp):
        if ev.direction is EventDirection.INCOMING:
            r3(f"incoming event {ev.name!r} cannot be used in {where}", ev.span)
        elif ev.direction is EventDirection.GENERIC and ev.payload is not None:
            _check_constructible(comp, ev.payload, f"generic event {ev.name!r} used in {where}", ev.span, file, diags)


def _check_constructible(comp: ComponentDef, payload: PayloadDef, what: str, span, file, diags) -> None:
    """Engine-built payloads read same-named properties; verify that works."""
    for fld in payload.fields:
        prop = comp.property_named(fld.name)
        if prop is None:
            diags.append(
                error(
                    "R3",
                    f"{what}: payload {payload.name!r} field {fld.name!r} has no same-named "
                    f"property on component {comp.name!r} to read from",
                    span,
                    file,
                )
            )
            continue
        if isinstance(fld.type, PayloadDef):
            diags.append(
                error(
                    "R3",
                    f"{what}: payload {payload.name!r} field {fld.name!r} is record-typed and "
                    f"cannot be built from a primitive property",
                    span,
                    file,
                )
            )
            continue
        if not assignable(fld.type, prop.type):
            diags.append(
                error(
                    "R3",
                    f"{what}: payload field {fld.name!r} is {fld.type.value} but property "
                    f"{fld.name!r} is {prop.type.value}",
                    span,
                    file,
                )
            )


def _check_r7(comp: ComponentDef, ev: EventDef, file, diags) -> None:
    if ev.direction is not EventDirection.INCOMING or ev.port is None or ev.payload is None:
        return
    for iface in ev.port.interfaces():
        for op in iface.operations:
            if op.payload is ev.payload:
                return
    diags.append(
        error(
            "R7",
            f"incoming event {ev.name!r} on port {ev.port.name!r} of component {comp.name!r} "
            f"expects payload {ev.payload.name!r}, but no interface on that port carries it",
            ev.span,
            file,
        )
    )


def _prop_scope(comp: ComponentDef) -> dict[str, PrimType]:
    return {p.name: p.type for p in comp.properties}


def _payload_scope(payload: PayloadDef | None) -> dict[str, PrimType] | None:
    if payload is None:
        return None
    # Record-typed fields stay out of expression scope; payload.<field> only
    # reaches primitive fields.
    return {f.name: f.type for f in payload.fields if isinstance(f.type, PrimType)}


def _check_property_initials(comp: ComponentDef, file, diags) -> None:
    for prop in comp.properties:
        if fit_value(prop.type, prop.initial) is None:
            diags.append(
                error(
                    "R4",
                    f"property {prop.name!r} of component {comp.name!r} is {prop.type.value} "
                    f"but its initial value is {describe_value(prop.initial)}",
                    prop.span,
                    file,
                )
            )


def _check_effects(comp: ComponentDef, file, diags) -> None:
    props = _prop_scope(comp)
    for act in comp.actions:
        # SendPayload effects see properties only; the outgoing record is
        # built after them. Receive/generic actions also see their payload.
        payload_fields = None if act.kind is ActionKind.SEND_PAYLOAD else _payload_scope(act.payload)
        scope = GuardScope(props, payload_fields)
        for eff in act.effects:
            target_type = props.get(eff.target)
            if target_type is None:
                diags.append(
                    error(
                        "R4",
                        f"effect in action {act.name!r} assigns unknown property {eff.target!r}",
                        eff.span,
                        file,
                    )
                )
                continue
            value_type = _type_of(eff.expr, scope, f"effect expression in action {act.name!r}", eff.span, file, diags)
            if value_type is None:
                continue
            if not assignable(target_type, value_type):
                diags.append(
                    error(
                        "R4",
                        f"effect in action {act.name!r} assigns {value_type.value} to "
                        f"{target_type.value} property {eff.target!r}",
                        eff.span,
                        file,
                    )
                )


def _type_of(expr, scope: GuardScope, what: str, span, file, diags) -> PrimType | None:
    """The type of ``expr``, or None after reporting R4 ("``what`` does not
    type-check") at the span of the typing error, else at ``span``."""
    try:
        return typecheck_guard(expr, scope)
    except CiotError as exc:
        detail = exc.diagnostics[0] if exc.diagnostics else None
        diags.append(error("R4", f"{what} does not type-check: {exc}", detail.span if detail else span, file))
        return None


def _check_machine(comp: ComponentDef, machine: StateMachine, file, diags) -> None:
    initials = [s for s in machine.states if s.is_initial]
    if len(initials) != 1:
        if not initials:
            msg = f"state machine of component {comp.name!r} has no initial state"
        else:
            names = ", ".join(s.name for s in initials)
            msg = f"state machine of component {comp.name!r} has multiple initial states: {names}"
        diags.append(error("R1", msg, machine.span, file))

    props = _prop_scope(comp)
    for t in machine.transitions:
        if t.guard is None:
            continue
        payload_fields = _payload_scope(t.trigger.payload) if t.trigger is not None else None
        what = f"guard on transition {t.source.name} -> {t.target.name} of component {comp.name!r}"
        guard_type = _type_of(t.guard, GuardScope(props, payload_fields), what, t.span, file, diags)
        if guard_type is not None and guard_type is not PrimType.BOOL:
            diags.append(error("R4", f"{what} must be bool, got {guard_type.value}", t.span, file))

    # R6 needs a unique entry point; skip it while R1 is violated so one
    # seeded defect reports exactly one rule.
    if len(initials) == 1:
        reached = {initials[0].name}
        frontier = [initials[0]]
        edges: dict[str, list[str]] = {}
        for t in machine.transitions:
            edges.setdefault(t.source.name, []).append(t.target.name)
        while frontier:
            state = frontier.pop()
            for nxt in edges.get(state.name, ()):  # declaration order
                if nxt not in reached:
                    reached.add(nxt)
                    nxt_state = machine.state_named(nxt)
                    if nxt_state is not None:
                        frontier.append(nxt_state)
        for s in machine.states:
            if s.name not in reached:
                diags.append(
                    warning(
                        "R6",
                        f"state {s.name!r} of component {comp.name!r} is unreachable from the "
                        f"initial state",
                        s.span,
                        file,
                    )
                )

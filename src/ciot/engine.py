"""Deterministic run-to-completion execution of component instance trees.

The engine owns no clock; callers (the simulator, the CLI) set ``clock_us``
and every trace record is stamped with it. Determinism comes from fixed
orders everywhere: instances in depth-first declaration order, inboxes FIFO,
transitions in declaration order.

One ``step`` consumes exactly one queued event on the first instance (in
depth-first order) whose inbox is non-empty, then runs it to completion:

    event_delivered, action, guard_eval*, transition, exit-position
    executions, state_exited, state_entered, entry-position executions,
    continuous-position executions

Events referenced from state positions execute by direction: an outgoing
event sends its payload inline through the port's connector; a generic event
at entry/exit enqueues itself to the owning instance (payload snapshotted
from same-named properties); at continuous position its action runs inline
without enqueueing, so a quiescent state stays quiescent.

The next instance is found without a scan: each instance carries its
depth-first index, and ``RuntimeState.ready`` is a min-heap of the indices
whose inbox is non-empty. An index is pushed when its inbox goes from empty
to non-empty and popped when a step empties it again, so the heap's top is
always the instance the depth-first order names.

What the model fixes is worked out once per component at ``instantiate``
and shared by that run's instances of it: the transitions by source state,
each with its guard compiled by ``guards.compile_expr`` and the values of the
records it makes (guard_eval for either result, transition, state_exited,
state_entered) built in advance; and each action's effects as compiled
``(target, type, expression)`` triples. ``instantiate`` also resolves every
send of every instance before anything runs: the route, the peer, the peer's
incoming event and the source text. Nothing compiled is kept on the model, so
every ``instantiate`` builds its own tables.

Every value stored in a property or payload field passes ``guards.fit_value``:
at the boundaries (initial values, injected payloads) a misfit is
``E_INSTANTIATE`` or ``E_TYPE``, during a run (effects, built payloads) it is
``E_EVAL`` naming the instance and the property.

A send that finds no connector, or a peer with no matching incoming event,
is recorded with ``error=E_NO_ROUTE`` and dropped; it is not a runtime fault.

Trace records hold raw values (``trace.FIELDS``), and text is built only when
a record is read. Payload and assigned-value dicts are kept by reference, so
the engine never mutates such a dict after building it: every payload is a
fresh dict from ``_conform_payload`` or ``_snapshot_payload``, and every
action collects its assignments in a new one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable

from .diagnostics import CiotError
from .guards import PrimType, compile_expr, describe_value, expr_to_text, fit_value
from .metamodel import (
    ActionDef,
    ActionKind,
    ComponentDef,
    EventDef,
    EventDirection,
    Model,
    PayloadDef,
    StateDef,
    TransitionDef,
    instance_paths,
)
from .trace import TraceRecord

_new_tuple = tuple.__new__


@dataclass
class EventInstance:
    event: EventDef
    payload: dict | None
    source: str  # "env", sender path, or sender "path.port"
    eseq: int


@dataclass(frozen=True, slots=True)
class Transition:
    """One transition as ``step`` takes it: its compiled guard and the values
    of the records it makes, all fixed by the model."""

    trigger: EventDef | None
    guard: Callable | None  # compiled; sees the payload only when the transition has a trigger
    rejected: tuple  # guard_eval values: ("A->B", quoted guard text, False)
    accepted: tuple  # the same with True
    taken: tuple  # transition values: (source, target, trigger name or None)
    exited: tuple  # (source,)
    entered: tuple  # (target,)
    target: StateDef


@dataclass
class Dispatch:
    """One component's lookup tables, built at ``instantiate`` and shared by
    that run's instances of the component."""

    states: dict[str, StateDef]  # first state of each name, as ``state_named``
    transitions: dict[str, list[Transition]]  # per source state name, in declaration order
    # Per id(action) of each event's action: its effects as (target, target type, compiled expression).
    effects: dict[int, tuple[tuple[str, PrimType | None, Callable], ...]]


@dataclass
class InstanceState:
    path: str
    component: ComponentDef
    properties: dict
    state: str | None
    index: int  # position in depth-first order
    dispatch: Dispatch
    inbox: deque[EventInstance] = field(default_factory=deque)
    # Per id(event) of each outgoing event: (port name, route, peer, peer's
    # incoming event, source text), resolved by ``instantiate``.
    sends: dict[int, tuple] = field(default_factory=dict)


@dataclass
class RuntimeState:
    instances: dict[str, InstanceState]
    order: list[str]  # depth-first instance paths
    trace: list[TraceRecord] = field(default_factory=list)
    clock_us: int = 0
    seq: int = 0
    eseq: int = 0
    step_count: int = 0
    ready: list[int] = field(default_factory=list)  # min-heap of indices with a non-empty inbox

    def record(self, instance: str, kind: str, values: tuple) -> None:
        # The same record as TraceRecord(...), without the Python-level call
        # of its generated __new__, which takes about four times as long.
        self.trace.append(_new_tuple(TraceRecord, (self.seq, self.clock_us, instance, kind, values)))
        self.seq += 1


@dataclass(frozen=True)
class RunResult:
    steps: int
    quiescent: bool
    step_limit_hit: bool


def instantiate(model: Model) -> RuntimeState:
    """Build the instance tree, wire connectors, enter initial states."""
    paths = instance_paths(model)
    instances: dict[str, InstanceState] = {}
    tables: dict[int, Dispatch] = {}  # by id(comp); the model keeps every comp alive meanwhile
    for index, (path, comp) in enumerate(paths):
        machine = comp.state_machine
        initial = machine.initial.name if machine is not None and machine.initial is not None else None
        if id(comp) not in tables:
            tables[id(comp)] = _build_dispatch(comp)
        instances[path] = InstanceState(
            path=path,
            component=comp,
            properties={p.name: _initial_value(comp, p, path, model.overrides) for p in comp.properties},
            state=initial,
            index=index,
            dispatch=tables[id(comp)],
        )

    routes: dict[tuple[str, str], tuple[str, str]] = {}
    for path, comp in paths:
        for conn in comp.connectors:
            a = _endpoint_key(path, conn.a)
            b = _endpoint_key(path, conn.b)
            routes.setdefault(a, b)
            routes.setdefault(b, a)
    for path, comp in paths:
        for ev in comp.events:
            if ev.direction is not EventDirection.OUTGOING:
                continue
            port_name = ev.port.name if ev.port is not None else "-"
            route = routes.get((path, port_name))
            peer = target_event = None
            if route is not None:
                peer = instances[route[0]]
                target_event = _matching_incoming(peer, route[1], ev.action.payload)
            instances[path].sends[id(ev)] = (port_name, route, peer, target_event, f"{path}.{port_name}")

    rt = RuntimeState(instances=instances, order=[p for p, _ in paths])
    for path, comp in paths:
        inst = instances[path]
        if inst.state is None:
            continue
        rt.record(path, "state_entered", (inst.state,))
        for ev in inst.dispatch.states[inst.state].entry:
            _execute_positioned(rt, inst, ev, enqueue_generic=True)
    return rt


def _build_dispatch(comp: ComponentDef) -> Dispatch:
    states: dict[str, StateDef] = {}
    transitions: dict[str, list[Transition]] = {}
    machine = comp.state_machine
    if machine is not None:
        for s in machine.states:
            if s.name not in states:
                states[s.name] = s
                transitions[s.name] = []
        for t in machine.transitions:
            if states.get(t.source.name) is t.source:
                transitions[t.source.name].append(_transition(t))
    types = {p.name: p.type for p in comp.properties}
    effects = {
        id(ev.action): tuple((e.target, types.get(e.target), compile_expr(e.expr)) for e in ev.action.effects)
        for ev in comp.events
    }
    return Dispatch(states, transitions, effects)


def _transition(t: TransitionDef) -> Transition:
    label = f"{t.source.name}->{t.target.name}"
    guard_text = _quote(expr_to_text(t.guard)) if t.guard is not None else None
    return Transition(
        trigger=t.trigger,
        guard=compile_expr(t.guard) if t.guard is not None else None,
        rejected=(label, guard_text, False),
        accepted=(label, guard_text, True),
        taken=(t.source.name, t.target.name, t.trigger.name if t.trigger is not None else None),
        exited=(t.source.name,),
        entered=(t.target.name,),
        target=t.target,
    )


def _initial_value(comp: ComponentDef, prop, path: str, overrides: dict):
    value = fit_value(prop.type, overrides.get(prop.name))
    if value is None:
        value = fit_value(prop.type, prop.initial)
    if value is None:
        raise CiotError.of(
            "E_INSTANTIATE",
            f"property {prop.name!r} of {path} ({comp.name}) is {prop.type.value} "
            f"but its initial value is {describe_value(prop.initial)}",
            prop.span,
        )
    return value


def _endpoint_key(owner_path: str, endpoint) -> tuple[str, str]:
    if endpoint.instance is None:
        return owner_path, endpoint.port.name
    return f"{owner_path}.{endpoint.instance.name}", endpoint.port.name


def inject(rt: RuntimeState, path: str, port: str, event_name: str, payload: dict | None = None) -> None:
    """Queue an incoming event from the environment onto one instance."""
    inst, event = _event_at(rt, path, event_name, EventDirection.INCOMING)
    if event.port is None or event.port.name != port:
        raise CiotError.of("E_BAD_TARGET", f"event {event_name!r} is not bound to port {port!r}")
    values = _conform_payload(event.payload, payload, f"event {event_name!r}")
    _enqueue(rt, inst, event, values, "env")


def trigger_internal(rt: RuntimeState, path: str, event_name: str, payload: dict | None = None) -> None:
    """Queue a generic event onto one instance, as sensing hardware would."""
    bind_internal(rt, path, event_name)(payload)


def bind_internal(rt: RuntimeState, path: str, event_name: str) -> Callable[[dict | None], None]:
    """``trigger_internal`` with the instance and the event looked up once:
    a function that queues the event with the payload it is given."""
    inst, event = _event_at(rt, path, event_name, EventDirection.GENERIC)
    what = f"event {event_name!r}"

    def trigger(payload: dict | None = None) -> None:
        _enqueue(rt, inst, event, _conform_payload(event.payload, payload, what), "env")

    return trigger


def _event_at(rt: RuntimeState, path: str, name: str, direction: EventDirection) -> tuple[InstanceState, EventDef]:
    inst = rt.instances.get(path)
    if inst is None:
        raise CiotError.of("E_BAD_TARGET", f"no instance at path {path!r}")
    event = inst.component.event_named(name)
    if event is None or event.direction is not direction:
        raise CiotError.of("E_BAD_TARGET", f"component {inst.component.name!r} has no {direction.value} event {name!r}")
    return inst, event


def _conform_payload(payload_def: PayloadDef | None, values: dict | None, what: str) -> dict | None:
    """Check field names and types, widen ints, return field-ordered dict.

    Nested records are checked depth-first in field order with an explicit
    stack, so depth cannot exhaust the interpreter's recursion limit."""
    if payload_def is None:
        if values:
            raise CiotError.of("E_TYPE", f"{what} carries no payload but values were given")
        return None
    if values is None:
        raise CiotError.of("E_TYPE", f"{what} requires payload {payload_def.name!r}")
    _check_field_names(payload_def, values, what)
    root: dict = {}
    # Per open record: its given values, its conformed dict, its remaining fields.
    stack = [(values, root, iter(payload_def.fields))]
    while stack:
        given, out, fields = stack[-1]
        for fld in fields:
            if fld.name not in given:
                raise CiotError.of("E_TYPE", f"{what}: missing payload field {fld.name!r}")
            v = given[fld.name]
            if isinstance(fld.type, PayloadDef):
                if not isinstance(v, dict):
                    raise CiotError.of("E_TYPE", f"{what}: field {fld.name!r} expects a record")
                _check_field_names(fld.type, v, what)
                out[fld.name] = nested = {}
                stack.append((v, nested, iter(fld.type.fields)))
                break
            out[fld.name] = _conform_primitive(fld.type, v, fld.name, what)
        else:
            stack.pop()
    return root


def _check_field_names(payload_def: PayloadDef, values: dict, what: str) -> None:
    extra = set(values) - {f.name for f in payload_def.fields}
    if extra:
        raise CiotError.of("E_TYPE", f"{what}: unknown payload field(s) {sorted(extra)!r}")


def _conform_primitive(t: PrimType, v, name: str, what: str):
    value = fit_value(t, v)
    if value is None:
        expected = "a finite float" if t is PrimType.FLOAT else t.value
        raise CiotError.of("E_TYPE", f"{what}: payload field {name!r} expects {expected}, got {describe_value(v)}")
    return value


def _enqueue(rt: RuntimeState, inst: InstanceState, event: EventDef, values: dict | None, source: str) -> None:
    if not inst.inbox:
        heappush(rt.ready, inst.index)
    inst.inbox.append(EventInstance(event, values, source, rt.eseq))
    rt.eseq += 1


def step(rt: RuntimeState) -> bool:
    """Process one queued event to completion; False when nothing is queued."""
    rt.step_count += 1
    if not rt.ready:
        return False
    inst = rt.instances[rt.order[rt.ready[0]]]
    ei = inst.inbox.popleft()
    if not inst.inbox:
        heappop(rt.ready)  # before the action runs, so a self-enqueue pushes it again
    event, payload, path, record = ei.event, ei.payload, inst.path, rt.record
    record(path, "event_delivered", (event.name, ei.eseq, ei.source, payload))
    _run_action(rt, inst, event.action, payload)
    if inst.state is None:
        return True
    table = inst.dispatch
    fired = None
    for t in table.transitions[inst.state]:
        if t.trigger is not None and t.trigger is not event:
            continue
        if t.guard is not None:
            if not t.guard(inst.properties, payload if t.trigger is not None else None):
                record(path, "guard_eval", t.rejected)
                continue
            record(path, "guard_eval", t.accepted)
        fired = t
        break
    if fired is not None:
        record(path, "transition", fired.taken)
        for ev in table.states[inst.state].exit:
            _execute_positioned(rt, inst, ev, enqueue_generic=True)
        record(path, "state_exited", fired.exited)
        inst.state = fired.target.name
        record(path, "state_entered", fired.entered)
        for ev in fired.target.entry:
            _execute_positioned(rt, inst, ev, enqueue_generic=True)
    for ev in table.states[inst.state].continuous:
        _execute_positioned(rt, inst, ev, enqueue_generic=False)
    return True


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def run_to_quiescence(rt: RuntimeState, max_steps: int = 10000) -> RunResult:
    steps = 0
    while steps < max_steps:
        if not step(rt):
            return RunResult(steps, True, False)
        steps += 1
    quiescent = not rt.ready
    return RunResult(steps, quiescent, not quiescent)


def quiesce(rt: RuntimeState, max_steps: int) -> None:
    """``run_to_quiescence``, raising ``E_STEP_LIMIT`` when the steps run out
    first and ``E_DOMAIN`` when ``max_steps`` is not a non-negative int."""
    if type(max_steps) is not int or max_steps < 0:
        raise CiotError.of("E_DOMAIN", f"max_steps must be a non-negative integer, got {describe_value(max_steps)}")
    if run_to_quiescence(rt, max_steps).step_limit_hit:
        raise CiotError.of("E_STEP_LIMIT", f"model did not quiesce within {max_steps} steps")


def _execute_positioned(rt: RuntimeState, inst: InstanceState, ev: EventDef, *, enqueue_generic: bool) -> None:
    if ev.direction is EventDirection.OUTGOING:
        _run_action(rt, inst, ev.action, None, ev)
    elif enqueue_generic:
        values = _snapshot_payload(inst, ev.payload)
        _enqueue(rt, inst, ev, values, inst.path)
    else:
        _run_action(rt, inst, ev.action, _snapshot_payload(inst, ev.payload))


def _snapshot_payload(inst: InstanceState, payload_def: PayloadDef | None) -> dict | None:
    if payload_def is None:
        return None
    values = {}
    for fld in payload_def.fields:
        v = inst.properties.get(fld.name)
        value = fit_value(fld.type, v)
        if value is None:
            _misfit(inst, f"payload field {fld.name!r} built from property {fld.name!r}", fld.type, v)
        values[fld.name] = value
    return values


def _misfit(inst: InstanceState, what: str, t, value) -> None:
    expected = t.value if isinstance(t, PrimType) else "a declared primitive"
    message = f"{inst.path}: {what} expects {expected}, got {describe_value(value)}"
    raise CiotError.of("E_EVAL", message)


def _run_action(
    rt: RuntimeState,
    inst: InstanceState,
    action: ActionDef,
    payload: dict | None,
    send_event: EventDef | None = None,
) -> None:
    is_send = action.kind is ActionKind.SEND_PAYLOAD
    effect_scope = None if is_send else payload
    properties = inst.properties
    assigned = {}
    for target, t, fn in inst.dispatch.effects[id(action)]:
        result = fn(properties, effect_scope)
        value = fit_value(t, result)
        if value is None:
            _misfit(inst, f"property {target!r} set by action {action.name!r}", t, result)
        properties[target] = value
        assigned[target] = value
    rt.record(inst.path, "action", (action.name, action.kind, assigned))
    if is_send and send_event is not None:
        _send(rt, inst, send_event)


def _send(rt: RuntimeState, inst: InstanceState, event: EventDef) -> None:
    values = _snapshot_payload(inst, event.action.payload)
    port_name, route, peer, target_event, source = inst.sends[id(event)]
    error = "E_NO_ROUTE"
    if target_event is not None:
        _enqueue(rt, peer, target_event, values, source)
        error = None
    rt.record(inst.path, "payload_sent", (port_name, event.name, route, values, error))


def _matching_incoming(peer: InstanceState, port_name: str, payload_def: PayloadDef | None) -> EventDef | None:
    for ev in peer.component.events:
        if ev.direction is not EventDirection.INCOMING:
            continue
        if ev.port is None or ev.port.name != port_name:
            continue
        mine = ev.payload.name if ev.payload is not None else None
        theirs = payload_def.name if payload_def is not None else None
        if mine == theirs:
            return ev
    return None

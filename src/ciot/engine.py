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
depth-first index, ``RuntimeState.by_index`` lists the instances in that
order, and ``RuntimeState.ready`` is a min-heap of the indices whose inbox is
non-empty. An index is pushed when its inbox goes from empty to non-empty
and popped when a step empties it again, so the heap's top is always the
instance the depth-first order names. An inbox entry is a plain
``(event, delivered)`` tuple: ``delivered`` holds the values of the event's
``event_delivered`` record (name, sequence number, source, payload), built
once when the event is queued and recorded as it is when a step takes it.

What the model fixes is worked out once per component, at its first
instance in depth-first order, as a template that the call's later instances
of it reuse. Its ``Dispatch`` is shared. Per state: its transitions, each
with its guard compiled by ``guards.compile_expr`` and the values of the
records it makes (guard_eval for either result, transition, state_exited,
state_entered) built in advance; and its entry, exit and continuous
executions with the direction already decided: run the action and send,
queue a payload snapshot, or run the action inline. A state's entry
executions are built once and shared by the transitions into it. Per event:
its action's effects as compiled expressions, or, for an action with no
effects, the values of its action record. Per outgoing event: the port, the
payload and the fields of the payload it builds. The template also holds the
fitted initial property values, which each instance gets a copy of, the
initial state's name, and each connector's ends relative to the owner's
path. From these ``instantiate`` resolves every send of every instance
before anything runs: the route, the peer, the peer's incoming event (found
once per peer component, port and payload) and the source text. Nothing
compiled or fitted outlives the call, so every ``instantiate`` builds its
own templates.

Every value stored in a property or payload field fits its declared type,
and ``guards.fit_value`` runs where the declared types do not prove the fit.
At the boundaries (initial values, injected payloads) a misfit is
``E_INSTANTIATE`` or ``E_TYPE``; during a run (effects, built payloads) it
is ``E_EVAL`` naming the instance and the property. The declared types prove
the fit of a payload field built from a property of the field's type, and of
an effect whose expression has the target's type: a literal that fits it, a
property, a field of the payload that both the event and its action declare,
or a comparison, ``not``, ``and`` or ``or``, which all give a bool. Each
proof rests on every value stored before it having fitted; widening an int
to a float is not a proof, so it still goes through ``fit_value``.

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
from typing import Callable, NamedTuple

from .diagnostics import CiotError, require_type
from .guards import Expr, Literal, NameRef, PayloadFieldRef, PrimType, compile_expr, describe_value, expr_to_text, fit_value
from .metamodel import (
    ActionKind,
    ComponentDef,
    EventDef,
    EventDirection,
    FieldType,
    Model,
    PayloadDef,
    StateDef,
    TransitionDef,
    instance_paths,
)
from .trace import TraceRecord

_new_tuple = tuple.__new__

# Steps a run may take to quiesce unless the caller says otherwise.
DEFAULT_MAX_STEPS = 10000

# One state-position execution, its direction decided: called with the
# runtime and the instance whose state it belongs to.
Execution = Callable[["RuntimeState", "InstanceState"], None]
# The fields of a payload built from properties: (name, declared type,
# whether the property's declared type proves the fit); None for no payload.
Fields = tuple[tuple[str, FieldType, bool], ...] | None


@dataclass(frozen=True, slots=True)
class Transition:
    """One transition as ``step`` takes it: its compiled guard, the values
    of the records it makes and its target's entry executions, all fixed by
    the model."""

    trigger: EventDef | None
    guard: Callable | None  # compiled; sees the payload only when the transition has a trigger
    rejected: tuple  # guard_eval values: ("A->B", quoted guard text, False)
    accepted: tuple  # the same with True
    taken: tuple  # transition values: (source, target, trigger name or None)
    exited: tuple  # (source,)
    entered: tuple  # (target,)
    target: StateDef
    entry: tuple[Execution, ...]  # the target's entry executions


class State(NamedTuple):
    """One state as ``step`` runs it."""

    transitions: tuple[Transition, ...]  # in declaration order
    entry: tuple[Execution, ...]
    exit: tuple[Execution, ...]
    continuous: tuple[Execution, ...]


class Action(NamedTuple):
    """An event's action as that event runs it."""

    name: str
    kind: ActionKind
    sees_payload: bool  # False for a send action, whose effects see no payload
    # (target, its declared type, compiled expression, whether the declared types prove the fit)
    effects: tuple[tuple[str, PrimType | None, Callable, bool], ...]
    fixed: tuple | None  # with no effects, the values of every action record it makes: (name, kind, {})


class Dispatch(NamedTuple):
    """One component's lookup tables, built at ``instantiate`` and shared by
    that run's instances of the component."""

    states: dict[str, State]  # first state of each name, as ``state_named``
    actions: dict[str, Action]  # per event name
    # Per outgoing event in declaration order: (port name, event name, its
    # action's payload name, that payload's fields).
    outgoing: tuple[tuple[str, str, str | None, Fields], ...]


class _Template(NamedTuple):
    """What ``instantiate`` fixes once per component: every instance shares
    the dispatch and the links and starts from a copy of the properties."""

    dispatch: Dispatch
    properties: dict  # the fitted initial values
    initial: str | None  # the initial state's name
    links: tuple  # per connector: both ends as (suffix of the owner's path, port name)


@dataclass(slots=True)
class InstanceState:
    path: str
    component: ComponentDef
    properties: dict
    state: str | None
    index: int  # position in depth-first order
    dispatch: Dispatch
    inbox: deque[tuple[EventDef, tuple]] = field(default_factory=deque)  # (event, event_delivered values)
    # Per entry of ``dispatch.outgoing``: (port name, event name, route, peer,
    # peer's incoming event, payload fields, source text), resolved by ``instantiate``.
    sends: list[tuple] = field(default_factory=list)


@dataclass(slots=True)
class RuntimeState:
    instances: dict[str, InstanceState]
    order: list[str]  # depth-first instance paths
    by_index: list[InstanceState]  # the instances in depth-first order
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


def instantiate(model: Model) -> RuntimeState:
    """Build the instance tree, wire connectors, enter initial states."""
    require_type(model, Model, "model")
    paths = instance_paths(model)
    by_index: list[InstanceState] = []
    templates: dict[int, _Template] = {}  # by id(comp); the model keeps every comp alive meanwhile
    routes: dict[tuple[str, str], tuple[str, str]] = {}
    for index, (path, comp) in enumerate(paths):
        template = templates.get(id(comp))
        if template is None:
            template = templates[id(comp)] = _template(model, comp, path)
        dispatch, properties, initial, links = template
        by_index.append(InstanceState(path, comp, properties.copy(), initial, index, dispatch))
        for (a_suffix, a_port), (b_suffix, b_port) in links:
            a, b = (path + a_suffix, a_port), (path + b_suffix, b_port)
            routes.setdefault(a, b)
            routes.setdefault(b, a)
    instances = {inst.path: inst for inst in by_index}

    matches: dict[tuple, EventDef | None] = {}  # (id(peer comp), peer port, payload name) -> its incoming event
    for inst in by_index:
        path, sends = inst.path, inst.sends
        for port_name, event_name, payload_name, fields in inst.dispatch.outgoing:
            route = routes.get((path, port_name))
            peer = target_event = None
            if route is not None:
                peer = instances[route[0]]
                key = (id(peer.component), route[1], payload_name)
                if key not in matches:
                    matches[key] = _matching_incoming(peer, route[1], payload_name)
                target_event = matches[key]
            sends.append((port_name, event_name, route, peer, target_event, fields, f"{path}.{port_name}"))

    rt = RuntimeState(instances=instances, order=[p for p, _ in paths], by_index=by_index)
    for inst in by_index:
        if inst.state is None:
            continue
        rt.record(inst.path, "state_entered", (inst.state,))
        for run in inst.dispatch.states[inst.state].entry:
            run(rt, inst)
    return rt


def _template(model: Model, comp: ComponentDef, path: str) -> _Template:
    """What every instance of ``comp`` starts from; ``path`` is the first
    instance's, which an ``E_INSTANTIATE`` names."""
    dispatch = _build_dispatch(comp, model)
    properties = {p.name: _initial_value(model, comp, p, path) for p in comp.properties}
    machine = comp.state_machine
    initial = machine.initial if machine is not None else None
    links = tuple((_endpoint(conn.a), _endpoint(conn.b)) for conn in comp.connectors)
    return _Template(dispatch, properties, initial.name if initial is not None else None, links)


def _endpoint(endpoint) -> tuple[str, str]:
    """A connector end as (suffix of the owner's path, port name)."""
    return ("" if endpoint.instance is None else f".{endpoint.instance.name}"), endpoint.port.name


def _build_dispatch(comp: ComponentDef, model: Model) -> Dispatch:
    types = {p.name: p.type for p in comp.properties}
    actions: dict[str, Action] = {}
    for ev in comp.events:
        actions.setdefault(ev.name, _action(ev, types, model))
    outgoing = [ev for ev in comp.events if ev.direction is EventDirection.OUTGOING]

    def executions(events: list[EventDef], inline: bool) -> tuple[Execution, ...]:
        return tuple(_execution(ev, actions[ev.name], types, outgoing, inline) for ev in events)

    entries: dict[int, tuple[Execution, ...]] = {}  # by id(state), shared by the transitions into it

    def entry(s: StateDef) -> tuple[Execution, ...]:
        if id(s) not in entries:
            entries[id(s)] = executions(s.entry, False)
        return entries[id(s)]

    states: dict[str, State] = {}
    machine = comp.state_machine
    for s in machine.states if machine is not None else ():
        if s.name not in states:
            transitions = tuple(_transition(t, entry(t.target), model) for t in machine.transitions if t.source is s)
            states[s.name] = State(transitions, entry(s), executions(s.exit, False), executions(s.continuous, True))
    sends = []
    for ev in outgoing:
        payload = ev.action.payload
        port_name = ev.port.name if ev.port is not None else "-"
        sends.append((port_name, ev.name, payload.name if payload is not None else None, _fields(payload, types)))
    return Dispatch(states, actions, tuple(sends))


def _action(ev: EventDef, types: dict[str, PrimType], model: Model) -> Action:
    act = ev.action
    sees_payload = act.kind is not ActionKind.SEND_PAYLOAD
    fields = {}
    if sees_payload and ev.payload is not None and ev.payload is act.payload:
        fields = {f.name: f.type for f in ev.payload.fields}
    effects = []
    for e in act.effects:
        t = types.get(e.target)
        compiled = compile_expr(e.expr, model.locate, model.source)
        effects.append((e.target, t, compiled, _proves(t, e.expr, types, fields)))
    return Action(act.name, act.kind, sees_payload, tuple(effects), None if effects else (act.name, act.kind, {}))


def _proves(t: PrimType | None, expr: Expr, properties: dict, fields: dict) -> bool:
    """Whether every value of ``expr`` fits ``t`` by the declared types alone."""
    if t is None:
        return False
    if isinstance(expr, Literal):
        return fit_value(t, expr.value) is expr.value
    if isinstance(expr, NameRef):
        return properties.get(expr.name) is t
    if isinstance(expr, PayloadFieldRef):
        return fields.get(expr.field) is t
    return t is PrimType.BOOL  # a comparison, not, and, or


def _fields(payload_def: PayloadDef | None, types: dict[str, PrimType]) -> Fields:
    if payload_def is None:
        return None
    return tuple((f.name, f.type, types.get(f.name) is f.type) for f in payload_def.fields)


def _execution(ev: EventDef, action: Action, types: dict, outgoing: list[EventDef], inline: bool) -> Execution:
    if ev.direction is EventDirection.OUTGOING:
        if action.kind is not ActionKind.SEND_PAYLOAD:
            return lambda rt, inst: _run_action(rt, inst, action, None)
        k = outgoing.index(ev)

        def send(rt: RuntimeState, inst: InstanceState) -> None:
            _run_action(rt, inst, action, None)
            _send(rt, inst, inst.sends[k])

        return send
    fields = _fields(ev.payload, types)
    if inline:
        return lambda rt, inst: _run_action(rt, inst, action, _snapshot_payload(inst, fields))
    return lambda rt, inst: _enqueue(rt, inst, ev, _snapshot_payload(inst, fields), inst.path)


def _transition(t: TransitionDef, entry: tuple[Execution, ...], model: Model) -> Transition:
    label = f"{t.source.name}->{t.target.name}"
    guard_text = _quote(expr_to_text(t.guard)) if t.guard is not None else None
    return Transition(
        trigger=t.trigger,
        guard=compile_expr(t.guard, model.locate, model.source) if t.guard is not None else None,
        rejected=(label, guard_text, False),
        accepted=(label, guard_text, True),
        taken=(t.source.name, t.target.name, t.trigger.name if t.trigger is not None else None),
        exited=(t.source.name,),
        entered=(t.target.name,),
        target=t.target,
        entry=entry,
    )


def _initial_value(model: Model, comp: ComponentDef, prop, path: str):
    value = fit_value(prop.type, model.overrides[prop.name]) if prop.name in model.overrides else None
    if value is None:
        value = fit_value(prop.type, prop.initial)
    if value is None:
        raise CiotError.of(
            "E_INSTANTIATE",
            f"property {prop.name!r} of {path} ({comp.name}) is {prop.type.value} "
            f"but its initial value is {describe_value(prop.initial)}",
            model.locate(prop.span),
            model.source,
        )
    return value


def inject(rt: RuntimeState, path: str, port: str, event_name: str, payload: dict | None = None) -> None:
    """Queue an incoming event from the environment onto one instance."""
    inst, event = _event_at(rt, path, event_name, EventDirection.INCOMING)
    if event.port is None or event.port.name != port:
        raise CiotError.of("E_BAD_TARGET", f"event {event_name!r} is not bound to port {port!r}")
    values = _conform_payload(event.payload, payload, f"event {event_name!r}")
    _enqueue(rt, inst, event, values, "env")


def bind_internal(rt: RuntimeState, path: str, event_name: str) -> Callable[[dict | None], None]:
    """A function that queues a generic event onto one instance, as sensing
    hardware would, with the payload it is given; the instance and the event
    are looked up once."""
    inst, event = _event_at(rt, path, event_name, EventDirection.GENERIC)
    payload_def, what = event.payload, f"event {event_name!r}"
    flat = None  # (name, type) per field of a payload with no record field
    if payload_def is not None and all(isinstance(f.type, PrimType) for f in payload_def.fields):
        flat = tuple((f.name, f.type) for f in payload_def.fields)

    def trigger(payload: dict | None = None) -> None:
        # A flat payload given as a plain dict of exactly its fields is fitted
        # field by field; anything else, or a value that does not fit, goes
        # through _conform_payload for its error.
        if flat is not None and type(payload) is dict and len(payload) == len(flat):
            values = {}
            for name, t in flat:
                value = fit_value(t, payload.get(name))
                if value is None:
                    break
                values[name] = value
            else:
                _enqueue(rt, inst, event, values, "env")
                return
        _enqueue(rt, inst, event, _conform_payload(payload_def, payload, what), "env")

    return trigger


def _event_at(rt: RuntimeState, path: str, name: str, direction: EventDirection) -> tuple[InstanceState, EventDef]:
    require_type(rt, RuntimeState, "runtime")
    require_type(path, str, "path")
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
    if values is not None and not isinstance(values, dict):
        raise CiotError.of("E_TYPE", f"{what}: a payload is a dict of field values, got {describe_value(values)}")
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
    inst.inbox.append((event, (event.name, rt.eseq, source, values)))
    rt.eseq += 1


def step(rt: RuntimeState) -> bool:
    """Process one queued event to completion; False when nothing is queued."""
    rt.step_count += 1
    ready = rt.ready
    if not ready:
        return False
    inst = rt.by_index[ready[0]]
    inbox = inst.inbox
    event, delivered = inbox.popleft()
    if not inbox:
        heappop(ready)  # before the action runs, so a self-enqueue pushes it again
    path, record = inst.path, rt.record
    states, actions, _ = inst.dispatch
    record(path, "event_delivered", delivered)
    payload = delivered[3]
    _run_action(rt, inst, actions[event.name], payload)
    if inst.state is None:
        return True
    transitions, _, exits, continuous = states[inst.state]
    fired = None
    for t in transitions:
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
        for run in exits:
            run(rt, inst)
        record(path, "state_exited", fired.exited)
        inst.state = fired.target.name
        record(path, "state_entered", fired.entered)
        for run in fired.entry:
            run(rt, inst)
        continuous = states[inst.state].continuous
    for run in continuous:
        run(rt, inst)
    return True


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def run_to_quiescence(rt: RuntimeState, max_steps: int = DEFAULT_MAX_STEPS) -> int:
    """Step until no event is queued and return the number of steps taken;
    ``E_DOMAIN`` when ``max_steps`` is not a non-negative int, and
    ``E_STEP_LIMIT`` when events are still queued after ``max_steps`` steps."""
    require_type(rt, RuntimeState, "runtime")
    if type(max_steps) is not int or max_steps < 0:
        raise CiotError.of("E_DOMAIN", f"max_steps must be a non-negative integer, got {describe_value(max_steps)}")
    steps = 0
    while steps < max_steps:
        if not step(rt):
            return steps
        steps += 1
    if rt.ready:
        raise CiotError.of("E_STEP_LIMIT", f"model did not quiesce within {max_steps} steps")
    return steps


def _snapshot_payload(inst: InstanceState, fields: Fields) -> dict | None:
    if fields is None:
        return None
    properties = inst.properties
    values = {}
    for name, t, proven in fields:
        v = properties.get(name)
        if not proven:
            value = fit_value(t, v)
            if value is None:
                _misfit(inst, f"payload field {name!r} built from property {name!r}", t, v)
            v = value
        values[name] = v
    return values


def _misfit(inst: InstanceState, what: str, t, value) -> None:
    expected = t.value if isinstance(t, PrimType) else "a declared primitive"
    message = f"{inst.path}: {what} expects {expected}, got {describe_value(value)}"
    raise CiotError.of("E_EVAL", message)


def _run_action(rt: RuntimeState, inst: InstanceState, action: Action, payload: dict | None) -> None:
    name, kind, sees_payload, effects, fixed = action
    if fixed is not None:
        rt.record(inst.path, "action", fixed)
        return
    scope = payload if sees_payload else None
    properties = inst.properties
    assigned = {}
    for target, t, fn, proven in effects:
        value = fn(properties, scope)
        if not proven:
            fitted = fit_value(t, value)
            if fitted is None:
                _misfit(inst, f"property {target!r} set by action {name!r}", t, value)
            value = fitted
        properties[target] = value
        assigned[target] = value
    rt.record(inst.path, "action", (name, kind, assigned))


def _send(rt: RuntimeState, inst: InstanceState, send: tuple) -> None:
    port_name, event_name, route, peer, target_event, fields, source = send
    values = _snapshot_payload(inst, fields)
    error = "E_NO_ROUTE"
    if target_event is not None:
        _enqueue(rt, peer, target_event, values, source)
        error = None
    rt.record(inst.path, "payload_sent", (port_name, event_name, route, values, error))


def _matching_incoming(peer: InstanceState, port_name: str, payload_name: str | None) -> EventDef | None:
    for ev in peer.component.events:
        if ev.direction is not EventDirection.INCOMING:
            continue
        if ev.port is None or ev.port.name != port_name:
            continue
        if (ev.payload.name if ev.payload is not None else None) == payload_name:
            return ev
    return None

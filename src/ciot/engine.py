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
``(event, delivered)`` tuple: ``delivered`` is the event's
``event_delivered`` record (kind, name, sequence number, source, payload),
built once when the event is queued; the step that takes it appends it as
is.

What the model fixes is worked out once per component, at its first
instance in depth-first order, as one ``Dispatch`` record that the call's
later instances of it share. Per state: its transitions, each with its guard
compiled by ``guards.compile_expr`` and the records it makes (guard_eval for
either result, transition, state_exited, state_entered) built in advance;
and its entry, exit and continuous executions with the direction already
decided: run the action and send, queue a payload snapshot, or run the
action inline. A transition holds its target's name; ``step`` enters each
target through its own ``State``. Per event: its action's effects as compiled
expressions, or the action folded. An action folds when each of its effects
(none at all included) is a literal that fits its target as it is
(``_proves``): its one action record is built here, holding the dict of
what it assigns, and a run only merges that dict into the instance's
properties and appends the record. Per outgoing event: the port, the
payload and the fields of the payload it builds, and whether the send
folds: it does when its action is folded and sets every field of the
payload through a property of the field's type, so every send of it
delivers one payload dict, built here. A generic event at an entry or exit
position never folds: its payload is snapshotted before its action runs.
Per port and payload name: the first incoming event declared with both,
which is the event a send to that port with that payload delivers. The
record also holds the fitted initial property values, which each instance
gets a copy of, the initial state's name and its state_entered record, and
each connector's ends relative to the owner's path. ``instantiate`` then
takes the instances once in depth-first order: it resolves each send of the
instance (the route, the peer, the peer's incoming event as one lookup in
the peer's record, the source text, and for a folded send its payload_sent
record, with the route and error fixed) and enters the instance's initial
state. One pass suffices because an instance's entry executions send only
through its own sends, and nothing steps during ``instantiate``. Nothing
compiled or fitted outlives the call, so every ``instantiate`` builds its
own records.

Every value stored in a property or payload field fits its declared type,
and ``guards.fit_value`` runs where the declared types do not prove the fit.
At the boundaries (initial values, injected payloads) a misfit is
``E_INSTANTIATE`` or ``E_TYPE``; during a run (effects, built payloads) it
is ``E_EVAL`` naming the instance and the property. The declared types prove
the fit of a payload field built from a property of the field's type, and of
an effect whose expression has the target's type: a literal that fits it, a
property, a field of the payload that both the event and its action declare,
or a comparison, ``not``, ``and`` or ``or``, which all give a bool. The sensing
contract proves the fit of a simulator reading: one float field, a finite
float. Each proof rests on every value stored before it having fitted;
widening an int to a float is not a proof, so it still goes through
``fit_value``.

A send that finds no connector, or a peer with no matching incoming event,
is recorded with ``error=E_NO_ROUTE`` and dropped; it is not a runtime fault.

Each trace record is one flat tuple ``(kind, *values)`` appended to
``RuntimeState.records``; its index is its seq. Every record of one step is
made at the stepping instance, and the clock moves only between steps, so
``RuntimeState.record`` opens one head per step (and one per instance that
``instantiate`` enters), which stamps every record up to the next head. The
heads are kept as three columns, ``head_first`` (the index of its first
record), ``head_time`` and ``head_instance``, so opening one builds no
tuple. The records the model fixes (a transition's guard_eval, transition
and state records, a folded action's record, the initial state_entered) are
built once in the ``Dispatch`` and shared by every instance, and a folded
send's payload_sent record once per instance, so appending one allocates
nothing; a delivery appends the event_delivered record that ``enqueue``
built, and an unfolded send or action builds one record each. A record
whose values hold no dict is one the collector stops tracking.
``RuntimeState.trace`` reads the columns and records as ``TraceRecord``s
through a live ``trace.Trace`` view, built only as each is read. The values
are raw (``trace.FIELDS``), and text is built only when a record is read.
Payload and assigned-value dicts are kept by reference, and a folded one is
shared by every record, delivery and instance that holds it, so the engine
never mutates such a dict after building it. ``enqueue`` checks nothing and
queues a fresh payload from ``_conform_payload`` (``inject``,
``bind_internal``), ``_snapshot_payload`` (unfolded sends, entry and exit
positions) or ``sim.simulate`` (its readings), or a folded send's one
payload; every unfolded action collects its assignments in a new dict.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable, NamedTuple

from .diagnostics import CiotError, Record, require_type
from .guards import Expr, Literal, NameRef, PayloadFieldRef, PrimType, compile_expr, describe_value, expr_to_text, fit_value
from .metamodel import (
    ActionKind,
    ComponentDef,
    EventDef,
    EventDirection,
    FieldType,
    Model,
    PayloadDef,
    TransitionDef,
    instance_paths,
)
from .trace import Trace

# Steps a run may take to quiesce unless the caller says otherwise.
DEFAULT_MAX_STEPS = 10000

# One state-position execution, its direction decided: called with the
# runtime and the instance whose state it belongs to.
Execution = Callable[["RuntimeState", "InstanceState"], None]
# The fields of a payload built from properties: (name, declared type,
# whether the property's declared type proves the fit); None for no payload.
Fields = tuple[tuple[str, FieldType, bool], ...] | None


class Transition(Record):
    """One transition as ``step`` takes it: its compiled guard, the records
    it makes and its target's name, all fixed by the model."""

    __slots__ = ("trigger", "guard", "rejected", "accepted", "taken", "exited", "entered", "target")

    def __init__(
        self,
        trigger: EventDef | None,
        guard: Callable | None,
        rejected: tuple,
        accepted: tuple,
        taken: tuple,
        exited: tuple,
        entered: tuple,
        target: str,
    ) -> None:
        self.trigger = trigger
        self.guard = guard  # compiled; sees the payload only when the transition has a trigger
        # Its records, prebuilt and shared by every instance:
        self.rejected = rejected  # ("guard_eval", "A->B", quoted guard text, False)
        self.accepted = accepted  # the same with True
        self.taken = taken  # ("transition", source, target, trigger name or None)
        self.exited = exited  # ("state_exited", source)
        self.entered = entered  # ("state_entered", target)
        self.target = target  # the name ``step`` looks its ``State`` up by


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
    # Folded, when every effect is a literal proven to fit: the one record it
    # makes, ("action", name, kind, {target: literal, ...}), whose dict it sets.
    fixed: tuple | None


class Dispatch(NamedTuple):
    """What ``instantiate`` fixes once per component: every instance of it in
    that run shares the record and starts from a copy of the properties."""

    states: dict[str, State]  # the first state of each name
    actions: dict[str, Action]  # per event name
    # Per outgoing event in declaration order: (port name, event name, its
    # action's payload name, that payload's fields, whether the send folds,
    # and if so the payload every send of it delivers).
    outgoing: tuple[tuple[str, str, str | None, Fields, bool, dict | None], ...]
    incoming: dict[tuple[str, str | None], EventDef]  # see ``_matching_incoming``
    properties: dict  # the fitted initial values
    initial: str | None  # the initial state's name
    entered: tuple | None  # its state_entered record: ("state_entered", name)
    links: tuple  # per connector: both ends as (suffix of the owner's path, port name)


class InstanceState(Record):
    """One running instance: its properties, state and inbox."""

    __slots__ = ("path", "component", "properties", "state", "index", "dispatch", "inbox", "sends")

    def __init__(
        self, path: str, component: ComponentDef, properties: dict, state: str | None, index: int, dispatch: Dispatch
    ) -> None:
        self.path = path
        self.component = component
        self.properties = properties
        self.state = state
        self.index = index  # position in depth-first order
        self.dispatch = dispatch
        self.inbox: deque[tuple[EventDef, tuple]] = deque()  # (event, its event_delivered record)
        # Per entry of ``dispatch.outgoing``: (port name, event name, route, peer,
        # peer's incoming event, payload fields, source text, and for a folded
        # send its payload_sent record), resolved by ``instantiate``.
        self.sends: list[tuple] = []


class RuntimeState(Record):
    """A run: its instances, clock, ready heap and trace records."""

    __slots__ = (
        "instances",
        "order",
        "by_index",
        "head_first",
        "head_time",
        "head_instance",
        "records",
        "clock_us",
        "eseq",
        "step_count",
        "ready",
    )

    def __init__(self, instances: dict[str, InstanceState], order: list[str], by_index: list[InstanceState]) -> None:
        self.instances = instances
        self.order = order  # depth-first instance paths
        self.by_index = by_index  # the instances in depth-first order
        # The heads as columns, one entry per head each:
        self.head_first: list[int] = []  # index of its first record
        self.head_time: list[int] = []  # time_us
        self.head_instance: list[str] = []  # instance path
        self.records: list[tuple] = []  # (kind, *values) each; its index is its seq
        self.clock_us = 0
        self.eseq = 0
        self.step_count = 0
        self.ready: list[int] = []  # min-heap of indices with a non-empty inbox

    @property
    def trace(self) -> Trace:
        """The records as ``TraceRecord``s, a live read-only view."""
        return Trace(self.head_first, self.head_time, self.head_instance, self.records)

    def record(self, instance: str) -> None:
        """Open a head: the records appended from now until the next head
        were made at ``instance`` at the current clock."""
        self.head_first.append(len(self.records))
        self.head_time.append(self.clock_us)
        self.head_instance.append(instance)


def instantiate(model: Model) -> RuntimeState:
    """Build the instance tree, wire connectors, enter initial states."""
    require_type(model, Model, "model")
    paths = instance_paths(model)
    by_index: list[InstanceState] = []
    dispatches: dict[int, Dispatch] = {}  # by id(comp); the model keeps every comp alive meanwhile
    routes: dict[tuple[str, str], tuple[str, str]] = {}
    for index, (path, comp) in enumerate(paths):
        dispatch = dispatches.get(id(comp))
        if dispatch is None:
            dispatch = dispatches[id(comp)] = _build_dispatch(model, comp, path)
        by_index.append(InstanceState(path, comp, dispatch.properties.copy(), dispatch.initial, index, dispatch))
        for (a_suffix, a_port), (b_suffix, b_port) in dispatch.links:
            a, b = (path + a_suffix, a_port), (path + b_suffix, b_port)
            routes.setdefault(a, b)
            routes.setdefault(b, a)
    instances = {inst.path: inst for inst in by_index}
    rt = RuntimeState(instances=instances, order=[p for p, _ in paths], by_index=by_index)
    for inst in by_index:
        path, dispatch, sends = inst.path, inst.dispatch, inst.sends
        for port_name, event_name, payload_name, fields, folds, payload in dispatch.outgoing:
            route = routes.get((path, port_name))
            peer = target_event = sent = None
            if route is not None:
                peer = instances[route[0]]
                target_event = peer.dispatch.incoming.get((route[1], payload_name))
            if folds:
                error = None if target_event is not None else "E_NO_ROUTE"
                sent = ("payload_sent", port_name, event_name, route, payload, error)
            sends.append((port_name, event_name, route, peer, target_event, fields, f"{path}.{port_name}", sent))
        if inst.state is not None:
            rt.record(path)
            rt.records.append(dispatch.entered)
            for run in dispatch.states[inst.state].entry:
                run(rt, inst)
    return rt


def _endpoint(endpoint) -> tuple[str, str]:
    """A connector end as (suffix of the owner's path, port name)."""
    return ("" if endpoint.instance is None else f".{endpoint.instance.name}"), endpoint.port.name


def _build_dispatch(model: Model, comp: ComponentDef, path: str) -> Dispatch:
    """What every instance of ``comp`` starts from; ``path`` is the first
    instance's, which an ``E_INSTANTIATE`` names."""
    types = {p.name: p.type for p in comp.properties}
    actions: dict[str, Action] = {}
    for ev in comp.events:
        actions.setdefault(ev.name, _action(ev, types, model, comp.name))
    outgoing = [ev for ev in comp.events if ev.direction == EventDirection.OUTGOING]

    def executions(events: list[EventDef], inline: bool) -> tuple[Execution, ...]:
        return tuple(_execution(ev, actions[ev.name], types, outgoing, inline) for ev in events)

    states: dict[str, State] = {}
    machine = comp.state_machine
    for s in machine.states if machine is not None else ():
        if s.name not in states:
            transitions = tuple(_transition(t, model, comp.name) for t in machine.transitions if t.source is s)
            states[s.name] = State(
                transitions, executions(s.entry, False), executions(s.exit, False), executions(s.continuous, True)
            )
    sends = []
    for ev in outgoing:
        payload = ev.action.payload
        port_name = ev.port.name if ev.port is not None else "-"
        fields = _fields(payload, types)
        folds, constant = _folded_payload(actions[ev.name], fields)
        sends.append((port_name, ev.name, payload.name if payload is not None else None, fields, folds, constant))
    properties = {p.name: _initial_value(model, comp, p, path) for p in comp.properties}
    initial = machine.initial if machine is not None else None
    links = tuple((_endpoint(conn.a), _endpoint(conn.b)) for conn in comp.connectors)
    initial_name = initial.name if initial is not None else None
    entered = ("state_entered", initial_name) if initial is not None else None
    return Dispatch(states, actions, tuple(sends), _matching_incoming(comp), properties, initial_name, entered, links)


def _too_deep(model: Model, what: str, expr: Expr) -> CiotError:
    """E_INSTANTIATE at ``expr``, which ``what`` names, when compiling or
    rendering it ran out of Python stack: ``instantiate`` was called from code
    too deep for an expression within the parser's nesting limit."""
    message = f"{what}: expression nested too deeply for the Python stack left to instantiate"
    return CiotError.of("E_INSTANTIATE", message, model.locate(expr.span), model.source)


def _action(ev: EventDef, types: dict[str, PrimType], model: Model, comp_name: str) -> Action:
    act = ev.action
    sees_payload = act.kind != ActionKind.SEND_PAYLOAD
    fields = {}
    if sees_payload and ev.payload is not None and ev.payload is act.payload:
        fields = {f.name: f.type for f in ev.payload.fields}
    effects = []
    for e in act.effects:
        t = types.get(e.target)
        try:
            compiled = compile_expr(e.expr, model.locate, model.source)
        except RecursionError:
            what = f"effect expression in action {act.name!r} of component {comp_name!r}"
            raise _too_deep(model, what, e.expr) from None
        effects.append((e.target, t, compiled, _proves(t, e.expr, types, fields)))
    if all(proven and isinstance(e.expr, Literal) for e, (*_, proven) in zip(act.effects, effects)):
        # Each literal is the value it stores; of two with one target, the
        # dict keeps the first's place and the last's value, as a run does.
        fixed = ("action", act.name, act.kind, {e.target: e.expr.value for e in act.effects})
        return Action(act.name, act.kind, sees_payload, (), fixed)
    return Action(act.name, act.kind, sees_payload, tuple(effects), None)


def _folded_payload(action: Action, fields: Fields) -> tuple[bool, dict | None]:
    """Whether a send by ``action`` of a payload with ``fields`` always
    delivers one payload, and that payload. It does when the action is
    folded and sets each field, through a property whose type proves the
    field's fit: the payload is then what a snapshot right after the action
    reads. Without folded sends, perfbench's fleet op took 4.2–5.0% longer
    and its corpus op 8.2–8.5% (as ``guards._fused`` was measured)."""
    if action.kind != ActionKind.SEND_PAYLOAD or action.fixed is None:
        return False, None
    sets = action.fixed[3]
    if fields is None:
        return True, None
    if not all(proven and name in sets for name, _, proven in fields):
        return False, None
    return True, {name: sets[name] for name, _, _ in fields}


def _proves(t: PrimType | None, expr: Expr, properties: dict, fields: dict) -> bool:
    """Whether every value of ``expr`` fits ``t`` by the declared types alone."""
    if t is None:
        return False
    if isinstance(expr, Literal):
        return fit_value(t, expr.value) is expr.value
    if isinstance(expr, NameRef):
        return properties.get(expr.name) == t
    if isinstance(expr, PayloadFieldRef):
        return fields.get(expr.field) == t
    return t == PrimType.BOOL  # a comparison, not, and, or


def _fields(payload_def: PayloadDef | None, types: dict[str, PrimType]) -> Fields:
    if payload_def is None:
        return None
    return tuple((f.name, f.type, types.get(f.name) == f.type) for f in payload_def.fields)


def _execution(ev: EventDef, action: Action, types: dict, outgoing: list[EventDef], inline: bool) -> Execution:
    if ev.direction == EventDirection.OUTGOING:
        if action.kind != ActionKind.SEND_PAYLOAD:
            return lambda rt, inst: _run_action(rt, inst, action, None)
        k = outgoing.index(ev)

        def send(rt: RuntimeState, inst: InstanceState) -> None:
            _run_action(rt, inst, action, None)
            _send(rt, inst, inst.sends[k])

        return send
    fields = _fields(ev.payload, types)
    if inline:
        return lambda rt, inst: _run_action(rt, inst, action, _snapshot_payload(inst, fields))
    return lambda rt, inst: enqueue(rt, inst, ev, _snapshot_payload(inst, fields), inst.path)


def _transition(t: TransitionDef, model: Model, comp_name: str) -> Transition:
    label = f"{t.source.name}->{t.target.name}"
    guard_text = guard = None
    if t.guard is not None:
        try:
            guard_text = _quote(expr_to_text(t.guard))
            guard = compile_expr(t.guard, model.locate, model.source)
        except RecursionError:
            what = f"guard on transition {t.source.name} -> {t.target.name} of component {comp_name!r}"
            raise _too_deep(model, what, t.guard) from None
    return Transition(
        trigger=t.trigger,
        guard=guard,
        rejected=("guard_eval", label, guard_text, False),
        accepted=("guard_eval", label, guard_text, True),
        taken=("transition", t.source.name, t.target.name, t.trigger.name if t.trigger is not None else None),
        exited=("state_exited", t.source.name),
        entered=("state_entered", t.target.name),
        target=t.target.name,
    )


def _initial_value(model: Model, comp: ComponentDef, prop, path: str):
    value = fit_value(prop.type, model.overrides[prop.name]) if prop.name in model.overrides else None
    if value is None:
        value = fit_value(prop.type, prop.initial)
    if value is None:
        raise CiotError.of(
            "E_INSTANTIATE",
            f"property {prop.name!r} of {path} ({comp.name}) is {prop.type} "
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
    enqueue(rt, inst, event, values, "env")


def bind_internal(rt: RuntimeState, path: str, event_name: str) -> Callable[[dict | None], None]:
    """A function that queues a generic event onto one instance, as sensing
    hardware would, with the payload it is given, conformed as by ``inject``;
    the instance and the event are looked up once."""
    inst, event = _event_at(rt, path, event_name, EventDirection.GENERIC)
    what = f"event {event_name!r}"
    return lambda payload=None: enqueue(rt, inst, event, _conform_payload(event.payload, payload, what), "env")


def _event_at(rt: RuntimeState, path: str, name: str, direction: EventDirection) -> tuple[InstanceState, EventDef]:
    require_type(rt, RuntimeState, "runtime")
    require_type(path, str, "path")
    inst = rt.instances.get(path)
    if inst is None:
        raise CiotError.of("E_BAD_TARGET", f"no instance at path {path!r}")
    event = inst.component.event_named(name)
    if event is None or event.direction != direction:
        raise CiotError.of("E_BAD_TARGET", f"component {inst.component.name!r} has no {direction} event {name!r}")
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
        expected = "a finite float" if t == PrimType.FLOAT else t
        raise CiotError.of("E_TYPE", f"{what}: payload field {name!r} expects {expected}, got {describe_value(v)}")
    return value


def enqueue(rt: RuntimeState, inst: InstanceState, event: EventDef, values: dict | None, source: str) -> None:
    """Queue ``event`` onto ``inst`` with the payload ``values``, sent by
    ``source``. Nothing is checked: ``values`` must already fit the event's
    payload, and it is kept by reference."""
    if not inst.inbox:
        heappush(rt.ready, inst.index)
    inst.inbox.append((event, ("event_delivered", event.name, rt.eseq, source, values)))
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
    rt.record(inst.path)
    record = rt.records.append
    record(delivered)
    payload = delivered[4]
    dispatch = inst.dispatch
    _run_action(rt, inst, dispatch.actions[event.name], payload)
    if inst.state is None:
        return True
    states = dispatch.states
    transitions, _, exits, continuous = states[inst.state]
    fired = None
    for t in transitions:
        if t.trigger is not None and t.trigger is not event:
            continue
        if t.guard is not None:
            if not t.guard(inst.properties, payload if t.trigger is not None else None):
                record(t.rejected)
                continue
            record(t.accepted)
        fired = t
        break
    if fired is not None:
        record(fired.taken)
        for run in exits:
            run(rt, inst)
        record(fired.exited)
        inst.state = fired.target
        record(fired.entered)
        target = states[fired.target]
        for run in target.entry:
            run(rt, inst)
        continuous = target.continuous
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
    expected = t if isinstance(t, str) else "a declared primitive"
    message = f"{inst.path}: {what} expects {expected}, got {describe_value(value)}"
    raise CiotError.of("E_EVAL", message)


def _run_action(rt: RuntimeState, inst: InstanceState, action: Action, payload: dict | None) -> None:
    name, kind, sees_payload, effects, fixed = action
    if fixed is not None:
        inst.properties.update(fixed[3])
        rt.records.append(fixed)
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
    rt.records.append(("action", name, kind, assigned))


def _send(rt: RuntimeState, inst: InstanceState, send: tuple) -> None:
    port_name, event_name, route, peer, target_event, fields, source, sent = send
    if sent is not None:
        if target_event is not None:
            enqueue(rt, peer, target_event, sent[4], source)
        rt.records.append(sent)
        return
    values = _snapshot_payload(inst, fields)
    error = "E_NO_ROUTE"
    if target_event is not None:
        enqueue(rt, peer, target_event, values, source)
        error = None
    rt.records.append(("payload_sent", port_name, event_name, route, values, error))


def _matching_incoming(comp: ComponentDef) -> dict[tuple[str, str | None], EventDef]:
    """``comp``'s incoming events bound to a port, by (port name, payload name
    or None); of two with the same key the first declared is kept."""
    incoming: dict[tuple[str, str | None], EventDef] = {}
    for ev in comp.events:
        if ev.direction == EventDirection.INCOMING and ev.port is not None:
            incoming.setdefault((ev.port.name, ev.payload.name if ev.payload is not None else None), ev)
    return incoming

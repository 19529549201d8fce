"""Resolved model types.

A :class:`Model` is pure data: every name reference has been bound to the
defining object by the resolver, and nothing here mutates after resolution.
Each declaration's ``span`` is the ``(start, end)`` offsets of its syntax
tree node, and the model keeps the text's locator, so a ``SourceSpan`` is
built (:meth:`Model.locate`) only for a diagnostic. Spans and the locator
are excluded from equality, so two structurally identical models compare
equal regardless of where their text came from.
"""

from __future__ import annotations

from .diagnostics import CiotError, Locator, Offsets, Record, SourceSpan, require_type
from .guards import Expr, PrimType, describe_value, fit_value


# The model's fixed words, plain strings as ``PrimType``'s are.
class ComponentKind:
    IOT_ELEMENT = "IoTElement"
    BOARD = "Board"
    VIRTUAL_ENTITY = "VirtualEntity"


COMPONENT_KINDS = (ComponentKind.IOT_ELEMENT, ComponentKind.BOARD, ComponentKind.VIRTUAL_ENTITY)


class EventDirection:
    INCOMING = "incoming"
    OUTGOING = "outgoing"
    GENERIC = "generic"


class ActionKind:
    SEND_PAYLOAD = "SendPayload"
    RECEIVE_PAYLOAD = "ReceivePayload"
    GENERIC = "Generic"


# Model-text keyword of each action kind. A component kind and an event
# direction are their own keywords.
ACTION_KEYWORDS = {
    "send": ActionKind.SEND_PAYLOAD,
    "receive": ActionKind.RECEIVE_PAYLOAD,
    "generic": ActionKind.GENERIC,
}


class PayloadField(Record):
    """One field of a payload record: a primitive type or another payload."""

    __slots__ = ("name", "type", "span")

    def __init__(self, name: str, type: FieldType, span: Offsets | None = None) -> None:
        self.name = name
        self.type = type
        self.span = span

    def __eq__(self, other):  # a record type compares by name, see ``structurally_equal``
        if not isinstance(other, PayloadField):
            return NotImplemented
        return (self.name, _by_name(self.type)) == (other.name, _by_name(other.type))


class PayloadDef(Record):
    """A payload record type."""

    __slots__ = ("name", "fields", "span")

    def __init__(self, name: str, fields: list[PayloadField], span: Offsets | None = None) -> None:
        self.name = name
        self.fields = fields
        self.span = span


# A payload field is either primitive or another payload record. It is
# ``|``, not ``typing.Union``, so that no typing cache keeps this module alive.
FieldType = PrimType | PayloadDef


class Operation(Record):
    """An interface operation and the payload it carries."""

    __slots__ = ("name", "payload", "span")

    def __init__(self, name: str, payload: PayloadDef, span: Offsets | None = None) -> None:
        self.name = name
        self.payload = payload
        self.span = span


class InterfaceDef(Record):
    """An interface: its typed operations."""

    __slots__ = ("name", "operations", "span")

    def __init__(self, name: str, operations: list[Operation], span: Offsets | None = None) -> None:
        self.name = name
        self.operations = operations
        self.span = span


class PropertyDef(Record):
    """A component property with its type and declared initial value."""

    __slots__ = ("name", "type", "initial", "span")

    def __init__(
        self, name: str, type: PrimType, initial: int | float | bool | str, span: Offsets | None = None
    ) -> None:
        self.name = name
        self.type = type
        self.initial = initial
        self.span = span


class PortDef(Record):
    """A port with its provided and required interfaces."""

    __slots__ = ("name", "provided", "required", "span")

    def __init__(
        self, name: str, provided: list[InterfaceDef], required: list[InterfaceDef], span: Offsets | None = None
    ) -> None:
        self.name = name
        self.provided = provided
        self.required = required
        self.span = span

    def interfaces(self) -> list[InterfaceDef]:
        return [*self.provided, *self.required]


class InstanceDecl(Record):
    """A named instance of a component, at the root or inside a board."""

    __slots__ = ("name", "component", "span")

    def __init__(self, name: str, component: ComponentDef, span: Offsets | None = None) -> None:
        self.name = name
        self.component = component
        self.span = span

    def __eq__(self, other):  # the component compares by name, see ``structurally_equal``
        if not isinstance(other, InstanceDecl):
            return NotImplemented
        return (self.name, self.component.name) == (other.name, other.component.name)


class Endpoint(Record):
    """Connector end: a subcomponent's port, or (instance=None) the owner's own port."""

    __slots__ = ("instance", "port", "span")

    def __init__(self, instance: InstanceDecl | None, port: PortDef, span: Offsets | None = None) -> None:
        self.instance = instance
        self.port = port
        self.span = span

    def describe(self) -> str:
        owner = "self" if self.instance is None else self.instance.name
        return f"{owner}.{self.port.name}"


class Connector(Record):
    """A connector wiring two endpoints."""

    __slots__ = ("a", "b", "span")

    def __init__(self, a: Endpoint, b: Endpoint, span: Offsets | None = None) -> None:
        self.a = a
        self.b = b
        self.span = span


class Assignment(Record):
    """Effect item ``target := expr``; the target names an owner property."""

    __slots__ = ("target", "expr", "span")

    def __init__(self, target: str, expr: Expr, span: Offsets | None = None) -> None:
        self.target = target
        self.expr = expr
        self.span = span


class ActionDef(Record):
    """An action: its kind, port, payload and effects."""

    __slots__ = ("name", "kind", "payload", "port", "effects", "span")

    def __init__(
        self,
        name: str,
        kind: ActionKind,
        payload: PayloadDef | None,
        port: PortDef | None,
        effects: list[Assignment],
        span: Offsets | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.payload = payload
        self.port = port
        self.effects = effects
        self.span = span


class EventDef(Record):
    """An event: its direction, port, payload and the action it runs."""

    __slots__ = ("name", "direction", "port", "payload", "action", "span")

    def __init__(
        self,
        name: str,
        direction: EventDirection,
        port: PortDef | None,
        payload: PayloadDef | None,
        action: ActionDef,
        span: Offsets | None = None,
    ) -> None:
        self.name = name
        self.direction = direction
        self.port = port
        self.payload = payload
        self.action = action
        self.span = span


class StateDef(Record):
    """A state with the events of its entry, exit and continuous positions."""

    __slots__ = ("name", "is_initial", "entry", "exit", "continuous", "span")

    def __init__(
        self,
        name: str,
        is_initial: bool,
        entry: list[EventDef],
        exit: list[EventDef],
        continuous: list[EventDef],
        span: Offsets | None = None,
    ) -> None:
        self.name = name
        self.is_initial = is_initial
        self.entry = entry
        self.exit = exit
        self.continuous = continuous
        self.span = span


class TransitionDef(Record):
    """A transition: source, target, optional trigger and optional guard."""

    __slots__ = ("source", "target", "trigger", "guard", "span")

    def __init__(
        self,
        source: StateDef,
        target: StateDef,
        trigger: EventDef | None,
        guard: Expr | None,
        span: Offsets | None = None,
    ) -> None:
        self.source = source
        self.target = target
        self.trigger = trigger
        self.guard = guard
        self.span = span


class StateMachine(Record):
    """A component's flat state machine."""

    __slots__ = ("states", "transitions", "span")

    def __init__(
        self, states: list[StateDef], transitions: list[TransitionDef], span: Offsets | None = None
    ) -> None:
        self.states = states
        self.transitions = transitions
        self.span = span

    @property
    def initial(self) -> StateDef | None:
        for s in self.states:
            if s.is_initial:
                return s
        return None


class ComponentDef(Record):
    """A component with its members, bound to what they name."""

    __slots__ = (
        "name",
        "kind",
        "properties",
        "ports",
        "subcomponents",
        "connectors",
        "events",
        "actions",
        "state_machine",
        "span",
    )

    def __init__(
        self,
        name: str,
        kind: ComponentKind,
        properties: list[PropertyDef],
        ports: list[PortDef],
        subcomponents: list[InstanceDecl],
        connectors: list[Connector],
        events: list[EventDef],
        actions: list[ActionDef],
        state_machine: StateMachine | None,
        span: Offsets | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.properties = properties
        self.ports = ports
        self.subcomponents = subcomponents
        self.connectors = connectors
        self.events = events
        self.actions = actions
        self.state_machine = state_machine
        self.span = span

    def property_named(self, name: str) -> PropertyDef | None:
        for p in self.properties:
            if p.name == name:
                return p
        return None

    def event_named(self, name: str) -> EventDef | None:
        for e in self.events:
            if e.name == name:
                return e
        return None


class Model(Record):
    """A resolved model: its declarations, root instances and run overrides."""

    __slots__ = ("payloads", "interfaces", "components", "root_instances", "source", "locator", "overrides")
    _hidden = ("source", "locator", "overrides")

    def __init__(
        self,
        payloads: list[PayloadDef],
        interfaces: list[InterfaceDef],
        components: list[ComponentDef],
        root_instances: list[InstanceDecl],
        source: str | None = None,
        locator: Locator | None = None,
        overrides: dict[str, int | float | bool | str] | None = None,
    ) -> None:
        self.payloads = payloads
        self.interfaces = interfaces
        self.components = components
        self.root_instances = root_instances
        self.source = source
        self.locator = locator
        # A run input, not declared structure: property name -> initial value for ``instantiate``.
        self.overrides = {} if overrides is None else overrides

    def component_named(self, name: str) -> ComponentDef | None:
        for c in self.components:
            if c.name == name:
                return c
        return None

    def locate(self, span: Offsets | None) -> SourceSpan | None:
        """The ``SourceSpan`` of a declaration's ``span`` in the model's text
        (None for a declaration built without one, or a model without text)."""
        return None if span is None or self.locator is None else self.locator.span(*span)


def structurally_equal(a: Model, b: Model) -> bool:
    """Equality up to top-level declaration order.

    Payload, interface, and component declaration order carries no meaning, so
    both models are compared with those lists sorted by name. Order inside a
    component (transitions, entry events, subcomponents, ...) is semantic and
    compared as-is. Source spans never participate in equality.

    A subcomponent's component and a record field's payload compare by name,
    so each declaration is compared once, in its sorted list, however many
    paths reach it and however deep the chain.
    """
    require_type(a, Model, "model")
    require_type(b, Model, "model")
    return _normalized(a) == _normalized(b)


def _by_name(t: FieldType) -> str:
    return t.name if isinstance(t, PayloadDef) else t


def _normalized(m: Model) -> Model:
    return Model(
        sorted(m.payloads, key=lambda p: p.name),
        sorted(m.interfaces, key=lambda i: i.name),
        sorted(m.components, key=lambda c: c.name),
        m.root_instances,
    )


def instance_paths(model: Model) -> list[tuple[str, ComponentDef]]:
    """Depth-first (declaration order) list of (dotted path, component)."""
    out: list[tuple[str, ComponentDef]] = []
    stack = [(d.name, d.component) for d in reversed(model.root_instances)]
    while stack:
        path, comp = stack.pop()
        out.append((path, comp))
        stack.extend((f"{path}.{d.name}", d.component) for d in reversed(comp.subcomponents))
    return out


def with_property_initial(model: Model, prop_name: str, value: int | float | bool | str) -> Model:
    """``model`` with every matching property's initial value overridden.

    Matching means: a component declares a property with this name whose type
    the value fits (``guards.fit_value``: int widens to float, bool is not an
    int, floats are finite). The override is a run input, like ``source``:
    ``instantiate`` applies it, while equality, ``export_model`` and
    ``validate`` see the declared values. The result shares every declaration
    with ``model``, which is left untouched; raises E_DOMAIN when nothing
    matched.
    """
    require_type(model, Model, "model")
    props = (p for c in model.components for p in c.properties if p.name == prop_name)
    if all(fit_value(p.type, value) is None for p in props):
        message = f"no component declares a property named {prop_name!r} accepting {describe_value(value)}"
        raise CiotError.of("E_DOMAIN", message)
    overrides = {**model.overrides, prop_name: value}
    return Model(
        model.payloads, model.interfaces, model.components, model.root_instances, model.source, model.locator, overrides
    )

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

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Union

from .diagnostics import CiotError, Locator, Offsets, SourceSpan, require_type
from .guards import Expr, PrimType, describe_value, fit_value

__all__ = [
    "PrimType",
    "ComponentKind",
    "EventDirection",
    "ActionKind",
    "ACTION_KEYWORDS",
    "PayloadField",
    "PayloadDef",
    "Operation",
    "InterfaceDef",
    "PropertyDef",
    "PortDef",
    "InstanceDecl",
    "Endpoint",
    "Connector",
    "Assignment",
    "ActionDef",
    "EventDef",
    "StateDef",
    "TransitionDef",
    "StateMachine",
    "ComponentDef",
    "Model",
    "structurally_equal",
    "instance_paths",
    "with_property_initial",
]


class ComponentKind(Enum):
    IOT_ELEMENT = "IoTElement"
    BOARD = "Board"
    VIRTUAL_ENTITY = "VirtualEntity"


class EventDirection(Enum):
    INCOMING = "incoming"
    OUTGOING = "outgoing"
    GENERIC = "generic"


class ActionKind(Enum):
    SEND_PAYLOAD = "SendPayload"
    RECEIVE_PAYLOAD = "ReceivePayload"
    GENERIC = "Generic"


# Model-text keyword of each action kind. The other two enums' values are
# their keywords.
ACTION_KEYWORDS = {
    "send": ActionKind.SEND_PAYLOAD,
    "receive": ActionKind.RECEIVE_PAYLOAD,
    "generic": ActionKind.GENERIC,
}


# A payload field is either primitive or another payload record.
FieldType = Union[PrimType, "PayloadDef"]


@dataclass
class PayloadField:
    name: str
    type: FieldType
    span: Offsets | None = field(default=None, compare=False, repr=False)

    def __eq__(self, other):  # a record type compares by name, see ``structurally_equal``
        if not isinstance(other, PayloadField):
            return NotImplemented
        return (self.name, _by_name(self.type)) == (other.name, _by_name(other.type))


@dataclass
class PayloadDef:
    name: str
    fields: list[PayloadField]
    span: Offsets | None = field(default=None, compare=False, repr=False)


@dataclass
class Operation:
    name: str
    payload: PayloadDef
    span: Offsets | None = field(default=None, compare=False, repr=False)


@dataclass
class InterfaceDef:
    name: str
    operations: list[Operation]
    span: Offsets | None = field(default=None, compare=False, repr=False)


@dataclass
class PropertyDef:
    name: str
    type: PrimType
    initial: int | float | bool | str
    span: Offsets | None = field(default=None, compare=False, repr=False)


@dataclass
class PortDef:
    name: str
    provided: list[InterfaceDef]
    required: list[InterfaceDef]
    span: Offsets | None = field(default=None, compare=False, repr=False)

    def interfaces(self) -> list[InterfaceDef]:
        return [*self.provided, *self.required]


@dataclass
class InstanceDecl:
    name: str
    component: "ComponentDef"
    span: Offsets | None = field(default=None, compare=False, repr=False)

    def __eq__(self, other):  # the component compares by name, see ``structurally_equal``
        if not isinstance(other, InstanceDecl):
            return NotImplemented
        return (self.name, self.component.name) == (other.name, other.component.name)


@dataclass
class Endpoint:
    """Connector end: a subcomponent's port, or (instance=None) the owner's own port."""

    instance: InstanceDecl | None
    port: PortDef
    span: Offsets | None = field(default=None, compare=False, repr=False)

    def describe(self) -> str:
        owner = "self" if self.instance is None else self.instance.name
        return f"{owner}.{self.port.name}"


@dataclass
class Connector:
    a: Endpoint
    b: Endpoint
    span: Offsets | None = field(default=None, compare=False, repr=False)


@dataclass
class Assignment:
    """Effect item ``target := expr``; the target names an owner property."""

    target: str
    expr: Expr
    span: Offsets | None = field(default=None, compare=False, repr=False)


@dataclass
class ActionDef:
    name: str
    kind: ActionKind
    payload: PayloadDef | None
    port: PortDef | None
    effects: list[Assignment]
    span: Offsets | None = field(default=None, compare=False, repr=False)


@dataclass
class EventDef:
    name: str
    direction: EventDirection
    port: PortDef | None
    payload: PayloadDef | None
    action: ActionDef
    span: Offsets | None = field(default=None, compare=False, repr=False)


@dataclass
class StateDef:
    name: str
    is_initial: bool
    entry: list[EventDef]
    exit: list[EventDef]
    continuous: list[EventDef]
    span: Offsets | None = field(default=None, compare=False, repr=False)


@dataclass
class TransitionDef:
    source: StateDef
    target: StateDef
    trigger: EventDef | None
    guard: Expr | None
    span: Offsets | None = field(default=None, compare=False, repr=False)


@dataclass
class StateMachine:
    states: list[StateDef]
    transitions: list[TransitionDef]
    span: Offsets | None = field(default=None, compare=False, repr=False)

    @property
    def initial(self) -> StateDef | None:
        for s in self.states:
            if s.is_initial:
                return s
        return None

    def state_named(self, name: str) -> StateDef | None:
        for s in self.states:
            if s.name == name:
                return s
        return None


@dataclass
class ComponentDef:
    name: str
    kind: ComponentKind
    properties: list[PropertyDef]
    ports: list[PortDef]
    subcomponents: list[InstanceDecl]
    connectors: list[Connector]
    events: list[EventDef]
    actions: list[ActionDef]
    state_machine: StateMachine | None
    span: Offsets | None = field(default=None, compare=False, repr=False)

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


@dataclass
class Model:
    payloads: list[PayloadDef]
    interfaces: list[InterfaceDef]
    components: list[ComponentDef]
    root_instances: list[InstanceDecl]
    source: str | None = field(default=None, compare=False, repr=False)
    locator: Locator | None = field(default=None, compare=False, repr=False)
    # A run input, not declared structure: property name -> initial value for ``instantiate``.
    overrides: dict[str, int | float | bool | str] = field(default_factory=dict, compare=False, repr=False)

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


def _by_name(t: FieldType) -> PrimType | str:
    return t.name if isinstance(t, PayloadDef) else t


def _normalized(m: Model) -> Model:
    return replace(
        m,
        payloads=sorted(m.payloads, key=lambda p: p.name),
        interfaces=sorted(m.interfaces, key=lambda i: i.name),
        components=sorted(m.components, key=lambda c: c.name),
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
    return replace(model, overrides={**model.overrides, prop_name: value})

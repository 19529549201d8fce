"""Name resolution: raw syntax tree -> bound Model.

Collects every resolution problem (unknown references, duplicate names,
payload/composition cycles) before failing, so one run reports them all.
Guard and effect expressions are left as unresolved name trees; the validator
types them (rule R4). Metamodel objects keep their syntax tree node's
offsets, and the model keeps the tree's locator; a ``SourceSpan`` is built
here only for a diagnostic.

Each scope rule is stated once: ``unique`` keeps the first declaration of a
name, ``lookup`` binds a reference, and ``_check_acyclic`` walks the payload
and composition graphs.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from .diagnostics import CiotError, Diagnostic, Offsets, error
from .metamodel import (
    ActionDef,
    Assignment,
    ComponentDef,
    Connector,
    Endpoint,
    EventDef,
    InstanceDecl,
    InterfaceDef,
    Model,
    Operation,
    PayloadDef,
    PayloadField,
    PortDef,
    PropertyDef,
    StateDef,
    StateMachine,
    TransitionDef,
)
from .parser import (
    AstComponent,
    AstInstance,
    AstModel,
    Ref,
)

T = TypeVar("T")


def resolve(ast: AstModel) -> Model:
    """Bind all names; raises CiotError carrying every resolution diagnostic."""
    r = _Resolver(ast)
    model = r.run()
    if r.diagnostics:
        raise CiotError(r.diagnostics[0].rule, r.diagnostics)
    assert model is not None
    return model


class _Resolver:
    def __init__(self, ast: AstModel) -> None:
        self.ast = ast
        self.file = ast.file
        self.diagnostics: list[Diagnostic] = []
        self.payloads: dict[str, PayloadDef] = {}
        self.interfaces: dict[str, InterfaceDef] = {}
        self.components: dict[str, ComponentDef] = {}
        self.ports: dict[str, dict[str, PortDef]] = {}  # component name -> its ports by name

    def err(self, rule: str, message: str, span: Offsets) -> None:
        self.diagnostics.append(error(rule, message, self.ast.locator.span(*span), self.file))

    def unique(self, decls: Iterable[T], what: str, where: str = "") -> Iterator[T]:
        """Yield the first declaration of each name; report a later one as a
        duplicate when the caller's loop reaches it, so diagnostics keep
        source order."""
        seen: set[str] = set()
        for d in decls:
            ref = d.name
            name, span = ref if isinstance(ref, Ref) else (ref, d.name_span)
            if name in seen:
                self.err("E_DUPLICATE", f"duplicate {what} {name!r}{where}", span)
            else:
                seen.add(name)
                yield d

    def lookup(self, table: Mapping[str, T], ref: Ref | None, what: str, where: str = "") -> T | None:
        """The object ``ref`` names in ``table``, or None (reported unless ``ref`` is None)."""
        if ref is None:
            return None
        found = table.get(ref.name)
        if found is None:
            self.err("E_UNKNOWN_REF", f"unknown {what} {ref.name!r}{where}", ref.span)
        return found

    def run(self) -> Model | None:
        # Pass 1: register every top-level definition (shells only) so that
        # forward references work.
        payloads = [(p, PayloadDef(p.name.name, [], p.span)) for p in self.unique(self.ast.payloads, "payload")]
        interfaces = [(i, InterfaceDef(i.name.name, [], i.span)) for i in self.unique(self.ast.interfaces, "interface")]
        components = [
            (c, ComponentDef(c.name.name, c.kind, [], [], [], [], [], [], None, c.span))
            for c in self.unique(self.ast.components, "component")
        ]
        self.payloads = {d.name: d for _, d in payloads}
        self.interfaces = {d.name: d for _, d in interfaces}
        self.components = {d.name: d for _, d in components}

        # Pass 2: fill the first declaration of each name; payload fields,
        # then interfaces, then components.
        for p, target in payloads:
            for f in self.unique(p.fields, "field", f" in payload {p.name.name!r}"):
                ftype = f.type.prim or self.lookup(self.payloads, f.type.payload, "payload type")
                if ftype is not None:
                    target.fields.append(PayloadField(f.name, ftype, f.name_span))
        self._check_acyclic(
            self.payloads.values(),
            lambda p: [f.type for f in p.fields if isinstance(f.type, PayloadDef)],
            "payload {!r} is part of a recursive payload cycle",
        )

        for i, target in interfaces:
            for op in self.unique(i.operations, "operation", f" in interface {i.name.name!r}"):
                payload = self.lookup(self.payloads, op.payload, "payload")
                if payload is not None:
                    target.operations.append(Operation(op.name.name, payload, op.name.span))

        for c, target in components:
            self._fill_component(c, target)
        # Connectors wait until every component's ports exist; a composite
        # may be declared before the children it wires.
        for c, target in components:
            self._fill_connectors(c, target)
        self._check_acyclic(
            self.components.values(),
            lambda c: [d.component for d in c.subcomponents],
            "component {!r} is part of a composition cycle",
        )

        roots = self._instances(self.ast.instances, " in model")

        if self.diagnostics:
            return None
        return Model(
            payloads=list(self.payloads.values()),
            interfaces=list(self.interfaces.values()),
            components=list(self.components.values()),
            root_instances=roots,
            source=self.file,
            locator=self.ast.locator,
        )

    # -- component internals ----------------------------------------------

    def _instances(self, decls: list[AstInstance], where: str) -> list[InstanceDecl]:
        out: list[InstanceDecl] = []
        for d in self.unique(decls, "instance", where):
            comp = self.lookup(self.components, d.component, "component")
            if comp is not None:
                out.append(InstanceDecl(d.name.name, comp, d.span))
        return out

    def _fill_component(self, ast: AstComponent, comp: ComponentDef) -> None:
        where = f" in component {ast.name.name!r}"

        for prop in self.unique(ast.properties, "property", where):
            comp.properties.append(PropertyDef(prop.name, prop.type, prop.initial.value, prop.name_span))

        for port in self.unique(ast.ports, "port", where):
            provided = [self.lookup(self.interfaces, r, "interface") for r in port.provides]
            required = [self.lookup(self.interfaces, r, "interface") for r in port.requires]
            comp.ports.append(
                PortDef(
                    port.name.name,
                    [i for i in provided if i is not None],
                    [i for i in required if i is not None],
                    port.span,
                )
            )
        ports = self.ports[comp.name] = {p.name: p for p in comp.ports}

        comp.subcomponents.extend(self._instances(ast.instances, where))

        # Actions first: events reference them.
        for act in self.unique(ast.actions, "action", where):
            payload = self.lookup(self.payloads, act.payload, "payload")
            port = self.lookup(ports, act.port, "port", where)
            effects = [Assignment(e.target, e.expr, e.target_span) for e in act.effects]
            comp.actions.append(ActionDef(act.name.name, act.kind, payload, port, effects, act.span))

        actions = {a.name: a for a in comp.actions}
        for ev in self.unique(ast.events, "event", where):
            payload = self.lookup(self.payloads, ev.payload, "payload")
            port = self.lookup(ports, ev.port, "port", where)
            action = self.lookup(actions, ev.action, "action", where)
            if action is not None:
                comp.events.append(EventDef(ev.name.name, ev.direction, port, payload, action, ev.span))

        if ast.machine is not None:
            comp.state_machine = self._machine(ast, comp, where)

    def _fill_connectors(self, ast: AstComponent, comp: ComponentDef) -> None:
        children = {d.name: d for d in comp.subcomponents}
        for conn in ast.connectors:
            a = self._endpoint(conn.a, comp, children)
            b = self._endpoint(conn.b, comp, children)
            if a is not None and b is not None:
                comp.connectors.append(Connector(a, b, conn.span))

    def _endpoint(self, ast_ep, comp: ComponentDef, children: dict[str, InstanceDecl]) -> Endpoint | None:
        if ast_ep.instance is None:
            port = self.lookup(self.ports[comp.name], ast_ep.port, "port", " on 'self'")
            return None if port is None else Endpoint(None, port, ast_ep.span)
        inst = self.lookup(children, ast_ep.instance, "subcomponent instance", f" in component {comp.name!r}")
        if inst is None:
            return None
        port = self.ports[inst.component.name].get(ast_ep.port.name)
        if port is None:
            self.err(
                "E_UNKNOWN_REF",
                f"component {inst.component.name!r} has no port {ast_ep.port.name!r}",
                ast_ep.port.span,
            )
            return None
        return Endpoint(inst, port, ast_ep.span)

    def _machine(self, ast: AstComponent, comp: ComponentDef, where: str) -> StateMachine:
        assert ast.machine is not None
        events = {e.name: e for e in comp.events}

        def event_refs(refs: list[Ref]) -> list[EventDef]:
            found = [self.lookup(events, r, "event", where) for r in refs]
            return [e for e in found if e is not None]

        states = [
            StateDef(
                s.name.name,
                s.initial,
                event_refs(s.entry),
                event_refs(s.exit),
                event_refs(s.continuous),
                s.span,
            )
            for s in self.unique(ast.machine.states, "state", where)
        ]
        by_name = {s.name: s for s in states}
        transitions: list[TransitionDef] = []
        for t in ast.machine.transitions:
            source = self.lookup(by_name, t.source, "state")
            target = self.lookup(by_name, t.target, "state")
            trigger = self.lookup(events, t.trigger, "event")
            if source is not None and target is not None and (trigger is not None or t.trigger is None):
                transitions.append(TransitionDef(source, target, trigger, t.guard, t.span))
        return StateMachine(states, transitions, ast.machine.span)

    def _check_acyclic(self, nodes: Iterable, children: Callable[[T], list[T]], message: str) -> None:
        """Report, in depth-first order, each node reached again while it is
        still on the path; the walk keeps its own stack, so depth is unbounded."""
        visiting: set[str] = set()
        done: set[str] = set()
        for root in nodes:
            if root.name in done:
                continue
            visiting.add(root.name)
            stack = [(root, iter(children(root)))]
            while stack:
                node, kids = stack[-1]
                for kid in kids:
                    if kid.name in done:
                        continue
                    if kid.name in visiting:
                        self.err("E_CYCLE", message.format(kid.name), kid.span)
                        done.add(kid.name)
                        continue
                    visiting.add(kid.name)
                    stack.append((kid, iter(children(kid))))
                    break
                else:
                    stack.pop()
                    visiting.discard(node.name)
                    done.add(node.name)

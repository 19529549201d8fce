"""Model interchange (canonical text form) and DOT diagram export.

``export_model`` prints a resolved model back to source text in a canonical
shape: payloads, interfaces and components sorted by name, member order
inside each declaration preserved. Reading that text back with
``load_text(text, check=False)`` yields a model structurally equal to the
original, so the text form doubles as the interchange format.
"""

from __future__ import annotations

from .diagnostics import CiotError, require_type
from .engine import _quote
from .guards import expr_to_text, literal_text
from .metamodel import (
    ACTION_KEYWORDS,
    ActionDef,
    ComponentDef,
    EventDef,
    Model,
    PayloadDef,
    StateMachine,
)


def export_model(model: Model) -> str:
    require_type(model, Model, "model")
    out: list[str] = []
    for p in sorted(model.payloads, key=lambda d: d.name):
        out.append(_payload_text(p))
    for i in sorted(model.interfaces, key=lambda d: d.name):
        out.append(_interface_text(i))
    for c in sorted(model.components, key=lambda d: d.name):
        out.append(_component_text(c))
    roots = "".join(f"instance {d.name}: {d.component.name};\n" for d in model.root_instances)
    if roots:
        out.append(roots)
    return "\n".join(out)


def _payload_text(p: PayloadDef) -> str:
    lines = [f"payload {p.name} {{"]
    for f in p.fields:
        tname = f.type.name if isinstance(f.type, PayloadDef) else f.type
        lines.append(f"    {f.name}: {tname};")
    lines.append("}\n")
    return "\n".join(lines)


def _interface_text(i) -> str:
    lines = [f"interface {i.name} {{"]
    for op in i.operations:
        lines.append(f"    op {op.name}({op.payload.name});")
    lines.append("}\n")
    return "\n".join(lines)


def _component_text(c: ComponentDef) -> str:
    lines = [f"component {c.name} : {c.kind} {{"]
    sections: list[list[str]] = []
    if c.properties:
        sections.append(
            [f"    property {p.name}: {p.type} = {literal_text(p.initial)};" for p in c.properties]
        )
    if c.ports:
        sections.append([_port_line(p) for p in c.ports])
    if c.subcomponents:
        sections.append([f"    instance {d.name}: {d.component.name};" for d in c.subcomponents])
    if c.connectors:
        sections.append(
            [f"    connect {conn.a.describe()} -- {conn.b.describe()};" for conn in c.connectors]
        )
    if c.events:
        sections.append([_event_line(e) for e in c.events])
    if c.actions:
        sections.append(sum((_action_lines(a) for a in c.actions), []))
    if c.state_machine is not None:
        sections.append(_machine_lines(c.state_machine))
    for idx, section in enumerate(sections):
        if idx:
            lines.append("")
        lines.extend(section)
    lines.append("}\n")
    return "\n".join(lines)


def _port_line(p) -> str:
    parts = [f"    port {p.name}"]
    if p.provided:
        parts.append("provides " + ", ".join(i.name for i in p.provided))
    if p.required:
        parts.append("requires " + ", ".join(i.name for i in p.required))
    return " ".join(parts) + ";"


def _event_line(e: EventDef) -> str:
    parts = [f"    event {e.name} {e.direction}"]
    if e.port is not None:
        parts.append(f"port {e.port.name}")
    if e.payload is not None:
        parts.append(f"payload {e.payload.name}")
    parts.append(f"action {e.action.name};")
    return " ".join(parts)


def _action_lines(a: ActionDef) -> list[str]:
    keyword = next((word for word, kind in ACTION_KEYWORDS.items() if kind == a.kind), None)
    if keyword is None:
        raise CiotError.of("E_USAGE", f"action {a.name!r} has kind {a.kind!r}, which no keyword names")
    head = [f"    action {a.name} {keyword}"]
    if a.port is not None:
        head.append(f"port {a.port.name}")
    if a.payload is not None:
        head.append(f"payload {a.payload.name}")
    if not a.effects:
        return [" ".join(head) + ";"]
    lines = [" ".join(head) + " {"]
    for eff in a.effects:
        lines.append(f"        {eff.target} := {expr_to_text(eff.expr)};")
    lines.append("    }")
    return lines


def _machine_lines(m: StateMachine) -> list[str]:
    lines = ["    statemachine {"]
    for s in m.states:
        head = "initial state" if s.is_initial else "state"
        body: list[str] = []
        for kw, evs in (("entry", s.entry), ("exit", s.exit), ("continuous", s.continuous)):
            if evs:
                body.append(f"            {kw} {', '.join(e.name for e in evs)};")
        if body:
            lines.append(f"        {head} {s.name} {{")
            lines.extend(body)
            lines.append("        }")
        else:
            lines.append(f"        {head} {s.name} {{}}")
    for t in m.transitions:
        text = f"        transition {t.source.name} -> {t.target.name}"
        if t.trigger is not None:
            text += f" when {t.trigger.name}"
        if t.guard is not None:
            text += f" [{expr_to_text(t.guard)}]"
        lines.append(text + ";")
    lines.append("    }")
    return lines


def statemachine_to_dot(model: Model, component_name: str) -> str:
    require_type(model, Model, "model")
    comp = model.component_named(component_name)
    if comp is None:
        raise CiotError.of("E_UNKNOWN_REF", f"no component named {component_name!r}", None, model.source)
    machine = comp.state_machine
    if machine is None:
        raise CiotError.of("E_NO_MACHINE", f"component {component_name!r} has no state machine", None, model.source)
    lines = [f"digraph {_quote(comp.name)} {{", "    rankdir=LR;", "    node [shape=ellipse];"]
    for s in machine.states:
        attrs = " [peripheries=2]" if s.is_initial else ""
        lines.append(f"    {_quote(s.name)}{attrs};")
    for t in machine.transitions:
        label_parts = []
        if t.trigger is not None:
            label_parts.append(t.trigger.name)
        if t.guard is not None:
            label_parts.append(f"[{expr_to_text(t.guard)}]")
        label = f" [label={_quote(' '.join(label_parts))}]" if label_parts else ""
        lines.append(f"    {_quote(t.source.name)} -> {_quote(t.target.name)}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def structure_to_dot(model: Model, root: str) -> str:
    require_type(model, Model, "model")
    comp = model.component_named(root)
    if comp is None:
        raise CiotError.of("E_UNKNOWN_REF", f"no component named {root!r}", None, model.source)
    lines = ["digraph structure {", "    rankdir=LR;", "    node [shape=box];", "    edge [dir=none];"]
    # Explicit stack: an open entry writes a cluster's head and ports; its close
    # entry (label None) writes the connectors and brace after the subclusters.
    stack: list[tuple[ComponentDef, str | None, str, int]] = [(comp, comp.name, comp.name, 1)]
    while stack:
        c, label, path, depth = stack.pop()
        pad = "    " * depth
        if label is None:
            for conn in c.connectors:
                a = _endpoint_node(path, conn.a)
                b = _endpoint_node(path, conn.b)
                lines.append(f"{pad}    {_quote(a)} -> {_quote(b)};")
            lines.append(f"{pad}}}")
            continue
        lines.append(f"{pad}subgraph cluster_{path.replace('.', '_')} {{")
        lines.append(f"{pad}    label={_quote(label)};")
        for port in c.ports:
            lines.append(f"{pad}    {_quote(path + '.' + port.name)} [label={_quote(port.name)}];")
        stack.append((c, None, path, depth))
        for child in reversed(c.subcomponents):
            stack.append((child.component, f"{child.name}: {child.component.name}", f"{path}.{child.name}", depth + 1))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _endpoint_node(owner_path: str, ep) -> str:
    if ep.instance is None:
        return f"{owner_path}.{ep.port.name}"
    return f"{owner_path}.{ep.instance.name}.{ep.port.name}"

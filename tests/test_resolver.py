from __future__ import annotations

import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciot import load_file, load_text, structurally_equal
from ciot.cli import main
from ciot.diagnostics import CiotError, Severity
from ciot.guards import PrimType, expr_to_text
from ciot.loader import collect_diagnostics
from ciot.metamodel import ActionKind, ComponentKind, EventDirection, instance_paths
from ciot.parser import parse
from ciot.resolver import resolve

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def rules(text: str) -> list[str]:
    _, diags = collect_diagnostics(text)
    return [d.rule for d in diags if d.severity is Severity.ERROR]


def test_corpus_resolves_fully(parking_model):
    m = parking_model
    assert [c.name for c in m.components] == ["RedLED", "GreenLED", "UltrasonicSensor", "Node"]
    assert len(m.interfaces) == 6
    assert len(m.payloads) == 2
    assert [p for p, _ in instance_paths(m)] == ["node", "node.red", "node.green", "node.sensor"]


def _declarations(model):
    """Every metamodel object that has a span, with the word the text at the
    start of its span must be: its declaring keyword, or its name where the
    span is the name's (payload fields, operations, properties, effect
    targets and connector ends)."""
    for p in model.payloads:
        yield p, "payload"
        yield from ((f, f.name) for f in p.fields)
    for i in model.interfaces:
        yield i, "interface"
        yield from ((op, op.name) for op in i.operations)
    for c in model.components:
        yield c, "component"
        yield from ((p, p.name) for p in c.properties)
        yield from ((p, "port") for p in c.ports)
        yield from ((d, "instance") for d in c.subcomponents)
        for conn in c.connectors:
            yield conn, "connect"
            yield from ((ep, "self" if ep.instance is None else ep.instance.name) for ep in (conn.a, conn.b))
        for a in c.actions:
            yield a, "action"
            yield from ((e, e.target) for e in a.effects)
        yield from ((e, "event") for e in c.events)
        if c.state_machine is not None:
            yield c.state_machine, "statemachine"
            yield from ((s, "state") for s in c.state_machine.states)
            yield from ((t, "transition") for t in c.state_machine.transitions)
    yield from ((d, "instance") for d in model.root_instances)


@pytest.mark.parametrize(
    "relpath", ["parking_node.ciot", *sorted(f"mutations/{p.name}" for p in CORPUS_DIR.glob("mutations/*.ciot"))]
)
def test_metamodel_spans_start_at_their_declaration(relpath):
    """The span a diagnostic would carry for each metamodel object starts at
    its declaring keyword or name; the text is split into lines here, not
    through the model's locator."""
    path = CORPUS_DIR / relpath
    model = load_file(str(path), check=False)
    lines = path.read_text(encoding="utf-8").split("\n")
    kinds = set()
    for obj, word in _declarations(model):
        span = model.locate(obj.span)
        at = lines[span.line - 1][span.column - 1 :]
        assert re.match(rf"{word}\b", at), (type(obj).__name__, word, span, at)
        kinds.add(type(obj))
    assert len(kinds) == 16  # every metamodel type with a span


def test_corpus_has_three_distinct_machine_shapes(parking_model):
    def shape(comp):
        sm = comp.state_machine
        states = tuple((s.name, s.is_initial) for s in sm.states)
        transitions = tuple(
            (
                t.source.name,
                t.target.name,
                t.trigger.name if t.trigger else None,
                expr_to_text(t.guard) if t.guard else None,
            )
            for t in sm.transitions
        )
        return states, transitions

    shapes = {shape(c) for c in parking_model.components}
    assert len(shapes) == 3  # the two indicator machines coincide


def test_all_references_bound_by_identity(parking_model):
    node = parking_model.component_named("Node")
    sensor = parking_model.component_named("UltrasonicSensor")
    # the node's subcomponent declaration points at the same object
    assert node.subcomponents[2].component is sensor
    # connector endpoints reference the owner's and the child's port objects
    conn = node.connectors[0]
    assert conn.a.port is node.ports[0]
    assert conn.b.port is parking_model.component_named("RedLED").ports[0]
    # a transition trigger is the component's own event object
    evt = node.event_named("evtReading")
    assert any(t.trigger is evt for t in node.state_machine.transitions)


def test_model_keeps_the_parsers_properties_and_effects(parking_path):
    """The parser builds each ``PropertyDef`` and ``Assignment`` as the model
    keeps it; the resolver copies none."""
    ast = parse(pathlib.Path(parking_path).read_text(encoding="utf-8"))
    model = resolve(ast)

    def records(components):
        for c in components:
            yield from c.properties
            for a in c.actions:
                yield from a.effects

    parsed = list(records(ast.components))
    kept = list(records(model.components))
    assert {type(r).__name__ for r in kept} == {"PropertyDef", "Assignment"}
    assert len(kept) == len(parsed) > 10
    assert all(k is p for k, p in zip(kept, parsed))


def test_connectors_resolve_when_composite_precedes_child():
    # The composite appears first, so its children's ports exist only after
    # every component shell is filled; wiring must still bind.
    text = (
        "interface I { op f(P); }\n"
        "payload P { v: int; }\n"
        "component Outer : Board {\n"
        "    port pa requires I;\n"
        "    instance kid: Inner;\n"
        "    connect self.pa -- kid.pb;\n"
        "}\n"
        "component Inner : IoTElement { port pb provides I; }\n"
        "instance outer: Outer;\n"
    )
    m = load_text(text)
    outer = m.component_named("Outer")
    inner = m.component_named("Inner")
    assert len(outer.connectors) == 1
    assert outer.connectors[0].b.port is inner.ports[0]


def test_component_kinds():
    """Every fixed word the parser produces is its class constant, not an
    equal string: the parser's word maps give each word it accepts one
    object. The text is built at runtime, so that no word of it is an
    interned literal of this file."""
    text = "".join(
        [
            "payload P { i: int; f: float; b: bool; s: string; }\n",
            "interface I { op o(P); }\n",
            "component A : IoTElement {\n",
            "    property i: int = 1; property f: float = 1.5;\n",
            '    property b: bool = true; property s: string = "s";\n',
            "    port p provides I;\n",
            "    event ei incoming port p payload P action ar;\n",
            "    event eo outgoing port p payload P action as;\n",
            "    event eg generic action ag;\n",
            "    action ar receive port p payload P;\n",
            "    action as send port p payload P;\n",
            "    action ag generic;\n",
            "    statemachine { initial state S {}\n",
            '        transition S -> S [i == 2 and f < 2.5 and b == false and s != "t"]; }\n',
            "}\n",
            "component B : Board {}\n",
            "component V : VirtualEntity {}\n",
        ]
    )
    m = load_text(text, check=False)
    a = m.component_named("A")
    guard = a.state_machine.transitions[0].guard  # ((i == 2 and f < 2.5) and b == false) and s != "t"
    literals = [cmp.right for cmp in (guard.left.left.left, guard.left.left.right, guard.left.right, guard.right)]
    prims = [PrimType.INT, PrimType.FLOAT, PrimType.BOOL, PrimType.STRING]
    kinds = [ComponentKind.IOT_ELEMENT, ComponentKind.BOARD, ComponentKind.VIRTUAL_ENTITY]
    directions = [EventDirection.INCOMING, EventDirection.OUTGOING, EventDirection.GENERIC]
    actions = [ActionKind.RECEIVE_PAYLOAD, ActionKind.SEND_PAYLOAD, ActionKind.GENERIC]
    produced = {
        "component kinds": ([m.component_named(n).kind for n in "ABV"], kinds),
        "event directions": ([e.direction for e in a.events], directions),
        "action kinds": ([act.kind for act in a.actions], actions),
        "property types": ([p.type for p in a.properties], prims),
        "payload field types": ([f.type for f in m.payloads[0].fields], prims),
        "literal types": ([lit.type for lit in literals], prims),
    }
    for what, (words, constants) in produced.items():
        assert words == constants, what
        assert all(w is c for w, c in zip(words, constants)), what


def test_duplicate_names_flagged():
    assert "E_DUPLICATE" in rules("payload P { a: int; }\npayload P { b: int; }\n")
    assert "E_DUPLICATE" in rules("component C : Board {}\ncomponent C : Board {}\n")
    assert "E_DUPLICATE" in rules("component C : Board { property x: int = 0; property x: int = 1; }")
    assert "E_DUPLICATE" in rules(
        "interface I { op f(P); }\npayload P { v: int; }\n"
        "component C : Board { port p1 provides I; port p1 provides I; }"
    )


def test_unknown_references_flagged():
    assert "E_UNKNOWN_REF" in rules("component C : Board { port p1 provides Ghost; }")
    assert "E_UNKNOWN_REF" in rules("component C : Board { instance kid: Ghost; }")
    assert "E_UNKNOWN_REF" in rules("instance top: Ghost;")
    assert "E_UNKNOWN_REF" in rules(
        "component C : Board { event e generic action ghost; }"
    )
    assert "E_UNKNOWN_REF" in rules(
        "component C : Board { statemachine { initial state A {}\n transition A -> Ghost; } }"
    )
    assert "E_UNKNOWN_REF" in rules(
        "component C : Board { statemachine { initial state A { entry ghost; } } }"
    )


def test_unknown_payload_in_field():
    assert "E_UNKNOWN_REF" in rules("payload P { v: Ghost; }")


def test_composition_cycle_detected():
    text = (
        "component A : Board { instance b: B; }\n"
        "component B : Board { instance a: A; }\n"
    )
    assert "E_CYCLE" in rules(text)


def test_self_composition_cycle():
    assert "E_CYCLE" in rules("component A : Board { instance a: A; }")


def test_recursive_payload_cycle():
    text = "payload P { q: Q; }\npayload Q { p: P; }\n"
    assert "E_CYCLE" in rules(text)


def test_resolution_is_deterministic(parking_path):
    with open(parking_path, encoding="utf-8") as fh:
        source = fh.read()
    a = resolve(parse(source))
    b = resolve(parse(source))
    assert structurally_equal(a, b)


def test_resolver_error_raises_through_loader():
    with pytest.raises(CiotError) as exc:
        load_text("instance top: Ghost;")
    assert exc.value.code == "E_UNKNOWN_REF"


EVERY_SCOPE_ERROR = """\
payload P { v: int; v: float; w: Ghost; }
payload P { x: int; }
interface I { op f(P); op f(P); op g(Nope); }
interface I { op h(P); }
component Leaf : IoTElement { port q provides I; }
component C : Board {
    property x: int = 0;
    property x: int = 1;
    port p provides Missing;
    port p provides I;
    port r requires I;
    instance k: Leaf;
    instance k: Leaf;
    instance g: Phantom;
    connect self.nope -- k.q;
    connect ghost.q -- self.r;
    connect self.r -- k.zz;
    action a send port r payload P;
    action a generic;
    action b send port zz payload Q;
    event e incoming port p payload P action a;
    event e generic action a;
    event e2 generic action missing;
    statemachine {
        initial state S { entry e, nope; }
        state S {}
        transition S -> T when ghost;
    }
}
component C : Board {}
instance top: C;
instance top: C;
instance u: Unknown;
"""


def test_every_duplicate_and_unknown_reference_in_source_order():
    # Top-level duplicates first (pass 1), then each scope as it is filled;
    # connectors last. The first port 'p' names an unknown interface before
    # its duplicate is reached, and the two diagnostics keep that order.
    _, diags = collect_diagnostics(EVERY_SCOPE_ERROR, "m.ciot")
    assert [d.render() for d in diags] == [
        "m.ciot:2:9: error E_DUPLICATE duplicate payload 'P'",
        "m.ciot:4:11: error E_DUPLICATE duplicate interface 'I'",
        "m.ciot:30:11: error E_DUPLICATE duplicate component 'C'",
        "m.ciot:1:21: error E_DUPLICATE duplicate field 'v' in payload 'P'",
        "m.ciot:1:34: error E_UNKNOWN_REF unknown payload type 'Ghost'",
        "m.ciot:3:27: error E_DUPLICATE duplicate operation 'f' in interface 'I'",
        "m.ciot:3:38: error E_UNKNOWN_REF unknown payload 'Nope'",
        "m.ciot:8:14: error E_DUPLICATE duplicate property 'x' in component 'C'",
        "m.ciot:9:21: error E_UNKNOWN_REF unknown interface 'Missing'",
        "m.ciot:10:10: error E_DUPLICATE duplicate port 'p' in component 'C'",
        "m.ciot:13:14: error E_DUPLICATE duplicate instance 'k' in component 'C'",
        "m.ciot:14:17: error E_UNKNOWN_REF unknown component 'Phantom'",
        "m.ciot:19:12: error E_DUPLICATE duplicate action 'a' in component 'C'",
        "m.ciot:20:35: error E_UNKNOWN_REF unknown payload 'Q'",
        "m.ciot:20:24: error E_UNKNOWN_REF unknown port 'zz' in component 'C'",
        "m.ciot:22:11: error E_DUPLICATE duplicate event 'e' in component 'C'",
        "m.ciot:23:29: error E_UNKNOWN_REF unknown action 'missing' in component 'C'",
        "m.ciot:25:36: error E_UNKNOWN_REF unknown event 'nope' in component 'C'",
        "m.ciot:26:15: error E_DUPLICATE duplicate state 'S' in component 'C'",
        "m.ciot:27:25: error E_UNKNOWN_REF unknown state 'T'",
        "m.ciot:27:32: error E_UNKNOWN_REF unknown event 'ghost'",
        "m.ciot:15:18: error E_UNKNOWN_REF unknown port 'nope' on 'self'",
        "m.ciot:16:13: error E_UNKNOWN_REF unknown subcomponent instance 'ghost' in component 'C'",
        "m.ciot:17:25: error E_UNKNOWN_REF component 'Leaf' has no port 'zz'",
        "m.ciot:32:10: error E_DUPLICATE duplicate instance 'top' in model",
        "m.ciot:33:13: error E_UNKNOWN_REF unknown component 'Unknown'",
    ]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("payload P {}\npayload P { v: Ghost; w: P; }\n", [("E_DUPLICATE", 2)]),
        ("payload Q { v: int; }\ninterface I {}\ninterface I { op f(Nope); op f(Q); }\n", [("E_DUPLICATE", 3)]),
        (
            "payload Q { v: int; }\ninterface I { op f(Nope); }\ninterface I { op g(Gone); op h(Q); }\n",
            [("E_DUPLICATE", 3), ("E_UNKNOWN_REF", 2)],
        ),
    ],
)
def test_empty_first_declaration_is_not_filled_from_its_duplicate(text, expected):
    # Only the first declaration of a name is filled, even when it is empty
    # or none of its members resolve: the duplicate's members are neither
    # checked nor merged.
    _, diags = collect_diagnostics(text)
    assert [(d.rule, d.span.line) for d in diags] == expected


def _reference_cycles(order: list[int], edges: dict[int, list[int]]) -> list[int]:
    """Nodes reported by a recursive depth-first walk in declaration order:
    each node reached again while it is on the path, once."""
    visiting: set[int] = set()
    done: set[int] = set()
    out: list[int] = []

    def visit(n: int) -> None:
        if n in done:
            return
        if n in visiting:
            out.append(n)
            done.add(n)
            return
        visiting.add(n)
        for k in edges[n]:
            visit(k)
        visiting.discard(n)
        done.add(n)

    for n in order:
        visit(n)
    return out


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 8))
    edges = {i: draw(st.lists(st.integers(0, n - 1), max_size=3)) for i in range(n)}
    return draw(st.permutations(range(n))), edges


@settings(max_examples=100, deadline=None)
@given(graph=_graphs(), payloads=st.booleans())
def test_cycle_diagnostics_match_recursive_reference(graph, payloads):
    order, edges = graph
    if payloads:
        lines = [f"payload N{i} {{ {' '.join(f'f{j}: N{k};' for j, k in enumerate(edges[i]))} }}" for i in order]
        message = "payload 'N{}' is part of a recursive payload cycle"
    else:
        lines = [
            f"component N{i} : Board {{ {' '.join(f'instance c{j}: N{k};' for j, k in enumerate(edges[i]))} }}"
            for i in order
        ]
        message = "component 'N{}' is part of a composition cycle"
    _, diags = collect_diagnostics("\n".join(lines) + "\n")
    expected = [(message.format(i), order.index(i) + 1) for i in _reference_cycles(order, edges)]
    assert [(d.message, d.span.line) for d in diags if d.rule == "E_CYCLE"] == expected


def deep_chain(kind: str, depth: int = 3000) -> str:
    """``depth`` components each instancing the next, or payloads each holding the next."""
    if kind == "composition":
        links = [f"component C{i} : Board {{ instance next: C{i + 1}; }}\n" for i in range(depth - 1)]
        return "".join(links) + f"component C{depth - 1} : IoTElement {{}}\n"
    links = [f"payload P{i} {{ next: P{i + 1}; }}\n" for i in range(depth - 1)]
    return "".join(links) + f"payload P{depth - 1} {{ v: int; }}\n"


@pytest.mark.parametrize("kind", ["composition", "payload"])
def test_deep_chain_resolves_and_validates(kind, tmp_path, capsys):
    text = deep_chain(kind)
    model, diags = collect_diagnostics(text)
    assert model is not None
    assert diags == []
    path = tmp_path / "chain.ciot"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr() == ("errors=0 warnings=0\n", "")

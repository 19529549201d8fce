from __future__ import annotations

import re
import time
from pathlib import Path

import pytest

from ciot import load_text, structurally_equal
from ciot.diagnostics import CiotError
from ciot.export import export_model, statemachine_to_dot, structure_to_dot


def roundtrip(model):
    return load_text(export_model(model), check=False)


# --- canonical text interchange ------------------------------------------


def test_roundtrip_every_corpus_model(corpus_dir):
    paths = sorted(Path(corpus_dir).glob("*.ciot")) + sorted(
        (Path(corpus_dir) / "mutations").glob("*.ciot")
    )
    assert len(paths) >= 8
    for path in paths:
        from ciot.loader import load_file

        model = load_file(str(path), check=False)
        assert structurally_equal(model, roundtrip(model)), path.name


def test_canonical_text_is_a_fixpoint(parking_model):
    once = export_model(parking_model)
    assert export_model(load_text(once, check=False)) == once


def test_export_is_deterministic(parking_model):
    assert export_model(parking_model) == export_model(parking_model)


def test_export_sorts_declarations(parking_model):
    text = export_model(parking_model)
    comp_names = re.findall(r"^component (\w+)", text, re.M)
    assert comp_names == sorted(comp_names)
    payload_names = re.findall(r"^payload (\w+)", text, re.M)
    assert payload_names == sorted(payload_names)


def test_roundtrip_preserves_guards_and_entries(parking_model):
    again = roundtrip(parking_model)
    node = again.component_named("Node")
    sm = node.state_machine
    assert len(sm.transitions) == 6
    assert all(t.guard is not None for t in sm.transitions)
    vacant = next(s for s in sm.states if s.name == "RED_OFF_GREEN_ON")
    assert [e.name for e in vacant.entry] == ["evtRedLow", "evtGreenHigh"]


def test_empty_model_roundtrip():
    m = load_text("")
    assert export_model(m) == ""
    assert structurally_equal(m, roundtrip(m))


def test_interchange_read_rejects_bad_text():
    with pytest.raises(CiotError) as exc:
        load_text("component Broken {", check=False)
    assert exc.value.code == "E_PARSE"


# A float that ``repr`` writes with an exponent, as a property initial and in
# a guard: the lexer reads no exponent, so export writes them positionally.
EXPONENT_FLOATS = """component C : IoTElement {
    property x: float = 0.00001;

    statemachine {
        initial state A {}
        state B {}
        transition A -> B [x < 10000000000000000.0];
    }
}
"""


def test_exponent_floats_export_as_text_that_reads_back():
    model = load_text(EXPONENT_FLOATS, check=False)
    text = export_model(model)
    assert "= 0.00001;" in text and "[x < 10000000000000000.0]" in text
    again = load_text(text, check=False)
    assert structurally_equal(model, again)
    assert export_model(again) == text


def test_roundtrip_keeps_simulation_behavior(parking_model, arrive_depart_path):
    from ciot.sim import load_scenario_file, occupancy_timeline, simulate

    scenario = load_scenario_file(str(arrive_depart_path))
    t1 = occupancy_timeline(simulate(parking_model, scenario))
    t2 = occupancy_timeline(simulate(roundtrip(parking_model), scenario))
    assert t1 == t2


def chain(kind: str, depth: int, fanout: int) -> str:
    """``depth`` components each instancing the next ``fanout`` times, or
    payloads each holding the next in ``fanout`` fields."""
    if kind == "composition":
        links = [
            f"component C{i} : Board {{ {' '.join(f'instance c{j}: C{i + 1};' for j in range(fanout))} }}\n"
            for i in range(depth - 1)
        ]
        return "".join(links) + f"component C{depth - 1} : IoTElement {{}}\n"
    links = [f"payload P{i} {{ {' '.join(f'f{j}: P{i + 1};' for j in range(fanout))} }}\n" for i in range(depth - 1)]
    return "".join(links) + f"payload P{depth - 1} {{ v: int; }}\n"


@pytest.mark.parametrize("kind", ["composition", "payload"])
def test_structural_equality_compares_each_declaration_once(kind):
    """2**29 paths reach the last declaration; compared once per path, this
    would not finish."""
    model = load_text(chain(kind, 30, fanout=2), check=False)
    again = roundtrip(model)
    start = time.perf_counter()
    assert structurally_equal(model, again)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("kind", ["composition", "payload"])
def test_deep_chain_roundtrips_equal(kind):
    model = load_text(chain(kind, 3000, fanout=1), check=False)
    assert structurally_equal(model, roundtrip(model))


def test_structural_equality_sees_inside_referenced_declarations():
    comps = "component Leaf : IoTElement { property v: int = 0; }\ncomponent Top : Board { instance leaf: Leaf; }\n"
    assert not structurally_equal(load_text(comps), load_text(comps.replace("= 0", "= 1")))
    payloads = "payload Inner { v: int; }\npayload Outer { inner: Inner; }\n"
    assert not structurally_equal(load_text(payloads), load_text(payloads.replace("v: int", "v: float")))


def test_export_action_kind_without_keyword_is_a_usage_error(parking_model):
    (action,) = [a for a in parking_model.component_named("Node").actions if a.name == "actReading"]
    action.kind = "Teleport"
    with pytest.raises(CiotError) as exc:
        export_model(parking_model)
    assert exc.value.code == "E_USAGE"
    assert str(exc.value) == "action 'actReading' has kind 'Teleport', which no keyword names"


# --- state machine DOT ----------------------------------------------------


def dot_nodes(dot: str) -> list[str]:
    return re.findall(r'^    "([^"]+)"(?: \[peripheries=2\])?;$', dot, re.M)


def dot_edges(dot: str) -> list[tuple[str, str]]:
    return re.findall(r'^    "([^"]+)" -> "([^"]+)"', dot, re.M)


def test_statemachine_dot_counts(parking_model):
    for name, states, transitions in (
        ("RedLED", 2, 4),
        ("GreenLED", 2, 4),
        ("UltrasonicSensor", 2, 2),
        ("Node", 3, 6),
    ):
        dot = statemachine_to_dot(parking_model, name)
        assert len(dot_nodes(dot)) == states, name
        assert len(dot_edges(dot)) == transitions, name


def test_statemachine_dot_marks_initial_state(parking_model):
    dot = statemachine_to_dot(parking_model, "Node")
    assert '"ACQUISITION" [peripheries=2];' in dot
    assert '"RED_ON_GREEN_OFF";' in dot


def test_statemachine_dot_labels_trigger_and_guard(parking_model):
    dot = statemachine_to_dot(parking_model, "Node")
    assert 'label="evtReading [payload.duration >= threshold]"' in dot


def test_statemachine_dot_unknown_component(parking_model):
    with pytest.raises(CiotError) as exc:
        statemachine_to_dot(parking_model, "Ghost")
    assert exc.value.code == "E_UNKNOWN_REF"


def test_statemachine_dot_component_without_machine():
    m = load_text("component Bare : Board {}")
    with pytest.raises(CiotError) as exc:
        statemachine_to_dot(m, "Bare")
    assert exc.value.code == "E_NO_MACHINE"


def test_statemachine_dot_is_deterministic(parking_model):
    assert statemachine_to_dot(parking_model, "Node") == statemachine_to_dot(parking_model, "Node")


# --- structure DOT ---------------------------------------------------------


def test_structure_dot_for_node(parking_model):
    dot = structure_to_dot(parking_model, "Node")
    clusters = re.findall(r"subgraph (cluster_\w+)", dot)
    assert clusters == [
        "cluster_Node",
        "cluster_Node_red",
        "cluster_Node_green",
        "cluster_Node_sensor",
    ]
    edges = re.findall(r'"([\w.]+)" -> "([\w.]+)";', dot)
    assert edges == [
        ("Node.pRed", "Node.red.p1"),
        ("Node.pGreen", "Node.green.p1"),
        ("Node.pSense", "Node.sensor.p1"),
    ]


def test_structure_dot_for_leaf(parking_model):
    dot = structure_to_dot(parking_model, "RedLED")
    assert dot.count("subgraph") == 1
    assert "->" not in dot.replace("rankdir=LR", "")


def test_structure_dot_unknown_root(parking_model):
    with pytest.raises(CiotError) as exc:
        structure_to_dot(parking_model, "Ghost")
    assert exc.value.code == "E_UNKNOWN_REF"

from __future__ import annotations

import pathlib

import pytest

from ciot import load_file, load_text, structurally_equal
from ciot.diagnostics import Locator, Severity
from ciot.loader import collect_diagnostics, collect_diagnostics_file
from ciot.metamodel import Model
from ciot.validate import validate

BASE = (
    "payload P { v: int; }\n"
    "interface I { op f(P); }\n"
)


def diag_pairs(text: str) -> list[tuple[str, Severity]]:
    _, diags = collect_diagnostics(text)
    return [(d.rule, d.severity) for d in diags]


def errors_of(text: str) -> list[str]:
    return [r for r, sev in diag_pairs(text) if sev is Severity.ERROR]


def test_pristine_corpus_is_clean(parking_path):
    model, diags = collect_diagnostics_file(str(parking_path))
    assert model is not None
    assert diags == []


def test_clean_text_builds_no_source_span(parking_path, monkeypatch):
    text = pathlib.Path(parking_path).read_text(encoding="utf-8")
    calls = []
    span = Locator.span
    monkeypatch.setattr(Locator, "span", lambda *args: calls.append(args) or span(*args))
    assert collect_diagnostics(text)[1] == []
    assert calls == []


@pytest.mark.parametrize("name", ["r4_guard_type.ciot", "r6_unreachable_state.ciot"])
def test_model_without_text_has_diagnostics_without_lines(corpus_dir, name):
    model = load_file(str(corpus_dir / "mutations" / name), check=False)
    no_text = Model(model.payloads, model.interfaces, model.components, model.root_instances)
    expected = [(d.rule, d.severity, d.message) for d in validate(model)]
    assert [(d.rule, d.severity, d.message, d.span, d.file) for d in validate(no_text)] == [
        (*finding, None, None) for finding in expected
    ]


def test_r1_no_initial_state():
    text = "component C : Board { statemachine { state A {} } }"
    assert errors_of(text) == ["R1"]


def test_r1_multiple_initial_states():
    text = "component C : Board { statemachine { initial state A {} initial state B {} } }"
    assert errors_of(text) == ["R1"]


def test_r2_interface_both_provided_and_required():
    text = BASE + "component C : Board { port p1 provides I requires I; }"
    assert errors_of(text) == ["R2"]


def test_r2_required_interface_not_provided_by_peer():
    text = (
        BASE
        + "interface J { op g(P); }\n"
        + "component Kid : IoTElement { port pk provides J; }\n"
        + "component C : Board {\n"
        + "    port pc requires I;\n"
        + "    instance kid: Kid;\n"
        + "    connect self.pc -- kid.pk;\n"
        + "}\n"
    )
    assert errors_of(text) == ["R2"]


def test_r2_port_wired_twice():
    text = (
        BASE
        + "component Kid : IoTElement { port pk provides I; }\n"
        + "component C : Board {\n"
        + "    port pc requires I;\n"
        + "    port pd requires I;\n"
        + "    instance kid: Kid;\n"
        + "    connect self.pc -- kid.pk;\n"
        + "    connect self.pd -- kid.pk;\n"
        + "}\n"
    )
    assert errors_of(text) == ["R2"]


def test_r3_incoming_event_needs_receive_action():
    text = BASE + (
        "component C : Board {\n"
        "    port p1 provides I;\n"
        "    action a send port p1 payload P;\n"
        "    property v: int = 0;\n"
        "    event e incoming port p1 payload P action a;\n"
        "}\n"
    )
    assert "R3" in errors_of(text)


def test_r3_generic_event_must_not_name_port():
    text = BASE + (
        "component C : Board {\n"
        "    port p1 provides I;\n"
        "    action a generic;\n"
        "    event e generic port p1 action a;\n"
        "}\n"
    )
    assert errors_of(text) == ["R3"]


def test_r3_directed_event_needs_port():
    text = BASE + (
        "component C : Board {\n"
        "    action a receive payload P;\n"
        "    event e incoming payload P action a;\n"
        "}\n"
    )
    # both the event and its action lack the required port
    assert set(errors_of(text)) == {"R3"}


def test_r3_event_action_payload_mismatch():
    text = BASE + (
        "payload Q { w: int; }\n"
        "component C : Board {\n"
        "    port p1 provides I;\n"
        "    action a receive port p1 payload Q;\n"
        "    event e incoming port p1 payload P action a;\n"
        "}\n"
    )
    assert "R3" in errors_of(text)


def test_r3_incoming_event_cannot_sit_at_entry():
    text = BASE + (
        "component C : Board {\n"
        "    port p1 provides I;\n"
        "    action a receive port p1 payload P;\n"
        "    event e incoming port p1 payload P action a;\n"
        "    statemachine { initial state A { entry e; } }\n"
        "}\n"
    )
    assert errors_of(text) == ["R3"]


def test_r3_send_payload_needs_matching_properties():
    # outgoing records are built from same-named properties
    text = BASE + (
        "component C : Board {\n"
        "    port p1 requires I;\n"
        "    action a send port p1 payload P;\n"
        "    event e outgoing port p1 payload P action a;\n"
        "}\n"
    )
    assert errors_of(text) == ["R3"]


def test_r3_send_payload_property_type_must_match():
    text = BASE + (
        "component C : Board {\n"
        "    port p1 requires I;\n"
        "    property v: string = \"x\";\n"
        "    action a send port p1 payload P;\n"
        "    event e outgoing port p1 payload P action a;\n"
        "}\n"
    )
    assert errors_of(text) == ["R3"]


def test_r4_guard_must_be_bool():
    text = (
        "component C : Board {\n"
        "    property x: int = 0;\n"
        "    statemachine { initial state A {} state B {}\n"
        "        transition A -> B [(x)];\n"
        "    }\n"
        "}\n"
    )
    assert errors_of(text) == ["R4"]


def test_r4_triggerless_guard_cannot_read_payload():
    text = (
        "component C : Board {\n"
        "    statemachine { initial state A {} state B {}\n"
        "        transition A -> B [(payload.v == 1)];\n"
        "    }\n"
        "}\n"
    )
    assert errors_of(text) == ["R4"]


def test_r4_guard_with_trigger_sees_payload(parking_model):
    # the corpus node guards read payload.duration under a trigger; clean
    assert validate(parking_model) == []


def test_r4_effect_assigns_unknown_property():
    text = BASE + (
        "component C : Board {\n"
        "    port p1 provides I;\n"
        "    action a receive port p1 payload P { ghost := payload.v; }\n"
        "    event e incoming port p1 payload P action a;\n"
        "}\n"
    )
    assert errors_of(text) == ["R4"]


def test_r4_effect_type_mismatch():
    text = BASE + (
        "component C : Board {\n"
        "    port p1 provides I;\n"
        "    property flag: bool = false;\n"
        "    action a receive port p1 payload P { flag := payload.v; }\n"
        "    event e incoming port p1 payload P action a;\n"
        "}\n"
    )
    assert errors_of(text) == ["R4"]


def test_r4_int_widens_to_float_in_effect():
    text = BASE + (
        "component C : Board {\n"
        "    port p1 provides I;\n"
        "    property level: float = 0.0;\n"
        "    action a receive port p1 payload P { level := payload.v; }\n"
        "    event e incoming port p1 payload P action a;\n"
        "}\n"
    )
    assert errors_of(text) == []


def test_r4_property_initial_type_mismatch():
    assert errors_of("component C : Board { property x: int = 1.5; }") == ["R4"]
    assert errors_of("component C : Board { property x: int = true; }") == ["R4"]
    assert errors_of("component C : Board { property x: float = 3; }") == []


# Model text holds only known words, so the next three edit the parsed model.


def test_r3_unknown_event_direction_is_named(parking_model):
    parking_model.component_named("Node").event_named("evtReading").direction = "sideways"
    assert [(d.rule, d.message) for d in validate(parking_model)] == [
        ("R3", "event 'evtReading' has unknown direction 'sideways'"),
    ]


def test_r4_unknown_property_type_is_named(parking_model):
    parking_model.component_named("Node").property_named("state").type = "floaty"
    messages = [(d.rule, d.message) for d in validate(parking_model)]
    assert ("R4", "property 'state' of component 'Node' has unknown type 'floaty'") in messages
    assert not any("initial value" in message for _, message in messages)


def test_r4_unknown_payload_field_type_is_named(parking_model):
    (payload,) = [p for p in parking_model.payloads if p.name == "LedCommand"]
    payload.fields[0].type = "floaty"
    messages = [(d.rule, d.message) for d in validate(parking_model)]
    assert messages[0] == ("R4", "field 'state' of payload 'LedCommand' has unknown type 'floaty'")


def test_r5_unknown_component_kind_is_named(parking_model):
    node = parking_model.component_named("Node")
    node.kind = "Widget"
    found = [(d.rule, d.message, d.span) for d in validate(parking_model) if d.rule == "R5"]
    assert found == [("R5", "component 'Node' has unknown kind 'Widget'", parking_model.locate(node.span))]


def test_r5_iot_element_must_be_leaf():
    text = (
        "component Kid : IoTElement {}\n"
        "component C : IoTElement { instance kid: Kid; }\n"
    )
    assert errors_of(text) == ["R5"]


def test_r5_board_may_compose():
    text = (
        "component Kid : IoTElement {}\n"
        "component C : Board { instance kid: Kid; }\n"
    )
    assert errors_of(text) == []


def test_r6_unreachable_state_is_a_warning():
    text = (
        "component C : Board { statemachine {\n"
        "    initial state A {} state B {} state C {}\n"
        "    transition A -> B;\n"
        "} }"
    )
    pairs = diag_pairs(text)
    assert pairs == [("R6", Severity.WARNING)]


def test_r6_suppressed_while_r1_violated():
    text = (
        "component C : Board { statemachine {\n"
        "    state A {} state B {}\n"
        "} }"
    )
    # no initial state: report R1 alone, not a cascade of R6 warnings
    assert [r for r, _ in diag_pairs(text)] == ["R1"]


def test_r6_reachability_follows_transitions_transitively():
    text = (
        "component C : Board { statemachine {\n"
        "    initial state A {} state B {} state C {}\n"
        "    transition A -> B;\n"
        "    transition B -> C;\n"
        "} }"
    )
    assert diag_pairs(text) == []


def test_r7_incoming_payload_must_ride_port_interface():
    text = BASE + (
        "payload Q { w: int; }\n"
        "component C : Board {\n"
        "    port p1 provides I;\n"
        "    action a receive port p1 payload Q;\n"
        "    event e incoming port p1 payload Q action a;\n"
        "}\n"
    )
    assert "R7" in errors_of(text)


EVERY_REPORT_SITE = """\
payload P { v: int; }
payload Q { w: float; }
payload R { p: P; z: int; }
interface I { op f(P); }
interface J { op g(Q); }
component Kid : IoTElement {
    port pk provides J;
    port pb provides I requires I;
    instance inner: Leaf;
}
component Leaf : IoTElement { port q provides I; }
component C : Board {
    property v: float = 0.0;
    property w: int = 1.5;
    property flag: bool = true;
    property p: int = 0;
    port pc requires I;
    port pd requires I;
    port pe provides I;
    instance kid: Kid;
    instance leaf: Leaf;
    connect self.pc -- kid.pk;
    connect self.pd -- kid.pk;
    action recv receive port pe payload P { v := payload.v; nope := 1; flag := 3; w := ghost; }
    action snd send port pe payload Q;
    action gen generic port pe;
    action gen2 generic;
    action bare send;
    action rec send port pe payload R;
    event e1 incoming port pe payload P action snd;
    event e2 generic port pe action gen2;
    event e3 outgoing action snd;
    event e4 incoming port pe payload Q action recv;
    event e5 incoming port pd action recv;
    event e6 incoming port pe payload P action recv2;
    event e7 generic payload P action gen2;
    action recv2 receive port pc payload P;
    statemachine {
        initial state A { entry e1; exit e7; }
        state B {}
        state D { continuous e7; }
        transition A -> B when e1 [payload.v];
        transition B -> A [flag < 1];
        transition A -> A [w == "x"];
    }
}
component M : Board { statemachine { state X {} } }
component N : Board { statemachine { initial state X {} initial state Y {} } }
component S : Board {
    property v: string = "a";
    event g generic payload P action act;
    action act generic payload P;
    statemachine { initial state X { entry g; } state Y {} transition Y -> X; }
}
"""


def test_every_report_site_in_order():
    # One model reaching each R1-R7 report site of the validator: per
    # component, R2 ports, R2 connectors, R3/R7 events, R3 actions, R3
    # positioned events, R4 initials, R4 effects, R5, then the machine (R1,
    # R4 guards, R6). Rule, severity, message, span and file are all pinned.
    _, diags = collect_diagnostics(EVERY_REPORT_SITE, "v.ciot")
    assert [d.render() for d in diags] == [
        "v.ciot:8:5: error R2 interface 'I' appears in both provides and requires of port 'pb' on component 'Kid'",
        "v.ciot:6:1: error R5 IoTElement 'Kid' must be a leaf but declares subcomponents: inner",
        "v.ciot:22:5: error R2 connector self.pc -- kid.pk in component 'C': self.pc requires interface 'I'"
        " but kid.pk does not provide it",
        "v.ciot:23:5: error R2 port 'pk' of 'kid' is wired by more than one connector in component 'C'",
        "v.ciot:23:5: error R2 connector self.pd -- kid.pk in component 'C': self.pd requires interface 'I'"
        " but kid.pk does not provide it",
        "v.ciot:30:5: error R3 incoming event 'e1' must bind a ReceivePayload action, but 'snd' is SendPayload",
        "v.ciot:30:5: error R3 event 'e1' carries payload 'P' but its action 'snd' declares 'Q'",
        "v.ciot:31:5: error R3 generic event 'e2' must not name a port",
        "v.ciot:32:5: error R3 outgoing event 'e3' must name a port",
        "v.ciot:32:5: error R3 'snd' declares a payload type but 'e3' does not",
        "v.ciot:33:5: error R3 event 'e4' carries payload 'Q' but its action 'recv' declares 'P'",
        "v.ciot:33:5: error R7 incoming event 'e4' on port 'pe' of component 'C' expects payload 'Q', but no"
        " interface on that port carries it",
        "v.ciot:34:5: error R3 'recv' declares a payload type but 'e5' does not",
        "v.ciot:34:5: error R3 event 'e5' is bound to port 'pd' but its action 'recv' names port 'pe'",
        "v.ciot:35:5: error R3 event 'e6' is bound to port 'pe' but its action 'recv2' names port 'pc'",
        "v.ciot:36:5: error R3 'e7' declares a payload type but 'gen2' does not",
        "v.ciot:26:5: error R3 Generic action 'gen' must not name a port",
        "v.ciot:28:5: error R3 SendPayload action 'bare' must name a port",
        "v.ciot:28:5: error R3 SendPayload action 'bare' must declare a payload type",
        "v.ciot:29:5: error R3 SendPayload action 'rec': payload 'R' field 'p' is record-typed and cannot be"
        " built from a primitive property",
        "v.ciot:29:5: error R3 SendPayload action 'rec': payload 'R' field 'z' has no same-named property on"
        " component 'C' to read from",
        "v.ciot:30:5: error R3 incoming event 'e1' cannot be used in entry of state 'A'",
        "v.ciot:36:5: error R3 generic event 'e7' used in exit of state 'A': payload field 'v' is int but"
        " property 'v' is float",
        "v.ciot:36:5: error R3 generic event 'e7' used in continuous of state 'D': payload field 'v' is int"
        " but property 'v' is float",
        "v.ciot:14:14: error R4 property 'w' of component 'C' is int but its initial value is 1.5",
        "v.ciot:24:61: error R4 effect in action 'recv' assigns unknown property 'nope'",
        "v.ciot:24:72: error R4 effect in action 'recv' assigns int to bool property 'flag'",
        "v.ciot:24:88: error R4 effect expression in action 'recv' does not type-check: unknown property 'ghost'",
        "v.ciot:42:9: error R4 guard on transition A -> B of component 'C' must be bool, got int",
        "v.ciot:43:28: error R4 guard on transition B -> A of component 'C' does not type-check: '<' needs"
        " numeric operands, got bool and int",
        "v.ciot:44:28: error R4 guard on transition A -> A of component 'C' does not type-check: cannot"
        " compare int with string",
        "v.ciot:41:9: warning R6 state 'D' of component 'C' is unreachable from the initial state",
        "v.ciot:47:23: error R1 state machine of component 'M' has no initial state",
        "v.ciot:48:23: error R1 state machine of component 'N' has multiple initial states: X, Y",
        "v.ciot:51:5: error R3 generic event 'g' used in entry of state 'X': payload field 'v' is int but"
        " property 'v' is string",
        "v.ciot:53:49: warning R6 state 'Y' of component 'S' is unreachable from the initial state",
    ]


def test_mutation_corpus_matches_expected_table(corpus_dir):
    mut_dir = corpus_dir / "mutations"
    table = {}
    for line in (mut_dir / "expected_diagnostics.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, spec = line.split(None, 1)
        table[name] = [
            (rule, Severity(sev))
            for rule, sev in (item.strip().split(":") for item in spec.split(","))
        ]
    assert len(table) == 7
    for name, expected in sorted(table.items()):
        model, diags = collect_diagnostics_file(str(mut_dir / name))
        assert model is not None, name
        got = [(d.rule, d.severity) for d in diags]
        assert got == expected, name


def test_validate_is_idempotent_and_pure(parking_path):
    model = load_file(str(parking_path), check=False)
    first = validate(model)
    second = validate(model)
    assert [(d.rule, d.message, d.span) for d in first] == [
        (d.rule, d.message, d.span) for d in second
    ]
    assert structurally_equal(model, load_file(str(parking_path), check=False))


def test_load_text_check_raises_on_errors_only():
    from ciot.diagnostics import CiotError

    with pytest.raises(CiotError) as exc:
        load_text("component C : Board { statemachine { state A {} } }")
    assert exc.value.code == "R1"
    assert all(d.rule == "R1" for d in exc.value.diagnostics)
    # warnings alone do not block loading
    m = load_text(
        "component C : Board { statemachine { initial state A {} state B {} } }"
    )
    assert m.component_named("C") is not None

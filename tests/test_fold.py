"""Actions whose effects are all literals, and the sends they make, are
folded at ``instantiate``: the action's record, the payload and each
instance's payload_sent record are built once. Each model here runs beside
a twin in which every literal effect reads a property holding the same
value, so that nothing folds; the two rendered traces must be identical."""

from __future__ import annotations

import gc
import pathlib

import pytest

from ciot import bind_internal, inject, instantiate, load_text, run_to_quiescence, simulate
from ciot.guards import Literal, NameRef
from ciot.metamodel import PropertyDef
from ciot.sim import load_scenario
from ciot.trace import render_trace

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def unfolded(model):
    """``model`` with each literal effect replaced by a read of a new
    property of the literal's type and value, so the declared types prove
    every fit that they proved before but no effect is a literal."""
    k = 0
    for comp in model.components:
        for act in comp.actions:
            for effect in act.effects:
                if isinstance(effect.expr, Literal):
                    name = f"lit{k}"
                    k += 1
                    comp.properties.append(PropertyDef(name, effect.expr.type, effect.expr.value))
                    effect.expr = NameRef(name)
    assert k, "the model has no literal effect"
    return model


def run_twins(text: str, drive, edit=lambda model: None):
    """Run ``drive(rt)`` on the model of ``text`` and on its unfolded twin,
    each edited by ``edit`` first; both runtimes, after checking that their
    traces render identically and every instance ends with the same
    properties (the twin's extra ones left out)."""
    runs = []
    for twin in (False, True):
        model = load_text(text)
        edit(model)
        if twin:
            unfolded(model)
        rt = instantiate(model)
        drive(rt)
        runs.append(rt)
    rt, twin = runs
    assert render_trace(rt.trace) == render_trace(twin.trace)
    for path, inst in rt.instances.items():
        mine = inst.properties
        theirs = {k: v for k, v in twin.instances[path].properties.items() if not k.startswith("lit")}
        assert [(k, type(v), repr(v)) for k, v in mine.items()] == [(k, type(v), repr(v)) for k, v in theirs.items()]
    return rt, twin


def folded(rt, path: str, event: str) -> bool:
    return rt.instances[path].dispatch.actions[event].fixed is not None


def poke(*targets):
    """A driver that injects ``poke`` into each target in turn, running to
    quiescence after each."""

    def drive(rt):
        for path in targets:
            inject(rt, path, "pin", "poke", {"z": 0})
            run_to_quiescence(rt)

    return drive


def sender(body: str, payload: str = "P", extra: str = "") -> str:
    """A component S that, on ``poke``, enters a state whose entry sends
    ``out`` through port ``pout`` with the action body ``body``; wired to a
    receiver R unless ``extra`` says otherwise."""
    return (
        "payload P { a: string; n: int; }\n"
        "interface I { op f(P); }\n"
        "payload Q { z: int; }\n"
        "interface K { op k(Q); }\n"
        "component S : IoTElement {\n"
        '    property a: string = "none";\n'
        "    property n: int = 7;\n"
        "    property f: float = 0.5;\n"
        "    port pin provides K;\n"
        "    port pout requires I;\n"
        "    event poke incoming port pin payload Q action actPoke;\n"
        f"    event out outgoing port pout payload {payload} action actOut;\n"
        "    action actPoke receive port pin payload Q;\n"
        f"    action actOut send port pout payload {payload} {{ {body} }}\n"
        "    statemachine { initial state A {} state B { entry out; }\n"
        "        transition A -> B when poke; transition B -> B when poke;\n"
        "    }\n"
        "}\n"
        "component R : IoTElement {\n"
        "    property seen: string = \"\";\n"
        "    port pin provides I;\n"
        "    event got incoming port pin payload P action actGot;\n"
        "    action actGot receive port pin payload P { seen := payload.a; }\n"
        "}\n"
        "component Top : Board {\n"
        "    instance s: S;\n"
        "    instance r: R;\n"
        f"{extra or '    connect s.pout -- r.pin;'}\n"
        "}\n"
        "instance top: Top;\n"
    )


def test_duplicate_literal_targets_keep_the_first_place_and_the_last_value():
    text = sender('a := "x"; n := 1; a := "y";')
    rt, _ = run_twins(text, poke("top.s", "top.s"))
    assert folded(rt, "top.s", "out")
    assert rt.instances["top.s"].dispatch.actions["out"].fixed[3] == {"a": "y", "n": 1}
    lines = render_trace(rt.trace).splitlines()
    assert sum('set={a="y",n=1}' in line for line in lines) == 2
    assert sum('kind=payload_sent port=pout event=out to=top.r.pin payload={a="y",n=1}' in line for line in lines) == 2
    assert rt.instances["top.r"].properties["seen"] == "y"


def test_an_int_literal_into_a_float_property_is_not_folded_and_renders_widened():
    text = sender('f := 1; a := "x"; n := 2;')
    rt, _ = run_twins(text, poke("top.s"))
    assert not folded(rt, "top.s", "out")
    assert 'set={f=1.0,a="x",n=2}' in render_trace(rt.trace)
    assert type(rt.instances["top.s"].properties["f"]) is float


def test_a_negative_zero_literal_folds_and_keeps_its_sign():
    def edit(model):
        [effect] = model.component_named("S").event_named("out").action.effects
        effect.expr = Literal(-0.0, effect.expr.type)

    rt, _ = run_twins(sender("f := 0.0;"), poke("top.s"), edit)
    assert folded(rt, "top.s", "out")
    assert "set={f=-0.0}" in render_trace(rt.trace)
    assert repr(rt.instances["top.s"].properties["f"]) == "-0.0"


def test_a_send_of_a_field_its_action_does_not_set_is_not_folded():
    text = sender('a := "x";')
    rt, _ = run_twins(text, poke("top.s"))
    (send,) = rt.instances["top.s"].sends
    assert folded(rt, "top.s", "out") and send[-1] is None
    assert 'payload={a="x",n=7}' in render_trace(rt.trace)


def test_an_unrouted_folded_send_records_no_route_and_queues_nothing():
    text = sender('a := "x"; n := 1;', extra="    // s.pout is left unconnected")
    rt, _ = run_twins(text, poke("top.s", "top.s"))
    (send,) = rt.instances["top.s"].sends
    assert send[-1] == ("payload_sent", "pout", "out", None, {"a": "x", "n": 1}, "E_NO_ROUTE")
    sent = [line for line in render_trace(rt.trace).splitlines() if "kind=payload_sent" in line]
    assert len(sent) == 2 and all(line.endswith("to=- payload={a=\"x\",n=1} error=E_NO_ROUTE") for line in sent)
    assert not rt.instances["top.r"].inbox and rt.instances["top.r"].properties["seen"] == ""
    assert [r.instance for r in rt.trace if r.kind == "event_delivered"] == ["top.s", "top.s"]


def test_a_generic_entry_event_sends_the_properties_from_before_its_action():
    """The snapshot of a generic event queued at entry is taken before its
    action runs, so it is never the action's literals, even when the
    action folds."""
    text = (
        "payload P { v: int; }\n"
        "payload Q { z: int; }\n"
        "interface K { op k(Q); }\n"
        "component C : Board {\n"
        "    property v: int = 1;\n"
        "    port pin provides K;\n"
        "    event poke incoming port pin payload Q action actPoke;\n"
        "    event g generic payload P action actG;\n"
        "    action actPoke receive port pin payload Q;\n"
        "    action actG generic payload P { v := 5; }\n"
        "    statemachine { initial state A {} state B { entry g; }\n"
        "        transition A -> B when poke; transition B -> A [v == 5];\n"
        "    }\n"
        "}\n"
        "instance c: C;\n"
    )
    rt, _ = run_twins(text, poke("c", "c"))
    assert folded(rt, "c", "g")
    payloads = [r.detail["payload"] for r in rt.trace if r.kind == "event_delivered" and r.detail["event"] == "g"]
    assert payloads == ["{v=1}", "{v=5}"]


def test_two_instances_of_one_component_change_their_properties_apart():
    text = sender('a := "x"; n := 1;', extra=(
        "    instance s2: S;\n"
        "    instance r2: R;\n"
        "    connect s.pout -- r.pin;\n"
        "    connect s2.pout -- r2.pin;"
    ))

    def drive(rt):
        poke("top.s")(rt)
        s2 = rt.instances["top.s2"]
        assert (s2.properties["a"], s2.properties["n"]) == ("none", 7)
        s2.properties["n"] = 3
        poke("top.s2", "top.s2")(rt)

    rt, _ = run_twins(text, drive)
    s, s2 = rt.instances["top.s"], rt.instances["top.s2"]
    assert s.properties is not s2.properties and s.properties == s2.properties == {"a": "x", "n": 1, "f": 0.5}
    assert s.sends[0][-1] is not s2.sends[0][-1] and s.sends[0][-1][4] is s2.sends[0][-1][4]
    assert s.sends[0][-1][3] == ("top.r", "pin") and s2.sends[0][-1][3] == ("top.r2", "pin")
    assert [r.detail["from"] for r in rt.trace if r.kind == "event_delivered" and r.detail["event"] == "got"] == [
        "top.s.pout", "top.s2.pout", "top.s2.pout",
    ]


def test_the_corpus_model_folds_its_led_commands_and_traces_as_its_twin(parking_path):
    def drive(rt):
        read = bind_internal(rt, "node.sensor", "evtSense")
        for duration in (450.0, 20.0, 20.0, 450.0):
            read({"duration": duration})
            run_to_quiescence(rt)

    rt, _ = run_twins(pathlib.Path(parking_path).read_text(encoding="utf-8"), drive)
    node = rt.instances["node"]
    assert all(send[-1] is not None for send in node.sends)
    assert folded(rt, "node.sensor", "evtSend") and rt.instances["node.sensor"].sends[0][-1] is None


# --- allocation --------------------------------------------------------------


def fleet(nodes: int) -> tuple[str, str]:
    """The corpus model with ``nodes`` root Node instances, and a scenario
    in which each slot reads vacant, then occupied, then vacant again."""
    text = (CORPUS / "parking_node.ciot").read_text(encoding="utf-8")
    slots = [f"n{k}" for k in range(nodes)]
    text = text.replace("instance node: Node;", "\n".join(f"instance {slot}: Node;" for slot in slots))
    lines = ["mode=duration", "horizon_ms=400", "sample_period_ms=100"]
    for t, echo in ((0, 450.0), (100, 20.0), (300, 450.0)):
        lines += [f"at {t} slot {slot} echo {echo}" for slot in slots]
    return text, "\n".join(lines) + "\n"


def test_a_delivery_leaves_few_tracked_objects_and_a_folded_send_one_record():
    """With the collector off, ``gc.get_count()[0]`` counts the containers
    a run allocates, less those it frees: at most five per delivery, where
    a delivery that built its action, payload and head tuples afresh left
    about nine. A folded send appends its instance's one prebuilt
    payload_sent record every time."""
    text, scenario_text = fleet(40)
    model, scenario = load_text(text), load_scenario(scenario_text)
    simulate(model, scenario)  # warm every cache the first run fills
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        result = simulate(model, scenario)
        grown = gc.get_count()[0] - before
    finally:
        gc.enable()
    deliveries = sum(1 for r in result.trace if r.kind == "event_delivered")
    assert deliveries == 40 * 25
    assert grown / deliveries <= 5
    records = result.runtime.records
    sent = [r for r in records if r[0] == "payload_sent" and r[2] == "evtRedLow" and r[3] == ("n0.red", "p1")]
    assert len(sent) == 3 and sent[0] is sent[1] is sent[2]

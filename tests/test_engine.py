from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciot import collect_diagnostics, load_text
from ciot.diagnostics import CiotError
from ciot.engine import (
    _conform_payload,
    bind_internal,
    inject,
    instantiate,
    run_to_quiescence,
    step,
)
from ciot.export import export_model
from ciot.loader import load_file
from ciot.metamodel import ActionKind, Model, with_property_initial
from ciot.trace import FIELDS, render_trace

from genmodels import alphabet, generate

HIGH = {"state": "high"}
LOW = {"state": "low"}


def delivered(rt):
    return [(r.instance, r.detail["event"]) for r in rt.trace if r.kind == "event_delivered"]


def kinds_after(rt, start):
    return [r.kind for r in rt.trace[start:]]


def test_instantiate_enters_initial_states(parking_model):
    rt = instantiate(parking_model)
    assert rt.order == ["node", "node.red", "node.green", "node.sensor"]
    assert [rt.instances[p].state for p in rt.order] == ["ACQUISITION", "OFF", "OFF", "SENSE"]
    assert [(r.instance, r.kind, r.detail["state"]) for r in rt.trace] == [
        ("node", "state_entered", "ACQUISITION"),
        ("node.red", "state_entered", "OFF"),
        ("node.green", "state_entered", "OFF"),
        ("node.sensor", "state_entered", "SENSE"),
    ]
    assert rt.step_count == 0
    assert all(not rt.instances[p].inbox for p in rt.order)


def test_first_trace_line_format(parking_model):
    rt = instantiate(parking_model)
    assert render_trace(rt.trace).splitlines()[0] == "seq=0 t=0 inst=node kind=state_entered state=ACQUISITION"


def test_inject_queues_without_executing(parking_model):
    rt = instantiate(parking_model)
    before = len(rt.trace)
    inject(rt, "node.green", "p1", "evtCommand", HIGH)
    green = rt.instances["node.green"]
    assert len(green.inbox) == 1
    assert green.state == "OFF"
    assert len(rt.trace) == before  # nothing runs until step()


def test_single_step_record_order(parking_model):
    rt = instantiate(parking_model)
    inject(rt, "node.green", "p1", "evtCommand", HIGH)
    mark = len(rt.trace)
    assert step(rt) is True
    assert kinds_after(rt, mark) == [
        "event_delivered",
        "action",
        "guard_eval",
        "transition",
        "state_exited",
        "state_entered",
    ]
    ev, act, guard, trans, exited, entered = rt.trace[mark:]
    assert ev.detail == {"event": "evtCommand", "eseq": 0, "from": "env", "payload": '{state="high"}'}
    assert act.detail == {"action": "actReceiveCommand", "type": "ReceivePayload", "set": "-"}
    assert guard.detail == {
        "transition": "OFF->ON",
        "guard": '"payload.state == \\"high\\""',
        "result": "true",
    }
    assert trans.detail == {"from": "OFF", "to": "ON", "trigger": "evtCommand"}
    assert exited.detail == {"state": "OFF"}
    assert entered.detail == {"state": "ON"}
    assert rt.instances["node.green"].state == "ON"


def test_first_true_guard_wins_in_declaration_order(parking_model):
    rt = instantiate(parking_model)
    inject(rt, "node.green", "p1", "evtCommand", LOW)
    mark = len(rt.trace)
    step(rt)
    guards = [r for r in rt.trace[mark:] if r.kind == "guard_eval"]
    assert [(g.detail["transition"], g.detail["result"]) for g in guards] == [
        ("OFF->ON", "false"),
        ("OFF->OFF", "true"),
    ]


def test_self_transition_exits_and_reenters(parking_model):
    rt = instantiate(parking_model)
    inject(rt, "node.green", "p1", "evtCommand", LOW)
    mark = len(rt.trace)
    step(rt)
    tail = kinds_after(rt, mark)
    assert "state_exited" in tail and "state_entered" in tail
    assert rt.instances["node.green"].state == "OFF"


def test_reading_cascade_order_and_quiescence(parking_model):
    rt = instantiate(parking_model)
    bind_internal(rt, "node.sensor", "evtSense")({"duration": 450.0})
    assert run_to_quiescence(rt) == 5
    # generic entry events queue up; outgoing entry events send inline,
    # so the node and both indicators run before the sensor's hand-off
    assert delivered(rt) == [
        ("node.sensor", "evtSense"),
        ("node", "evtReading"),
        ("node.red", "evtCommand"),
        ("node.green", "evtCommand"),
        ("node.sensor", "evtDone"),
    ]
    assert rt.instances["node.sensor"].state == "SENSE"
    assert rt.instances["node.sensor"].properties["sent"] is True
    assert rt.instances["node"].state == "RED_OFF_GREEN_ON"
    assert rt.instances["node.red"].state == "OFF"
    assert rt.instances["node.green"].state == "ON"


def test_payload_sent_records_route_and_values(parking_model):
    rt = instantiate(parking_model)
    inject(rt, "node", "pSense", "evtReading", {"duration": 100.0})
    run_to_quiescence(rt)
    sends = [r for r in rt.trace if r.kind == "payload_sent"]
    assert [(s.instance, s.detail["port"], s.detail["to"], s.detail["payload"]) for s in sends] == [
        ("node", "pRed", "node.red.p1", '{state="high"}'),
        ("node", "pGreen", "node.green.p1", '{state="low"}'),
    ]
    assert all("error" not in s.detail for s in sends)


def test_eseq_fifo_per_instance(parking_model):
    rt = instantiate(parking_model)
    for d in (450.0, 100.0, 500.0):
        inject(rt, "node", "pSense", "evtReading", {"duration": d})
    run_to_quiescence(rt)
    seen: dict[str, list[int]] = {}
    for r in rt.trace:
        if r.kind == "event_delivered":
            seen.setdefault(r.instance, []).append(r.detail["eseq"])
    for inst, eseqs in seen.items():
        assert eseqs == sorted(eseqs), inst
    # and every queued event was eventually delivered exactly once
    all_eseqs = sorted(e for lst in seen.values() for e in lst)
    assert all_eseqs == list(range(rt.eseq))


def test_last_reading_wins(parking_model):
    rt = instantiate(parking_model)
    inject(rt, "node", "pSense", "evtReading", {"duration": 300.0})
    inject(rt, "node", "pSense", "evtReading", {"duration": 250.0})
    run_to_quiescence(rt)
    assert rt.instances["node"].state == "RED_ON_GREEN_OFF"
    assert rt.instances["node.red"].state == "ON"
    assert rt.instances["node.green"].state == "OFF"


def test_threshold_boundary_is_vacant(parking_model):
    rt = instantiate(parking_model)
    inject(rt, "node", "pSense", "evtReading", {"duration": 300.0})
    run_to_quiescence(rt)
    assert rt.instances["node.green"].state == "ON"
    assert rt.instances["node.red"].state == "OFF"


def test_empty_system_is_quiescent(parking_model):
    rt = instantiate(parking_model)
    assert run_to_quiescence(rt) == 0
    assert rt.step_count == 1  # the probe step that found nothing queued
    rt = instantiate(parking_model)
    assert run_to_quiescence(rt, max_steps=0) == 0
    assert rt.step_count == 0


def test_step_limit_reports_nonquiescence(parking_model):
    rt = instantiate(parking_model)
    for _ in range(4):
        inject(rt, "node", "pSense", "evtReading", {"duration": 10.0})
    mark = len(rt.trace)
    with pytest.raises(CiotError) as exc:
        run_to_quiescence(rt, max_steps=2)
    assert exc.value.code == "E_STEP_LIMIT"
    assert str(exc.value) == "model did not quiesce within 2 steps"
    assert rt.step_count == 2
    assert [r.instance for r in rt.trace[mark:] if r.kind == "event_delivered"] == ["node", "node"]
    assert len(rt.instances["node"].inbox) == 2


@pytest.mark.parametrize("max_steps", ["x", 2.5, -1, True, None], ids=["str", "float", "negative", "bool", "none"])
def test_run_to_quiescence_checks_max_steps(parking_model, max_steps):
    rt = instantiate(parking_model)
    inject(rt, "node", "pSense", "evtReading", {"duration": 10.0})
    with pytest.raises(CiotError) as exc:
        run_to_quiescence(rt, max_steps)
    assert exc.value.code == "E_DOMAIN"
    assert exc.value.diagnostics[0].message.startswith("max_steps must be a non-negative integer, got ")
    assert rt.step_count == 0 and len(rt.instances["node"].inbox) == 1  # nothing ran


@pytest.mark.parametrize("payload", [["duration"], 5, "abc", ("duration", 1.0)], ids=["list", "int", "str", "tuple"])
def test_payload_that_is_not_a_dict_is_a_type_error(parking_model, payload):
    rt = instantiate(parking_model)
    queue = [
        lambda: inject(rt, "node", "pSense", "evtReading", payload),
        lambda: bind_internal(rt, "node.sensor", "evtSense")(payload),
        lambda: bind_internal(rt, "node.sensor", "evtDone")(payload),  # an event with no payload
    ]
    for attempt in queue:
        with pytest.raises(CiotError) as exc:
            attempt()
        assert exc.value.code == "E_TYPE"
        message = exc.value.diagnostics[0].message
        assert "a payload is a dict of field values, got " in message and "unknown payload field" not in message
    assert not rt.ready


def test_inject_bad_path(parking_model):
    rt = instantiate(parking_model)
    with pytest.raises(CiotError) as exc:
        inject(rt, "node.ghost", "p1", "evtCommand", HIGH)
    assert exc.value.code == "E_BAD_TARGET"


def test_inject_non_incoming_event(parking_model):
    rt = instantiate(parking_model)
    with pytest.raises(CiotError) as exc:
        inject(rt, "node.sensor", "p1", "evtSend", {"duration": 1.0})
    assert exc.value.code == "E_BAD_TARGET"


def test_inject_wrong_port(parking_model):
    rt = instantiate(parking_model)
    with pytest.raises(CiotError) as exc:
        inject(rt, "node.green", "pXYZ", "evtCommand", HIGH)
    assert exc.value.code == "E_BAD_TARGET"


def test_inject_payload_type_errors(parking_model):
    rt = instantiate(parking_model)
    with pytest.raises(CiotError) as exc:
        inject(rt, "node.green", "p1", "evtCommand", {"state": 5})
    assert exc.value.code == "E_TYPE"
    with pytest.raises(CiotError) as exc:
        inject(rt, "node.green", "p1", "evtCommand", {"wrong": "high"})
    assert exc.value.code == "E_TYPE"
    with pytest.raises(CiotError) as exc:
        inject(rt, "node.green", "p1", "evtCommand", None)
    assert exc.value.code == "E_TYPE"
    with pytest.raises(CiotError) as exc:
        inject(rt, "node.green", "p1", "evtCommand", {"state": "high", "extra": 1})
    assert exc.value.code == "E_TYPE"
    # nothing was queued by the failed attempts
    assert not rt.instances["node.green"].inbox


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_inject_rejects_non_finite_float(parking_model, value):
    rt = instantiate(parking_model)
    with pytest.raises(CiotError) as exc:
        inject(rt, "node", "pSense", "evtReading", {"duration": value})
    assert exc.value.code == "E_TYPE"
    assert "expects a finite float" in exc.value.diagnostics[0].message
    assert not rt.instances["node"].inbox


def test_inject_rejects_int_beyond_float_range(parking_model):
    rt = instantiate(parking_model)
    with pytest.raises(CiotError) as exc:
        inject(rt, "node", "pSense", "evtReading", {"duration": 10**400 - 1})
    assert exc.value.code == "E_TYPE"
    assert "expects a finite float, got an int of 1329 bits" in exc.value.diagnostics[0].message
    assert not rt.ready and not rt.instances["node"].inbox


def test_bind_internal_rejects_non_generic(parking_model):
    rt = instantiate(parking_model)
    with pytest.raises(CiotError) as exc:
        bind_internal(rt, "node", "evtReading")
    assert exc.value.code == "E_BAD_TARGET"


def test_unwired_port_drops_payload_with_no_route():
    text = (
        "payload P { v: int; }\n"
        "interface I { op f(P); }\n"
        "component C : Board {\n"
        "    property v: int = 7;\n"
        "    port p1 requires I;\n"
        "    event out1 outgoing port p1 payload P action actSend;\n"
        "    action actSend send port p1 payload P;\n"
        "    statemachine { initial state A { entry out1; } }\n"
        "}\n"
        "instance c: C;\n"
    )
    rt = instantiate(load_text(text))
    sends = [r for r in rt.trace if r.kind == "payload_sent"]
    assert len(sends) == 1
    assert sends[0].detail["to"] == "-"
    assert sends[0].detail["error"] == "E_NO_ROUTE"
    assert sends[0].detail["payload"] == "{v=7}"
    # the drop is recorded, not raised, and nothing is queued anywhere
    assert run_to_quiescence(rt) == 0


def test_wired_port_without_matching_incoming_event_drops_payload():
    text = (
        "payload P { v: int; }\n"
        "payload Q { w: int; }\n"
        "interface I { op f(P); }\n"
        "interface J { op g(Q); }\n"
        "component A : IoTElement {\n"
        "    property v: int = 7;\n"
        "    port p requires I;\n"
        "    event out1 outgoing port p payload P action actSend;\n"
        "    action actSend send port p payload P;\n"
        "    statemachine { initial state S { entry out1; } }\n"
        "}\n"
        "component B : IoTElement {\n"
        "    port q provides I, J;\n"
        "    event inQ incoming port q payload Q action actQ;\n"
        "    action actQ receive port q payload Q;\n"
        "}\n"
        "component Top : Board {\n"
        "    instance a: A;\n"
        "    instance b: B;\n"
        "    connect a.p -- b.q;\n"
        "}\n"
        "instance top: Top;\n"
    )
    model, diags = collect_diagnostics(text)
    assert diags == []
    rt = instantiate(model)
    assert render_trace(rt.trace[-1:]) == (
        f"seq={rt.trace[-1].seq} t=0 inst=top.a kind=payload_sent "
        "port=p event=out1 to=top.b.q payload={v=7} error=E_NO_ROUTE\n"
    )
    assert not rt.ready and all(not inst.inbox for inst in rt.instances.values())


def test_continuous_event_runs_each_step_not_at_instantiate():
    text = (
        "payload P { v: int; }\n"
        "interface I { op f(P); }\n"
        "component C : Board {\n"
        "    property hit: bool = false;\n"
        "    port p1 provides I;\n"
        "    event ping incoming port p1 payload P action actPing;\n"
        "    event mark generic action actMark;\n"
        "    action actPing receive port p1 payload P;\n"
        "    action actMark generic { hit := true; }\n"
        "    statemachine { initial state A { continuous mark; } }\n"
        "}\n"
        "instance c: C;\n"
    )
    rt = instantiate(load_text(text))
    inst = rt.instances["c"]
    assert inst.properties["hit"] is False  # instantiate runs entry only
    inject(rt, "c", "p1", "ping", {"v": 1})
    step(rt)
    assert inst.properties["hit"] is True
    inst.properties["hit"] = False
    inject(rt, "c", "p1", "ping", {"v": 2})
    step(rt)
    assert inst.properties["hit"] is True  # again at the end of every step


def test_component_without_machine_still_runs_actions():
    text = (
        "payload P { v: int; }\n"
        "interface I { op f(P); }\n"
        "component C : Board {\n"
        "    property v: int = 0;\n"
        "    port p1 provides I;\n"
        "    event ping incoming port p1 payload P action actPing;\n"
        "    action actPing receive port p1 payload P { v := payload.v; }\n"
        "}\n"
        "instance c: C;\n"
    )
    rt = instantiate(load_text(text))
    assert rt.instances["c"].state is None
    assert rt.trace == []  # no machine, no state_entered records
    inject(rt, "c", "p1", "ping", {"v": 42})
    run_to_quiescence(rt)
    assert rt.instances["c"].properties["v"] == 42
    assert [r.kind for r in rt.trace] == ["event_delivered", "action"]


def test_two_roots_of_same_component_are_independent():
    text = (
        "payload P { v: int; }\n"
        "interface I { op f(P); }\n"
        "component C : Board {\n"
        "    port p1 provides I;\n"
        "    event ping incoming port p1 payload P action actPing;\n"
        "    action actPing receive port p1 payload P;\n"
        "    statemachine { initial state A {} state B {}\n"
        "        transition A -> B when ping;\n"
        "    }\n"
        "}\n"
        "instance one: C;\n"
        "instance two: C;\n"
    )
    rt = instantiate(load_text(text))
    assert rt.order == ["one", "two"]
    inject(rt, "one", "p1", "ping", {"v": 1})
    run_to_quiescence(rt)
    assert rt.instances["one"].state == "B"
    assert rt.instances["two"].state == "A"


def test_initial_int_widens_for_float_property():
    m = load_text("component C : Board { property x: float = 3; }\ninstance c: C;")
    rt = instantiate(m)
    x = rt.instances["c"].properties["x"]
    assert isinstance(x, float) and x == 3.0


def test_bad_initial_raises_at_instantiate():
    m = load_text('component C : Board { property x: float = "oops"; }\ninstance c: C;', check=False)
    with pytest.raises(CiotError) as exc:
        instantiate(m)
    assert exc.value.code == "E_INSTANTIATE"
    # The span is the property name's, built from the model's text when the error is made.
    assert [d.span for d in exc.value.diagnostics] == [(1, 32, 1, 32)]


def test_bad_initial_of_a_model_without_text_has_no_line():
    m = load_text('component C : Board { property x: float = "oops"; }\ninstance c: C;', check=False)
    with pytest.raises(CiotError) as exc:
        instantiate(Model(m.payloads, m.interfaces, m.components, m.root_instances))
    assert exc.value.code == "E_INSTANTIATE"
    assert [d.render() for d in exc.value.diagnostics] == [
        "<input>: error E_INSTANTIATE property 'x' of c (C) is float but its initial value is \"oops\""
    ]


def test_bad_initial_names_the_model_file(tmp_path):
    path = tmp_path / "bad.ciot"
    path.write_text('component C : Board { property x: float = "oops"; }\ninstance c: C;', encoding="utf-8")
    with pytest.raises(CiotError) as exc:
        instantiate(load_file(str(path), check=False))
    assert [d.render() for d in exc.value.diagnostics] == [
        f"{path}:1:32: error E_INSTANTIATE property 'x' of c (C) is float but its initial value is \"oops\""
    ]


def test_bad_initial_names_the_first_instance_in_depth_first_order():
    m = load_text(
        'component Leaf : Board { property x: float = "oops"; }\n'
        'component Other : Board { property y: int = "no"; }\n'
        "component Pair : Board { instance one: Leaf; instance two: Leaf; }\n"
        "instance b: Pair;\ninstance a: Leaf;\ninstance o: Other;\n",
        check=False,
    )
    with pytest.raises(CiotError) as exc:
        instantiate(m)
    assert [d.message for d in exc.value.diagnostics] == [
        "property 'x' of b.one (Leaf) is float but its initial value is \"oops\""
    ]


def test_instances_of_one_component_own_their_properties(fresh_runtime):
    rt, again = fresh_runtime(("a", "b")), fresh_runtime(("a", "b"))
    paths = [p for p in rt.order if rt.instances[p].properties]
    dicts = [rt.instances[p].properties for p in paths] + [again.instances[p].properties for p in paths]
    assert len({id(d) for d in dicts}) == len(dicts) == 8
    bind_internal(rt, "a.sensor", "evtSense")({"duration": 5.0})
    run_to_quiescence(rt)
    assert rt.instances["a.sensor"].properties["duration"] == 5.0
    assert rt.instances["b.sensor"].properties["duration"] == 0.0
    assert again.instances["a.sensor"].properties["duration"] == 0.0


_READS_A_MISSING_NAME = (
    "payload P { v: int; } interface I { op f(P); }\n"
    "component C : Board {\n"
    "    property v: int = 0;\n"
    "    port p1 provides I;\n"
    "    event e incoming port p1 payload P action act;\n"
    "    action act receive port p1 payload P EFFECT\n"
    "    statemachine { initial state A {} state B {}\n"
    "        transition A -> B when e [GUARD];\n"
    "    }\n"
    "}\n"
    "instance c: C;\n"
)
_MISSING_NAME_CASES = [
    (";", "ghost > 1", ":8:35", "unknown property 'ghost' at evaluation"),
    ("{ v := payload.gone; }", "true", ":6:49", "payload field 'gone' absent at evaluation"),
]


def _eval_error(model):
    rt = instantiate(model)
    inject(rt, "c", "p1", "e", {"v": 1})
    with pytest.raises(CiotError) as exc:
        run_to_quiescence(rt)
    assert exc.value.code == "E_EVAL"
    [diag] = exc.value.diagnostics
    return diag


@pytest.mark.parametrize("effect, guard, at, message", _MISSING_NAME_CASES, ids=["guard", "effect"])
def test_eval_error_of_an_unchecked_model_is_at_the_name(effect, guard, at, message):
    # R4 rejects both reads; check=False lets them reach the engine.
    m = load_text(_READS_A_MISSING_NAME.replace("EFFECT", effect).replace("GUARD", guard), check=False)
    assert _eval_error(m).render() == f"<input>{at}: error E_EVAL {message}"


@pytest.mark.parametrize("effect, guard, at, message", _MISSING_NAME_CASES, ids=["guard", "effect"])
def test_eval_error_of_a_model_without_text_has_no_line(effect, guard, at, message):
    m = load_text(_READS_A_MISSING_NAME.replace("EFFECT", effect).replace("GUARD", guard), check=False)
    diag = _eval_error(Model(m.payloads, m.interfaces, m.components, m.root_instances))
    assert diag.render() == f"<input>: error E_EVAL {message}"


def test_built_payload_beyond_float_range_is_eval_error():
    # validates clean: the float field is built from the int property of the same name
    m = load_text(
        "payload P { n: float; }\n"
        "component C : Board {\n"
        f"    property n: int = {10**400};\n"
        "    event e generic payload P action a;\n"
        "    action a generic payload P;\n"
        "    statemachine { initial state S { entry e; } }\n"
        "}\n"
        "instance c: C;\n"
    )
    with pytest.raises(CiotError) as exc:
        instantiate(m)
    assert exc.value.code == "E_EVAL"
    assert exc.value.diagnostics[0].message == (
        "c: payload field 'n' built from property 'n' expects float, got an int of 1329 bits"
    )


# --- the declared types prove a fit, or fit_value runs ----------------------


def test_effect_of_another_type_is_eval_error_without_the_validator():
    # R4 rejects both effects; check=False lets them reach the engine.
    text = (
        "component C : Board {\n"
        "    property x: float = 0.0;\n"
        '    property s: string = "oops";\n'
        "    event e generic action a;\n"
        "    event f generic action b;\n"
        '    action a generic { x := "oops"; }\n'
        "    action b generic { x := s; }\n"
        "}\n"
        "instance c: C;\n"
    )
    for event, action in (("e", "a"), ("f", "b")):
        rt = instantiate(load_text(text, check=False))
        bind_internal(rt, "c", event)()
        with pytest.raises(CiotError) as exc:
            run_to_quiescence(rt)
        assert exc.value.code == "E_EVAL"
        assert exc.value.diagnostics[0].message == f"c: property 'x' set by action '{action}' expects float, got \"oops\""
        assert rt.instances["c"].properties["x"] == 0.0


def test_int_property_snapshot_widens_into_float_field():
    text = (
        "payload P { n: float; }\n"
        "interface I { op o(P); }\n"
        "component C : Board {\n"
        "    property n: int = 7;\n"
        "    port p1 requires I;\n"
        "    event e generic payload P action a;\n"
        "    event out outgoing port p1 payload P action s;\n"
        "    action a generic payload P;\n"
        "    action s send port p1 payload P;\n"
        "    statemachine { initial state S { entry e, out; } }\n"
        "}\n"
        "instance c: C;\n"
    )
    rt = instantiate(load_text(text))
    [(event, (_, _, source, queued))] = rt.instances["c"].inbox
    [sent] = [r for r in rt.trace if r.kind == "payload_sent"]
    for payload in (queued, sent.values[3]):
        assert type(payload["n"]) is float and payload["n"] == 7.0
    assert (event.name, source) == ("e", "c")


@pytest.mark.parametrize("value, stored", [(3, 3.0), ("abc", None)], ids=["int widens", "str misfits"])
def test_effect_reading_a_payload_its_action_does_not_declare_keeps_fit_value(value, stored):
    """The action declares Q, whose float field would prove the fit; the
    event delivers P, whose field is what the effect reads."""
    ftype = "int" if isinstance(value, int) else "string"
    text = (
        f"payload P {{ f: {ftype}; }}\n"
        "payload Q { f: float; }\n"
        "component C : Board {\n"
        "    property x: float = 0.0;\n"
        "    event e generic payload P action a;\n"
        "    action a generic payload Q { x := payload.f; }\n"
        "}\n"
        "instance c: C;\n"
    )
    rt = instantiate(load_text(text, check=False))
    bind_internal(rt, "c", "e")({"f": value})
    if stored is None:
        with pytest.raises(CiotError) as exc:
            run_to_quiescence(rt)
        assert exc.value.code == "E_EVAL"
        assert exc.value.diagnostics[0].message == "c: property 'x' set by action 'a' expects float, got \"abc\""
    else:
        run_to_quiescence(rt)
        x = rt.instances["c"].properties["x"]
        assert type(x) is float and x == stored


def test_identical_runs_render_identical_traces(parking_model):
    def run():
        rt = instantiate(parking_model)
        for d in (450.0, 100.0, 450.0, 299.999):
            inject(rt, "node", "pSense", "evtReading", {"duration": d})
        run_to_quiescence(rt)
        return render_trace(rt.trace)

    assert run() == run()


@settings(max_examples=60, deadline=None)
@given(durations=st.lists(st.floats(min_value=0.0, max_value=10000.0, allow_nan=False), min_size=1, max_size=12))
def test_final_leds_depend_only_on_last_reading(shared_parking_model, durations):
    rt = instantiate(shared_parking_model())
    for d in durations:
        inject(rt, "node", "pSense", "evtReading", {"duration": d})
    run_to_quiescence(rt)  # E_STEP_LIMIT unless it quiesces
    vacant = durations[-1] >= 300.0
    assert (rt.instances["node.green"].state == "ON") is vacant
    assert (rt.instances["node.red"].state == "ON") is (not vacant)
    # exactly one indicator is lit once a reading has been processed
    assert (rt.instances["node.green"].state == "ON") ^ (rt.instances["node.red"].state == "ON")


# --- ready-instance scheduling --------------------------------------------------


@pytest.fixture(scope="module")
def fresh_runtime(parking_path):
    """A function from root names to a new runtime of the parking node with
    those roots. Hypothesis prints a failing test's arguments, and a function
    prints as its name where a ``Model`` would print as megabytes."""
    with open(parking_path, encoding="utf-8") as f:
        text = f.read()
    models = {
        ("node",): load_text(text),
        ("a", "b"): load_text(text.replace("instance node: Node;", "instance a: Node;\ninstance b: Node;")),
    }
    return lambda roots: instantiate(models[roots])


def checked_step(rt) -> bool:
    """``step``, asserting it serves the instance a depth-first scan picks
    and that the ready heap holds exactly the non-empty inboxes."""
    # Plain values only in the asserts: pytest would print the whole runtime state.
    expected = next((p for p in rt.order if rt.instances[p].inbox), None)
    mark = len(rt.trace)
    progressed = step(rt)
    assert progressed is (expected is not None)
    if progressed:
        first = rt.trace[mark]
        assert (first.kind, first.instance) == ("event_delivered", expected)
    ready = sorted(rt.ready)
    nonempty = [i for i, p in enumerate(rt.order) if rt.instances[p].inbox]
    assert ready == nonempty
    return progressed


def apply_op(rt, root: str, kind: str, value: float) -> None:
    if kind == "reading":
        inject(rt, root, "pSense", "evtReading", {"duration": value})
    elif kind in ("red", "green"):
        inject(rt, f"{root}.{kind}", "p1", "evtCommand", HIGH if value < 300.0 else LOW)
    elif kind == "sense":
        bind_internal(rt, f"{root}.sensor", "evtSense")({"duration": value})
    elif kind == "done":
        bind_internal(rt, f"{root}.sensor", "evtDone")()
    else:
        checked_step(rt)


SCHEDULER_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.sampled_from(["reading", "red", "green", "sense", "done", "step", "step"]),
        st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
    ),
    max_size=40,
)


@pytest.mark.parametrize("roots", [("node",), ("a", "b")], ids=["one_root", "two_roots"])
@settings(max_examples=60, deadline=None)
@given(ops=SCHEDULER_OPS)
def test_ready_heap_serves_depth_first_order(fresh_runtime, roots, ops):
    rt = fresh_runtime(roots)
    for which, kind, value in ops:
        apply_op(rt, roots[which % len(roots)], kind, value)
    for _ in range(1000):
        if not checked_step(rt):
            break
    assert not rt.ready


def test_dispatch_tables_are_per_instantiate(parking_model):
    low = with_property_initial(parking_model, "threshold", 5.0)
    a, b = instantiate(parking_model), instantiate(low)
    for path in a.order:
        assert a.instances[path].dispatch is not b.instances[path].dispatch
        assert a.instances[path].sends is not b.instances[path].sends
    for rt in (a, b):
        inject(rt, "node", "pSense", "evtReading", {"duration": 100.0})
        run_to_quiescence(rt)
    assert a.instances["node.red"].state == "ON"  # 100 < 300
    assert b.instances["node.green"].state == "ON"  # 100 >= 5


def test_instances_of_one_component_share_its_table():
    text = (
        "component C : Board { statemachine { initial state A {} } }\n"
        "instance one: C;\n"
        "instance two: C;\n"
    )
    rt = instantiate(load_text(text))
    assert rt.instances["one"].dispatch is rt.instances["two"].dispatch


# --- property overrides --------------------------------------------------


MIXED_THRESHOLDS = (
    "component F : Board { property threshold: float = 300.0; }\n"
    "component I : Board { property threshold: int = 300; }\n"
    "instance f: F;\n"
    "instance i: I;\n"
)


@pytest.mark.parametrize("value, expected", [(5.0, [5.0, 300]), (5, [5.0, 5])], ids=["float", "int"])
def test_override_sets_each_property_it_fits(value, expected):
    """5.0 does not fit an int property, so that one keeps its declared
    value; 5 fits both, widened to 5.0 for the float one."""
    rt = instantiate(with_property_initial(load_text(MIXED_THRESHOLDS), "threshold", value))
    got = [rt.instances[path].properties["threshold"] for path in ("f", "i")]
    assert [(type(v), v) for v in got] == [(type(v), v) for v in expected]


def test_override_shares_the_model_and_leaves_it_untouched(parking_model):
    text = export_model(parking_model)
    low = with_property_initial(parking_model, "threshold", 5.0)
    assert parking_model.overrides == {}
    assert export_model(parking_model) == text
    assert all(a is b for a, b in zip(low.components, parking_model.components, strict=True))
    # The override is a run input: equality and export see the declared model.
    assert low == parking_model
    assert export_model(low) == text
    assert instantiate(parking_model).instances["node"].properties["threshold"] == 300.0
    assert instantiate(low).instances["node"].properties["threshold"] == 5.0


# --- trace rendering -----------------------------------------------------


def test_nested_record_payload_renders_in_trace():
    text = (
        "payload R { x: int; }\n"
        "payload P { rec: R; }\n"
        "interface I { op o(P); }\n"
        "component C : Board {\n"
        "    port p provides I;\n"
        "    event e incoming port p payload P action a;\n"
        "    action a receive port p payload P;\n"
        "    statemachine { initial state S {} }\n"
        "}\n"
        "instance c: C;\n"
    )
    rt = instantiate(load_text(text))
    inject(rt, "c", "p", "e", {"rec": {"x": 1}})
    assert step(rt)
    assert render_trace(rt.trace[1:2]) == (
        "seq=1 t=0 inst=c kind=event_delivered event=e eseq=0 from=env payload={rec={x=1}}\n"
    )


def test_records_hold_raw_values(parking_model):
    rt = instantiate(parking_model)
    inject(rt, "node.green", "p1", "evtCommand", HIGH)
    mark = len(rt.trace)
    step(rt)
    ev, act, guard, trans, exited, entered = rt.trace[mark:]
    assert ev == (mark, 0, "node.green", "event_delivered", ("evtCommand", 0, "env", HIGH))
    assert act.values == ("actReceiveCommand", ActionKind.RECEIVE_PAYLOAD, {})
    assert guard.values == ("OFF->ON", '"payload.state == \\"high\\""', True)
    assert guard.values[2] is True
    assert (trans.values, exited.values, entered.values) == (("OFF", "ON", "evtCommand"), ("OFF",), ("ON",))
    # A send holds its route, its payload dict (the one the peer receives) and no error.
    rt = instantiate(parking_model)
    inject(rt, "node", "pSense", "evtReading", {"duration": 100.0})
    run_to_quiescence(rt)
    send = next(r for r in rt.trace if r.kind == "payload_sent")
    assert send.values == ("pRed", "evtRedHigh", ("node.red", "p1"), {"state": "high"}, None)
    received = next(r for r in rt.trace if r.kind == "event_delivered" and r.instance == "node.red")
    assert received.values[3] is send.values[3]
    assert all(len(r.values) == len(FIELDS[r.kind]) for r in rt.trace)


def test_detail_is_fixed_once_recorded(parking_model):
    """Later steps reassign the properties that earlier records' payloads and
    assignments were built from; those records read the same afterwards."""
    rt = instantiate(parking_model)
    bind_internal(rt, "node.sensor", "evtSense")({"duration": 100.0})
    run_to_quiescence(rt)
    assert any(r.kind == "action" and r.values[2] for r in rt.trace)
    before = [(r.detail, render_trace([r])) for r in rt.trace]
    for duration in (450.0, 20.0, 450.0):
        bind_internal(rt, "node.sensor", "evtSense")({"duration": duration})
        run_to_quiescence(rt)
    assert len(rt.trace) > len(before)
    assert [(r.detail, render_trace([r])) for r in rt.trace[: len(before)]] == before


def assert_lines_match_detail(records) -> None:
    """The direct renderer and the ``detail`` view cannot drift apart."""
    for r in records:
        head = f"seq={r.seq} t={r.time_us} inst={r.instance} kind={r.kind}"
        assert render_trace([r]) == " ".join([head] + [f"{k}={v}" for k, v in r.detail.items()]) + "\n"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), picks=st.lists(st.integers(min_value=0), max_size=10))
def test_rendered_line_agrees_with_detail_on_generated_models(seed, picks):
    gm = generate(seed)
    symbols = alphabet(gm)
    rt = instantiate(load_text(gm.text))
    for pick in picks:
        event, payload = symbols[pick % len(symbols)]
        inject(rt, "m", "p1", event, dict(payload))
        run_to_quiescence(rt, 100)
    assert_lines_match_detail(rt.trace)


def test_rendered_line_agrees_with_detail_on_sends(parking_model):
    rt = instantiate(parking_model)
    bind_internal(rt, "node.sensor", "evtSense")({"duration": 100.0})
    run_to_quiescence(rt)
    assert {r.kind for r in rt.trace} == set(FIELDS)
    assert_lines_match_detail(rt.trace)
    unwired = (
        "payload P { v: int; }\n"
        "interface I { op f(P); }\n"
        "component C : Board {\n"
        "    property v: int = 7;\n"
        "    port p1 requires I;\n"
        "    event out1 outgoing port p1 payload P action actSend;\n"
        "    action actSend send port p1 payload P;\n"
        "    statemachine { initial state A { entry out1; } }\n"
        "}\n"
        "instance c: C;\n"
    )
    dropped = instantiate(load_text(unwired)).trace
    assert dropped[-1].values == ("p1", "out1", None, {"v": 7}, "E_NO_ROUTE")
    assert_lines_match_detail(dropped)


def test_deep_nested_payload_conforms_and_renders():
    depth = 2000
    links = "".join(f"payload P{i} {{ next: P{i + 1}; }}\n" for i in range(depth - 1))
    text = (
        links
        + f"payload P{depth - 1} {{ v: int; }}\n"
        + "interface I { op o(P0); }\n"
        + "component C : Board {\n"
        + "    port p provides I;\n"
        + "    event e incoming port p payload P0 action a;\n"
        + "    action a receive port p payload P0;\n"
        + "    statemachine { initial state S {} }\n"
        + "}\n"
        + "instance c: C;\n"
    )
    payload = {"v": 1}
    for _ in range(depth - 1):
        payload = {"next": payload}
    rt = instantiate(load_text(text))
    inject(rt, "c", "p", "e", payload)
    assert step(rt)
    expected = "{next=" * (depth - 1) + "{v=1}" + "}" * (depth - 1)
    assert rt.trace[1].detail["payload"] == expected
    assert render_trace(rt.trace[1:2]) == (
        f"seq=1 t=0 inst=c kind=event_delivered event=e eseq=0 from=env payload={expected}\n"
    )
    # The innermost field is still type-checked.
    bad = {"v": "x"}
    for _ in range(depth - 1):
        bad = {"next": bad}
    with pytest.raises(CiotError) as exc:
        inject(rt, "c", "p", "e", bad)
    assert exc.value.code == "E_TYPE"


# --- compiled effects and prebuilt record values --------------------------


def test_effects_run_in_order_on_live_properties():
    text = (
        "payload P { v: int; }\n"
        "interface I { op f(P); }\n"
        "component C : Board {\n"
        "    property a: int = 0;\n"
        "    property b: int = 0;\n"
        "    port p1 provides I;\n"
        "    event ping incoming port p1 payload P action act;\n"
        "    action act receive port p1 payload P { a := 1; b := a; }\n"
        "    statemachine { initial state A {} }\n"
        "}\n"
        "instance c: C;\n"
    )
    rt = instantiate(load_text(text))
    inject(rt, "c", "p1", "ping", {"v": 5})
    step(rt)
    assert rt.instances["c"].properties == {"a": 1, "b": 1}
    [action] = [r for r in rt.trace if r.kind == "action"]
    assert action.values[2] == {"a": 1, "b": 1}
    assert render_trace([action]) == "seq=2 t=0 inst=c kind=action action=act type=ReceivePayload set={a=1,b=1}\n"


FLAG_MODEL = (
    "payload P { v: int; }\n"
    "interface I { op f(P); }\n"
    "component C : Board {\n"
    "    property flag: bool = false;\n"
    "    property v: int = 0;\n"
    "    port pin provides I;\n"
    "    port pout requires I;\n"
    "    event ping incoming port pin payload P action actPing;\n"
    "    event raise outgoing port pout payload P action actRaise;\n"
    "    event tick generic action actTick;\n"
    "    action actPing receive port pin payload P { flag := false; }\n"
    "    action actRaise send port pout payload P { flag := true; }\n"
    "    action actTick generic;\n"
    "    statemachine {\n"
    "        initial state A {}\n"
    "        state B { entry raise, tick; }\n"
    "        transition A -> B when ping;\n"
    "        transition B -> A [flag == true];\n"
    "    }\n"
    "}\n"
    "instance c: C;\n"
)


def test_triggerless_guard_reads_what_entry_actions_set():
    """``ping`` clears the flag, entering B sets it inline, and the queued
    ``tick`` then finds the trigger-less guard true; twice, so the compiled
    guard reads the properties at each evaluation."""
    rt = instantiate(load_text(FLAG_MODEL))
    inst = rt.instances["c"]
    for v in (1, 2):
        mark = len(rt.trace)
        inject(rt, "c", "pin", "ping", {"v": v})
        step(rt)
        assert (inst.state, inst.properties["flag"]) == ("B", True)
        step(rt)
        assert inst.state == "A"
        guards = [r.values for r in rt.trace[mark:] if r.kind == "guard_eval"]
        assert guards == [("B->A", '"flag == true"', True)]
    # in A the flag is false again before the ping's transition is taken
    inject(rt, "c", "pin", "ping", {"v": 3})
    mark = len(rt.trace)
    step(rt)
    assert [r.values[2] for r in rt.trace[mark:] if r.kind == "action"][0] == {"flag": False}


TRANSITION_KINDS = ("guard_eval", "transition", "state_exited", "state_entered")


def test_repeated_transition_records_equal_values(parking_model):
    """Three readings under the threshold take RED_ON_GREEN_OFF -> RED_ON_GREEN_OFF
    twice; both traversals record equal values that render alike."""
    rt = instantiate(parking_model)
    traversals = []
    for _ in range(3):
        mark = len(rt.trace)
        inject(rt, "node", "pSense", "evtReading", {"duration": 100.0})
        step(rt)
        traversals.append([r for r in rt.trace[mark:] if r.kind in TRANSITION_KINDS])
        run_to_quiescence(rt)
    first, second = traversals[1:]
    assert [r.kind for r in first] == ["guard_eval", "guard_eval", "transition", "state_exited", "state_entered"]
    assert [r.values for r in first] == [r.values for r in second]
    assert first[2].values == ("RED_ON_GREEN_OFF", "RED_ON_GREEN_OFF", "evtReading")

    def text(r):
        return render_trace([r]).split(" ", 3)[3]  # without seq, t and inst

    assert [text(r) for r in first] == [text(r) for r in second]


def test_grammar_doc_example_validates_and_runs(corpus_dir):
    doc = (corpus_dir.parent / "docs" / "grammar.md").read_text(encoding="utf-8")
    section = doc.split("## A small complete example", 1)[1]
    text = section.split("```\n", 2)[1]
    model, diags = collect_diagnostics(text)
    assert diags == []
    rt = instantiate(model)
    inject(rt, "echo", "p1", "evtPing", {"n": 1})
    run_to_quiescence(rt)  # E_STEP_LIMIT unless it quiesces
    assert rt.instances["echo"].state == "BUSY"


# --- the flat-payload probe path --------------------------------------------------

_FLAT_PAYLOAD = (
    "payload P { i: int; f: float; b: bool; s: string; }\n"
    "component C : Board {\n"
    "    event e generic payload P action a;\n"
    "    action a generic payload P;\n"
    "}\n"
    "instance c: C;\n"
)
_FIELD_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, -7, 2**70, 10**400, 10**5000, 1.5, -0.0, "x", [], {}]),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
)
_FITTING = {
    "i": st.integers(),
    "f": st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False)),
    "b": st.booleans(),
    "s": st.text(max_size=3),
}


@st.composite
def _flat_payloads(draw):
    """Something that is not a dict, or a dict of fitting field values with
    up to two fields dropped or changed and maybe an extra field, its keys
    in any order."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([None, 5, "i", ["i"], ("i", 1)]))
    payload = {name: draw(values) for name, values in _FITTING.items()}
    for name in draw(st.lists(st.sampled_from(list(_FITTING)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del payload[name]
        else:
            payload[name] = draw(_FIELD_VALUES)
    if draw(st.booleans()):
        payload["x"] = draw(_FIELD_VALUES)
    return {name: payload[name] for name in draw(st.permutations(list(payload)))}


@pytest.fixture(scope="module")
def flat_event():
    """A function giving a fresh runtime of a one-event model with a flat
    payload, and that event (a function, so hypothesis prints its name)."""
    model = load_text(_FLAT_PAYLOAD)
    return lambda: (instantiate(model), model.components[0].events[0])


def _shown(outcome):
    if isinstance(outcome, CiotError):
        return "error", outcome.code, [d.render() for d in outcome.diagnostics]
    return [(k, type(v), repr(v)) for k, v in outcome.items()]


@settings(max_examples=400, deadline=None)
@given(payload=_flat_payloads(), as_subclass=st.booleans())
def test_flat_payload_probe_matches_conform_payload(flat_event, payload, as_subclass):
    """``bind_internal``'s prebuilt path for flat payloads queues what
    ``_conform_payload`` returns, or fails with its code and message."""
    if as_subclass and isinstance(payload, dict):
        payload = type("Payload", (dict,), {})(payload)
    rt, event = flat_event()
    try:
        expected = _conform_payload(event.payload, payload, "event 'e'")
    except CiotError as exc:
        expected = exc
    try:
        bind_internal(rt, "c", "e")(payload)
        got = rt.instances["c"].inbox[-1][1][3]
    except CiotError as exc:
        got = exc
    assert _shown(got) == _shown(expected)

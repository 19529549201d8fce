from __future__ import annotations

import pathlib
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciot import load_text
from ciot.diagnostics import CiotError
from ciot.engine import instantiate, run_to_quiescence
from ciot.loader import collect_diagnostics_file, load_file
from ciot.metamodel import instance_paths, with_property_initial
from ciot.sim import (
    DEFAULT_SAMPLE_PERIOD_MS,
    MAX_TICKS,
    Scenario,
    SimResult,
    Stimulus,
    bind_environment,
    echo_duration,
    find_led_paths,
    load_scenario,
    load_scenario_file,
    occupancy_timeline,
    simulate,
)
from ciot.trace import render_trace


def scn(code: str) -> Scenario:
    return load_scenario(code)


def scenario_error(code: str, text: str) -> None:
    with pytest.raises(CiotError) as exc:
        load_scenario(text)
    assert exc.value.code == code


# --- echo model ---------------------------------------------------------


def test_echo_duration_reference_points():
    assert echo_duration(2.5) == pytest.approx(14.577, abs=0.001)
    assert echo_duration(0.5) == pytest.approx(2.915, abs=0.001)


def test_echo_duration_scales_linearly():
    assert echo_duration(1.0) * 3 == pytest.approx(echo_duration(3.0))
    assert echo_duration(1.0, speed_m_per_s=686.0) == pytest.approx(echo_duration(0.5))


def test_echo_duration_domain_errors():
    for bad in (0.0, -1.0):
        with pytest.raises(CiotError) as exc:
            echo_duration(bad)
        assert exc.value.code == "E_DOMAIN"
    with pytest.raises(CiotError) as exc:
        echo_duration(1.0, speed_m_per_s=0.0)
    assert exc.value.code == "E_DOMAIN"


# --- scenario parsing ---------------------------------------------------


def test_scenario_headers_and_stimuli():
    s = scn(
        "# comment\n"
        "mode=duration\n"
        "horizon_ms=1000\n"
        "sample_period_ms=50\n"
        "\n"
        "at 0 slot node echo 320\n"
        "at 500 slot node echo 250\n"
    )
    assert (s.mode, s.horizon_ms, s.sample_period_ms) == ("duration", 1000, 50)
    assert s.stimuli == [
        Stimulus(0, "node", "echo", 320.0),
        Stimulus(500, "node", "echo", 250.0),
    ]


def test_scenario_default_sample_period():
    s = scn("mode=duration\nhorizon_ms=100\n")
    assert s.sample_period_ms == DEFAULT_SAMPLE_PERIOD_MS == 100


def test_scenario_vacate_takes_no_value():
    s = scn("mode=physical\nhorizon_ms=100\nat 0 slot node vacate\n")
    assert s.stimuli[0].value is None
    scenario_error("E_SCENARIO", "mode=physical\nhorizon_ms=100\nat 0 slot node vacate 1.0\n")


def rejection(text: str) -> str:
    """The one rendered E_SCENARIO line that loading ``text`` raises."""
    with pytest.raises(CiotError) as exc:
        load_scenario(text)
    assert exc.value.code == "E_SCENARIO"
    [rendered] = [d.render() for d in exc.value.diagnostics]
    return rendered


def test_scenario_rejections():
    cases = [
        ("horizon_ms=100\n", "scenario does not set mode="),
        ("mode=duration\n", "scenario does not set horizon_ms="),
        ("mode=laser\nhorizon_ms=100\n", "line 1: mode must be one of ('duration', 'physical'), got 'laser'"),
        ("mode=duration\nhorizon_ms=100\nfrobnicate=1\n", "line 3: unknown header 'frobnicate'"),
        ("mode=duration\nhorizon_ms=-5\n", "horizon_ms must be non-negative, got -5"),
        ("mode=duration\nhorizon_ms=100\nsample_period_ms=0\n", "sample_period_ms must be positive, got 0"),
        ("mode=duration\nhorizon_ms=abc\n", "line 2: horizon_ms 'abc' is not an integer"),
        ("mode=duration\nhorizon_ms=100\nnot a line\n", "line 3: cannot parse 'not a line'"),
    ]
    for text, message in cases:
        assert rejection(text) == f"<input>: error E_SCENARIO {message}", text


def test_scenario_stimulus_rejections():
    head = "mode=duration\nhorizon_ms=1000\n"
    phys = "mode=physical\nhorizon_ms=1000\n"
    cases = [
        (head + "at 200 slot node echo 1\nat 100 slot node echo 2\n", "stimuli out of order: 100 ms after 200 ms"),
        (head + "at 2000 slot node echo 1\n", "stimulus at 2000 ms lies beyond horizon_ms=1000"),
        (head + "at -1 slot node echo 1\n", "line 3: stimulus time must be non-negative"),
        (head + "at 0 slot node occupy 1.0\n", "stimulus 'occupy' is not valid in duration mode"),
        (head + "at 0 slot node echo -1\n", "line 3: echo duration must be non-negative"),
        (head + "at 0 slot node warp 1\n", "line 3: unknown stimulus verb 'warp'"),
        (head + "at 0 slot node echo\n", "line 3: echo needs exactly one value"),
        (head + "at 0.5 slot node echo 1\n", "line 3: time '0.5' is not an integer"),
        (head + "at 0 slot node echo x\n", "line 3: echo value 'x' is not a number"),
        (phys + "at 0 slot node occupy 0\n", "line 3: occupy distance must be positive"),
        (phys + "at 0 slot node echo 5\n", "stimulus 'echo' is not valid in physical mode"),
        (phys + "at 0 slot node vacate 1.0\n", "line 3: vacate takes no value"),
    ]
    for text, message in cases:
        assert rejection(text) == f"<input>: error E_SCENARIO {message}", text


@pytest.mark.parametrize("stimulus", ["echo nan", "echo inf", "echo NaN", "occupy inf", "occupy nan"])
def test_scenario_rejects_non_finite_values(stimulus):
    verb, value = stimulus.split()
    mode = "physical" if verb == "occupy" else "duration"
    assert rejection(f"mode={mode}\nhorizon_ms=100\nat 0 slot node {stimulus}\n") == (
        f"<input>: error E_SCENARIO line 3: {verb} value {value!r} is not a finite number"
    )


# A 5,000-digit number: past the interpreter's int-string digit limit (4,300
# by default; the test only needs "far past") and past float range.
HUGE = "9" * 5000


@pytest.mark.parametrize(
    "body, what",
    [
        (f"mode=duration\nhorizon_ms={HUGE}\n", "line 2: horizon_ms"),
        (f"mode=duration\nhorizon_ms=100\nsample_period_ms={HUGE}\n", "line 3: sample_period_ms"),
        (f"mode=duration\nhorizon_ms=100\nat {HUGE} slot node echo 1\n", "line 3: time"),
        (f"mode=duration\nhorizon_ms=100\nat 0 slot node echo {HUGE}\n", "line 3: echo value"),
        (f"mode=physical\nhorizon_ms=100\nat 0 slot node occupy {HUGE}\n", "line 3: occupy value"),
    ],
    ids=["horizon_ms", "sample_period_ms", "time", "echo", "occupy"],
)
def test_scenario_huge_number_is_one_short_error(body, what):
    with pytest.raises(CiotError) as exc:
        load_scenario(body)
    assert exc.value.code == "E_SCENARIO"
    assert [d.render() for d in exc.value.diagnostics] == [
        f"<input>: error E_SCENARIO {what} of 5000 digits is out of range"
    ]


@pytest.mark.parametrize("verb, mode", [("echo", "duration"), ("occupy", "physical")])
@pytest.mark.parametrize(
    "value", ["1e" + HUGE, "-1.5E+" + HUGE, ".5e" + HUGE], ids=["plain_exponent", "signed_exponent", "point_mantissa"]
)
def test_scenario_huge_exponent_is_one_short_error(verb, mode, value):
    with pytest.raises(CiotError) as exc:
        load_scenario(f"mode={mode}\nhorizon_ms=100\nat 0 slot node {verb} {value}\n")
    assert exc.value.code == "E_SCENARIO"
    digits = sum(ch.isdigit() for ch in value)
    [rendered] = [d.render() for d in exc.value.diagnostics]
    assert rendered == f"<input>: error E_SCENARIO line 3: {verb} value of {digits} digits is out of range"
    assert len(rendered.encode()) < 200


@pytest.mark.parametrize(
    "horizon, period",
    [("1" + "0" * 100, None), (str(100 * MAX_TICKS), None), (str(MAX_TICKS), 1)],
    ids=["googol", "one_past", "period_override"],
)
def test_scenario_tick_count_is_bounded(parking_model, horizon, period):
    scenario = load_scenario(f"mode=duration\nhorizon_ms={horizon}\n")
    with pytest.raises(CiotError) as exc:
        simulate(parking_model, scenario, sample_period_ms=period)
    assert [d.render() for d in exc.value.diagnostics] == [
        f"<input>: error E_SCENARIO scenario runs more than {MAX_TICKS} ticks of the sample period"
    ]


def test_scenario_of_max_ticks_runs(parking_model):
    scenario = load_scenario(f"mode=duration\nhorizon_ms={100 * (MAX_TICKS - 1)}\n")
    assert simulate(parking_model, scenario).runtime.clock_us == 100_000 * (MAX_TICKS - 1)


def test_scenario_equal_times_allowed():
    s = scn("mode=physical\nhorizon_ms=100\nat 0 slot node occupy 1.0\nat 0 slot node vacate\n")
    assert len(s.stimuli) == 2


def test_load_scenario_file_missing(tmp_path):
    with pytest.raises(CiotError) as exc:
        load_scenario_file(str(tmp_path / "nope.scn"))
    assert exc.value.code == "E_IO"


@pytest.mark.parametrize("reader", [load_scenario_file, load_file, collect_diagnostics_file])
def test_file_not_utf8_is_io_error_naming_the_file(tmp_path, reader):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfemode=duration\n")
    with pytest.raises(CiotError) as exc:
        reader(str(path))
    assert exc.value.code == "E_IO"
    [diag] = exc.value.diagnostics
    assert diag.file == str(path)
    assert diag.message.startswith(f"cannot read {str(path)!r}: 'utf-8' codec can't decode byte 0xff")


# --- scenarios built by hand -------------------------------------------

# One echo at time 0; each case below changes one field of it.
VALID = Scenario("duration", 1000, 100, [Stimulus(0, "node", "echo", 320.0)])


def one_error(call) -> str:
    """The one rendered diagnostic of the CiotError that ``call()`` raises."""
    with pytest.raises(CiotError) as exc:
        call()
    [rendered] = [d.render() for d in exc.value.diagnostics]
    return rendered


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"mode": "bogus"}, "mode must be one of ('duration', 'physical'), got 'bogus'"),
        ({"horizon_ms": -5}, "horizon_ms must be non-negative, got -5"),
        (
            {"stimuli": [Stimulus(500, "node", "echo", 1.0), Stimulus(100, "node", "echo", 2.0)]},
            "stimuli out of order: 100 ms after 500 ms",
        ),
        ({"stimuli": [Stimulus(0, "node", "echo", None)]}, "stimuli[0]: echo value None is not a finite number"),
        ({"stimuli": [Stimulus(0, "node", "jump", 1.0)]}, "stimulus 'jump' is not valid in duration mode"),
        ({"stimuli": [Stimulus(2000, "node", "echo", 1.0)]}, "stimulus at 2000 ms lies beyond horizon_ms=1000"),
        ({"stimuli": [Stimulus(0, "node", "echo", -1.0)]}, "stimuli[0]: echo duration must be non-negative"),
        ({"sample_period_ms": True}, "sample_period_ms must be of type int, got true"),
        ({"sample_period_ms": "5"}, 'sample_period_ms must be of type int, got "5"'),
        ({"sample_period_ms": 0.5}, "sample_period_ms must be of type int, got 0.5"),
        ({"horizon_ms": 1000.5}, "horizon_ms must be of type int, got 1000.5"),
        ({"stimuli": [Stimulus("0", "node", "echo", 1.0)]}, 'stimuli[0].time_ms must be of type int, got "0"'),
        ({"stimuli": None}, "stimuli must be of type list, got None"),
        ({"stimuli": [(0, "node", "echo", 1.0)]}, "stimuli[0] must be of type Stimulus, got (0, 'node', 'echo', 1.0)"),
        (
            {"stimuli": [Stimulus(0, "node", "echo", 1.0), Stimulus(0, 3, "echo", 1.0)]},
            "stimuli[1].slot must be of type str, got 3",
        ),
        ({"stimuli": [Stimulus(-1, "node", "echo", 1.0)]}, "stimuli[0]: stimulus time must be non-negative"),
        (
            {"mode": "physical", "stimuli": [Stimulus(0, "node", "vacate", 1.0)]},
            "stimuli[0]: vacate takes no value",
        ),
        (
            {"mode": "physical", "stimuli": [Stimulus(0, "node", "occupy", 0)]},
            "stimuli[0]: occupy distance must be positive",
        ),
    ],
    ids=[
        "mode", "negative_horizon", "out_of_order", "echo_none", "unknown_verb", "past_horizon", "negative_echo",
        "period_bool", "period_str", "period_float", "horizon_float", "time_str", "stimuli_none", "stimulus_tuple",
        "slot_int", "negative_time", "vacate_value", "occupy_zero",
    ],
)
def test_simulate_applies_scenario_rules_to_built_scenario(parking_model, changes, message):
    scenario = replace(VALID, **changes)
    assert one_error(lambda: simulate(parking_model, scenario)) == f"<input>: error E_SCENARIO {message}"


@pytest.mark.parametrize(
    "period, message",
    [(True, "must be of type int, got true"), (0, "must be positive, got 0"), ("5", 'must be of type int, got "5"')],
    ids=["bool", "zero", "str"],
)
def test_simulate_checks_the_sample_period_override(parking_model, period, message):
    rendered = one_error(lambda: simulate(parking_model, VALID, sample_period_ms=period))
    assert rendered == f"<input>: error E_SCENARIO sample_period_ms {message}"


def test_simulate_runs_at_the_sample_period_override(parking_model):
    result = simulate(parking_model, VALID, sample_period_ms=250)
    assert result.scenario.sample_period_ms == 250
    assert {r.time_us for r in result.trace} == {0, 250_000, 500_000, 750_000, 1_000_000}


@pytest.mark.parametrize("model_is_text", [False, True], ids=["scenario", "model"])
def test_simulate_rejects_an_argument_of_the_wrong_type(parking_model, model_is_text):
    args = ("x", VALID) if model_is_text else (parking_model, "x")
    message = "model must be a Model, got str" if model_is_text else "scenario must be a Scenario, got str"
    assert one_error(lambda: simulate(*args)) == f"<input>: error E_USAGE {message}"


def test_threshold_override_that_fits_nothing_is_a_domain_error(parking_model):
    assert one_error(lambda: with_property_initial(parking_model, "threshold", float("nan"))) == (
        "<input>: error E_DOMAIN no component declares a property named 'threshold' accepting nan"
    )


# --- simulation runs ----------------------------------------------------


def test_arrive_depart_timeline(parking_model, arrive_depart_path):
    scenario = load_scenario_file(str(arrive_depart_path))
    result = simulate(parking_model, scenario)
    assert occupancy_timeline(result) == [
        (0, "vacant"),
        (5000, "occupied"),
        (12000, "vacant"),
    ]


@pytest.mark.parametrize("scenario_fixture, threshold", [("arrive_depart_path", None), ("physical_path", 5.0)])
def test_corpus_scenario_record_counts(request, parking_model, scenario_fixture, threshold):
    model = parking_model if threshold is None else with_property_initial(parking_model, "threshold", threshold)
    result = simulate(model, load_scenario_file(str(request.getfixturevalue(scenario_fixture))))
    assert (len(result.trace), result.runtime.step_count) == (5656, 907)
    assert Counter(r.kind for r in result.trace) == {
        "state_entered": 759,
        "event_delivered": 755,
        "action": 1208,
        "transition": 755,
        "state_exited": 755,
        "payload_sent": 453,
        "guard_eval": 971,
    }


def test_physical_mode_with_tight_threshold(parking_model, physical_path):
    scenario = load_scenario_file(str(physical_path))
    model = with_property_initial(parking_model, "threshold", 5.0)
    result = simulate(model, scenario)
    assert occupancy_timeline(result) == [
        (0, "vacant"),
        (5000, "occupied"),
        (12000, "vacant"),
    ]


def test_physical_mode_default_threshold_never_occupied(parking_model, physical_path):
    # floor echo 14.577 ms and car echo 2.915 ms both sit far below 300 ms,
    # so with the stock threshold the slot always reads occupied
    scenario = load_scenario_file(str(physical_path))
    result = simulate(parking_model, scenario)
    assert occupancy_timeline(result) == [(0, "occupied")]


def test_zero_stimulus_duration_mode_has_no_samples(parking_model):
    # no echo has arrived, so the sensor is never probed: the trace holds
    # only the instantiation records and the timeline stays empty
    scenario = scn("mode=duration\nhorizon_ms=1000\n")
    result = simulate(parking_model, scenario)
    assert occupancy_timeline(result) == []
    assert all(r.kind == "state_entered" for r in result.trace)


def test_zero_stimulus_physical_mode_reads_floor(parking_model):
    scenario = scn("mode=physical\nhorizon_ms=1000\n")
    model = with_property_initial(parking_model, "threshold", 5.0)
    result = simulate(model, scenario)
    assert occupancy_timeline(result) == [(0, "vacant")]


def test_horizon_zero_still_samples_once(parking_model):
    scenario = scn("mode=duration\nhorizon_ms=0\nat 0 slot node echo 320\n")
    result = simulate(parking_model, scenario)
    assert occupancy_timeline(result) == [(0, "vacant")]


def test_implicit_slot_defaults_to_root(parking_model):
    # a stimulus-free physical scenario binds the root instance
    scenario = scn("mode=physical\nhorizon_ms=0\n")
    result = simulate(parking_model, scenario)
    probes = [r for r in result.trace if r.kind == "event_delivered" and r.detail["event"] == "evtSense"]
    assert len(probes) == 1
    assert probes[0].instance == "node.sensor"


def test_unbound_slot_raises(parking_model):
    scenario = scn("mode=duration\nhorizon_ms=100\nat 0 slot garage echo 320\n")
    with pytest.raises(CiotError) as exc:
        simulate(parking_model, scenario)
    assert exc.value.code == "E_UNBOUND_SENSOR"


def test_eval_error_names_the_model_file(tmp_path, parking_path, arrive_depart_path):
    lines = pathlib.Path(parking_path).read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[98].strip() == "transition SEND -> SENSE [sent == true];"
    lines[98] = lines[98].replace("[sent == true]", "[ghost == true]")
    copy = tmp_path / "copy.ciot"
    copy.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(CiotError) as exc:
        simulate(load_file(str(copy), check=False), load_scenario_file(arrive_depart_path))
    assert [d.render() for d in exc.value.diagnostics] == [
        f"{copy}:99:35: error E_EVAL unknown property 'ghost' at evaluation"
    ]

def test_effect_beyond_float_range_is_eval_error(big_int_effect_text, arrive_depart_path):
    model = load_text(big_int_effect_text)
    with pytest.raises(CiotError) as exc:
        simulate(model, load_scenario_file(arrive_depart_path))
    assert exc.value.code == "E_EVAL"
    assert exc.value.diagnostics[0].message == (
        "node.sensor: property 'duration' set by action 'actSense' expects float, got an int of 1329 bits"
    )


@pytest.mark.parametrize(
    "option, value, shown",
    [
        ("speed_m_per_s", float("inf"), "inf"),
        ("speed_m_per_s", float("nan"), "nan"),
        ("speed_m_per_s", 1e400, "inf"),
        ("speed_m_per_s", 10**400, "an int of 1329 bits"),
        ("speed_m_per_s", 0.0, "0.0"),
        ("floor_distance_m", float("inf"), "inf"),
        ("floor_distance_m", float("nan"), "nan"),
        ("floor_distance_m", -2.5, "-2.5"),
        ("floor_distance_m", "2.5", "str"),
    ],
    ids=["speed_inf", "speed_nan", "speed_1e400", "speed_huge_int", "speed_zero",
         "floor_inf", "floor_nan", "floor_negative", "floor_text"],
)
def test_simulate_rejects_non_finite_or_non_positive_physics(parking_model, physical_path, option, value, shown):
    with pytest.raises(CiotError) as exc:
        simulate(parking_model, load_scenario_file(physical_path), **{option: value})
    assert exc.value.code == "E_DOMAIN"
    assert str(exc.value) == f"{option} must be a finite positive number, got {shown}"


def test_simulate_checks_physics_before_instantiating():
    model = load_text('component C : Board { property x: float = "oops"; }\ninstance c: C;', check=False)
    with pytest.raises(CiotError) as exc:
        simulate(model, scn("mode=duration\nhorizon_ms=0\n"), speed_m_per_s=float("inf"))
    assert exc.value.code == "E_DOMAIN"


@pytest.mark.parametrize(
    "distance, speed, message",
    [
        (float("inf"), 343.0, "distance must be a finite positive number, got inf"),
        (1.0, float("nan"), "speed must be a finite positive number, got nan"),
        (1.0, float("inf"), "speed must be a finite positive number, got inf"),
        (1e308, 1e-300, "echo time of 1e+308 m at 1e-300 m/s is beyond float range"),
    ],
    ids=["distance_inf", "speed_nan", "speed_inf", "result_overflow"],
)
def test_echo_duration_rejects_non_finite_argument_or_result(distance, speed, message):
    with pytest.raises(CiotError) as exc:
        echo_duration(distance, speed)
    assert exc.value.code == "E_DOMAIN"
    assert str(exc.value) == message


def test_step_limit_raises(parking_model):
    scenario = scn("mode=duration\nhorizon_ms=0\nat 0 slot node echo 320\n")
    with pytest.raises(CiotError) as exc:
        simulate(parking_model, scenario, max_steps=3)
    assert exc.value.code == "E_STEP_LIMIT"


@pytest.mark.parametrize("max_steps, shown", [(-1, "-1"), (2.5, "2.5"), ("3", '"3"'), (True, "true"), (None, "None")])
def test_max_steps_not_a_non_negative_int_is_a_domain_error(parking_model, max_steps, shown):
    with pytest.raises(CiotError) as exc:
        simulate(parking_model, scn("mode=duration\nhorizon_ms=0\n"), max_steps=max_steps)
    assert exc.value.code == "E_DOMAIN"
    assert str(exc.value) == f"max_steps must be a non-negative integer, got {shown}"


def test_unprintable_stimulus_value_and_max_steps_are_coded_errors(parking_model):
    """A list holding an int past the interpreter's digit limit has no repr."""
    value = [10**5000]
    with pytest.raises(CiotError) as exc:
        simulate(parking_model, Scenario("duration", 100, 100, [Stimulus(0, "node", "echo", value)]))
    assert exc.value.code == "E_SCENARIO"
    assert str(exc.value) == "stimuli[0]: echo value a list that cannot be printed is not a finite number"
    with pytest.raises(CiotError) as exc:
        run_to_quiescence(instantiate(parking_model), value)
    assert exc.value.code == "E_DOMAIN"
    assert str(exc.value) == "max_steps must be a non-negative integer, got a list that cannot be printed"


def test_zero_max_steps_is_valid(parking_model):
    assert simulate(parking_model, scn("mode=duration\nhorizon_ms=0\n"), max_steps=0).trace


def test_bind_environment_matches_descendants(parking_model):
    rt = instantiate(parking_model)
    bound = bind_environment(rt, ["node"])
    assert bound == {"node": [("node.sensor", "evtSense")]}
    with pytest.raises(CiotError):
        bind_environment(rt, ["node.red"])


@pytest.mark.parametrize("slot", ["nod", "node.sens", "node.", ""])
def test_bind_environment_matches_whole_path_segments(parking_model, slot):
    rt = instantiate(parking_model)
    assert bind_environment(rt, ["node.sensor"]) == {"node.sensor": [("node.sensor", "evtSense")]}
    with pytest.raises(CiotError) as exc:
        bind_environment(rt, [slot])
    assert exc.value.code == "E_UNBOUND_SENSOR"


def test_bind_environment_keeps_depth_first_order(parking_path):
    from pathlib import Path

    text = Path(parking_path).read_text(encoding="utf-8")
    text = text.replace("component Node : Board {", "component Node : Board {\n    instance spare: UltrasonicSensor;", 1)
    text += "\ncomponent Lot : Board { instance b: Node; instance a: Node; }\ninstance lot: Lot;\n"
    rt = instantiate(load_text(text, check=False))
    sensing = [p for p in rt.order if p.endswith(("sensor", "spare"))]
    bound = bind_environment(rt, ["lot", "lot.a", "node"])
    assert bound["lot"] == [(p, "evtSense") for p in sensing if p.startswith("lot.")]
    assert [p for p, _ in bound["lot"]] == ["lot.b.spare", "lot.b.sensor", "lot.a.spare", "lot.a.sensor"]
    assert bound["lot.a"] == [("lot.a.spare", "evtSense"), ("lot.a.sensor", "evtSense")]
    assert bound["node"] == [("node.spare", "evtSense"), ("node.sensor", "evtSense")]


def test_clock_stamps_trace_in_microseconds(parking_model, arrive_depart_path):
    scenario = load_scenario_file(str(arrive_depart_path))
    result = simulate(parking_model, scenario)
    times = {r.time_us for r in result.trace}
    assert 0 in times and 5000000 in times and 12000000 in times
    assert max(times) <= scenario.horizon_ms * 1000
    # samples land only on period boundaries
    period_us = scenario.sample_period_ms * 1000
    assert all(t % period_us == 0 for t in times)


def test_simulation_is_deterministic(parking_model, arrive_depart_path):
    scenario = load_scenario_file(str(arrive_depart_path))
    a = render_trace(simulate(parking_model, scenario).trace)
    b = render_trace(simulate(parking_model, scenario).trace)
    assert a == b


def test_led_paths_locates_indicators(parking_model):
    assert find_led_paths(instance_paths(parking_model)) == ("node.red", "node.green")


def test_led_paths_rejects_ambiguous_indicators(parking_path):
    # a second node brings a second pair of indicators
    from pathlib import Path

    text = Path(parking_path).read_text(encoding="utf-8") + "\ninstance node2: Node;\n"
    model = load_text(text)
    with pytest.raises(CiotError) as exc:
        find_led_paths(instance_paths(model))
    assert exc.value.code == "E_TRACE"


# --- invariants ----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(threshold=st.floats(min_value=1.0, max_value=1000.0, allow_nan=False))
def test_threshold_boundary_any_threshold(shared_parking_model, threshold):
    model = with_property_initial(shared_parking_model(), "threshold", threshold)
    head = "mode=duration\nhorizon_ms=0\n"
    at = simulate(model, scn(head + f"at 0 slot node echo {threshold!r}\n"))
    below = simulate(model, scn(head + f"at 0 slot node echo {threshold - 0.001!r}\n"))
    assert occupancy_timeline(at) == [(0, "vacant")]
    assert occupancy_timeline(below) == [(0, "occupied")]


@settings(max_examples=25, deadline=None)
@given(echo=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False), horizon=st.integers(min_value=0, max_value=2000))
def test_stable_input_yields_single_sample(shared_parking_model, echo, horizon):
    scenario = scn(f"mode=duration\nhorizon_ms={horizon}\nat 0 slot node echo {echo!r}\n")
    result = simulate(shared_parking_model(), scenario)
    status = "vacant" if echo >= 300.0 else "occupied"
    assert occupancy_timeline(result) == [(0, status)]


# Any value at all for one field; hypothesis draws these ints mostly small.
_ANY = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 3000), st.just(10**400), st.floats(), st.text(max_size=4)
)
_SLOTS = ["node", "node.sensor", "garage"]


def _scenario(mode: str, horizon: int, period: int, events: list[tuple[int, str, float]]) -> Scenario:
    """A scenario that keeps every rule: stimuli in time order, within the
    horizon, each verb valid in ``mode`` (slot ``garage`` binds no sensor)."""
    stimuli = []
    for i, (time_ms, slot, value) in enumerate(sorted(events)):
        verb = "echo" if mode == "duration" else ("occupy", "vacate")[i % 2]
        stimuli.append(Stimulus(min(time_ms, horizon), slot, verb, None if verb == "vacate" else value))
    return Scenario(mode, horizon, period, stimuli)


@settings(max_examples=100, deadline=None)
@given(
    mode=st.sampled_from(["duration", "physical"]),
    horizon=st.integers(0, 2000),
    period=st.integers(1, 2000),
    events=st.lists(st.tuples(st.integers(0, 2000), st.sampled_from(_SLOTS), st.floats(0.5, 1000.0)), max_size=4),
    fields=st.dictionaries(st.sampled_from(["mode", "horizon_ms", "sample_period_ms", "stimuli"]), _ANY, max_size=2),
    stimulus_fields=st.dictionaries(st.sampled_from(["time_ms", "slot", "verb", "value"]), _ANY, max_size=2),
    override=st.one_of(st.none(), _ANY),
)
def test_simulate_ends_in_a_result_or_a_ciot_error(
    shared_parking_model, mode, horizon, period, events, fields, stimulus_fields, override
):
    scenario = replace(_scenario(mode, horizon, period, events), **fields)
    if stimulus_fields and isinstance(scenario.stimuli, list) and scenario.stimuli:
        scenario.stimuli[0] = replace(scenario.stimuli[0], **stimulus_fields)
    try:
        result = simulate(shared_parking_model(), scenario, sample_period_ms=override)
    except CiotError as exc:
        assert len(exc.diagnostics) == 1 and "\n" not in exc.diagnostics[0].render()
    else:
        assert isinstance(result, SimResult)


def test_status_change_lags_at_most_one_period(parking_model):
    # a stimulus landing just after a sample boundary is picked up at the
    # next boundary, never later
    for arrival in (4901, 4950, 4999, 5000):
        text = (
            "mode=duration\nhorizon_ms=6000\n"
            "at 0 slot node echo 320\n"
            f"at {arrival} slot node echo 250\n"
        )
        result = simulate(parking_model, scn(text))
        timeline = occupancy_timeline(result)
        assert timeline[0] == (0, "vacant")
        flip_t = timeline[1][0]
        boundary = ((arrival + 99) // 100) * 100
        assert flip_t == boundary, f"arrival {arrival}: flipped at {flip_t}"

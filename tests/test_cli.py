from __future__ import annotations

import argparse
import inspect
import pathlib
import re
import time

import pytest

from ciot import cli
from ciot.cli import _build_parser, _parse_inject_spec, main
from ciot.engine import run_to_quiescence
from ciot.sim import MAX_TICKS, simulate

from exprparse import parse_expression


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate -------------------------------------------------------------


def test_validate_clean_model(capsys, parking_path):
    code, out, err = run_cli(capsys, "validate", parking_path)
    assert code == 0
    assert out == "errors=0 warnings=0\n"
    assert err == ""


def test_validate_mutant_reports_rule(capsys, corpus_dir):
    path = str(corpus_dir / "mutations" / "r1_no_initial.ciot")
    code, out, err = run_cli(capsys, "validate", path)
    assert code == 1
    assert out == "errors=1 warnings=0\n"
    assert "error R1" in err
    assert err.startswith(path + ":")  # file:line:col prefix


def test_validate_warning_only_exits_zero(capsys, corpus_dir):
    path = str(corpus_dir / "mutations" / "r6_unreachable_state.ciot")
    code, out, err = run_cli(capsys, "validate", path)
    assert code == 0
    assert out == "errors=0 warnings=1\n"
    assert "warning R6" in err


# The line `ciot validate` prints after the path of each seeded syntax error.
SYNTAX_ERROR_LINES = {
    "bad_character.ciot": ":1:13: error E_LEX unexpected character '@'",
    "missing_semicolon.ciot": ":3:1: error E_PARSE expected punctuation ';', got punctuation '}'",
    "reserved_component_name.ciot": ":1:11: error E_PARSE expected component name (identifier), got keyword 'and'",
    "truncated_file.ciot": (
        ":7:1: error E_PARSE expected a component member (property, port, instance, connect, event, action, "
        "or statemachine), got end of input"
    ),
    "unterminated_string.ciot": ":2:30: error E_LEX unterminated string literal",
}


def test_validate_syntax_error(capsys, corpus_dir):
    paths = sorted((corpus_dir / "syntax_errors").glob("*.ciot"))
    assert [path.name for path in paths] == sorted(SYNTAX_ERROR_LINES)
    for path in paths:
        expected = (1, "errors=1 warnings=0\n", f"{path}{SYNTAX_ERROR_LINES[path.name]}\n")
        assert run_cli(capsys, "validate", str(path)) == expected


def test_validate_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "validate", str(tmp_path / "nope.ciot"))
    assert code == 2
    assert "E_IO" in err


@pytest.mark.parametrize("command, bad", [("validate", "model"), ("simulate", "model"), ("simulate", "scenario")])
def test_file_not_utf8_is_one_io_line(capsys, tmp_path, parking_path, arrive_depart_path, command, bad):
    path = tmp_path / f"bad.{bad}"
    path.write_bytes(b"\xff\xfe")
    model = str(path) if bad == "model" else parking_path
    scenario = [] if command == "validate" else [str(path) if bad == "scenario" else arrive_depart_path]
    code, out, err = run_cli(capsys, command, model, *scenario)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith(f"{path}: error E_IO cannot read {str(path)!r}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("command", ["run", "simulate"])
def test_trace_file_that_cannot_be_written_is_one_io_line(capsys, tmp_path, parking_path, arrive_depart_path, command):
    path = tmp_path / "no_such_dir" / "out.trace"
    scenario = [arrive_depart_path] if command == "simulate" else []
    code, out, err = run_cli(capsys, command, parking_path, *scenario, "--trace", str(path))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith(f"{path}: error E_IO cannot write {str(path)!r}: ")


@pytest.mark.parametrize(
    "argv, marked",
    [
        (["validate", "parking_node.ciot"], 0),
        (["validate", "mutations/r4_guard_type.ciot"], 0),
        (["validate", "syntax_errors/bad_character.ciot"], 0),
        (["simulate", "parking_node.ciot", "scenario_arrive_depart.scn"], 0),
        (["simulate", "parking_node.ciot", "scenario_arrive_depart.scn"], 1),
    ],
    ids=["validate_model", "validate_mutant", "validate_line_1_error", "simulate_model", "simulate_scenario"],
)
def test_leading_byte_order_mark_is_dropped(capsys, tmp_path, corpus_dir, argv, marked):
    """A file that starts with a UTF-8 byte-order mark gives the output and
    exit code of the same file without it, positions on line 1 included."""
    command, *names = argv
    paths = [tmp_path / pathlib.Path(name).name for name in names]
    data = [(corpus_dir / name).read_bytes() for name in names]
    for path, raw in zip(paths, data):
        path.write_bytes(raw)
    plain = run_cli(capsys, command, *map(str, paths))
    paths[marked].write_bytes(b"\xef\xbb\xbf" + data[marked])
    assert run_cli(capsys, command, *map(str, paths)) == plain


@pytest.mark.parametrize(
    "text, line, column, char",
    [
        ("component C : IoTElement {\n    property x: int = \u00b2;\n}\n", 2, 23, "\u00b2"),
        ("component Caf\u00e9 : IoTElement {}\n", 1, 14, "\u00e9"),
    ],
    ids=["superscript_digit", "accented_letter"],
)
def test_validate_non_ascii_outside_strings_is_lex_error(capsys, tmp_path, text, line, column, char):
    path = tmp_path / "non_ascii.ciot"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out == "errors=1 warnings=0\n"
    assert err == f"{path}:{line}:{column}: error E_LEX unexpected character {char!r}\n"


def test_validate_accepts_non_ascii_in_strings_and_comments(capsys, tmp_path):
    path = tmp_path / "strings.ciot"
    path.write_text(
        "// caf\u00e9 \u00b2 \u2014 \u6e29\u5ea6\n"
        "component C : IoTElement {\n"
        '    property label: string = "caf\u00e9 \u00b2\u00b3"; // \u00e9\n'
        "}\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out, err) == (0, "errors=0 warnings=0\n", "")


@pytest.mark.parametrize("opener", ["(", "not "])
def test_validate_deep_guard_is_one_line_parse_error(capsys, tmp_path, parking_path, opener):
    guard = 'payload.state == "high"'
    deep = opener * 3000 + guard + (")" * 3000 if opener == "(" else "")
    path = tmp_path / "deep.ciot"
    text = pathlib.Path(parking_path).read_text(encoding="utf-8")
    path.write_text(text.replace(f"[{guard}]", f"[{deep}]", 1), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out == "errors=1 warnings=0\n"
    assert err.count("\n") == 1 and "error E_PARSE expression nested deeper than" in err


@pytest.mark.parametrize(
    "initial, message",
    [
        ("1" + "0" * 5000, "integer literal of 5001 digits is out of range"),
        ("1" + "0" * 400 + ".0", "float literal is out of range"),
    ],
    ids=["int_past_digit_limit", "float_to_inf"],
)
def test_validate_out_of_range_literal_is_one_line_parse_error(capsys, tmp_path, parking_path, initial, message):
    path = tmp_path / "range.ciot"
    text = pathlib.Path(parking_path).read_text(encoding="utf-8")
    path.write_text(text.replace("property threshold: float = 300.0;", f"property threshold: float = {initial};"))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (1, "errors=1 warnings=0\n")
    assert err.count("\n") == 1 and f"error E_PARSE {message}" in err
    assert "internal error" not in err


def test_unexpected_exception_is_one_line_exit_1(capsys, monkeypatch, parking_path):
    def broken(path):
        raise RuntimeError("boom")

    monkeypatch.setattr("ciot.cli.collect_diagnostics_file", broken)
    code, out, err = run_cli(capsys, "validate", parking_path)
    assert (code, out, err) == (1, "", "ciot: internal error: RuntimeError: boom\n")


# --- run --------------------------------------------------------------------


def test_run_without_injections_prints_init_trace(capsys, parking_path):
    code, out, err = run_cli(capsys, "run", parking_path)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all("kind=state_entered" in line for line in lines)
    assert lines[0] == "seq=0 t=0 inst=node kind=state_entered state=ACQUISITION"


def test_run_with_injection_drives_indicators(capsys, parking_path):
    code, out, err = run_cli(
        capsys, "run", parking_path, "--inject", "node.pSense.evtReading{duration=450.0}"
    )
    assert code == 0
    assert "inst=node.green kind=state_entered state=ON" in out
    assert out.endswith("state=ON\n")


def test_run_trace_file_option(capsys, tmp_path, parking_path):
    target = tmp_path / "out.trace"
    code, out, err = run_cli(capsys, "run", parking_path, "--trace", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("seq=0 t=0 inst=node")


def test_run_malformed_inject_spec(capsys, parking_path):
    code, out, err = run_cli(capsys, "run", parking_path, "--inject", "nonsense")
    assert code == 2
    assert "E_USAGE" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_run_inject_non_finite_value_is_usage_error(capsys, parking_path, value):
    code, out, err = run_cli(capsys, "run", parking_path, "--inject", f"node.pSense.evtReading{{duration={value}}}")
    assert code == 2
    assert out == ""
    assert f"error E_USAGE field value {value!r} is not a finite number" in err


@pytest.mark.parametrize("sign", ["", "-", "+"])
def test_run_inject_int_past_digit_limit_is_one_short_usage_error(capsys, parking_path, sign):
    nines = sign + "9" * 5000
    code, out, err = run_cli(capsys, "run", parking_path, "--inject", f"node.pSense.evtReading{{duration={nines}}}")
    assert (code, out) == (2, "")
    assert err == "<input>: error E_USAGE field value of 5000 digits is out of range\n"
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "value, digits",
    [
        ("9" * 5000 + ".5", 5001),
        ("-" + "9" * 5000 + ".", 5000),
        ("+" + "9" * 4999 + ".99", 5001),
        ("1e" + "9" * 5000, 5001),
        ("-2.5E+" + "9" * 5000, 5002),
        (".5e" + "9" * 5000, 5001),
        ("\u0669" * 5000, 5000),
        ("1_" * 5000 + "1", 5001),
        ("-" + "0" * 5000 + "9" * 5000, 5000),
        ("0" * 5000 + "9" * 5000 + ".5", 5001),
    ],
    ids=[
        "point_five",
        "minus_trailing_point",
        "plus_two_places",
        "exponent",
        "signed_exponent",
        "point_mantissa",
        "arabic_indic_digits",
        "underscores",
        "leading_zeros",
        "decimal_leading_zeros",
    ],
)
def test_run_inject_huge_decimal_is_one_short_usage_error(capsys, parking_path, value, digits):
    code, out, err = run_cli(capsys, "run", parking_path, "--inject", f"node.pSense.evtReading{{duration={value}}}")
    assert (code, out) == (2, "")
    assert err == f"<input>: error E_USAGE field value of {digits} digits is out of range\n"
    assert len(err.encode()) < 200


def test_inject_int_padded_past_digit_limit_reads_as_its_value():
    """Leading zeros do not count against the interpreter's int-string digit
    limit, so the value stays an int and is not read as a float."""
    [*_, payload] = _parse_inject_spec("node.pSense.evtReading{n=" + "0" * 4999 + "5}")
    assert (payload, type(payload["n"])) == ({"n": 5}, int)


# (quoted text, decoded value): "\\n" is a backslash and an n, not a newline.
STRING_ESCAPES = [('"a\\\\n"', "a\\n"), ('"\\""', '"'), ('"\\\\\\\\"', "\\\\")]


@pytest.mark.parametrize("quoted, value", STRING_ESCAPES, ids=["backslash_n", "quote", "two_backslashes"])
def test_inject_strings_decode_like_model_literals(quoted, value):
    assert parse_expression(quoted).value == value
    spec = f"node.pSense.evtReading{{text={quoted},n=1}}"
    assert _parse_inject_spec(spec) == ("node", "pSense", "evtReading", {"text": value, "n": 1})


# A payload with a record field, as in the engine's nested-payload trace test.
NESTED_PAYLOAD_MODEL = (
    "payload R { x: int; }\n"
    "payload P { r: R; n: int; }\n"
    "interface I { op o(P); }\n"
    "component C : Board {\n"
    "    port p provides I;\n"
    "    event e incoming port p payload P action a;\n"
    "    action a receive port p payload P;\n"
    "    statemachine { initial state S {} }\n"
    "}\n"
    "instance c: C;\n"
)


def test_run_inject_nested_record(capsys, tmp_path):
    model = tmp_path / "nested.ciot"
    model.write_text(NESTED_PAYLOAD_MODEL, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(model), "--inject", "c.p.e{r={x=1},n=2}")
    assert (code, err) == (0, "")
    assert "seq=1 t=0 inst=c kind=event_delivered event=e eseq=0 from=env payload={r={x=1},n=2}\n" in out


def test_inject_value_nested_past_the_limit_is_one_usage_error(capsys, parking_path):
    spec = "node.pSense.evtReading{duration=" + "{a=" * 101 + "1" + "}" * 102
    code, out, err = run_cli(capsys, "run", parking_path, "--inject", spec)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "error E_USAGE malformed injection" in err
    assert err.endswith("values nested deeper than 100 levels\n")


def test_run_inject_int_beyond_float_range_is_type_error(capsys, parking_path):
    nines = "9" * 400
    code, out, err = run_cli(capsys, "run", parking_path, "--inject", f"node.pSense.evtReading{{duration={nines}}}")
    assert code == 1
    assert out == ""
    assert err == (
        "<input>: error E_TYPE event 'evtReading': payload field 'duration' expects a finite float, "
        "got an int of 1329 bits\n"
    )


def test_run_step_limit_exits_1(capsys, parking_path):
    code, out, err = run_cli(
        capsys, "run", parking_path, "--max-steps", "2", "--inject", "node.pSense.evtReading{duration=450.0}"
    )
    assert (code, out) == (1, "")
    assert err == "<input>: error E_STEP_LIMIT model did not quiesce within 2 steps\n"


@pytest.mark.parametrize("command", ["run", "simulate"])
def test_negative_max_steps_is_one_line_domain_error(capsys, parking_path, arrive_depart_path, command):
    scenario = [arrive_depart_path] if command == "simulate" else []
    code, out, err = run_cli(capsys, command, parking_path, *scenario, "--max-steps", "-3")
    assert (code, out) == (1, "")
    assert err == "<input>: error E_DOMAIN max_steps must be a non-negative integer, got -3\n"


def test_cli_defaults_are_the_api_defaults():
    parser = _build_parser()
    run = parser.parse_args(["run", "m.ciot"])
    sim = parser.parse_args(["simulate", "m.ciot", "s.scn"])
    api = inspect.signature(simulate).parameters
    steps = inspect.signature(run_to_quiescence).parameters["max_steps"].default
    assert run.max_steps == sim.max_steps == api["max_steps"].default == steps
    assert (sim.speed, sim.floor_distance_m) == (api["speed_m_per_s"].default, api["floor_distance_m"].default)

def test_run_zero_max_steps_is_valid(capsys, parking_path):
    code, out, err = run_cli(capsys, "run", parking_path, "--max-steps", "0")
    assert (code, err) == (0, "")
    assert out.startswith("seq=0 t=0 inst=node kind=state_entered state=ACQUISITION\n")


def test_run_inject_unknown_target(capsys, parking_path):
    code, out, err = run_cli(
        capsys, "run", parking_path, "--inject", "node.ghost.evt{duration=1.0}"
    )
    assert code == 1
    assert "E_BAD_TARGET" in err


# --- simulate ----------------------------------------------------------------


def test_simulate_duration_scenario(capsys, parking_path, arrive_depart_path):
    code, out, err = run_cli(capsys, "simulate", parking_path, arrive_depart_path)
    assert code == 0
    assert out == "t=0 status=vacant\nt=5000 status=occupied\nt=12000 status=vacant\n"


def test_simulate_physical_scenario_with_threshold(capsys, parking_path, physical_path):
    code, out, err = run_cli(
        capsys, "simulate", parking_path, physical_path, "--threshold-ms", "5"
    )
    assert code == 0
    assert out == "t=0 status=vacant\nt=5000 status=occupied\nt=12000 status=vacant\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_simulate_non_finite_threshold_fails(capsys, parking_path, arrive_depart_path, value):
    code, out, err = run_cli(capsys, "simulate", parking_path, arrive_depart_path, "--threshold-ms", value)
    assert code == 1
    assert out == ""
    assert err == f"<input>: error E_DOMAIN no component declares a property named 'threshold' accepting {value}\n"


@pytest.mark.parametrize(
    "option, value, name",
    [
        ("--speed", "inf", "speed_m_per_s"),
        ("--speed", "1e400", "speed_m_per_s"),
        ("--speed", "nan", "speed_m_per_s"),
        ("--floor-distance-m", "inf", "floor_distance_m"),
        ("--floor-distance-m", "nan", "floor_distance_m"),
    ],
    ids=["speed_inf", "speed_1e400", "speed_nan", "floor_inf", "floor_nan"],
)
def test_simulate_non_finite_physics_option_fails(capsys, parking_path, physical_path, option, value, name):
    code, out, err = run_cli(capsys, "simulate", parking_path, physical_path, option, value)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and len(err) < 100
    assert f"error E_DOMAIN {name} must be a finite positive number" in err


def test_simulate_int_beyond_float_range_in_effect_fails(capsys, tmp_path, big_int_effect_text, arrive_depart_path):
    model = tmp_path / "big.ciot"
    model.write_text(big_int_effect_text, encoding="utf-8")
    assert run_cli(capsys, "validate", str(model))[0] == 0
    code, out, err = run_cli(capsys, "simulate", str(model), arrive_depart_path)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "error E_EVAL node.sensor: property 'duration'" in err


def test_simulate_horizon_zero(capsys, tmp_path, parking_path):
    scn = tmp_path / "zero.scn"
    scn.write_text("mode=duration\nhorizon_ms=0\n")
    code, out, err = run_cli(capsys, "simulate", parking_path, str(scn))
    assert code == 0
    assert out == ""


def test_simulate_unbounded_horizon_fails_promptly(capsys, tmp_path, parking_path):
    scn = tmp_path / "googol.scn"
    scn.write_text("mode=duration\nhorizon_ms=1" + "0" * 100 + "\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", parking_path, str(scn))
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (1, "")
    assert err == f"{scn}: error E_SCENARIO line 2: scenario runs more than {MAX_TICKS} ticks of the sample period\n"


def test_simulate_writes_trace_file(capsys, tmp_path, parking_path, arrive_depart_path):
    target = tmp_path / "sim.trace"
    code, out, err = run_cli(
        capsys, "simulate", parking_path, arrive_depart_path, "--trace", str(target)
    )
    assert code == 0
    text = target.read_text()
    assert text.startswith("seq=0 t=0 ")
    assert text.endswith("\n")


def test_simulate_bad_scenario(capsys, tmp_path, parking_path):
    scn = tmp_path / "bad.scn"
    scn.write_text("mode=duration\n")
    code, out, err = run_cli(capsys, "simulate", parking_path, str(scn))
    assert code == 1
    assert "E_SCENARIO" in err


def test_simulate_non_finite_echo_fails(capsys, tmp_path, parking_path):
    scenario = tmp_path / "nan.scn"
    scenario.write_text("mode=duration\nhorizon_ms=100\nat 0 slot node echo nan\n")
    code, out, err = run_cli(capsys, "simulate", parking_path, str(scenario))
    assert code == 1
    assert out == ""
    assert err == f"{scenario}: error E_SCENARIO line 3: echo value nan is not a finite number\n"


def test_simulate_scenario_rule_fault_names_the_file_and_line(capsys, tmp_path, parking_path, arrive_depart_path):
    scenario = tmp_path / "late.scn"
    text = pathlib.Path(arrive_depart_path).read_text(encoding="utf-8")
    scenario.write_text(text + "at 0 slot node echo 1\n", encoding="utf-8")
    line = len(text.splitlines()) + 1
    code, out, err = run_cli(capsys, "simulate", parking_path, str(scenario))
    assert (code, out) == (1, "")
    assert err.startswith(f"{scenario}: error E_SCENARIO line {line}: stimuli out of order: 0 ms after ")
    assert err.count("\n") == 1


def test_simulate_unbound_slot_names_the_scenario_file(capsys, tmp_path, parking_path):
    scenario = tmp_path / "ghost.scn"
    scenario.write_text("mode=duration\nhorizon_ms=0\nat 0 slot ghost echo 1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", parking_path, str(scenario))
    assert (code, out) == (1, "")
    assert err == f"{scenario}: error E_UNBOUND_SENSOR slot 'ghost' matches no sensing instance\n"


def test_simulate_repeat_runs_identical(capsys, parking_path, arrive_depart_path):
    first = run_cli(capsys, "simulate", parking_path, arrive_depart_path)
    second = run_cli(capsys, "simulate", parking_path, arrive_depart_path)
    assert first == second


@pytest.fixture()
def two_node_path(tmp_path, parking_path):
    # a second node brings a second pair of indicators, so no timeline can be read
    text = pathlib.Path(parking_path).read_text(encoding="utf-8")
    model = tmp_path / "two_nodes.ciot"
    model.write_text(text + "\ninstance node2: Node;\n", encoding="utf-8")
    return str(model)


def test_simulate_two_led_pairs_fails_before_simulating(capsys, monkeypatch, two_node_path, arrive_depart_path):
    def no_simulate(*args, **kwargs):
        pytest.fail("simulate ran although the timeline cannot be read")

    monkeypatch.setattr("ciot.cli.simulate", no_simulate)
    code, out, err = run_cli(capsys, "simulate", two_node_path, arrive_depart_path)
    assert code == 1
    assert out == ""
    assert err.startswith(f"{two_node_path}: error E_TRACE ") and "found 2 and 2" in err


def test_simulate_two_led_pairs_still_writes_trace(capsys, tmp_path, two_node_path, arrive_depart_path):
    target = tmp_path / "sim.trace"
    code, out, err = run_cli(capsys, "simulate", two_node_path, arrive_depart_path, "--trace", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"{two_node_path}: error E_TRACE ") and "found 2 and 2" in err
    text = target.read_text()
    assert text.startswith("seq=0 t=0 ") and "inst=node2.red kind=state_entered" in text


# --- export -------------------------------------------------------------------


def test_export_model_is_canonical_text(capsys, parking_path):
    code, out, err = run_cli(capsys, "export", parking_path)
    assert code == 0
    assert out.startswith("payload LedCommand {")
    from ciot import load_text, structurally_equal
    from ciot.loader import load_file

    assert structurally_equal(load_text(out), load_file(parking_path))


def test_export_sm_dot(capsys, parking_path):
    code, out, err = run_cli(
        capsys, "export", parking_path, "--kind", "sm", "--component", "Node"
    )
    assert code == 0
    assert out.startswith('digraph "Node" {')
    assert out.count("->") == 6


def test_export_structure_dot(capsys, parking_path):
    code, out, err = run_cli(
        capsys, "export", parking_path, "--kind", "structure", "--component", "Node"
    )
    assert code == 0
    assert out.startswith("digraph structure {")
    assert out.count("subgraph") == 4


def test_export_sm_requires_component(capsys, parking_path):
    code, out, err = run_cli(capsys, "export", parking_path, "--kind", "sm")
    assert code == 2
    assert "E_USAGE" in err


def test_export_sm_without_machine(capsys, tmp_path):
    model = tmp_path / "bare.ciot"
    model.write_text("component Bare : Board {}\n")
    code, out, err = run_cli(
        capsys, "export", str(model), "--kind", "sm", "--component", "Bare"
    )
    assert code == 1
    assert "E_NO_MACHINE" in err


def test_export_output_file(capsys, tmp_path, parking_path):
    target = tmp_path / "model.ciot"
    code, out, err = run_cli(capsys, "export", parking_path, "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("payload LedCommand {")


def test_export_skips_validation(capsys, corpus_dir):
    # structural exports work even on rule-violating models
    path = str(corpus_dir / "mutations" / "r1_no_initial.ciot")
    code, out, err = run_cli(capsys, "export", path, "--kind", "sm", "--component", "Node")
    assert code == 0
    assert out.startswith('digraph "Node" {')


# --- deep composition ----------------------------------------------------------


def deep_composition(parking_path, depth: int) -> str:
    """The parking node under a root-first chain of ``depth`` components,
    each instancing the next; the root instance sits on top."""
    parking = pathlib.Path(parking_path).read_text(encoding="utf-8").replace("instance node: Node;\n", "")
    links = [f"component C{i} : Board {{ instance n: C{i + 1}; }}\n" for i in range(depth - 1)]
    last = f"component C{depth - 1} : Board {{ instance node: Node; }}\n"
    return "".join(links) + last + parking + "instance root: C0;\n"


# Far past the interpreter's recursion limit. The structure DOT grows with
# the square of the depth (indentation and cluster names), so it gets less.
DEPTH = 3000
DOT_DEPTH = 1200


def test_deep_composition_validates(capsys, tmp_path, parking_path):
    model = tmp_path / "deep.ciot"
    model.write_text(deep_composition(parking_path, DEPTH), encoding="utf-8")
    assert run_cli(capsys, "validate", str(model)) == (0, "errors=0 warnings=0\n", "")


def test_deep_composition_runs(capsys, tmp_path, parking_path):
    model = tmp_path / "deep.ciot"
    model.write_text(deep_composition(parking_path, DEPTH), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(model))
    assert (code, err) == (0, "")
    assert f"inst=root{'.n' * (DEPTH - 1)}.node.sensor kind=state_entered state=SENSE\n" in out


def test_deep_composition_exports_structure(capsys, tmp_path, parking_path):
    model, target = tmp_path / "deep.ciot", tmp_path / "deep.dot"
    model.write_text(deep_composition(parking_path, DOT_DEPTH), encoding="utf-8")
    argv = ("export", str(model), "--kind", "structure", "--component", "C0", "-o", str(target))
    assert run_cli(capsys, *argv) == (0, "", "")
    dot = target.read_text(encoding="utf-8")
    assert dot.count("subgraph") == DOT_DEPTH + 4  # the chain, then the node and its three parts
    assert dot.endswith("    }\n}\n")


def test_deep_composition_simulates_with_override(capsys, tmp_path, parking_path):
    """The override reaches the node at the bottom: the floor echo of about
    14.6 ms reads vacant at 5 ms, where the declared 300 ms reads occupied."""
    model, scenario = tmp_path / "deep.ciot", tmp_path / "floor.scn"
    model.write_text(deep_composition(parking_path, DEPTH), encoding="utf-8")
    scenario.write_text("mode=physical\nhorizon_ms=0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", str(model), str(scenario), "--threshold-ms", "5")
    assert (code, out, err) == (0, "t=0 status=vacant\n", "")


# --- argument handling ----------------------------------------------------------


def test_usage_block_lists_every_option_of_every_subcommand():
    # Each subcommand's entry runs from "ciot NAME" to the next entry or the blank line after the block.
    entries = dict(re.findall(r"ciot (\w+)(.*?)(?=\n    ciot |\n\n)", cli.__doc__, re.S))
    [commands] = [a.choices for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(entries) == sorted(commands)
    for name, command in commands.items():
        options = [o for a in command._actions if not isinstance(a, argparse._HelpAction) for o in a.option_strings]
        missing = [o for o in options if not re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", entries[name])]
        assert missing == [], name


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_no_arguments_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2

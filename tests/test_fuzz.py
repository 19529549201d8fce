"""Boundary fuzzers: every text input ends in a value or a CiotError.

Three boundaries take text from outside the program: model text, scenario
text and ``--inject`` specs. Each property feeds one of them generated text
and lets the result run on as far as the CLI would take it; any exception
other than ``CiotError`` fails the property.
"""

from __future__ import annotations

import pathlib
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from ciot import load_scenario, load_text, simulate
from ciot.cli import _parse_inject_spec
from ciot.diagnostics import CiotError
from ciot.engine import inject, instantiate, quiesce
from ciot.lexer import KEYWORDS

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_MODELS = [
    p.read_text(encoding="utf-8").split("\n")
    for p in [*sorted(CORPUS.glob("*.ciot")), *sorted((CORPUS / "mutations").glob("*.ciot"))]
]
_NAMES = sorted({w for lines in _MODELS for line in lines for w in _WORD.findall(line)} - KEYWORDS)
_FUZZ = settings(max_examples=60, deadline=None)


@st.composite
def model_texts(draw) -> str:
    """A committed model with member lines duplicated (after a member line)
    or deleted and identifiers swapped for other names the models use, so
    that most texts still parse and reach the resolver and the validator."""
    lines = list(draw(st.sampled_from(_MODELS)))
    edits = st.tuples(st.sampled_from(["dup", "del", "swap"]), st.integers(0, 999), st.integers(0, 999))
    for op, i, j in draw(st.lists(edits, max_size=4)):
        members = [k for k, line in enumerate(lines) if line.rstrip().endswith(";")]
        if op == "dup" and members:
            lines.insert(members[j % len(members)] + 1, lines[members[i % len(members)]])
        elif op == "del" and members:
            del lines[members[i % len(members)]]
        elif op == "swap" and lines:
            i %= len(lines)
            words = [m for m in _WORD.finditer(lines[i]) if m.group() not in KEYWORDS]
            if words:
                m = words[j % len(words)]
                lines[i] = lines[i][: m.start()] + draw(st.sampled_from(_NAMES)) + lines[i][m.end() :]
    return "\n".join(lines)


@_FUZZ
@given(text=model_texts())
def test_model_text_ends_in_model_or_ciot_error(text):
    try:
        quiesce(instantiate(load_text(text, "fuzz.ciot")), 500)
    except CiotError:
        pass


_NUMBERS = st.sampled_from(
    ["0", "1", "100", "320", "250", "-5", "0.5", "2.5", "1e3", "nan", "inf", "-inf", "x", "9" * 400, "9" * 5000]
)
_SCENARIO_LINES = st.one_of(
    st.sampled_from(
        [
            "mode=duration",
            "mode=physical",
            "mode=sideways",
            "# comment",
            "",
            "horizon=5",
            "at",
            "at 0 slot node",
            "garbage line",
        ]
    ),
    st.builds("horizon_ms={}".format, _NUMBERS),
    st.builds("sample_period_ms={}".format, _NUMBERS),
    st.builds(
        "at {} slot {} {} {}".format,
        _NUMBERS,
        st.sampled_from(["node", "node.sensor", "ghost", "node.red"]),
        st.sampled_from(["echo", "occupy", "vacate", "blink"]),
        st.one_of(_NUMBERS, st.just("")),
    ),
)


@_FUZZ
@given(lines=st.lists(_SCENARIO_LINES, max_size=8))
def test_scenario_text_ends_in_result_or_ciot_error(shared_parking_model, lines):
    try:
        scenario = load_scenario("\n".join(lines), "fuzz.scn")
        # Simulated only when it is short, to bound the run time; every
        # scenario that loads is still checked up to here.
        if scenario.horizon_ms // scenario.sample_period_ms <= 40:
            simulate(shared_parking_model(), scenario, max_steps=500)
    except CiotError:
        pass


_FIELD_VALUES = st.one_of(
    _NUMBERS,
    st.sampled_from(["true", "false", '"s"', '"a\\"b"', '"', "{}", "{duration=1}", "", "1_0", "+7", "-" + "9" * 5000]),
)
_PAIRS = st.builds("{}={}".format, st.sampled_from(["duration", "value", "", "x y"]), _FIELD_VALUES)
# Half the specs name the sensing event that the parking node accepts, so
# that their values reach the engine's payload check.
_SPECS = st.builds(
    "{}{}".format,
    st.one_of(
        st.just("node.pSense.evtReading"),
        st.builds(
            "{}.{}.{}".format,
            st.sampled_from(["node", "node.sensor", "node.red", "ghost", "", "node."]),
            st.sampled_from(["pSense", "pRed", "p1", "ghost", ""]),
            st.sampled_from(["evtReading", "evtCommand", "evtSense", "ghost", ""]),
        ),
    ),
    st.one_of(
        st.builds("{{duration={}}}".format, _FIELD_VALUES),
        st.builds(lambda pairs: "{" + ",".join(pairs) + "}", st.lists(_PAIRS, max_size=3)),
        st.sampled_from(["", "{"]),
    ),
)


@settings(max_examples=150, deadline=None)
@given(spec=_SPECS)
def test_inject_spec_ends_in_run_or_ciot_error(shared_parking_model, spec):
    rt = instantiate(shared_parking_model())
    try:
        path, port, event, values = _parse_inject_spec(spec)
        inject(rt, path, port, event, values)
        quiesce(rt, 500)
    except CiotError:
        pass

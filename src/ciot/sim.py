"""Discrete-event simulation of sensing scenarios against a model.

The simulator owns the clock. It ticks at a fixed sample period from 0 to
the horizon inclusive, applies pending environment stimuli at each tick,
probes every bound distance sensor, and lets the engine run to quiescence
after each probe. The engine never sees time; it only stamps records with
the clock the simulator sets.

Scenario files are plain text: ``#`` comments, ``key=value`` headers
(``mode``, ``horizon_ms``, ``sample_period_ms``), then stimuli, one per line:

    at <ms> slot <path> occupy <distance_m>
    at <ms> slot <path> vacate
    at <ms> slot <path> echo <duration_ms>

``duration`` mode feeds echo durations straight to the sensor; ``physical``
mode tracks object distance per slot and converts it with ``echo_duration``.
A vacant slot in physical mode reads the floor at ``floor_distance_m``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import attrgetter

from .diagnostics import CiotError, read_text, require_type
from .engine import DEFAULT_MAX_STEPS, RuntimeState, bind_internal, instantiate, run_to_quiescence
from .guards import PrimType, describe_value, fit_value
from .metamodel import ComponentDef, EventDef, EventDirection, Model
from .trace import TraceRecord

DEFAULT_SAMPLE_PERIOD_MS = 100
DEFAULT_FLOOR_DISTANCE_M = 2.5
DEFAULT_SPEED_M_PER_S = 343.0
# Ticks from 0 to the horizon a run may take, so every scenario ends promptly.
MAX_TICKS = 1_000_000

# Names the simulator reads off a parking-node model: the indicator components
# whose states make the timeline, the echo field of the sensing payload, and the
# property that ``--threshold-ms`` overrides.
RED_LED = "RedLED"
GREEN_LED = "GreenLED"
ECHO_FIELD = "duration"
THRESHOLD_PROPERTY = "threshold"

MODES = ("duration", "physical")
# Numbers written out in digits: int() refuses one past the interpreter's
# int-string digit limit, and float() reads one past float range as inf.
# Errors name such a number by its digit count instead of echoing it.
# NUMBER_DIGITS, a decimal in plain or exponent form, is also the rule for
# the values of the CLI's ``--inject``.
_INT_DIGITS = re.compile(r"[+-]?[0-9]+")
NUMBER_DIGITS = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_VERBS = {"duration": ("echo",), "physical": ("occupy", "vacate")}


@dataclass(frozen=True)
class Stimulus:
    time_ms: int
    slot: str
    verb: str  # occupy | vacate | echo
    value: float | None


@dataclass
class Scenario:
    mode: str
    horizon_ms: int
    sample_period_ms: int = DEFAULT_SAMPLE_PERIOD_MS
    stimuli: list[Stimulus] = field(default_factory=list)
    source: str | None = None


@dataclass
class SimResult:
    runtime: RuntimeState
    scenario: Scenario

    @property
    def trace(self) -> list[TraceRecord]:
        return self.runtime.trace


def echo_duration(distance_m: float, speed_m_per_s: float = DEFAULT_SPEED_M_PER_S) -> float:
    """Round-trip ultrasonic echo time in milliseconds."""
    distance = _positive("distance", distance_m)
    speed = _positive("speed", speed_m_per_s)
    duration = 2.0 * distance / speed * 1000.0
    if not math.isfinite(duration):
        raise CiotError.of("E_DOMAIN", f"echo time of {distance!r} m at {speed!r} m/s is beyond float range")
    return duration


def _positive(name: str, value) -> float:
    """``value`` as a float, or E_DOMAIN naming ``name`` unless it is a finite
    positive number. The message shows a number by ``describe_value``, which
    names a huge int by its size, and anything else by its type."""
    number = fit_value(PrimType.FLOAT, value)
    if number is None or number <= 0:
        shown = describe_value(value) if isinstance(value, (int, float)) else type(value).__name__
        raise CiotError.of("E_DOMAIN", f"{name} must be a finite positive number, got {shown}")
    return number


def load_scenario(text: str, source: str | None = None) -> Scenario:
    require_type(text, str, "text")
    mode: str | None = None
    horizon: int | None = None
    period = DEFAULT_SAMPLE_PERIOD_MS
    stimuli: list[Stimulus] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"line {lineno}: "
        if line.startswith("at ") or line == "at":
            stimuli.append(_parse_stimulus(line, where))
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "mode":
                mode = _check_mode(value, where)
            elif key == "horizon_ms":
                horizon = _parse_int(value, key, where)
            elif key == "sample_period_ms":
                period = _parse_int(value, key, where)
            else:
                raise CiotError.of("E_SCENARIO", f"{where}unknown header {key!r}")
            continue
        raise CiotError.of("E_SCENARIO", f"{where}cannot parse {line!r}")

    if mode is None:
        raise CiotError.of("E_SCENARIO", "scenario does not set mode=")
    if horizon is None:
        raise CiotError.of("E_SCENARIO", "scenario does not set horizon_ms=")
    return _check_scenario(Scenario(mode, horizon, period, stimuli, source))


def load_scenario_file(path: str) -> Scenario:
    return load_scenario(read_text(path), path)


def _check_scenario(scenario: Scenario) -> Scenario:
    """``scenario``, or E_SCENARIO unless it keeps every scenario rule."""
    mode = _check_mode(scenario.mode, "")
    horizon = _check_type(scenario.horizon_ms, int, "horizon_ms")
    if horizon < 0:
        raise CiotError.of("E_SCENARIO", f"horizon_ms must be non-negative, got {describe_value(horizon)}")
    period = _check_type(scenario.sample_period_ms, int, "sample_period_ms")
    if period <= 0:
        raise CiotError.of("E_SCENARIO", f"sample_period_ms must be positive, got {describe_value(period)}")
    stimuli = _check_type(scenario.stimuli, list, "stimuli")
    for i, st in enumerate(stimuli):
        _check_type(st, Stimulus, "stimuli[{i}]", i)
        _check_type(st.slot, str, "stimuli[{i}].slot", i)
        _check_time(_check_type(st.time_ms, int, "stimuli[{i}].time_ms", i), "stimuli[{i}]: ", i)
        if i and st.time_ms < stimuli[i - 1].time_ms:
            raise CiotError.of("E_SCENARIO", f"stimuli out of order: {st.time_ms} ms after {stimuli[i - 1].time_ms} ms")
    verbs = _VERBS[mode]
    for i, st in enumerate(stimuli):
        if st.verb not in verbs:
            raise CiotError.of("E_SCENARIO", f"stimulus {st.verb!r} is not valid in {mode} mode")
        fault = _value_fault(st.verb, st.value)
        if fault is not None:
            raise CiotError.of("E_SCENARIO", f"stimuli[{i}]: {fault}")
        if st.time_ms > horizon:
            raise CiotError.of("E_SCENARIO", f"stimulus at {st.time_ms} ms lies beyond horizon_ms={horizon}")
    return scenario


def _check_type(value, kind: type, what: str, i: int | None = None):
    """``value`` if its type is exactly ``kind`` (a bool is no int), else
    E_SCENARIO naming it ``what``, whose ``{i}`` is filled in only then."""
    if type(value) is not kind:
        message = f"{what.format(i=i)} must be of type {kind.__name__}, got {describe_value(value)}"
        raise CiotError.of("E_SCENARIO", message)
    return value


def _check_mode(mode, where: str) -> str:
    if mode not in MODES:
        raise CiotError.of("E_SCENARIO", f"{where}mode must be one of {MODES}, got {mode!r}")
    return mode


def _check_time(time_ms: int, where: str, i: int | None = None) -> int:
    if time_ms < 0:
        raise CiotError.of("E_SCENARIO", f"{where.format(i=i)}stimulus time must be non-negative")
    return time_ms


def _value_fault(verb: str, value, text: str | None = None) -> str | None:
    """What is wrong with a stimulus value, or None when it is right: None for
    ``vacate``, finite and above 0 for ``occupy``, finite and 0 or more for
    ``echo``. A message shows the value by ``text``, its token in a scenario
    file, when there is one."""
    if verb == "vacate":
        return None if value is None else "vacate takes no value"
    number = fit_value(PrimType.FLOAT, value)
    if number is None:
        return f"{verb} value {describe_value(value) if text is None else repr(text)} is not a finite number"
    if verb == "occupy" and number <= 0:
        return "occupy distance must be positive"
    if verb == "echo" and number < 0:
        return "echo duration must be non-negative"
    return None


def _parse_stimulus(line: str, where: str) -> Stimulus:
    tokens = line.split()
    if len(tokens) < 5 or tokens[0] != "at" or tokens[2] != "slot":
        raise CiotError.of("E_SCENARIO", f"{where}expected 'at <ms> slot <path> <verb> [value]'")
    time_ms = _check_time(_parse_int(tokens[1], "time", where), where)
    slot, verb, args = tokens[3], tokens[4], tokens[5:]
    if verb == "vacate":
        if args:
            raise CiotError.of("E_SCENARIO", f"{where}vacate takes no value")
        return Stimulus(time_ms, slot, verb, None)
    if verb not in ("occupy", "echo"):
        raise CiotError.of("E_SCENARIO", f"{where}unknown stimulus verb {verb!r}")
    if len(args) != 1:
        raise CiotError.of("E_SCENARIO", f"{where}{verb} needs exactly one value")
    try:
        value = float(args[0])
    except ValueError:
        raise CiotError.of("E_SCENARIO", f"{where}{verb} value {args[0]!r} is not a number")
    if math.isinf(value) and NUMBER_DIGITS.fullmatch(args[0]):
        raise _out_of_range(args[0], f"{verb} value", where)
    fault = _value_fault(verb, value, args[0])
    if fault is not None:
        raise CiotError.of("E_SCENARIO", where + fault)
    return Stimulus(time_ms, slot, verb, value)


def _parse_int(text: str, what: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        if _INT_DIGITS.fullmatch(text):
            raise _out_of_range(text, what, where)
        raise CiotError.of("E_SCENARIO", f"{where}{what} {text!r} is not an integer")


def _out_of_range(text: str, what: str, where: str) -> CiotError:
    """The error for a number too large to hold, which names its length, not its digits."""
    digits = sum(ch.isdigit() for ch in text)
    return CiotError.of("E_SCENARIO", f"{where}{what} of {digits} digits is out of range")


def _sensing_event(comp: ComponentDef) -> EventDef | None:
    """A component senses iff exactly one generic event carries a payload
    that is exactly one float field named ``ECHO_FIELD``."""
    found = []
    for ev in comp.events:
        if ev.direction is not EventDirection.GENERIC or ev.payload is None:
            continue
        fields = ev.payload.fields
        if len(fields) == 1 and fields[0].name == ECHO_FIELD and fields[0].type is PrimType.FLOAT:
            found.append(ev)
    return found[0] if len(found) == 1 else None


def bind_environment(rt: RuntimeState, slots: list[str]) -> dict[str, list[tuple[str, str]]]:
    """Map each scenario slot to the sensing instances at or beneath it."""
    # Each sensor under every dotted prefix of its path, in depth-first order.
    beneath: dict[str, list[tuple[str, str]]] = {}
    sensing: dict[int, EventDef | None] = {}  # by id(component)
    for path in rt.order:
        comp = rt.instances[path].component
        if id(comp) not in sensing:
            sensing[id(comp)] = _sensing_event(comp)
        ev = sensing[id(comp)]
        if ev is None:
            continue
        parts = path.split(".")
        for depth in range(1, len(parts) + 1):
            beneath.setdefault(".".join(parts[:depth]), []).append((path, ev.name))
    for slot in slots:
        if slot not in beneath:
            raise CiotError.of("E_UNBOUND_SENSOR", f"slot {slot!r} matches no sensing instance")
    return {slot: beneath[slot] for slot in slots}


def simulate(
    model: Model,
    scenario: Scenario,
    *,
    speed_m_per_s: float = DEFAULT_SPEED_M_PER_S,
    sample_period_ms: int | None = None,
    floor_distance_m: float = DEFAULT_FLOOR_DISTANCE_M,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> SimResult:
    """Run ``scenario`` against a fresh instantiation of ``model``.

    ``speed_m_per_s`` and ``floor_distance_m`` must be finite and positive
    (E_DOMAIN otherwise), whatever the mode. Each bound sensor's event is
    looked up once per run; every reading is still conformed to its payload.
    """
    require_type(model, Model, "model")
    require_type(scenario, Scenario, "scenario")
    if sample_period_ms is not None:
        scenario = replace(scenario, sample_period_ms=sample_period_ms)
    period = _check_scenario(scenario).sample_period_ms
    if scenario.horizon_ms // period + 1 > MAX_TICKS:
        raise CiotError.of("E_SCENARIO", f"scenario runs more than {MAX_TICKS} ticks of the sample period")
    speed_m_per_s = _positive("speed_m_per_s", speed_m_per_s)
    floor_distance_m = _positive("floor_distance_m", floor_distance_m)
    rt = instantiate(model)
    run_to_quiescence(rt, max_steps)

    # With no stimuli, every root instance is a slot.
    slots = sorted({st.slot for st in scenario.stimuli}) or [p for p in rt.order if "." not in p]
    bound = bind_environment(rt, slots)
    triggers = {slot: [bind_internal(rt, path, event_name) for path, event_name in bound[slot]] for slot in slots}
    # Per slot, its last stimulus value: an echo, or a distance (None: no echo yet, or vacant).
    level: dict[str, float | None] = dict.fromkeys(slots)
    stimuli, applied = scenario.stimuli, 0
    physical = scenario.mode == "physical"
    for t_ms in range(0, scenario.horizon_ms + 1, period):
        rt.clock_us = t_ms * 1000
        while applied < len(stimuli) and stimuli[applied].time_ms <= t_ms:
            level[stimuli[applied].slot] = stimuli[applied].value
            applied += 1
        for slot in slots:
            reading = level[slot]
            if physical:
                reading = echo_duration(floor_distance_m if reading is None else reading, speed_m_per_s)
            elif reading is None:
                continue
            for trigger in triggers[slot]:
                trigger({ECHO_FIELD: reading})
                run_to_quiescence(rt, max_steps)
    return SimResult(rt, scenario)


def find_led_paths(instances: list[tuple[str, ComponentDef]]) -> tuple[str, str]:
    """Locate the red and green indicator instances by component name among
    (path, component) pairs, such as ``instance_paths(model)``, so a model
    can be checked before it runs."""
    reds = [p for p, comp in instances if comp.name == RED_LED]
    greens = [p for p, comp in instances if comp.name == GREEN_LED]
    if len(reds) != 1 or len(greens) != 1:
        raise CiotError.of(
            "E_TRACE",
            f"occupancy needs exactly one {RED_LED} and one {GREEN_LED} instance, found {len(reds)} and {len(greens)}",
        )
    return reds[0], greens[0]


def occupancy_timeline(result: SimResult) -> list[tuple[int, str]]:
    """Slot status over time, read off the LED states in the trace.

    The trace is replayed in order; at the end of each clock instant the two
    indicator states decide the sample: red ON means occupied, green ON means
    vacant, neither means no sample yet, both is a contradiction. Consecutive
    equal samples collapse.
    """
    require_type(result, SimResult, "result")
    rt = result.runtime
    red_path, green_path = find_led_paths([(p, rt.instances[p].component) for p in rt.order])
    state = {red_path: None, green_path: None}
    timeline: list[tuple[int, str]] = []
    for t_us, records in groupby(rt.trace, attrgetter("time_us")):
        for rec in records:
            if rec.kind == "state_entered" and rec.instance in state:
                state[rec.instance] = rec.values[0]
        red_on, green_on = state[red_path] == "ON", state[green_path] == "ON"
        if red_on and green_on:
            raise CiotError.of("E_TRACE", f"both indicators ON at t={t_us}us")
        status = "occupied" if red_on else "vacant" if green_on else None
        if status is not None and (not timeline or timeline[-1][1] != status):
            timeline.append((t_us // 1000, status))
    return timeline


def render_timeline(timeline: list[tuple[int, str]]) -> str:
    """The timeline as text, one ``t=<ms> status=<status>`` line per sample."""
    return "".join(f"t={t} status={status}\n" for t, status in timeline)

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

``load_scenario`` reads only the syntax of that text; ``_check_scenario``
states every scenario rule, the tick bound too, for text and, in ``simulate``,
for any ``Scenario``. A fault in text names the file and ``line N: ``; one in
a ``Scenario`` object names ``stimuli[i]: `` (or nothing, for a header).
"""

from __future__ import annotations

import math
import os
from itertools import groupby
from operator import itemgetter

from .diagnostics import CiotError, FrozenRecord, Record, read_text, require_type
from .engine import DEFAULT_MAX_STEPS, RuntimeState, enqueue, instantiate, run_to_quiescence
from .guards import PrimType, describe_value, fit_value, read_number
from .metamodel import ComponentDef, EventDef, EventDirection, Model
from .trace import Trace

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
_HEADERS = ("mode", "horizon_ms", "sample_period_ms")  # the first two are required
_VERBS = {"duration": ("echo",), "physical": ("occupy", "vacate")}


class Stimulus(FrozenRecord):
    """One scenario line: at ``time_ms``, ``verb`` on ``slot``."""

    __slots__ = ("time_ms", "slot", "verb", "value")

    def __init__(self, time_ms: int, slot: str, verb: str, value: float | None) -> None:
        init = object.__setattr__
        init(self, "time_ms", time_ms)
        init(self, "slot", slot)
        init(self, "verb", verb)  # occupy | vacate | echo
        init(self, "value", value)


# The default stimuli: each scenario built without them gets a new empty list.
_NO_STIMULI: list = []


class Scenario(Record):
    """A parsed scenario file: its mode, horizon, sample period and stimuli."""

    __slots__ = ("mode", "horizon_ms", "sample_period_ms", "stimuli", "source")

    def __init__(
        self,
        mode: str,
        horizon_ms: int,
        sample_period_ms: int = DEFAULT_SAMPLE_PERIOD_MS,
        stimuli: list[Stimulus] = _NO_STIMULI,
        source: str | None = None,
    ) -> None:
        self.mode = mode
        self.horizon_ms = horizon_ms
        self.sample_period_ms = sample_period_ms
        # Any other value is kept as given, for ``_check_scenario`` to judge.
        self.stimuli = [] if stimuli is _NO_STIMULI else stimuli
        self.source = source


class SimResult(Record):
    """What ``simulate`` returns: the final runtime and the scenario it ran."""

    __slots__ = ("runtime", "scenario")

    def __init__(self, runtime: RuntimeState, scenario: Scenario) -> None:
        self.runtime = runtime
        self.scenario = scenario

    @property
    def trace(self) -> Trace:
        """The run's records as ``TraceRecord``s, a live read-only view of
        ``runtime.records`` and its head columns; each record is built only
        as it is read."""
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
    """The scenario ``text`` states, read for syntax only; ``_check_scenario``
    applies the rules. Each E_SCENARIO names ``source`` as its file and, but
    for a missing header, the line at fault."""
    require_type(text, str, "text")
    header = {"sample_period_ms": DEFAULT_SAMPLE_PERIOD_MS}
    lines: dict[str | int, int] = {}  # the line of each header key and of each stimulus, by index
    stimuli: list[Stimulus] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"line {lineno}: "
        if line.startswith("at ") or line == "at":
            tokens = line.split()
            if not 5 <= len(tokens) <= 6 or tokens[0] != "at" or tokens[2] != "slot":
                raise CiotError.of("E_SCENARIO", f"{where}expected 'at <ms> slot <path> <verb> [value]'", None, source)
            time_ms = _read(tokens[1], int, "time", where, source)
            value = _read(tokens[5], float, f"{tokens[4]} value", where, source) if len(tokens) == 6 else None
            lines[len(stimuli)] = lineno
            stimuli.append(Stimulus(time_ms, tokens[3], tokens[4], value))
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq:
            raise CiotError.of("E_SCENARIO", f"{where}cannot parse {line!r}", None, source)
        if key not in _HEADERS:
            raise CiotError.of("E_SCENARIO", f"{where}unknown header {key!r}", None, source)
        header[key] = value if key == "mode" else _read(value, int, key, where, source)
        lines[key] = lineno
    for key in _HEADERS[:2]:
        if key not in header:
            raise CiotError.of("E_SCENARIO", f"scenario does not set {key}=", None, source)
    scenario = Scenario(header["mode"], header["horizon_ms"], header["sample_period_ms"], stimuli, source)
    return _check_scenario(scenario, lines)


def load_scenario_file(path: str | os.PathLike) -> Scenario:
    return load_scenario(read_text(path), os.fspath(path))


def _read(text: str, kind: type, what: str, where: str, source: str | None) -> int | float:
    """``text`` read as a ``kind``, ``int`` or ``float``, or E_SCENARIO naming it ``what``."""
    number = read_number(text, (kind,), where + what, "E_SCENARIO", source)
    if number is None:
        noun = "an integer" if kind is int else "a number"
        raise CiotError.of("E_SCENARIO", f"{where}{what} {text!r} is not {noun}", None, source)
    return number


def _check_scenario(scenario: Scenario, lines: dict[str | int, int] | None = None) -> Scenario:
    """``scenario``, or E_SCENARIO unless it keeps every scenario rule, each
    stated only here. Given the ``lines`` of a scenario read from text (by
    header key and stimulus index), a fault reads ``line N: …`` and names
    ``scenario.source``; else ``stimuli[i]: …``, or bare for a header. A type
    fault, which only a built scenario can have, names its field."""

    def fault(at: str | int, message: str) -> CiotError:
        if lines is not None:
            return CiotError.of("E_SCENARIO", f"line {lines[at]}: {message}", None, scenario.source)
        return CiotError.of("E_SCENARIO", f"stimuli[{at}]: {message}" if type(at) is int else message)

    mode = scenario.mode
    if mode not in MODES:
        _check_type(mode, str, "mode")
        raise fault("mode", f"mode must be one of {MODES}, got {mode!r}")
    horizon = _check_type(scenario.horizon_ms, int, "horizon_ms")
    if horizon < 0:
        raise fault("horizon_ms", f"horizon_ms must be non-negative, got {describe_value(horizon)}")
    period = _check_type(scenario.sample_period_ms, int, "sample_period_ms")
    if period <= 0:
        raise fault("sample_period_ms", f"sample_period_ms must be positive, got {describe_value(period)}")
    if horizon // period + 1 > MAX_TICKS:
        raise fault("horizon_ms", f"scenario runs more than {MAX_TICKS} ticks of the sample period")
    verbs = _VERBS[mode]
    previous = 0
    for i, st in enumerate(_check_type(scenario.stimuli, list, "stimuli")):
        _check_type(st, Stimulus, "stimuli[{i}]", i)
        _check_type(st.slot, str, "stimuli[{i}].slot", i)
        time_ms = _check_type(st.time_ms, int, "stimuli[{i}].time_ms", i)
        if time_ms < 0:
            raise fault(i, "stimulus time must be non-negative")
        if time_ms < previous:
            raise fault(i, f"stimuli out of order: {time_ms} ms after {previous} ms")
        if st.verb not in verbs:
            _check_type(st.verb, str, "stimuli[{i}].verb", i)
            raise fault(i, f"stimulus {st.verb!r} is not valid in {mode} mode")
        value_fault = _value_fault(st.verb, st.value)
        if value_fault is not None:
            raise fault(i, value_fault)
        if time_ms > horizon:
            raise fault(i, f"stimulus at {time_ms} ms lies beyond horizon_ms={horizon}")
        previous = time_ms
    return scenario


def _check_type(value, kind: type, what: str, i: int | None = None):
    """``value`` if its type is exactly ``kind`` (a bool is no int), else
    E_SCENARIO naming it ``what``, whose ``{i}`` is filled in only then."""
    if type(value) is not kind:
        message = f"{what.format(i=i)} must be of type {kind.__name__}, got {describe_value(value)}"
        raise CiotError.of("E_SCENARIO", message)
    return value


def _value_fault(verb: str, value) -> str | None:
    """What is wrong with a stimulus value, or None when it is right: None for
    ``vacate``, finite and above 0 for ``occupy``, finite and 0 or more for
    ``echo``."""
    if verb == "vacate":
        return None if value is None else "vacate takes no value"
    if value is None:
        return f"{verb} needs exactly one value"
    number = fit_value(PrimType.FLOAT, value)
    if number is None:
        return f"{verb} value {describe_value(value)} is not a finite number"
    if verb == "occupy" and number <= 0:
        return "occupy distance must be positive"
    if verb == "echo" and number < 0:
        return "echo duration must be non-negative"
    return None


def _sensing_event(comp: ComponentDef) -> EventDef | None:
    """A component senses iff exactly one generic event carries a payload
    that is exactly one float field named ``ECHO_FIELD``."""
    found = []
    for ev in comp.events:
        if ev.direction != EventDirection.GENERIC or ev.payload is None:
            continue
        fields = ev.payload.fields
        if len(fields) == 1 and fields[0].name == ECHO_FIELD and fields[0].type == PrimType.FLOAT:
            found.append(ev)
    return found[0] if len(found) == 1 else None


def bind_environment(rt: RuntimeState, slots: list[str], source: str | None = None) -> dict[str, list[tuple[str, str]]]:
    """Map each scenario slot to the sensing instances at or beneath it; a slot
    that matches none is E_UNBOUND_SENSOR naming ``source``, the scenario's file."""
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
            raise CiotError.of("E_UNBOUND_SENSOR", f"slot {slot!r} matches no sensing instance", None, source)
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

    ``scenario`` must keep the scenario rules after any ``sample_period_ms``
    override (E_SCENARIO, naming no file, otherwise). ``speed_m_per_s`` and
    ``floor_distance_m`` must be finite and positive (E_DOMAIN otherwise),
    whatever the mode. Each bound sensor is looked up once per run, and a
    reading is queued without a check: the sensing payload is one float
    field, and every reading is a finite float, ``echo_duration``'s or a
    stimulus value fitted to float as it applies.
    """
    require_type(model, Model, "model")
    require_type(scenario, Scenario, "scenario")
    if sample_period_ms is not None:
        scenario = Scenario(scenario.mode, scenario.horizon_ms, sample_period_ms, scenario.stimuli, scenario.source)
    period = _check_scenario(scenario).sample_period_ms
    speed_m_per_s = _positive("speed_m_per_s", speed_m_per_s)
    floor_distance_m = _positive("floor_distance_m", floor_distance_m)
    rt = instantiate(model)
    run_to_quiescence(rt, max_steps)

    # With no stimuli, every root instance is a slot.
    slots = sorted({st.slot for st in scenario.stimuli}) or [p for p in rt.order if "." not in p]
    bound = bind_environment(rt, slots, scenario.source)
    # Per slot, each bound sensor's instance and sensing event.
    instances = rt.instances
    sensors = {slot: [(instances[p], instances[p].component.event_named(e)) for p, e in bound[slot]] for slot in slots}
    # Per slot, its last stimulus value as a float: an echo, or a distance (None: no echo yet, or vacant).
    level: dict[str, float | None] = dict.fromkeys(slots)
    stimuli, applied = scenario.stimuli, 0
    physical = scenario.mode == "physical"
    for t_ms in range(0, scenario.horizon_ms + 1, period):
        rt.clock_us = t_ms * 1000
        while applied < len(stimuli) and stimuli[applied].time_ms <= t_ms:
            level[stimuli[applied].slot] = fit_value(PrimType.FLOAT, stimuli[applied].value)
            applied += 1
        for slot in slots:
            reading = level[slot]
            if physical:
                reading = echo_duration(floor_distance_m if reading is None else reading, speed_m_per_s)
            elif reading is None:
                continue
            for inst, event in sensors[slot]:
                enqueue(rt, inst, event, {ECHO_FIELD: reading}, "env")
                run_to_quiescence(rt, max_steps)
    return SimResult(rt, scenario)


def find_led_paths(instances: list[tuple[str, ComponentDef]], source: str | None = None) -> tuple[str, str]:
    """Locate the red and green indicator instances by component name among
    (path, component) pairs, such as ``instance_paths(model)``, so a model
    can be checked before it runs; E_TRACE naming ``source``, the model's
    file, unless there is exactly one of each."""
    reds = [p for p, comp in instances if comp.name == RED_LED]
    greens = [p for p, comp in instances if comp.name == GREEN_LED]
    if len(reds) != 1 or len(greens) != 1:
        raise CiotError.of(
            "E_TRACE",
            f"occupancy needs exactly one {RED_LED} and one {GREEN_LED} instance, found {len(reds)} and {len(greens)}",
            None,
            source,
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
    first, records = rt.head_first, rt.records
    ends = first[1:]  # each head's records end where the next one's start
    ends.append(len(records))
    for t_us, group in groupby(zip(rt.head_time, rt.head_instance, first, ends), itemgetter(0)):
        for _, instance, start, end in group:
            if instance in state:
                for record in records[start:end]:
                    if record[0] == "state_entered":
                        state[instance] = record[1]
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

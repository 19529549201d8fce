"""Random flat machines plus an engine-independent reachability oracle.

The generator draws a small component (bounded states, transitions, events,
int/bool payload fields over a three-value domain) and renders it to DSL
text. The engine side loads that text through the full pipeline and explores
it by injecting events; the oracle side never touches the package at all. It
interprets the generator's own expression tuples over its own configuration
records, so agreement between the two is real evidence and not one module
testing itself.

Configurations are compared as (state, property valuation) pairs. Exploration
is breadth-first with a visited set, which yields exactly the set of
configurations reachable by some input sequence of length <= depth: the
update is a deterministic function of (configuration, injected symbol), so
expanding a configuration once covers every sequence that reaches it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

INT_DOMAIN = (0, 1, 2)
BOOL_DOMAIN = (False, True)
_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")

# Expression tuples:
#   ("lit", value)            int or bool literal
#   ("prop", name)            component property
#   ("pfield", name)          payload field of the event in scope
#   ("cmp", op, a, b)         comparison of two same-typed atoms
#   ("not", a)                boolean negation
#   ("bool", op, a, b)        "and" / "or"


@dataclass(frozen=True)
class EventSpec:
    name: str
    payload_name: str
    fields: tuple[tuple[str, str], ...]  # (field name, "int" | "bool")
    effects: tuple[tuple[str, tuple], ...]  # (target property, expr)


@dataclass
class GeneratedMachine:
    seed: int
    props: list[tuple[str, str, object]]  # (name, "int" | "bool", initial)
    events: list[EventSpec]
    states: list[str]  # states[0] is initial
    transitions: list[tuple[str, str, str | None, tuple | None]]
    text: str = field(default="", repr=False)


def generate(seed: int) -> GeneratedMachine:
    rng = random.Random(seed)

    n_props = rng.choices((0, 1, 2), weights=(15, 45, 40))[0]
    props: list[tuple[str, str, object]] = []
    for i in range(n_props):
        t = rng.choice(("int", "bool"))
        init = rng.choice(INT_DOMAIN) if t == "int" else rng.choice(BOOL_DOMAIN)
        props.append((f"g{i}", t, init))

    events: list[EventSpec] = []
    for i in range(rng.randint(1, 4)):
        n_fields = rng.choices((1, 2), weights=(70, 30))[0]
        fields = tuple((f"f{j}", rng.choice(("int", "bool"))) for j in range(n_fields))
        effects = []
        for _ in range(rng.choices((0, 1, 2), weights=(30, 45, 25))[0]):
            if not props:
                break
            target, ttype, _ = rng.choice(props)
            effects.append((target, _value_expr(rng, ttype, props, fields)))
        events.append(EventSpec(f"e{i}", f"P{i}", fields, tuple(effects)))

    states = [f"S{i}" for i in range(rng.randint(1, 5))]
    transitions: list[tuple[str, str, str | None, tuple | None]] = []
    # Sources lean toward early states (the initial state above all), so a
    # useful share of the graph sits inside the reachable region.
    src_weights = [4, 2, 1, 1, 1][: len(states)]
    for _ in range(rng.choices((0, 1, 2, 3, 4, 5, 6), weights=(4, 8, 16, 22, 22, 16, 12))[0]):
        src = rng.choices(states, weights=src_weights)[0]
        dst = rng.choice(states)
        trigger = rng.choice(events).name if rng.random() < 0.8 else None
        fields = dict(next(e for e in events if e.name == trigger).fields) if trigger else {}
        guard = None
        if rng.random() < 0.65:
            guard = _bool_expr(rng, props, tuple(fields.items()), depth=rng.randint(0, 2))
        transitions.append((src, dst, trigger, guard))

    gm = GeneratedMachine(seed, props, events, states, transitions)
    gm.text = _render_model(gm)
    return gm


def alphabet(gm: GeneratedMachine) -> list[tuple[str, dict]]:
    """Every (event, payload valuation) pair, in a fixed order."""
    symbols: list[tuple[str, dict]] = []
    for ev in gm.events:
        domains = [INT_DOMAIN if t == "int" else BOOL_DOMAIN for _, t in ev.fields]
        for combo in itertools.product(*domains):
            symbols.append((ev.name, {name: v for (name, _), v in zip(ev.fields, combo)}))
    return symbols


def freeze(state: str, props: dict) -> tuple:
    # Type names ride along so bool True can never collide with int 1.
    return state, tuple((k, type(v).__name__, v) for k, v in sorted(props.items()))


# -- independent interpretation ---------------------------------------------


def oracle_reached(gm: GeneratedMachine, depth: int) -> set[tuple]:
    """(state, valuation) pairs reachable by input sequences of length <= depth."""
    events = {e.name: e for e in gm.events}
    props0 = {name: init for name, _, init in gm.props}
    start = (gm.states[0], props0)
    seen = {freeze(*start)}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for state, props in frontier:
            for ev_name, payload in alphabet(gm):
                cfg = _oracle_apply(gm, events[ev_name], state, props, payload)
                key = freeze(*cfg)
                if key not in seen:
                    seen.add(key)
                    nxt.append(cfg)
        frontier = nxt
    return seen


def _oracle_apply(
    gm: GeneratedMachine, ev: EventSpec, state: str, props: dict, payload: dict
) -> tuple[str, dict]:
    p = dict(props)
    for target, expr in ev.effects:
        p[target] = _oracle_eval(expr, p, payload)
    for src, dst, trigger, guard in gm.transitions:
        if src != state:
            continue
        if trigger is not None and trigger != ev.name:
            continue
        if guard is not None:
            scope = payload if trigger is not None else None
            if not _oracle_eval(guard, p, scope):
                continue
        return dst, p
    return state, p


def _oracle_eval(expr: tuple, props: dict, payload: dict | None):
    tag = expr[0]
    if tag == "lit":
        return expr[1]
    if tag == "prop":
        return props[expr[1]]
    if tag == "pfield":
        return payload[expr[1]]
    if tag == "not":
        return not _oracle_eval(expr[1], props, payload)
    if tag == "bool":
        a = _oracle_eval(expr[2], props, payload)
        b = _oracle_eval(expr[3], props, payload)
        return (a and b) if expr[1] == "and" else (a or b)
    if tag == "cmp":
        a = _oracle_eval(expr[2], props, payload)
        b = _oracle_eval(expr[3], props, payload)
        op = expr[1]
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        return a >= b
    raise ValueError(f"bad expr node {expr!r}")


# -- engine-side exploration -------------------------------------------------


def engine_reached(gm: GeneratedMachine, depth: int, max_steps: int = 100) -> set[tuple]:
    """Same reachable set, computed by driving the real engine.

    Exploration restores the instance to an already-engine-reached quiescent
    configuration before each injection; a step depends on nothing but
    (state, properties, injected event), so this replays exactly what a
    fresh run of the witness sequence would do.
    """
    from ciot import inject, instantiate, load_text, run_to_quiescence

    model = load_text(gm.text, f"<generated seed={gm.seed}>")
    rt = instantiate(model)
    inst = rt.instances["m"]
    start = (inst.state, dict(inst.properties))
    seen = {freeze(*start)}
    frontier = [start]
    symbols = alphabet(gm)
    for _ in range(depth):
        nxt = []
        for state, props in frontier:
            for ev_name, payload in symbols:
                inst.state = state
                inst.properties = dict(props)
                rt.trace.clear()
                inject(rt, "m", "p1", ev_name, dict(payload))
                run_to_quiescence(rt, max_steps)  # E_STEP_LIMIT unless it quiesces
                key = freeze(inst.state, inst.properties)
                if key not in seen:
                    seen.add(key)
                    nxt.append((inst.state, dict(inst.properties)))
        frontier = nxt
    return seen


def engine_reached_by_replay(gm: GeneratedMachine, depth: int) -> set[tuple]:
    """Brute-force variant: every input sequence, each from a fresh runtime.

    Exponential in depth; only usable for tiny depths. Exists to validate the
    restore shortcut in engine_reached against the literal reading.
    """
    from ciot import inject, instantiate, load_text, run_to_quiescence

    model = load_text(gm.text, f"<generated seed={gm.seed}>")
    symbols = alphabet(gm)
    seen: set[tuple] = set()
    for n in range(depth + 1):
        for seq in itertools.product(symbols, repeat=n):
            rt = instantiate(model)
            inst = rt.instances["m"]
            for ev_name, payload in seq:
                inject(rt, "m", "p1", ev_name, dict(payload))
                run_to_quiescence(rt, 100)  # E_STEP_LIMIT unless it quiesces
            seen.add(freeze(inst.state, inst.properties))
    return seen


# -- expression generation ----------------------------------------------------


def _value_expr(rng: random.Random, ttype: str, props, fields) -> tuple:
    if ttype == "int":
        return _int_atom(rng, props, fields)
    return _bool_expr(rng, props, fields, depth=1)


def _int_atom(rng: random.Random, props, fields) -> tuple:
    int_props = [n for n, t, *_ in props if t == "int"]
    int_fields = [n for n, t in fields if t == "int"]
    kinds = ["lit"] + (["prop"] if int_props else []) + (["pfield"] if int_fields else [])
    k = rng.choice(kinds)
    if k == "lit":
        return ("lit", rng.choice(INT_DOMAIN))
    if k == "prop":
        return ("prop", rng.choice(int_props))
    return ("pfield", rng.choice(int_fields))


def _bool_atom(rng: random.Random, props, fields) -> tuple:
    bool_props = [n for n, t, *_ in props if t == "bool"]
    bool_fields = [n for n, t in fields if t == "bool"]
    kinds = ["cmp", "cmp", "lit"]  # comparisons weighted up
    if bool_props:
        kinds.append("prop")
    if bool_fields:
        kinds.append("pfield")
    k = rng.choice(kinds)
    if k == "cmp":
        op = rng.choice(_CMP_OPS)
        return ("cmp", op, _int_atom(rng, props, fields), _int_atom(rng, props, fields))
    if k == "lit":
        return ("lit", rng.choice(BOOL_DOMAIN))
    if k == "prop":
        return ("prop", rng.choice(bool_props))
    return ("pfield", rng.choice(bool_fields))


def _bool_expr(rng: random.Random, props, fields, depth: int) -> tuple:
    if depth <= 0 or rng.random() < 0.5:
        return _bool_atom(rng, props, fields)
    op = rng.choice(("and", "or", "not"))
    if op == "not":
        return ("not", _bool_expr(rng, props, fields, depth - 1))
    return ("bool", op, _bool_expr(rng, props, fields, depth - 1), _bool_expr(rng, props, fields, depth - 1))


# -- rendering to DSL text ----------------------------------------------------


def _render_expr(expr: tuple) -> str:
    tag = expr[0]
    if tag == "lit":
        v = expr[1]
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)
    if tag == "prop":
        return expr[1]
    if tag == "pfield":
        return f"payload.{expr[1]}"
    if tag == "not":
        return f"(not {_render_expr(expr[1])})"
    if tag == "bool":
        return f"({_render_expr(expr[2])} {expr[1]} {_render_expr(expr[3])})"
    if tag == "cmp":
        return f"({_render_expr(expr[2])} {expr[1]} {_render_expr(expr[3])})"
    raise ValueError(f"bad expr node {expr!r}")


def _render_model(gm: GeneratedMachine) -> str:
    lines: list[str] = []
    for ev in gm.events:
        fields = " ".join(f"{n}: {t};" for n, t in ev.fields)
        lines.append(f"payload {ev.payload_name} {{ {fields} }}")
    lines.append("")
    lines.append("interface IIn {")
    for i, ev in enumerate(gm.events):
        lines.append(f"    op op{i}({ev.payload_name});")
    lines.append("}")
    lines.append("")
    lines.append("component C : IoTElement {")
    for name, t, init in gm.props:
        rendered = ("true" if init else "false") if isinstance(init, bool) else str(init)
        lines.append(f"    property {name}: {t} = {rendered};")
    lines.append("    port p1 provides IIn;")
    for ev in gm.events:
        lines.append(
            f"    event {ev.name} incoming port p1 payload {ev.payload_name} action a_{ev.name};"
        )
    for ev in gm.events:
        if ev.effects:
            lines.append(f"    action a_{ev.name} receive port p1 payload {ev.payload_name} {{")
            for target, expr in ev.effects:
                lines.append(f"        {target} := {_render_expr(expr)};")
            lines.append("    }")
        else:
            lines.append(f"    action a_{ev.name} receive port p1 payload {ev.payload_name};")
    lines.append("    statemachine {")
    for i, s in enumerate(gm.states):
        prefix = "initial state" if i == 0 else "state"
        lines.append(f"        {prefix} {s} {{}}")
    for src, dst, trigger, guard in gm.transitions:
        parts = [f"transition {src} -> {dst}"]
        if trigger is not None:
            parts.append(f"when {trigger}")
        if guard is not None:
            parts.append(f"[{_render_expr(guard)}]")
        lines.append("        " + " ".join(parts) + ";")
    lines.append("    }")
    lines.append("}")
    lines.append("")
    lines.append("instance m: C;")
    return "\n".join(lines) + "\n"


def hand_machine() -> GeneratedMachine:
    """Fixed machine whose reachable sets are enumerated by hand in tests."""
    gm = GeneratedMachine(
        seed=-1,
        props=[("g", "int", 0)],
        events=[
            EventSpec("e0", "P0", (("f0", "int"),), ((("g"), ("pfield", "f0")),))
        ],
        states=["S0", "S1"],
        transitions=[
            ("S0", "S1", "e0", ("cmp", ">=", ("pfield", "f0"), ("lit", 2))),
            ("S0", "S0", "e0", None),
            ("S1", "S0", "e0", ("cmp", "==", ("prop", "g"), ("lit", 0))),
        ],
    )
    gm.text = _render_model(gm)
    return gm

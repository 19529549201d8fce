"""Per-layer attribution for the traced run.

Two instruments, both installed from outside the program:

* ``Spans`` wraps the public function of each layer that the workloads reach
  (in every ``ciot`` module that imported it by name) and aggregates, per
  op, each function's inclusive time and self time (inclusive
  minus the time of wrapped calls nested inside it).
* ``engine_groups`` runs an op under cProfile, enabled only inside
  ``simulate``, and splits the profiled self time into the four engine
  groups. Functions outside the named groups inherit the group of their
  callers; what reaches no group is reported as unattributed.
"""

from __future__ import annotations

import cProfile
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs wrapped by Spans: the layer boundaries.
SPAN_CALLS = (
    ("lexer", "tokenize"),
    ("parser", "parse"),
    ("resolver", "resolve"),
    ("validate", "validate"),
    ("engine", "instantiate"),
    ("engine", "run_to_quiescence"),
    ("sim", "simulate"),
    ("sim", "occupancy_timeline"),
    ("trace", "render_trace"),
)

# Results kept per op, for counts taken after the op has finished.
_KEEP = {"lexer.tokenize", "resolver.resolve", "validate.validate", "engine.instantiate",
         "sim.simulate", "trace.render_trace"}

GROUPS = ("schedule", "guard_eval", "action_send", "record")
UNATTRIBUTED = "unattributed"


def _ciot_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "ciot" or name.startswith("ciot.")]


def _module(name: str):
    return sys.modules[f"ciot.{name}"]


def _patch(original, replacement) -> list:
    """Point every ciot-module global bound to ``original`` at ``replacement``."""
    undo = []
    for mod in _ciot_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def _unpatch(undo: list) -> None:
    for mod, attr, original in undo:
        setattr(mod, attr, original)


class Spans:
    """Aggregated spans at the layer boundaries, reset by ``take`` per op."""

    def __init__(self) -> None:
        self._undo: list = []
        self._stack: list[list[float]] = []  # per open span: [child time]
        self._reset()

    def _reset(self) -> None:
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.results: defaultdict = defaultdict(list)

    def __enter__(self) -> "Spans":
        for module, func in SPAN_CALLS:
            original = getattr(_module(module), func)
            self._undo += _patch(original, self._wrap(f"{module}.{func}", original))
        return self

    def __exit__(self, *exc) -> None:
        _unpatch(self._undo)
        self._undo = []

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        keep = name in _KEEP

        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - children[0]
            if keep:
                self.results[name].append(result)
            return result

        return span

    def take(self) -> dict:
        """Raw times and counts of the op just run; clears the aggregates."""
        inc, own, res = self.inclusive, self.self_time, self.results
        kinds: Counter = Counter()
        guard_true = no_route = probes = steps = ticks = 0
        for result in res["sim.simulate"]:
            steps += result.runtime.step_count
            scenario = result.scenario
            ticks += scenario.horizon_ms // scenario.sample_period_ms + 1
            for rec in result.trace:
                kinds[rec.kind] += 1
                if rec.kind == "guard_eval":
                    guard_true += rec.detail["result"] == "true"
                elif rec.kind == "payload_sent":
                    no_route += rec.detail.get("error") == "E_NO_ROUTE"
                elif rec.kind == "event_delivered":
                    probes += rec.detail["from"] == "env"
        out = {
            "lexer.s": inc["lexer.tokenize"],
            "parser.s": own["parser.parse"],
            "resolver.s": own["resolver.resolve"],
            "validate.s": own["validate.validate"],
            "engine.instantiate_s": inc["engine.instantiate"],
            "engine.quiesce_s": inc["engine.run_to_quiescence"],
            "sim.simulate_s": inc["sim.simulate"],
            "sim.timeline_s": inc["sim.occupancy_timeline"],
            "trace.render_s": inc["trace.render_trace"],
            "lexer.tokens": sum(len(t) for t in res["lexer.tokenize"]),
            "resolver.components": sum(len(m.components) for m in res["resolver.resolve"]),
            "validate.diagnostics": sum(len(d) for d in res["validate.validate"]),
            "engine.instances": sum(len(rt.order) for rt in res["engine.instantiate"]),
            "engine.deliveries": kinds["event_delivered"],
            "engine.steps": steps,
            "engine.guard_evals": kinds["guard_eval"],
            "engine.guard_true": guard_true,
            "engine.transitions": kinds["transition"],
            "engine.no_route_drops": no_route,
            "sim.ticks": ticks,
            "sim.probes": probes,
            "trace.records": sum(kinds.values()),
            "trace.bytes": sum(len(text.encode()) for text in res["trace.render_trace"]),
        }
        self._reset()
        return out


TIMES = (
    "lexer.s", "parser.s", "resolver.s", "validate.s", "engine.instantiate_s",
    "engine.quiesce_s", "sim.simulate_s", "sim.timeline_s", "trace.render_s",
)
# Counts are exact per input; times vary run to run.
COUNTS = (
    "lexer.tokens", "resolver.components", "validate.diagnostics", "engine.instances",
    "engine.deliveries", "engine.steps", "engine.guard_evals", "engine.guard_true",
    "engine.transitions", "engine.no_route_drops", "sim.ticks", "sim.probes",
    "trace.records", "trace.bytes",
)


def scaled(layer: dict, factor: float) -> dict:
    """The op's numbers with every time multiplied by ``factor``."""
    return {k: v * factor if k in TIMES else v for k, v in layer.items()}


def summarize(per_op: list[dict]) -> tuple[dict, bool]:
    """Median time and the count of each layer over the traced ops, plus
    the ratios built from them; the flag says whether every count repeated."""
    first = per_op[0]
    repeats = all(op[k] == first[k] for op in per_op for k in COUNTS)
    v = {k: statistics.median(op[k] for op in per_op) for k in TIMES}
    v.update((k, first[k]) for k in COUNTS)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    delivered = v["engine.deliveries"]
    v["lexer.tokens_per_s"] = ratio(v["lexer.tokens"], v["lexer.s"])
    v["engine.useful_step_ratio"] = ratio(delivered, v["engine.steps"])
    v["engine.guard_true_ratio"] = ratio(v["engine.guard_true"], v["engine.guard_evals"])
    v["sim.us_per_delivery"] = ratio(v["sim.simulate_s"] * 1e6, delivered)
    v["trace.records_per_delivery"] = ratio(v["trace.records"], delivered)
    return v, repeats


# Every per-layer metric the traced run reports, with its unit.
UNITS = {
    "lexer.s": "s",
    "lexer.tokens": "count",
    "lexer.tokens_per_s": "1/s",
    "parser.s": "s",
    "resolver.s": "s",
    "resolver.components": "count",
    "validate.s": "s",
    "validate.diagnostics": "count",
    "engine.instantiate_s": "s",
    "engine.instances": "count",
    "engine.quiesce_s": "s",
    "engine.schedule_s": "s",
    "engine.guard_eval_s": "s",
    "engine.action_send_s": "s",
    "engine.record_s": "s",
    "engine.unattributed_s": "s",
    "engine.deliveries": "count",
    "engine.steps": "count",
    "engine.useful_step_ratio": "ratio",
    "engine.guard_evals": "count",
    "engine.guard_true_ratio": "ratio",
    "engine.transitions": "count",
    "engine.no_route_drops": "count",
    "sim.simulate_s": "s",
    "sim.us_per_delivery": "us",
    "sim.us_per_delivery_corpus": "us",
    "sim.delivery_cost_ratio": "ratio",
    "sim.ticks": "count",
    "sim.probes": "count",
    "sim.timeline_s": "s",
    "trace.records": "count",
    "trace.records_per_delivery": "ratio",
    "trace.render_s": "s",
    "trace.bytes": "count",
    "harness.op_s_untraced": "s",
    "harness.op_s_traced": "s",
    "harness.tracing_overhead_s": "s",
}

def _group_table() -> tuple[dict, tuple]:
    """Profile labels of the functions named in each engine group."""

    def label(fn):
        code = fn.__code__
        return code.co_filename, code.co_firstlineno, code.co_name

    engine, guards, trace = _module("engine"), _module("guards"), _module("trace")
    table = {
        label(guards.eval_guard): "guard_eval",
        label(guards.expr_to_text): "guard_eval",
        label(engine._quote): "guard_eval",
        label(engine._run_action): "action_send",
        label(engine._send): "action_send",
        label(engine._matching_incoming): "action_send",
        label(engine._snapshot_payload): "action_send",
        label(engine.RuntimeState.record): "record",
        label(trace.fmt_payload): "record",
    }
    # The next-inbox scan is the generator expression inside step; the
    # builtin next() that drives it from step belongs to the scan too.
    for const in engine.step.__code__.co_consts:
        if hasattr(const, "co_firstlineno"):
            table[(const.co_filename, const.co_firstlineno, const.co_name)] = "schedule"
    scan_edge = (("~", 0, "<built-in method builtins.next>"), label(engine.step))
    return table, scan_edge


def engine_groups(op) -> tuple[dict, float, object]:
    """Run ``op`` once with cProfile on inside ``simulate``.

    Returns the profiled self time per group (plus ``unattributed``), the
    total profiled time, and the op's output.
    """
    prof = cProfile.Profile()
    original = _module("sim").simulate

    def profiled(*args, **kwargs):
        prof.enable()
        try:
            return original(*args, **kwargs)
        finally:
            prof.disable()

    undo = _patch(original, profiled)
    try:
        out = op()
    finally:
        _unpatch(undo)
    prof.create_stats()
    stats = {f: s for f, s in prof.stats.items() if "_lsprof.Profiler" not in f[2]}
    table, scan_edge = _group_table()
    return attribute(stats, table, scan_edge), sum(s[2] for s in stats.values()), out


def attribute(stats: dict, table: dict, scan_edge: tuple) -> dict:
    """Split profiled self time over the groups.

    A function named in ``table`` keeps its self time in its group. Any other
    function's self time goes to its callers, call edge by call edge; a
    caller outside the table passes it on to its own callers in proportion
    to their cumulative time. Time that reaches a caller-less function lands
    in ``unattributed``.
    """
    memo: dict = {}

    def share(func) -> dict:
        if func in table:
            return {table[func]: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {UNATTRIBUTED: 1.0}  # also breaks recursion cycles
        callers = {c: e for c, e in stats[func][4].items() if c in stats}
        total = sum(e[3] for e in callers.values())
        if total > 0:
            out: defaultdict = defaultdict(float)
            for caller, edge in callers.items():
                for group, w in share(caller).items():
                    out[group] += w * edge[3] / total
            memo[func] = dict(out)
        return memo[func]

    totals = dict.fromkeys(GROUPS + (UNATTRIBUTED,), 0.0)
    for func, (_, _, tt, _, callers) in stats.items():
        if func in table:
            totals[table[func]] += tt
            continue
        passed = 0.0
        for caller, edge in callers.items():
            if caller not in stats:
                continue
            passed += edge[2]
            if (func, caller) == scan_edge:
                totals["schedule"] += edge[2]
                continue
            for group, w in share(caller).items():
                totals[group] += w * edge[2]
        totals[UNATTRIBUTED] += max(tt - passed, 0.0)
    return totals

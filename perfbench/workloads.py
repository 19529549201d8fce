"""The three benchmark workloads: inputs from a seed, one op, and its check.

Every workload is a closed loop run by one process: the next op starts when
the previous one has returned. The program under test only ever sees the
generated model and scenario text; each check compares the op's output
with a reference the harness builds on its own, outside the timed region.

Constructing a workload builds its inputs and does the first load; it
then offers:

    op()         one timed operation, returning its output
    check(out)   True when the output matches the reference
    items(out)   the work the op did: delivered events, or model-text lines
"""

from __future__ import annotations

import bisect
import random
import re
from pathlib import Path

# Echo durations at or above the corpus model's threshold property read as
# vacant; below it, as occupied.
THRESHOLD_MS = 300.0
FLEET_PERIOD_MS = 100
FLEET_DEPART_P = 0.85
_ROOT_INSTANCE = re.compile(r"^instance \w+: Node;$", re.MULTILINE)


def deliveries(result) -> int:
    return sum(1 for r in result.trace if r.kind == "event_delivered")


class Corpus:
    """``ciot simulate --trace`` on both bundled scenarios, as the CLI runs it.

    Inputs are the committed corpus files, so the seed changes nothing.
    """

    name = "corpus"
    item = "deliveries"
    # (scenario file, --threshold-ms or None, golden stem)
    SCENARIOS = (
        ("scenario_arrive_depart.scn", None, "arrive_depart"),
        ("scenario_physical.scn", 5.0, "physical"),
    )

    def __init__(self, ciot, root: Path, seed: int) -> None:
        self.ciot = ciot
        corpus = root / "corpus"
        self.model_path = str(corpus / "parking_node.ciot")
        self.runs = [(str(corpus / scn), threshold) for scn, threshold, _ in self.SCENARIOS]
        # The reference: golden timeline and trace bytes per scenario.
        self.golden = [
            ((corpus / "golden" / f"{stem}.timeline").read_bytes(), (corpus / "golden" / f"{stem}.trace").read_bytes())
            for _, _, stem in self.SCENARIOS
        ]
        ciot.load_file(self.model_path)

    def op(self):
        c = self.ciot
        out = []
        for scenario_path, threshold in self.runs:
            model = c.load_file(self.model_path)
            if threshold is not None:
                model = c.with_property_initial(model, "threshold", threshold)
            result = c.simulate(model, c.load_scenario_file(scenario_path))
            timeline = "".join(f"t={t} status={s}\n" for t, s in c.occupancy_timeline(result))
            out.append((result, timeline, c.render_trace(result.trace)))
        return out

    def check(self, out) -> bool:
        got = [(timeline.encode(), trace.encode()) for _, timeline, trace in out]
        return got == self.golden

    def items(self, out) -> int:
        return sum(deliveries(result) for result, _, _ in out)


class Fleet:
    """``simulate`` of N parking nodes under a seeded duration scenario.

    Every slot starts vacant, gets one arrival and usually one departure, all
    on the sample grid. No trace is rendered.
    """

    name = "fleet"
    item = "deliveries"

    def __init__(self, ciot, root: Path, seed: int, nodes: int = 200, horizon_ms: int = 400) -> None:
        self.ciot = ciot
        rng = random.Random(seed)
        base = (root / "corpus" / "parking_node.ciot").read_text(encoding="utf-8")
        if len(_ROOT_INSTANCE.findall(base)) != 1:
            raise ValueError("corpus model must declare exactly one root Node instance")
        self.slots = [f"n{k}" for k in range(nodes)]
        roots = "\n".join(f"instance {slot}: Node;" for slot in self.slots)
        self.model_text = _ROOT_INSTANCE.sub(roots, base)

        period_ms = FLEET_PERIOD_MS
        ticks = horizon_ms // period_ms
        stimuli = []  # (time_ms, slot, echo_ms)
        self.expected: dict[str, list[tuple[int, str]]] = {}
        for slot in self.slots:
            arrive = rng.randint(1, ticks - 1)
            events = [(0, _vacant_echo(rng)), (arrive * period_ms, _occupied_echo(rng))]
            if rng.random() < FLEET_DEPART_P:
                events.append((rng.randint(arrive + 1, ticks) * period_ms, _vacant_echo(rng)))
            stimuli.extend((t, slot, echo) for t, echo in events)
            self.expected[slot] = _status_changes(events)
        stimuli.sort(key=lambda s: s[0])
        lines = ["mode=duration", f"horizon_ms={horizon_ms}", f"sample_period_ms={period_ms}"]
        lines += [f"at {t} slot {slot} echo {echo!r}" for t, slot, echo in stimuli]
        self.scenario_text = "\n".join(lines) + "\n"

        self.model = ciot.load_text(self.model_text, "fleet.ciot")
        self.scenario = ciot.load_scenario(self.scenario_text, "fleet.scn")
        ciot.instantiate(self.model)

    def op(self):
        return self.ciot.simulate(self.model, self.scenario)

    def check(self, result) -> bool:
        return node_status_changes(result.trace, self.slots) == self.expected

    def items(self, result) -> int:
        return deliveries(result)


def _vacant_echo(rng: random.Random) -> float:
    return round(rng.uniform(THRESHOLD_MS, THRESHOLD_MS + 150.0), 1)


def _occupied_echo(rng: random.Random) -> float:
    return round(rng.uniform(20.0, THRESHOLD_MS - 0.1), 1)


def _status_changes(events: list[tuple[int, float]]) -> list[tuple[int, str]]:
    changes: list[tuple[int, str]] = []
    for t, echo in events:
        status = "vacant" if echo >= THRESHOLD_MS else "occupied"
        if not changes or changes[-1][1] != status:
            changes.append((t, status))
    return changes


def node_status_changes(trace, slots: list[str]) -> dict[str, list[tuple[int, str]]] | None:
    """Each node's status changes, read off its LED ``state_entered`` records.

    At the end of every clock instant a node whose red LED is ON is occupied
    and one whose green LED is ON is vacant; consecutive equal samples
    collapse. Returns None when both LEDs of a node are ON at once.
    """
    led = {}
    for slot in slots:
        led[f"{slot}.red"] = (slot, 0)
        led[f"{slot}.green"] = (slot, 1)
    on = {slot: [False, False] for slot in slots}
    changes: dict[str, list[tuple[int, str]]] = {slot: [] for slot in slots}
    touched: set[str] = set()

    def close(t_us: int) -> bool:
        for slot in touched:
            red, green = on[slot]
            if red and green:
                return False
            if not red and not green:
                continue
            status = "occupied" if red else "vacant"
            if not changes[slot] or changes[slot][-1][1] != status:
                changes[slot].append((t_us // 1000, status))
        touched.clear()
        return True

    current = None
    for rec in trace:
        if rec.time_us != current:
            if current is not None and not close(current):
                return None
            current = rec.time_us
        if rec.kind == "state_entered" and rec.instance in led:
            slot, which = led[rec.instance]
            on[slot][which] = rec.detail["state"] == "ON"
            touched.add(slot)
    if current is not None and not close(current):
        return None
    return changes


class Frontend:
    """``ciot validate`` (``collect_diagnostics``) on K renamed model copies.

    Each copy is drawn by seed from the clean corpus model and the seeded
    mutants; its payload, interface, component and root instance names get
    the suffix ``_k`` so the copies coexist in one text.
    """

    name = "frontend"
    item = "model_lines"

    def __init__(self, ciot, root: Path, seed: int, copies: int = 48) -> None:
        self.ciot = ciot
        corpus = root / "corpus"
        sources = [((corpus / "parking_node.ciot").read_text(encoding="utf-8"), [])]
        manifest = (corpus / "mutations" / "expected_diagnostics.txt").read_text(encoding="utf-8")
        for line in manifest.splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            fname, _, rules = line.partition(" ")
            expected = sorted(tuple(item.strip().split(":")) for item in rules.split(","))
            sources.append(((corpus / "mutations" / fname).read_text(encoding="utf-8"), expected))

        rng = random.Random(seed)
        parts: list[str] = []
        self.first_lines: list[int] = []  # 1-based first line of each copy
        self.expected: list[list[tuple[str, str]]] = []
        line = 1
        for k in range(copies):
            text, expected = rng.choice(sources)
            copy = _suffix_names(text, f"_{k}")
            if not copy.endswith("\n"):
                copy += "\n"
            self.first_lines.append(line)
            self.expected.append(expected)
            parts.append(copy)
            line += copy.count("\n")
        self.text = "".join(parts)
        self.lines = self.text.count("\n")

    def op(self):
        return self.ciot.collect_diagnostics(self.text, "frontend.ciot")

    def check(self, out) -> bool:
        model, diags = out
        if model is None:
            return False
        got: list[list[tuple[str, str]]] = [[] for _ in self.first_lines]
        for d in diags:
            if d.span is None:
                return False
            k = bisect.bisect_right(self.first_lines, d.span.line) - 1
            got[k].append((d.rule, d.severity.value))
        return [sorted(g) for g in got] == self.expected

    def items(self, out) -> int:
        return self.lines


_DECL = re.compile(r"^\s*(?:payload|interface|component)\s+(\w+)", re.MULTILINE)
_ROOT_DECL = re.compile(r"^instance\s+(\w+)", re.MULTILINE)


def _suffix_names(text: str, suffix: str) -> str:
    names = set(_DECL.findall(text))
    text = re.sub(r"\b(" + "|".join(sorted(names)) + r")\b", lambda m: m.group(1) + suffix, text)
    return _ROOT_DECL.sub(lambda m: f"instance {m.group(1)}{suffix}", text)


WORKLOADS = {w.name: w for w in (Corpus, Fleet, Frontend)}

#!/usr/bin/env python3
"""Check the parking corpus against its frozen goldens.

The corpus directory holds the parking node model, two scenarios, golden
traces and timelines, a set of single-defect mutants with an expected
diagnostic manifest, and a few files that must not even parse. This script
re-runs all of it and reports each check, so a behavior change that shifts
any golden output shows up as a corpus failure rather than a silent drift.
It is repository tooling: the installed package does not ship it.

Run from the repository root:

    python scripts/corpus_check.py            # verify
    python scripts/corpus_check.py --regen    # rewrite goldens, then verify

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from collections.abc import Iterator
from dataclasses import dataclass

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from ciot import (
    CiotError,
    collect_diagnostics_file,
    export_model,
    load_file,
    load_scenario_file,
    load_text,
    occupancy_timeline,
    render_trace,
    simulate,
    statemachine_to_dot,
    structurally_equal,
    with_property_initial,
)
from ciot.sim import THRESHOLD_PROPERTY, render_timeline

MODEL_FILE = "parking_node.ciot"
SCENARIO_ARRIVE_DEPART = "scenario_arrive_depart.scn"
SCENARIO_PHYSICAL = "scenario_physical.scn"
PHYSICAL_THRESHOLD_MS = 5.0
MACHINE_STATE_COUNTS = {"RedLED": 2, "GreenLED": 2, "UltrasonicSensor": 2, "Node": 3}


@dataclass(frozen=True)
class CorpusCheck:
    name: str
    ok: bool
    message: str


@dataclass
class CorpusReport:
    checks: list[CorpusCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self) -> str:
        lines = [f"{'PASS' if c.ok else 'FAIL'} {c.name}: {c.message}" for c in self.checks]
        lines.append(f"{sum(c.ok for c in self.checks)}/{len(self.checks)} corpus checks passed")
        return "\n".join(lines) + "\n"


def corpus_check(corpus_dir: str, regen: bool = False) -> CorpusReport:
    model_path = os.path.join(corpus_dir, MODEL_FILE)
    checks = list(_check_pristine(model_path))
    try:
        model = load_file(model_path)
    except CiotError:
        model = None
    if model is not None:
        golden = os.path.join(corpus_dir, "golden")
        checks += _check_scenario(golden, "arrive_depart", model, os.path.join(corpus_dir, SCENARIO_ARRIVE_DEPART), regen)
        low = with_property_initial(model, THRESHOLD_PROPERTY, PHYSICAL_THRESHOLD_MS)
        checks += _check_scenario(golden, "physical", low, os.path.join(corpus_dir, SCENARIO_PHYSICAL), regen)
        checks += _check_roundtrip(model)
        checks += _check_dot_counts(model)

    checks += _check_mutations(os.path.join(corpus_dir, "mutations"))
    checks += _check_syntax_errors(os.path.join(corpus_dir, "syntax_errors"))
    return CorpusReport(checks)


def _diagnose(path: str):
    """``collect_diagnostics_file``, with a file it cannot read (E_IO) as
    one more failing diagnostic instead of an exception."""
    try:
        return collect_diagnostics_file(path)
    except CiotError as exc:
        return None, list(exc.diagnostics)


def _check_pristine(model_path: str) -> Iterator[CorpusCheck]:
    model, diags = _diagnose(model_path)
    if model is None:
        yield CorpusCheck("pristine", False, f"model does not load: {diags[0].rule} {diags[0].message}")
    elif diags:
        yield CorpusCheck("pristine", False, f"{len(diags)} diagnostic(s), expected none")
    else:
        yield CorpusCheck("pristine", True, "0 errors, 0 warnings")


def _check_scenario(golden_dir: str, stem: str, model, scenario_path: str, regen: bool) -> Iterator[CorpusCheck]:
    names = (f"{stem}.trace", f"{stem}.timeline")
    try:
        result = simulate(model, load_scenario_file(scenario_path))
        outputs = (render_trace(result.trace), render_timeline(occupancy_timeline(result)))
    except CiotError as exc:
        for name in names:
            yield CorpusCheck(f"golden:{name}", False, f"scenario does not run: {exc}")
        return
    for name, actual in zip(names, outputs):
        yield _check_golden(golden_dir, name, actual, regen)


def _check_golden(golden_dir: str, name: str, actual: str, regen: bool) -> CorpusCheck:
    path = os.path.join(golden_dir, name)
    if regen:
        os.makedirs(golden_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(actual)
        return CorpusCheck(f"golden:{name}", True, "regenerated")
    if not os.path.exists(path):
        return CorpusCheck(f"golden:{name}", False, "golden file missing (regen it)")
    with open(path, encoding="utf-8") as fh:
        expected = fh.read()
    if actual == expected:
        return CorpusCheck(f"golden:{name}", True, f"{len(actual.splitlines())} lines match")
    return CorpusCheck(f"golden:{name}", False, "output differs from golden")


def _check_roundtrip(model) -> Iterator[CorpusCheck]:
    ok = structurally_equal(model, load_text(export_model(model), "<roundtrip>", check=False))
    message = "export/import is structure-preserving" if ok else "round-trip changed the model"
    yield CorpusCheck("roundtrip", ok, message)


def _check_dot_counts(model) -> Iterator[CorpusCheck]:
    for comp, expected in MACHINE_STATE_COUNTS.items():
        nodes = _count_dot_states(statemachine_to_dot(model, comp))
        ok = nodes == expected
        yield CorpusCheck(f"dot:{comp}", ok, f"{nodes} state nodes" + ("" if ok else f", expected {expected}"))


def _count_dot_states(dot: str) -> int:
    count = 0
    for line in dot.splitlines():
        stripped = line.strip()
        if stripped.startswith('"') and "->" not in stripped and stripped.endswith(";"):
            count += 1
    return count


def _check_mutations(mutations_dir: str) -> Iterator[CorpusCheck]:
    manifest_path = os.path.join(mutations_dir, "expected_diagnostics.txt")
    if not os.path.exists(manifest_path):
        yield CorpusCheck("mutations", False, "expected_diagnostics.txt missing")
        return
    with open(manifest_path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    for line in lines:
        fname, _, spec = line.partition(" ")
        expected = [tuple(item.strip().partition(":")[::2]) for item in spec.split(",")]
        if not all(rule and severity for rule, severity in expected):
            yield CorpusCheck(f"mutation:{fname}", False, f"manifest entry {spec!r} is not RULE:severity[,...]")
            continue
        _, diags = _diagnose(os.path.join(mutations_dir, fname))
        actual = [(d.rule, d.severity.value) for d in diags]
        ok = actual == expected
        detail = "diagnostics match manifest" if ok else f"expected {expected}, got {actual}"
        yield CorpusCheck(f"mutation:{fname}", ok, detail)


def _check_syntax_errors(syntax_dir: str) -> Iterator[CorpusCheck]:
    if not os.path.isdir(syntax_dir):
        yield CorpusCheck("syntax_errors", False, "directory missing")
        return
    for fname in sorted(os.listdir(syntax_dir)):
        if not fname.endswith(".ciot"):
            continue
        model, diags = _diagnose(os.path.join(syntax_dir, fname))
        ok = model is None and bool(diags) and diags[0].rule in ("E_LEX", "E_PARSE")
        detail = diags[0].rule if diags else "no diagnostics"
        yield CorpusCheck(f"syntax:{fname}", ok, detail)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--corpus",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "corpus"),
        help="corpus directory (default: <repo>/corpus)",
    )
    ap.add_argument(
        "--regen",
        action="store_true",
        help="regenerate golden traces and timelines before checking",
    )
    args = ap.parse_args(argv)

    report = corpus_check(args.corpus, regen=args.regen)
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

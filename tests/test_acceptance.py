"""Acceptance gate: one test per shipping criterion.

Each test prints one PASS/FAIL line (visible with ``pytest -s``; under
``pytest -v`` the test outcome itself is the per-criterion line) and
enforces the stated tolerances and runtime budgets.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import time
from pathlib import Path

from ciot import load_file
from ciot.engine import inject, instantiate, run_to_quiescence
from ciot.loader import collect_diagnostics_file
from ciot.metamodel import structurally_equal, with_property_initial
from ciot.sim import echo_duration, load_scenario_file, occupancy_timeline, simulate
from ciot.export import export_model, import_model, statemachine_to_dot
from ciot.trace import render_trace

from genmodels import engine_reached, generate, oracle_reached

EXPECTED_TIMELINE = [(0, "vacant"), (5000, "occupied"), (12000, "vacant")]


@contextlib.contextmanager
def criterion(cid: str, title: str, budget_s: float | None = None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {cid} {title}")
        raise
    dt = time.monotonic() - t0
    if budget_s is not None:
        assert dt < budget_s, f"{cid} took {dt:.2f}s, budget {budget_s}s"
    print(f"[PASS] {cid} {title} ({dt:.2f}s)")


def final_leds(model, duration_ms: float) -> tuple[str, str]:
    rt = instantiate(model)
    inject(rt, "node", "pSense", "evtReading", {"duration": duration_ms})
    run_to_quiescence(rt)  # E_STEP_LIMIT unless it quiesces
    return rt.instances["node.red"].state, rt.instances["node.green"].state


def test_c1_threshold_rule(parking_model):
    with criterion("C1", "threshold 300ms separates vacant from occupied", budget_s=1.0):
        assert final_leds(parking_model, 300.0) == ("OFF", "ON")
        assert final_leds(parking_model, 299.999) == ("ON", "OFF")


def test_c2_arrive_depart_scenario(parking_model, arrive_depart_path):
    with criterion("C2", "arrive/depart timeline tracks stimuli within one period", budget_s=1.0):
        scenario = load_scenario_file(str(arrive_depart_path))
        timeline = occupancy_timeline(simulate(parking_model, scenario))
        assert timeline == EXPECTED_TIMELINE
        for (t_change, _), t_stimulus in zip(timeline, (0, 5000, 12000)):
            assert abs(t_change - t_stimulus) <= scenario.sample_period_ms


def test_c3_physical_mode(parking_model, physical_path):
    with criterion("C3", "echo model reference points and physical-mode timeline"):
        assert abs(echo_duration(2.5) - 14.577) <= 0.001
        assert abs(echo_duration(0.5) - 2.915) <= 0.001
        low = with_property_initial(parking_model, "threshold", 5.0)
        scenario = load_scenario_file(str(physical_path))
        timeline = occupancy_timeline(simulate(low, scenario))
        assert timeline == EXPECTED_TIMELINE


def test_c4_deterministic_traces(parking_model, arrive_depart_path):
    with criterion("C4", "repeated simulate runs hash identically"):
        scenario = load_scenario_file(str(arrive_depart_path))
        digests = []
        for _ in range(2):
            result = simulate(parking_model, scenario)
            text = render_trace(result.trace).encode("utf-8")
            digests.append(hashlib.sha256(text).hexdigest())
        assert digests[0] == digests[1]


def test_c5_engine_matches_independent_oracle():
    with criterion("C5", "engine equals BFS oracle on 100 random machines", budget_s=60.0):
        for seed in range(100):
            gm = generate(seed)
            assert len(gm.states) <= 5
            assert len(gm.transitions) <= 6
            assert len(gm.events) <= 4
            assert oracle_reached(gm, 4) == engine_reached(gm, 4), f"seed {seed}"


def test_c6_mutual_exclusion(parking_model):
    with criterion("C6", "exactly one LED lit at every quiescent point, 1000 injections"):
        rng = random.Random(20260821)
        rt = instantiate(parking_model)
        violations = 0
        for i in range(1000):
            # mostly smooth readings, with boundary values mixed in
            duration = 300.0 if rng.random() < 0.05 else rng.uniform(0.0, 10000.0)
            inject(rt, "node", "pSense", "evtReading", {"duration": duration})
            run_to_quiescence(rt)  # E_STEP_LIMIT unless it quiesces
            lit = [
                p
                for p in ("node.red", "node.green")
                if rt.instances[p].state == "ON"
            ]
            if len(lit) != 1:
                violations += 1
        assert violations == 0


def test_c7_validator_mutation_suite(corpus_dir, parking_path):
    with criterion("C7", "R1-R7 mutants each detected; pristine corpus clean"):
        model, diags = collect_diagnostics_file(str(parking_path))
        assert model is not None and diags == []
        mut_dir = Path(corpus_dir) / "mutations"
        manifest = {}
        for line in (mut_dir / "expected_diagnostics.txt").read_text().splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                name, spec = line.split(None, 1)
                manifest[name] = [tuple(x.strip().split(":")) for x in spec.split(",")]
        covered = set()
        for name, expected in sorted(manifest.items()):
            _, diags = collect_diagnostics_file(str(mut_dir / name))
            assert [(d.rule, d.severity.value) for d in diags] == expected, name
            covered.update(rule for rule, _ in expected)
        assert covered == {"R1", "R2", "R3", "R4", "R5", "R6", "R7"}


def test_c8_roundtrips_and_dot_counts(corpus_dir):
    with criterion("C8", "interchange round-trips and DOT state/edge counts"):
        ciot_files = sorted(Path(corpus_dir).glob("*.ciot")) + sorted(
            (Path(corpus_dir) / "mutations").glob("*.ciot")
        )
        assert ciot_files
        for path in ciot_files:
            model = load_file(str(path), check=False)
            again = import_model(export_model(model), "<roundtrip>")
            assert structurally_equal(model, again), path.name

        model = load_file(str(Path(corpus_dir) / "parking_node.ciot"))
        expected = {
            "RedLED": (2, 4),
            "GreenLED": (2, 4),
            "UltrasonicSensor": (2, 2),
            "Node": (3, 6),
        }
        for name, (n_states, n_edges) in expected.items():
            dot = statemachine_to_dot(model, name)
            nodes = [
                ln
                for ln in dot.splitlines()
                if ln.strip().startswith('"') and "->" not in ln and ln.strip().endswith(";")
            ]
            edges = [ln for ln in dot.splitlines() if "->" in ln]
            assert len(nodes) == n_states, name
            assert len(edges) == n_edges, name

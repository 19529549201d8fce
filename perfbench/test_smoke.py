"""Smoke test of the benchmark harness at tiny sizes.

    python -m pytest perfbench/test_smoke.py

Checks that each workload runs, that its correctness check passes on the
real reference and fails on a corrupted one, and that the traced run
reports every per-layer metric. It never asserts a timing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {"corpus": {}, "fleet": {"nodes": 3, "horizon_ms": 500}, "frontend": {"copies": 10}}


def error_rate(workload) -> float:
    ops = run.measure(workload, 0.0)
    return sum(op.items is None for op in ops) / len(ops)


def tiny(name: str):
    workload, _, _ = run.setup(name, 7, TINY[name])
    return workload


def flip_golden_byte(w) -> None:
    timeline, trace = w.golden[0]
    w.golden[0] = (timeline, trace[:100] + bytes([trace[100] ^ 1]) + trace[101:])


def wrong_fleet_status(w) -> None:
    slot = w.slots[0]
    t, status = w.expected[slot][-1]
    w.expected[slot][-1] = (t, "occupied" if status == "vacant" else "vacant")


def wrong_expected_rule(w) -> None:
    k = next(k for k, expected in enumerate(w.expected) if expected)
    w.expected[k] = [("R0", w.expected[k][0][1])]


@pytest.mark.parametrize(
    "name, corrupt",
    [("corpus", flip_golden_byte), ("fleet", wrong_fleet_status), ("frontend", wrong_expected_rule)],
)
def test_check_catches_corrupted_reference(name, corrupt):
    w = tiny(name)
    assert error_rate(w) == 0
    corrupt(w)
    assert error_rate(w) > 0


def test_frontend_draws_clean_and_mutant_copies():
    w = tiny("frontend")
    assert [] in w.expected and any(w.expected)


def test_seed_decides_generated_inputs():
    a, b, c = (workloads.Fleet(tiny("fleet").ciot, run.ROOT, seed, **TINY["fleet"]) for seed in (1, 1, 2))
    assert a.scenario_text == b.scenario_text != c.scenario_text


def test_traced_run_reports_every_per_layer_metric(monkeypatch):
    monkeypatch.setitem(run.SIZES, "fleet", TINY["fleet"])
    metrics, attempted, failed, detail = run.layer_metrics("fleet", 7, 0.0)
    assert failed == 0 and attempted > 0 and detail["counts_repeat"]
    assert set(metrics) == set(layers.UNITS)
    assert metrics["engine.deliveries"][0] > 0
    assert metrics["sim.us_per_delivery_corpus"][0] > 0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    metrics, _, _, _ = run.end_to_end("corpus", 7, 0.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in metrics.items()}

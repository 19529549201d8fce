#!/usr/bin/env python3
"""ciot benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload corpus|fleet|frontend --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; ciot is imported from ``src/``
there and nowhere else. ``--trace 0`` measures the end-to-end metrics with
no instrumentation; ``--trace 1`` reports the per-layer metrics (spans,
counts, the cProfile engine split and the tracing overhead). Every op's
output is checked against an independent reference outside the timed
region. The last line of standard output is the result object; the line
before it holds the run's details (seed, Python version, nproc, sizes,
sample counts, raw wall times, error rate and the named throughput).
"""

from __future__ import annotations

import sys

# Keep the checkout free of bytecode caches.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402

# Workload sizes, fixed so that every run measures the same work.
SIZES = {
    "corpus": {},
    "fleet": {"nodes": 200, "horizon_ms": 400},
    "frontend": {"copies": 48},
}
SETUP_REPEATS = 9
MIN_OPS = 5
# Share of --seconds spent on each phase of a traced run.
SPAN_SHARE, PROFILE_SHARE, BASE_SHARE = 0.7, 0.2, 0.1

# Other tenants of a shared host slow the core for seconds at a time, by up
# to 2x, and its load drifts over minutes; raw wall times then differ
# between runs by more than any bound. Every timed call is therefore
# bracketed by a fixed reference kernel, and its time is reported scaled to
# a core on which that kernel takes REF_S seconds (its time on an idle core
# of the 2-CPU Xeon host, Python 3.11, this benchmark was tuned on). The
# raw wall times are in the detail line.
REF_S = 0.004


def reference_kernel() -> int:
    """Fixed pure-Python work of the kind ciot does: string formatting,
    dict updates and small-tuple allocation."""
    counts: dict[str, int] = {}
    rows = []
    for i in range(8000):
        key = "k%d" % (i % 500)
        counts[key] = counts.get(key, 0) + i
        rows.append((key, i * 0.5))
    return len(rows) + len(counts)


def _kernel_s() -> float:
    # With the collector off, the kernel's time does not depend on how many
    # objects the op left behind.
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def timed(fn):
    """Call ``fn`` between two runs of the reference kernel.

    Returns its result, its wall seconds, and those seconds scaled by
    REF_S over the mean time of the two kernel runs.
    """
    before = _kernel_s()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall, wall * REF_S / ((before + _kernel_s()) / 2)


class Op(NamedTuple):
    wall: float  # seconds
    norm: float  # seconds, scaled to the reference core
    items: int | None  # None when the op failed its check
    layers: dict | None  # per-layer numbers, on traced ops only


def import_ciot():
    """Import ciot afresh from the checkout's ``src/``, compiling its sources.

    Bytecode is looked up under a directory that is never created, so every
    set-up compiles the same sources whether or not ``src/`` holds caches.
    """
    for name in [m for m in sys.modules if m == "ciot" or m.startswith("ciot.")]:
        del sys.modules[name]
    sys.pycache_prefix = str(HERE / "no-bytecode-cache")
    try:
        import ciot
    finally:
        sys.pycache_prefix = None
    if Path(ciot.__file__).resolve().parent != SRC / "ciot":
        raise ImportError(f"ciot was imported from {ciot.__file__}, not from {SRC}")
    return ciot


def setup(name: str, seed: int, sizes: dict):
    """Import ciot, build the inputs and do the first load, timed.

    Returns the workload, the wall seconds and the scaled seconds.
    """
    gc.collect()
    return timed(lambda: workloads.WORKLOADS[name](import_ciot(), ROOT, seed, **sizes))


def checked(workload, out):
    """The op's item count, or None when it raised or its output is wrong."""
    if out is None or not workload.check(out):
        return None
    return workload.items(out)


def run_op(workload, spans=None) -> Op:
    """One timed op, traced when ``spans`` is given, then its check."""

    def op():
        try:
            return workload.op()
        except workload.ciot.CiotError:
            return None

    gc.collect()
    if spans is None:
        out, wall, norm = timed(op)
        layer = None
    else:
        with spans:
            out, wall, norm = timed(op)
        layer = layers.scaled(spans.take(), norm / wall)
    return Op(wall, norm, checked(workload, out), layer)


def measure(workload, seconds: float, spans=None, min_ops: int = MIN_OPS) -> list[Op]:
    """Closed loop of ops for ``seconds``.

    With ``spans`` the ops alternate between plain and traced, so drift of
    the machine hits both alike.
    """
    ops: list[Op] = []
    if spans is not None:
        min_ops *= 2
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        ops.append(run_op(workload, spans if len(ops) % 2 else None))
    return ops


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name: str, seed: int, seconds: float):
    # Set-ups are spread over the run, one before each slice of ops, so that
    # they sample the same stretches of machine load as the ops do.
    setups, ops = [], []
    for _ in range(SETUP_REPEATS):
        workload = None  # freed by the collection that starts the next set-up
        workload, wall, norm = setup(name, seed, SIZES[name])
        setups.append((wall, norm))
        ops += measure(workload, seconds / SETUP_REPEATS, min_ops=1)
    norms = [op.norm for op in ops]
    walls = [op.wall for op in ops]
    items = [op.items for op in ops if op.items is not None]
    failed = len(ops) - len(items)
    per_op = statistics.median(items) if items else 0
    op_s = statistics.median(norms)
    metrics = {
        "op_s": (op_s, "s"),
        "op_s_p90": (p90(norms), "s"),
        "items_per_s": (per_op / op_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(norm for _, norm in setups), "s"),
    }
    detail = {
        "ops": len(ops),
        "op_s_p90_samples": len(ops),
        "error_rate": failed / len(ops),
        f"{workload.item}_per_op": per_op,
        f"{workload.item}_per_s": per_op / op_s,
        "wall_op_s": statistics.median(walls),
        "wall_op_s_min": min(walls),
        "wall_op_s_p90": p90(walls),
        "wall_setup_s": statistics.median(wall for wall, _ in setups),
        "kernel_s": statistics.median(op.wall * REF_S / op.norm for op in ops),
    }
    return metrics, len(ops), failed, detail


def layer_metrics(name: str, seed: int, seconds: float):
    workload, _, _ = setup(name, seed, SIZES[name])
    ops = measure(workload, seconds * SPAN_SHARE, layers.Spans())
    attempted = len(ops)
    failed = sum(op.items is None for op in ops)
    untraced = [op.norm for op in ops if op.layers is None]
    traced = [op.norm for op in ops if op.layers is not None]
    values, repeats = layers.summarize([op.layers for op in ops if op.layers is not None])

    groups = dict.fromkeys(layers.GROUPS + (layers.UNATTRIBUTED,), 0.0)
    profiled_total, profiled_ops = 0.0, 0
    if workload.item == "deliveries":
        start = time.perf_counter()
        while not profiled_ops or time.perf_counter() - start < seconds * PROFILE_SHARE:
            got, total, out = layers.engine_groups(workload.op)
            profiled_ops += 1
            attempted += 1
            failed += checked(workload, out) is None
            out = None
            for k, v in got.items():
                groups[k] += v
            profiled_total += total
    # Each group's share of profiled simulate time, in unprofiled seconds.
    for group, t in groups.items():
        values[f"engine.{group}_s"] = t / profiled_total * values["sim.simulate_s"] if profiled_total else 0.0

    # Cost per delivery relative to the corpus (N = 1) base, both operands.
    base = 0.0
    if name == "fleet":
        base_ops = measure(workloads.Corpus(workload.ciot, ROOT, seed), seconds * BASE_SHARE, layers.Spans())
        attempted += len(base_ops)
        failed += sum(op.items is None for op in base_ops)
        base = layers.summarize([op.layers for op in base_ops if op.layers is not None])[0]["sim.us_per_delivery"]
    values["sim.us_per_delivery_corpus"] = base
    values["sim.delivery_cost_ratio"] = values["sim.us_per_delivery"] / base if base else 0.0

    op_untraced, op_traced = statistics.median(untraced), statistics.median(traced)
    values["harness.op_s_untraced"] = op_untraced
    values["harness.op_s_traced"] = op_traced
    values["harness.tracing_overhead_s"] = op_traced - op_untraced

    metrics = {k: (values[k], unit) for k, unit in layers.UNITS.items()}
    detail = {
        "untraced_ops": len(untraced),
        "traced_ops": len(traced),
        "counts_repeat": repeats,
        "profiled_ops": profiled_ops,
        "profiled_s": profiled_total,
        "error_rate": failed / attempted,
    }
    return metrics, attempted, failed + (not repeats), detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one ciot benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ciot" / "__init__.py").is_file():
        print(f"error: no ciot sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    if args.trace:
        metrics, attempted, failed, detail = layer_metrics(args.workload, args.seed, args.seconds)
    else:
        metrics, attempted, failed, detail = end_to_end(args.workload, args.seed, args.seconds)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        sizes=SIZES[args.workload],
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

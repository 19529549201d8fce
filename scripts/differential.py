#!/usr/bin/env python3
"""Compare two source trees of ciot case by case, on the front end and the engine.

Each tree is a source root that contains ``src/ciot``: the working tree, or
a parent commit exported with ``git archive``. Each runs in its own
``python -B`` subprocess, with its own ``PYTHONPATH``, over the same cases;
the script compares one digest per case. The first tree runs under
``PYTHONHASHSEED=0`` and the second under 4242, since no output may depend on
the hash seed: a tree run against itself checks just that.

The front-end family: the corpus ``.ciot`` files, then every token of the
corpus model dropped, doubled and followed by ``@``, then each of its
property, payload field and effect lines duplicated. A case's digest covers
each diagnostic's rule, message, span, file and rendering, and, for a model
without errors, its ``export_model`` text and the ``render_trace`` of
``instantiate`` and ``run_to_quiescence``.

The engine family: seeded ``simulate`` runs of the corpus model with its one
root instance replaced by N of them (one slot gives a timeline, more give
its E_TRACE error), under a seeded duration or physical scenario, half of
them with the threshold overridden. A run's digest covers the rendered
trace, the list of its records, a slice of it, the timeline or its error,
and each instance's final state and properties.

In both families an exception is digested as its type, code and message.
Only the standard library is used; the cases' tokens come from this
repository's own lexer.

Run from the repository root, for example against the parent commit:

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python scripts/differential.py ../parent .
    python scripts/differential.py . .

It prints one line per family, ``frontend: N cases, K differ[, first:
<case>]`` and ``engine: N runs, K differ[, first: <run>]``, and exits 0 when
no case differs, 1 when some do, and 2 when a tree fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from ciot.lexer import TokenKind, tokenize

CORPUS = REPO / "corpus"
MODEL = "parking_node.ciot"
SEEDS = (0, 4242)  # PYTHONHASHSEED of the first and the second tree
# Property declarations, payload fields ("name: type;") and effects ("name := expr;").
_MEMBER_LINE = re.compile(r"\s*(property\b.*|\w+\s*:\s*\w+\s*;|\w+\s*:=.*)\n")
ROOT_INSTANCE = "instance node: Node;"  # the corpus model's one root, which an engine run replaces
ENGINE_RUNS = 2000
NODE_COUNTS = (1, 1, 1, 2, 3, 5, 10, 20)  # drawn from for each engine run

# Run in each tree's subprocess: the cases are read from the JSON file named
# by argv[1], and one digest per case of each family is printed as a JSON
# object of lists, after the path of the ciot package imported.
_WORKER = r"""
import hashlib, json, sys
import ciot
from ciot import (
    collect_diagnostics, export_model, instantiate, load_scenario, load_text, occupancy_timeline,
    render_trace, run_to_quiescence, simulate, with_property_initial,
)

def digest(family, case):
    out = []
    try:
        family(case, out)
    except Exception as exc:
        out.append([type(exc).__name__, getattr(exc, "code", None), str(exc)])
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()

def frontend(text, out):
    model, diags = collect_diagnostics(text, "case.ciot")
    for d in diags:
        span = None if d.span is None else list(d.span)
        out.append([d.rule, d.message, span, d.file, d.render()])
    if model is not None and all(d.severity.value != "error" for d in diags):
        out.append(export_model(model))
        rt = instantiate(model)
        run_to_quiescence(rt)
        out.append(render_trace(rt.trace))

def engine(run, out):
    model = load_text(models[str(run["nodes"])], "engine.ciot")
    if run["threshold"] is not None:
        model = with_property_initial(model, "threshold", run["threshold"])
    result = simulate(model, load_scenario(run["scenario"], "engine.scn"))
    trace = result.trace
    out.append(render_trace(trace))
    out.append(repr(list(trace)))
    out.append(repr(trace[slice(*run["slice"])]))
    try:
        out.append(occupancy_timeline(result))
    except ciot.CiotError as exc:
        out.append([exc.code, str(exc)])
    rt = result.runtime
    out.append([[p, rt.instances[p].state, repr(sorted(rt.instances[p].properties.items()))] for p in rt.order])

with open(sys.argv[1], encoding="utf-8") as fh:
    cases = json.load(fh)
models = cases["models"]
print(ciot.__file__)
print(json.dumps({
    "frontend": [digest(frontend, text) for text in cases["texts"]],
    "engine": [digest(engine, run) for run in cases["runs"]],
}))
"""


def cases() -> list[tuple[str, str]]:
    """The front-end family, as (case name, model text) pairs."""
    out = [(str(p.relative_to(CORPUS)), p.read_text(encoding="utf-8")) for p in sorted(CORPUS.rglob("*.ciot"))]
    text = (CORPUS / MODEL).read_text(encoding="utf-8")
    tokens = [(start, word) for kind, word, start in tokenize(text) if kind is not TokenKind.EOI]
    changes = [("drop", lambda t: ""), ("double", lambda t: f"{t} {t}"), ("follow with @", lambda t: t + "@")]
    for how, change in changes:
        for i, (start, word) in enumerate(tokens):
            name = f"{MODEL}: {how} token {i} {word!r}"
            out.append((name, text[:start] + change(word) + text[start + len(word) :]))
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if _MEMBER_LINE.fullmatch(line):
            out.append((f"{MODEL}: duplicate line {i + 1}", "".join(lines[: i + 1] + lines[i:])))
    return out


def engine_run(seed: int) -> tuple[str, dict]:
    """Engine run ``seed``, as (run name, description). The description
    holds the number of root instances, ``node0`` on, the scenario text,
    a threshold override or None, and the bounds of the slice taken of the
    trace."""
    rng = random.Random(seed)
    nodes = rng.choice(NODE_COUNTS)
    mode = rng.choice(("duration", "physical"))
    horizon = rng.randint(0, 3000)
    lines = [f"mode={mode}", f"horizon_ms={horizon}", f"sample_period_ms={rng.choice((50, 100, 250))}"]
    times = sorted(rng.randint(0, horizon) for _ in range(rng.randint(0, 3 * nodes)))
    for t in times:
        slot = f"node{rng.randrange(nodes)}"
        if mode == "duration":
            lines.append(f"at {t} slot {slot} echo {round(rng.uniform(0.0, 600.0), 3)}")
        elif rng.random() < 0.5:
            lines.append(f"at {t} slot {slot} occupy {round(rng.uniform(0.05, 3.0), 3)}")
        else:
            lines.append(f"at {t} slot {slot} vacate")
    threshold = None
    if rng.random() < 0.5:  # a physical echo lasts 0.3-17.5 ms, a duration one up to 600 ms
        threshold = round(rng.uniform(0.5, 20.0) if mode == "physical" else rng.uniform(1.0, 600.0), 3)
    bounds = [rng.randint(-50, 50), rng.choice((None, rng.randint(-50, 500))), rng.choice((None, 1, 2, 3, -1))]
    run = {"nodes": nodes, "scenario": "\n".join(lines) + "\n", "threshold": threshold, "slice": bounds}
    return f"run {seed} ({nodes} nodes, {mode}, {len(times)} stimuli)", run


def runs() -> list[tuple[str, dict]]:
    """The engine family, as (run name, description) pairs."""
    return [engine_run(seed) for seed in range(ENGINE_RUNS)]


def models() -> dict[str, str]:
    """The model text of each node count an engine run may draw."""
    text = (CORPUS / MODEL).read_text(encoding="utf-8")
    if text.count(ROOT_INSTANCE) != 1:
        raise ValueError(f"{MODEL} does not declare {ROOT_INSTANCE!r} once")
    roots = {n: "\n".join(f"instance node{k}: Node;" for k in range(n)) for n in NODE_COUNTS}
    return {str(n): text.replace(ROOT_INSTANCE, lines) for n, lines in roots.items()}


def start_worker(tree: pathlib.Path, seed: int, cases_file: str) -> subprocess.Popen:
    """Start ``tree``'s worker over the cases in ``cases_file``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": str(seed)}
    return subprocess.Popen(
        [sys.executable, "-B", "-c", _WORKER, cases_file],
        cwd=tree,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree_a", type=pathlib.Path)
    ap.add_argument("tree_b", type=pathlib.Path)
    args = ap.parse_args(argv)
    trees = [args.tree_a.resolve(), args.tree_b.resolve()]
    for tree in trees:
        if not (tree / "src" / "ciot").is_dir():
            ap.error(f"{tree} holds no src/ciot")
    families = {"frontend": cases(), "engine": runs()}
    with tempfile.TemporaryDirectory() as scratch:
        cases_file = os.path.join(scratch, "cases.json")
        with open(cases_file, "w", encoding="utf-8") as fh:
            texts = [text for _, text in families["frontend"]]
            engine = [run for _, run in families["engine"]]
            json.dump({"texts": texts, "runs": engine, "models": models()}, fh)
        workers = [start_worker(tree, seed, cases_file) for tree, seed in zip(trees, SEEDS)]
        outputs = [worker.communicate() for worker in workers]
    results = []
    for tree, worker, (out, err) in zip(trees, workers, outputs):
        package, _, listing = out.partition("\n")
        if worker.returncode != 0 or not pathlib.Path(package).is_relative_to(tree / "src"):
            print(f"differential: {tree} failed to run (exit {worker.returncode}, imported {package!r})")
            print(err, end="", file=sys.stderr)
            return 2
        results.append(json.loads(listing))
    status = 0
    for family, noun in (("frontend", "cases"), ("engine", "runs")):
        named = families[family]
        differ = [name for (name, _), a, b in zip(named, results[0][family], results[1][family]) if a != b]
        first = f", first: {differ[0]}" if differ else ""
        print(f"{family}: {len(named)} {noun}, {len(differ)} differ{first}")
        status = 1 if differ else status
    return status


if __name__ == "__main__":
    sys.exit(main())

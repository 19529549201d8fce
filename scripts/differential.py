#!/usr/bin/env python3
"""Compare two source trees of ciot case by case on the front end.

Each tree is a source root that contains ``src/ciot``: the working tree, or
a parent commit exported with ``git archive``. Each runs in its own
``python -B`` subprocess, with its own ``PYTHONPATH``, over the same cases;
the script compares one digest per case. The first tree runs under
``PYTHONHASHSEED=0`` and the second under 4242, since no output may depend on
the hash seed: a tree run against itself checks just that.

The cases are the front-end family: the corpus ``.ciot`` files, then every
token of the corpus model dropped, doubled and followed by ``@``, then each
of its property, payload field and effect lines duplicated. A case's digest
covers each diagnostic's rule, message, span, file and rendering, and, for a
model without errors, its ``export_model`` text and the ``render_trace`` of
``instantiate`` and ``run_to_quiescence``; an exception is digested as its
type, code and message. Only the standard library is used; the cases'
tokens come from this repository's own lexer.

Run from the repository root, for example against the parent commit:

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python scripts/differential.py ../parent .
    python scripts/differential.py . .

It prints one line, ``frontend: N cases, K differ[, first: <case>]``, and
exits 0 when no case differs, 1 when some do, and 2 when a tree fails to
run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
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

# Run in each tree's subprocess: the cases are read from the JSON file named
# by argv[1], and one digest per case is printed as a JSON list, after the
# path of the ciot package imported.
_WORKER = r"""
import hashlib, json, sys
import ciot
from ciot import collect_diagnostics, export_model, instantiate, render_trace, run_to_quiescence

def outcome(text):
    out = []
    try:
        model, diags = collect_diagnostics(text, "case.ciot")
        for d in diags:
            span = None if d.span is None else list(d.span)
            out.append([d.rule, d.message, span, d.file, d.render()])
        if model is not None and all(d.severity.value != "error" for d in diags):
            out.append(export_model(model))
            rt = instantiate(model)
            run_to_quiescence(rt)
            out.append(render_trace(rt.trace))
    except Exception as exc:
        out.append([type(exc).__name__, getattr(exc, "code", None), str(exc)])
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()

with open(sys.argv[1], encoding="utf-8") as fh:
    texts = json.load(fh)
print(ciot.__file__)
print(json.dumps([outcome(t) for t in texts]))
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


def start_worker(tree: pathlib.Path, seed: int, texts_file: str) -> subprocess.Popen:
    """Start ``tree``'s worker over the texts in ``texts_file``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": str(seed)}
    return subprocess.Popen(
        [sys.executable, "-B", "-c", _WORKER, texts_file],
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
    family = cases()
    with tempfile.TemporaryDirectory() as scratch:
        texts_file = os.path.join(scratch, "cases.json")
        with open(texts_file, "w", encoding="utf-8") as fh:
            json.dump([text for _, text in family], fh)
        workers = [start_worker(tree, seed, texts_file) for tree, seed in zip(trees, SEEDS)]
        outputs = [worker.communicate() for worker in workers]
    results = []
    for tree, worker, (out, err) in zip(trees, workers, outputs):
        package, _, listing = out.partition("\n")
        if worker.returncode != 0 or not pathlib.Path(package).is_relative_to(tree / "src"):
            print(f"differential: {tree} failed to run (exit {worker.returncode}, imported {package!r})")
            print(err, end="", file=sys.stderr)
            return 2
        results.append(json.loads(listing))
    differ = [name for (name, _), a, b in zip(family, *results) if a != b]
    first = f", first: {differ[0]}" if differ else ""
    print(f"frontend: {len(family)} cases, {len(differ)} differ{first}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke tests of ``scripts/differential.py`` on a few cases of each family."""

from __future__ import annotations

import importlib.util
import pathlib
import shutil

import pytest

from ciot.lexer import TokenKind, tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
FEW = 16  # the corpus files, then the first token cases
FEW_RUNS = 4


@pytest.fixture
def differential():
    spec = importlib.util.spec_from_file_location("differential", ROOT / "scripts" / "differential.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(differential, monkeypatch, capsys, tree_a: pathlib.Path, tree_b: pathlib.Path, runs=None) -> tuple[int, str]:
    family = differential.cases()[:FEW]
    engine = differential.runs()[:FEW_RUNS] if runs is None else runs
    monkeypatch.setattr(differential, "cases", lambda: family)
    monkeypatch.setattr(differential, "runs", lambda: engine)
    code = differential.main([str(tree_a), str(tree_b)])
    return code, capsys.readouterr().out


def _copy_with(tmp_path: pathlib.Path, module: str, old: str, new: str) -> pathlib.Path:
    """A copy of the source tree whose ``module`` has its one ``old`` replaced by ``new``."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "ciot" / module
    source = path.read_text(encoding="utf-8")
    assert source.count(old) == 1
    path.write_text(source.replace(old, new), encoding="utf-8")
    return tmp_path


def test_cases_cover_every_token_of_the_corpus_model(differential):
    text = (differential.CORPUS / differential.MODEL).read_text(encoding="utf-8")
    tokens = [kind for kind, _, _ in tokenize(text) if kind is not TokenKind.EOI]
    names = [name for name, _ in differential.cases()]
    # the 13 corpus files, three cases a token, the 13 property, field and effect lines
    assert len(names) == len(set(names)) == 13 + 3 * len(tokens) + 13


def test_engine_runs_are_seeded_and_span_their_node_counts(differential):
    runs = differential.runs()
    assert len(runs) == len({name for name, _ in runs}) >= 2000
    assert runs[:50] == [differential.engine_run(seed) for seed in range(50)]
    assert {run["nodes"] for _, run in runs} == set(differential.NODE_COUNTS)
    models = differential.models()
    assert models["1"].count("instance node0: Node;") == 1 and "instance node: Node;" not in models["1"]
    assert models["20"].count(": Node;\n") == 20


def test_a_tree_against_itself_differs_nowhere(differential, monkeypatch, capsys):
    expected = f"frontend: {FEW} cases, 0 differ\nengine: {FEW_RUNS} runs, 0 differ\n"
    assert _run(differential, monkeypatch, capsys, ROOT, ROOT) == (0, expected)


def test_a_changed_diagnostic_message_is_reported_with_its_case(differential, monkeypatch, capsys, tmp_path):
    changed = _copy_with(tmp_path, "validate.py", "has no initial state", "lacks an initial state")
    expected = (
        f"frontend: {FEW} cases, 1 differ, first: mutations/r1_no_initial.ciot\n"
        f"engine: {FEW_RUNS} runs, 0 differ\n"
    )
    assert _run(differential, monkeypatch, capsys, ROOT, changed) == (1, expected)


def test_a_changed_trace_record_is_reported_with_its_run(differential, monkeypatch, capsys, tmp_path):
    """A reading's event_delivered record names another source: a run with
    no reading does not differ, and the first with one is named."""
    runs = differential.runs()
    quiet = next(r for r in runs if "mode=duration" in r[1]["scenario"] and " echo " not in r[1]["scenario"])
    probed = next(r for r in runs if "mode=physical" in r[1]["scenario"])
    changed = _copy_with(tmp_path, "sim.py", '{ECHO_FIELD: reading}, "env")', '{ECHO_FIELD: reading}, "sensor")')
    expected = f"frontend: {FEW} cases, 0 differ\nengine: 2 runs, 1 differ, first: {probed[0]}\n"
    assert _run(differential, monkeypatch, capsys, ROOT, changed, [quiet, probed]) == (1, expected)

"""Smoke tests of ``scripts/differential.py`` on a few cases."""

from __future__ import annotations

import importlib.util
import pathlib
import shutil

import pytest

from ciot.lexer import TokenKind, tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
FEW = 16  # the corpus files, then the first token cases


@pytest.fixture
def differential():
    spec = importlib.util.spec_from_file_location("differential", ROOT / "scripts" / "differential.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(differential, monkeypatch, capsys, tree_a: pathlib.Path, tree_b: pathlib.Path) -> tuple[int, str]:
    family = differential.cases()[:FEW]
    monkeypatch.setattr(differential, "cases", lambda: family)
    code = differential.main([str(tree_a), str(tree_b)])
    return code, capsys.readouterr().out


def test_cases_cover_every_token_of_the_corpus_model(differential):
    text = (differential.CORPUS / differential.MODEL).read_text(encoding="utf-8")
    tokens = [kind for kind, _, _ in tokenize(text) if kind is not TokenKind.EOI]
    names = [name for name, _ in differential.cases()]
    # the 13 corpus files, three cases a token, the 13 property, field and effect lines
    assert len(names) == len(set(names)) == 13 + 3 * len(tokens) + 13


def test_a_tree_against_itself_differs_nowhere(differential, monkeypatch, capsys):
    assert _run(differential, monkeypatch, capsys, ROOT, ROOT) == (0, f"frontend: {FEW} cases, 0 differ\n")


def test_a_changed_diagnostic_message_is_reported_with_its_case(differential, monkeypatch, capsys, tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    validate = tmp_path / "src" / "ciot" / "validate.py"
    source = validate.read_text(encoding="utf-8")
    assert source.count("has no initial state") == 1
    validate.write_text(source.replace("has no initial state", "lacks an initial state"), encoding="utf-8")
    expected = f"frontend: {FEW} cases, 1 differ, first: mutations/r1_no_initial.ciot\n"
    assert _run(differential, monkeypatch, capsys, ROOT, tmp_path) == (1, expected)

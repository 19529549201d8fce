from __future__ import annotations

import importlib.util
import pathlib
import shutil
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "corpus_check.py"


def _load_script():
    # Registered before it runs: dataclasses look their module up in sys.modules.
    spec = importlib.util.spec_from_file_location("corpus_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


script = _load_script()
corpus_check = script.corpus_check


@pytest.fixture()
def clone(corpus_dir, tmp_path):
    copy = tmp_path / "corpus"
    shutil.copytree(str(corpus_dir), copy)
    return copy


def _failing(report):
    return {c.name: c.message for c in report.checks if not c.ok}


def test_corpus_check_all_green(corpus_dir):
    report = corpus_check(str(corpus_dir))
    failing = [c for c in report.checks if not c.ok]
    assert report.ok, report.render()
    assert failing == []


def test_corpus_check_covers_every_artifact(corpus_dir):
    report = corpus_check(str(corpus_dir))
    names = [c.name for c in report.checks]
    assert names == [
        "pristine",
        "golden:arrive_depart.trace",
        "golden:arrive_depart.timeline",
        "golden:physical.trace",
        "golden:physical.timeline",
        "roundtrip",
        "dot:RedLED",
        "dot:GreenLED",
        "dot:UltrasonicSensor",
        "dot:Node",
        "mutation:r1_no_initial.ciot",
        "mutation:r2_missing_provides.ciot",
        "mutation:r3_generic_for_incoming.ciot",
        "mutation:r4_guard_type.ciot",
        "mutation:r5_element_with_child.ciot",
        "mutation:r6_unreachable_state.ciot",
        "mutation:r7_payload_not_carried.ciot",
        "syntax:bad_character.ciot",
        "syntax:missing_semicolon.ciot",
        "syntax:reserved_component_name.ciot",
        "syntax:truncated_file.ciot",
        "syntax:unterminated_string.ciot",
    ]


def test_report_render_has_summary_line(corpus_dir):
    report = corpus_check(str(corpus_dir))
    rendered = report.render()
    assert rendered.endswith("22/22 corpus checks passed\n")
    assert rendered.count("PASS") == 22


def test_corpus_detects_golden_drift(clone):
    golden = clone / "golden" / "arrive_depart.timeline"
    golden.write_text(golden.read_text().replace("vacant", "ghost"))
    report = corpus_check(str(clone))
    assert not report.ok
    bad = {c.name for c in report.checks if not c.ok}
    assert bad == {"golden:arrive_depart.timeline"}


def test_corpus_regen_rewrites_goldens(corpus_dir, clone):
    (clone / "golden" / "physical.trace").unlink()
    report = corpus_check(str(clone), regen=True)
    assert report.ok
    assert (clone / "golden" / "physical.trace").exists()
    # regenerated goldens agree with the committed ones byte for byte
    committed = (corpus_dir / "golden" / "physical.trace").read_bytes()
    assert (clone / "golden" / "physical.trace").read_bytes() == committed


def test_missing_model_is_one_failing_pristine_line(clone, capsys):
    (clone / "parking_node.ciot").unlink()
    assert script.main(["--corpus", str(clone)]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL pristine: model does not load: E_IO cannot read '{clone / 'parking_node.ciot'}': "
        f"[Errno 2] No such file or directory: '{clone / 'parking_node.ciot'}'"
    ]
    # the mutants and the syntax errors are still checked
    assert out.splitlines()[-2] == "12/13 corpus checks passed"


def test_manifest_naming_a_missing_mutant_fails_that_mutant(clone):
    manifest = clone / "mutations" / "expected_diagnostics.txt"
    manifest.write_text(manifest.read_text() + "nonexistent.ciot R1:error\n")
    failing = _failing(corpus_check(str(clone)))
    assert failing == {"mutation:nonexistent.ciot": "expected [('R1', 'error')], got [('E_IO', 'error')]"}


@pytest.mark.parametrize("spec", ["R1", "", "R1:error, :error", "R1:"])
def test_malformed_manifest_entry_fails_that_mutant(clone, spec):
    manifest = clone / "mutations" / "expected_diagnostics.txt"
    manifest.write_text(manifest.read_text().replace("r1_no_initial.ciot R1:error", f"r1_no_initial.ciot {spec}"))
    failing = _failing(corpus_check(str(clone)))
    assert failing == {"mutation:r1_no_initial.ciot": f"manifest entry {spec!r} is not RULE:severity[,...]"}


def test_missing_scenario_fails_its_two_goldens(clone):
    (clone / "scenario_physical.scn").unlink()
    failing = _failing(corpus_check(str(clone)))
    assert set(failing) == {"golden:physical.trace", "golden:physical.timeline"}
    assert all(m.startswith("scenario does not run: cannot read ") for m in failing.values())

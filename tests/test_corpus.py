from __future__ import annotations

from ciot.corpus import corpus_check
from ciot.sim import render_timeline


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


def test_corpus_detects_golden_drift(corpus_dir, tmp_path):
    import shutil

    clone = tmp_path / "corpus"
    shutil.copytree(str(corpus_dir), clone)
    golden = clone / "golden" / "arrive_depart.timeline"
    golden.write_text(golden.read_text().replace("vacant", "ghost"))
    report = corpus_check(str(clone))
    assert not report.ok
    bad = {c.name for c in report.checks if not c.ok}
    assert bad == {"golden:arrive_depart.timeline"}


def test_corpus_regen_rewrites_goldens(corpus_dir, tmp_path):
    import shutil

    clone = tmp_path / "corpus"
    shutil.copytree(str(corpus_dir), clone)
    (clone / "golden" / "physical.trace").unlink()
    report = corpus_check(str(clone), regen=True)
    assert report.ok
    assert (clone / "golden" / "physical.trace").exists()
    # regenerated goldens agree with the committed ones byte for byte
    committed = (corpus_dir / "golden" / "physical.trace").read_bytes()
    assert (clone / "golden" / "physical.trace").read_bytes() == committed


def test_render_timeline_format():
    assert render_timeline([(0, "vacant"), (5000, "occupied")]) == (
        "t=0 status=vacant\nt=5000 status=occupied\n"
    )
    assert render_timeline([]) == ""

"""The stated public API: what ``import ciot`` promises, and its argument checks."""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

import pytest

import ciot
from ciot import CiotError
from ciot.guards import Binary, Literal, Unary
from ciot.sim import THRESHOLD_PROPERTY, render_timeline
from ciot.validate import validate


def test_all_is_the_readme_api_list(corpus_dir):
    readme = (corpus_dir.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    listed = [name for line in section.splitlines() if line.startswith("- **") for name in re.findall(r"`(\w+)`", line)]
    assert len(listed) == 28
    assert ciot.__all__ == listed + ["__version__"]
    assert all(hasattr(ciot, name) for name in ciot.__all__)


def test_package_ships_only_what_import_and_cli_load():
    """Every module under ``src/ciot/`` is one the library or the command
    loads; repository tooling lives outside the package."""
    package = pathlib.Path(ciot.__file__).parent
    code = "import sys, ciot, ciot.cli; print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'ciot'))"
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    files = {"ciot"} | {f"ciot.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__"}
    assert set(out.split()) == files


_WRONG_TYPES = {
    "instantiate": (lambda m, rt: ciot.instantiate(None), "model must be a Model, got NoneType"),
    "inject": (
        lambda m, rt: ciot.inject(None, "node", "pSense", "evtReading", {"duration": 1.0}),
        "runtime must be a RuntimeState, got NoneType",
    ),
    "inject path": (
        lambda m, rt: ciot.inject(rt, ["node"], "pSense", "evtReading", {"duration": 1.0}),
        "path must be a str, got list",
    ),
    "bind_internal": (
        lambda m, rt: ciot.bind_internal(None, "node.sensor", "evtSense"),
        "runtime must be a RuntimeState, got NoneType",
    ),
    "bind_internal path": (lambda m, rt: ciot.bind_internal(rt, {}, "evtSense"), "path must be a str, got dict"),
    "run_to_quiescence": (lambda m, rt: ciot.run_to_quiescence(None), "runtime must be a RuntimeState, got NoneType"),
    "with_property_initial": (
        lambda m, rt: ciot.with_property_initial(None, "threshold", 1.0),
        "model must be a Model, got NoneType",
    ),
    "structurally_equal": (lambda m, rt: ciot.structurally_equal(m, None), "model must be a Model, got NoneType"),
    "occupancy_timeline": (lambda m, rt: ciot.occupancy_timeline(None), "result must be a SimResult, got NoneType"),
    "export_model": (lambda m, rt: ciot.export_model(None), "model must be a Model, got NoneType"),
    "statemachine_to_dot": (
        lambda m, rt: ciot.statemachine_to_dot(None, "Node"),
        "model must be a Model, got NoneType",
    ),
    "structure_to_dot": (lambda m, rt: ciot.structure_to_dot(None, "Node"), "model must be a Model, got NoneType"),
    "render_trace": (lambda m, rt: ciot.render_trace(None), "records must be an iterable, got NoneType"),
    "render_trace short record": (
        lambda m, rt: ciot.render_trace([(0, 0, "node")]),
        "records must hold only trace records",
    ),
    "render_trace not a record": (lambda m, rt: ciot.render_trace([None]), "records must hold only trace records"),
    "render_trace unknown kind": (
        lambda m, rt: ciot.render_trace([ciot.TraceRecord(0, 0, "node", "no_such_kind", ())]),
        "records must hold only trace records",
    ),
}


@pytest.mark.parametrize("call, message", _WRONG_TYPES.values(), ids=_WRONG_TYPES.keys())
def test_entry_point_argument_of_the_wrong_type_is_a_usage_error(parking_model, call, message):
    rt = ciot.instantiate(parking_model)
    with pytest.raises(CiotError) as exc:
        call(parking_model, rt)
    assert exc.value.code == "E_USAGE"
    assert str(exc.value) == message
    assert not rt.ready  # nothing was queued


_FILE_ENTRY_POINTS = [ciot.load_file, ciot.load_scenario_file, ciot.collect_diagnostics_file]


@pytest.mark.parametrize("read", _FILE_ENTRY_POINTS, ids=lambda f: f.__name__)
def test_file_entry_point_takes_no_file_descriptor(parking_path, read):
    """``open`` would read an int as a descriptor, and close it."""
    with open(parking_path, encoding="utf-8") as f:
        with pytest.raises(CiotError) as exc:
            read(f.fileno())
        assert exc.value.code == "E_USAGE"
        assert str(exc.value) == "path must be a str or PathLike, got int"
        assert f.read().startswith("//")  # the caller's file is still open


@pytest.mark.parametrize("read", _FILE_ENTRY_POINTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("path", [None, [], b"corpus/parking_node.ciot"], ids=["none", "list", "bytes"])
def test_file_entry_point_path_of_the_wrong_type_is_a_usage_error(read, path):
    with pytest.raises(CiotError) as exc:
        read(path)
    assert exc.value.code == "E_USAGE"
    assert str(exc.value) == f"path must be a str or PathLike, got {type(path).__name__}"


class _BytesPath:
    def __fspath__(self) -> bytes:
        return b"corpus/parking_node.ciot"


@pytest.mark.parametrize("read", _FILE_ENTRY_POINTS, ids=lambda f: f.__name__)
def test_file_entry_point_takes_no_path_like_of_bytes(read):
    with pytest.raises(CiotError) as exc:
        read(_BytesPath())
    assert exc.value.code == "E_USAGE"
    assert str(exc.value) == "path must be a str, got bytes"


@pytest.mark.parametrize(
    "read, name",
    [
        (ciot.load_file, "parking_node.ciot"),
        (ciot.load_file, "mutations/r4_guard_type.ciot"),
        (ciot.load_file, "no_such_file.ciot"),
        (ciot.load_scenario_file, "scenario_physical.scn"),
        (ciot.load_scenario_file, "no_such_file.scn"),
        (ciot.collect_diagnostics_file, "mutations/r3_generic_for_incoming.ciot"),
        (ciot.collect_diagnostics_file, "syntax_errors/unterminated_string.ciot"),
    ],
)
def test_file_entry_point_keeps_a_path_as_its_str(corpus_dir, read, name):
    """A ``PathLike`` gives the model, scenario or diagnostics that its str does."""

    def outcome(path) -> tuple:  # (model or scenario or None, diagnostics)
        try:
            result = read(path)
        except CiotError as exc:
            return None, exc.diagnostics
        return result if read is ciot.collect_diagnostics_file else (result, [])

    path = corpus_dir / name
    value, diagnostics = outcome(path)
    assert (value, diagnostics) == outcome(str(path))
    assert all(type(d.file) is str for d in diagnostics)
    assert value is None or type(value.source) is str
    assert value is not None or diagnostics


def _fresh(word: str) -> str:
    """A string equal to ``word`` that is not ``word`` itself."""
    copy = "".join(list(word))
    assert copy == word and copy is not word
    return copy


def _with_fresh_words(model: ciot.Model) -> ciot.Model:
    """``model``, edited in place so that each fixed word (component kinds,
    event directions, action kinds, and property, payload-field and literal
    types) is an equal string the parser did not hand out, as in a model
    built or edited through the API."""
    for payload in model.payloads:
        for fld in payload.fields:
            if isinstance(fld.type, str):
                fld.type = _fresh(fld.type)
    for comp in model.components:
        comp.kind = _fresh(comp.kind)
        for prop in comp.properties:
            prop.type = _fresh(prop.type)
        for ev in comp.events:
            ev.direction = _fresh(ev.direction)
        exprs = []
        for act in comp.actions:
            act.kind = _fresh(act.kind)
            exprs += [eff.expr for eff in act.effects]
        if comp.state_machine is not None:
            exprs += [t.guard for t in comp.state_machine.transitions if t.guard is not None]
        while exprs:
            expr = exprs.pop()
            if isinstance(expr, Literal):
                expr.type = _fresh(expr.type)
            elif isinstance(expr, Unary):
                exprs.append(expr.operand)
            elif isinstance(expr, Binary):
                exprs += [expr.left, expr.right]
    return model


CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"


@pytest.mark.parametrize(
    "relpath", ["parking_node.ciot", *sorted(f"mutations/{p.name}" for p in CORPUS_DIR.glob("mutations/*.ciot"))]
)
def test_model_with_fresh_words_validates_and_exports_as_parsed(relpath):
    path = CORPUS_DIR / relpath
    parsed = ciot.load_file(path, check=False)
    built = _with_fresh_words(ciot.load_file(path, check=False))
    assert validate(built) == validate(parsed)
    assert ciot.export_model(built) == ciot.export_model(parsed)


@pytest.mark.parametrize("stem, threshold", [("arrive_depart", None), ("physical", 5.0)])
def test_model_with_fresh_words_runs_the_golden_trace_and_timeline(corpus_dir, parking_path, stem, threshold):
    model = _with_fresh_words(ciot.load_file(parking_path, check=False))
    if threshold is not None:
        model = ciot.with_property_initial(model, THRESHOLD_PROPERTY, threshold)
    result = ciot.simulate(model, ciot.load_scenario_file(corpus_dir / f"scenario_{stem}.scn"))
    golden = corpus_dir / "golden"
    assert ciot.render_trace(result.trace) == (golden / f"{stem}.trace").read_text(encoding="utf-8")
    timeline = render_timeline(ciot.occupancy_timeline(result))
    assert timeline == (golden / f"{stem}.timeline").read_text(encoding="utf-8")

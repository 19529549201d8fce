"""The stated public API: what ``import ciot`` promises, and its argument checks."""

from __future__ import annotations

import re

import pytest

import ciot
from ciot import CiotError


def test_all_is_the_readme_api_list(corpus_dir):
    readme = (corpus_dir.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    listed = [name for line in section.splitlines() if line.startswith("- **") for name in re.findall(r"`(\w+)`", line)]
    assert len(listed) == 29
    assert ciot.__all__ == listed + ["__version__"]
    assert all(hasattr(ciot, name) for name in ciot.__all__)


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

from __future__ import annotations

import pathlib

import pytest

from ciot import load_file

REPO = pathlib.Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> pathlib.Path:
    return CORPUS


@pytest.fixture(scope="session")
def parking_path() -> str:
    return str(CORPUS / "parking_node.ciot")


@pytest.fixture()
def parking_model(parking_path):
    # Function-scoped: a few tests mutate runtime state derived from it,
    # and model loading is cheap enough not to matter.
    return load_file(parking_path)


@pytest.fixture(scope="session")
def shared_parking_model(parking_path):
    """A function returning the parking model, loaded once per session.

    For hypothesis properties: hypothesis prints every argument of a failing
    example, and a ``Model`` prints as about 750 KB of record text where a
    function prints as its name. Callers must not mutate the model;
    ``instantiate``, ``simulate`` and ``with_property_initial`` do not."""
    model = load_file(parking_path)
    return lambda: model


@pytest.fixture(scope="session")
def big_int_effect_text(parking_path) -> str:
    """The parking model with the sensor copying an int of 400 nines into
    its float ``duration``. It validates clean (int widens to float at the
    type level), but the value is beyond float range."""
    text = pathlib.Path(parking_path).read_text(encoding="utf-8")
    text = text.replace(
        "property sent: bool = false;", f"property sent: bool = false;\n    property big: int = {'9' * 400};"
    )
    return text.replace("duration := payload.duration;", "duration := big;")


@pytest.fixture(scope="session")
def arrive_depart_path() -> str:
    return str(CORPUS / "scenario_arrive_depart.scn")


@pytest.fixture(scope="session")
def physical_path() -> str:
    return str(CORPUS / "scenario_physical.scn")

"""What every record of the package promises: equality, repr and hashing."""

from __future__ import annotations

import copy
import inspect
import pickle
from types import SimpleNamespace

import pytest

from ciot import diagnostics, engine, guards, metamodel, sim
from ciot.diagnostics import Diagnostic, Record
from ciot.guards import NameRef, PayloadFieldRef
from ciot.metamodel import ComponentDef, InstanceDecl, Model
from ciot.sim import Stimulus

SPAN = ("span",)
# Each record class and the fields its equality and repr leave out.
RECORDS = [
    *((getattr(metamodel, name), SPAN) for name in (
        "PayloadField", "PayloadDef", "Operation", "InterfaceDef", "PropertyDef", "PortDef", "InstanceDecl",
        "Endpoint", "Connector", "Assignment", "ActionDef", "EventDef", "StateDef", "TransitionDef",
        "StateMachine", "ComponentDef",
    )),
    (Model, ("source", "locator", "overrides")),
    *((getattr(guards, name), SPAN) for name in ("Literal", "NameRef", "PayloadFieldRef", "Unary", "Binary")),
    (engine.Transition, ()),
    (engine.InstanceState, ()),
    (engine.RuntimeState, ()),
    (sim.Stimulus, ()),
    (sim.Scenario, ()),
    (sim.SimResult, ()),
    (diagnostics.Diagnostic, ()),
]
FROZEN = {Diagnostic, Stimulus}


def _value(field: str, version: int):
    # A component is compared by its name where an instance declaration holds it.
    return SimpleNamespace(name=f"C{version}") if field == "component" else f"{field}-{version}"


def _build(cls, changed: str | None = None):
    """An instance of ``cls`` whose every argument is a distinct value,
    the one named ``changed`` set to a second value."""
    names = list(inspect.signature(cls).parameters)
    return cls(*(_value(name, 2 if name == changed else 1) for name in names))


def _subclasses(cls) -> set:
    return {c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))}


def test_the_table_holds_every_record_class():
    assert len(RECORDS) == 29
    assert {cls for cls, _ in RECORDS} == _subclasses(Record) - {diagnostics.FrozenRecord}


@pytest.mark.parametrize(("cls", "hidden"), RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_equality_and_repr_leave_out_the_hidden_fields(cls, hidden):
    record = _build(cls)
    assert record == _build(cls) and not record != _build(cls)
    for name in inspect.signature(cls).parameters:
        other = _build(cls, changed=name)
        if name in hidden:
            assert record == other and repr(record) == repr(other), name
        else:
            assert record != other and repr(record) != repr(other), name
    shown = [name for name in cls.__slots__ if name not in hidden]
    assert repr(record) == f"{cls.__qualname__}({', '.join(f'{n}={getattr(record, n)!r}' for n in shown)})"


@pytest.mark.parametrize(("cls", "hidden"), RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_a_record_is_hashable_only_when_frozen(cls, hidden):
    record = _build(cls)
    field = cls.__slots__[0]
    if cls in FROZEN:
        assert hash(record) == hash(_build(cls))
        assert len({record, _build(cls)}) == 1
        assert copy.copy(record) == pickle.loads(pickle.dumps(record)) == record
        with pytest.raises(AttributeError):
            setattr(record, field, "x")
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == _value(field, 1)
    else:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, field, "x")
        assert getattr(record, field) == "x"


def test_records_of_different_classes_with_equal_values_differ():
    assert NameRef("x") != PayloadFieldRef("x")
    assert NameRef("x") != ("x", None)
    assert Diagnostic("R", diagnostics.Severity.ERROR, "m") != ("R", diagnostics.Severity.ERROR, "m", None, None)


def test_record_repr_names_each_shown_field_and_stops_at_a_cycle():
    assert repr(NameRef("x", (0, 1))) == "NameRef(name='x')"
    assert repr(Model([], [], [], [], "text")) == "Model(payloads=[], interfaces=[], components=[], root_instances=[])"
    comp = ComponentDef("C", "IoTElement", [], [], [], [], [], [], None)
    comp.subcomponents.append(InstanceDecl("i", comp))
    assert repr(comp).count("InstanceDecl(name='i', component=...)") == 1


def test_defaults_are_fresh_per_record():
    a, b = sim.Scenario("duration", 100), sim.Scenario("duration", 100)
    assert a.stimuli == [] and a.stimuli is not b.stimuli
    assert sim.Scenario("duration", 100, stimuli=None).stimuli is None  # kept for the scenario check to reject
    m, n = Model([], [], [], []), Model([], [], [], [])
    assert m.overrides == {} and m.overrides is not n.overrides

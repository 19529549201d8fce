"""Component-based modeling and simulation of event-driven IoT systems.

A small toolkit around one idea: describe a device as a tree of components
with ports, connectors, payload-carrying events, and guarded state machines,
then execute that description deterministically. Ships with a textual
modeling language, a validator, a run-to-completion engine, a discrete-event
simulator for distance-sensing scenarios, and DOT/interchange exporters.

``__all__`` is the stated API, the list in README's "API" section. The
modules keep their other names, importable but not promised.
"""

from __future__ import annotations

from .diagnostics import CiotError, Diagnostic, Severity, SourceSpan
from .engine import bind_internal, inject, instantiate, run_to_quiescence
from .export import export_model, statemachine_to_dot, structure_to_dot
from .loader import collect_diagnostics, collect_diagnostics_file, load_file, load_text
from .metamodel import Model, structurally_equal, with_property_initial
from .sim import (
    Scenario,
    SimResult,
    Stimulus,
    echo_duration,
    load_scenario,
    load_scenario_file,
    occupancy_timeline,
    simulate,
)
from .trace import TraceRecord, render_trace

__version__ = "0.1.0"

__all__ = [
    # errors
    "CiotError",
    "Diagnostic",
    "Severity",
    "SourceSpan",
    # loading
    "load_text",
    "load_file",
    "collect_diagnostics",
    "collect_diagnostics_file",
    "Model",
    "with_property_initial",
    "structurally_equal",
    # running
    "instantiate",
    "inject",
    "bind_internal",
    "run_to_quiescence",
    # simulation
    "Scenario",
    "Stimulus",
    "SimResult",
    "load_scenario",
    "load_scenario_file",
    "simulate",
    "echo_duration",
    "occupancy_timeline",
    # rendering and export
    "TraceRecord",
    "render_trace",
    "export_model",
    "statemachine_to_dot",
    "structure_to_dot",
    "__version__",
]

"""Component-based modeling and simulation of event-driven IoT systems.

A small toolkit around one idea: describe a device as a tree of components
with ports, connectors, payload-carrying events, and guarded state machines,
then execute that description deterministically. Ships with a textual
modeling language, a validator, a run-to-completion engine, a discrete-event
simulator for distance-sensing scenarios, and DOT/interchange exporters.
"""

from __future__ import annotations

from .diagnostics import CiotError, Diagnostic, Severity, SourceSpan
from .engine import (
    InstanceState,
    RunResult,
    RuntimeState,
    inject,
    instantiate,
    run_to_quiescence,
    step,
    trigger_internal,
)
from .export import export_model, import_model, statemachine_to_dot, structure_to_dot
from .guards import (
    GuardScope,
    PrimType,
    eval_guard,
    expr_to_text,
    format_value,
    typecheck_guard,
)
from .loader import (
    collect_diagnostics,
    collect_diagnostics_file,
    load_file,
    load_text,
)
from .metamodel import (
    ActionKind,
    ComponentKind,
    EventDirection,
    Model,
    instance_paths,
    structurally_equal,
    with_property_initial,
)
from .parser import parse, parse_expression
from .resolver import resolve
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
from .trace import TraceRecord, render_trace, render_trace_line
from .validate import validate

__version__ = "0.1.0"

__all__ = [
    "ActionKind",
    "CiotError",
    "ComponentKind",
    "Diagnostic",
    "EventDirection",
    "GuardScope",
    "InstanceState",
    "Model",
    "PrimType",
    "RunResult",
    "RuntimeState",
    "Scenario",
    "Severity",
    "SimResult",
    "SourceSpan",
    "Stimulus",
    "TraceRecord",
    "collect_diagnostics",
    "collect_diagnostics_file",
    "echo_duration",
    "eval_guard",
    "export_model",
    "expr_to_text",
    "format_value",
    "import_model",
    "inject",
    "instance_paths",
    "instantiate",
    "load_file",
    "load_scenario",
    "load_scenario_file",
    "load_text",
    "occupancy_timeline",
    "parse",
    "parse_expression",
    "render_trace",
    "render_trace_line",
    "resolve",
    "run_to_quiescence",
    "simulate",
    "statemachine_to_dot",
    "step",
    "structurally_equal",
    "structure_to_dot",
    "trigger_internal",
    "typecheck_guard",
    "validate",
    "with_property_initial",
    "__version__",
]

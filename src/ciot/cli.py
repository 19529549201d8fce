"""Command line front end.

    ciot validate MODEL
    ciot run MODEL --inject node.pSense.evtReading{duration=320.0} ...
    ciot simulate MODEL SCENARIO [--threshold-ms X] [--trace FILE]
    ciot export MODEL [--kind model|sm|structure] [--component NAME]

Exit codes: 0 success, 1 the model or scenario is at fault, 2 usage or I/O.
"""

from __future__ import annotations

import argparse
import math
import sys

from .diagnostics import CiotError, Severity
from .engine import DEFAULT_MAX_STEPS, inject, instantiate, run_to_quiescence
from .export import export_model, statemachine_to_dot, structure_to_dot
from .lexer import decode_string
from .loader import collect_diagnostics_file, load_file
from .metamodel import instance_paths, with_property_initial
from .sim import (
    DEFAULT_FLOOR_DISTANCE_M,
    DEFAULT_SPEED_M_PER_S,
    NUMBER_DIGITS,
    THRESHOLD_PROPERTY,
    find_led_paths,
    load_scenario_file,
    occupancy_timeline,
    render_timeline,
    simulate,
)
from .trace import render_trace


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CiotError as exc:
        for d in exc.diagnostics:
            print(d.render(), file=sys.stderr)
        return 2 if exc.code in ("E_IO", "E_USAGE") else 1
    except Exception as exc:  # last resort: no traceback reaches the user
        print(f"ciot: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ciot", description="Component model toolkit for IoT systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model against the well-formedness rules")
    p.add_argument("model")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="instantiate a model and process injected events")
    p.add_argument("model")
    p.add_argument(
        "--inject",
        action="append",
        default=[],
        metavar="PATH.PORT.EVENT{f=v,...}",
        help="queue an incoming event; repeatable, processed in order",
    )
    p.add_argument("--trace", metavar="FILE", help="write the trace here instead of stdout")
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("simulate", help="run a sensing scenario and print the occupancy timeline")
    p.add_argument("model")
    p.add_argument("scenario")
    p.add_argument("--threshold-ms", type=float, help="override the model's threshold property")
    p.add_argument("--speed", type=float, default=DEFAULT_SPEED_M_PER_S, help="speed of sound in m/s")
    p.add_argument("--sample-period-ms", type=int, help="override the scenario's sample period")
    p.add_argument("--floor-distance-m", type=float, default=DEFAULT_FLOOR_DISTANCE_M)
    p.add_argument("--trace", metavar="FILE", help="also write the full trace here")
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("export", help="print a model in interchange or DOT form")
    p.add_argument("model")
    p.add_argument("--kind", choices=("model", "sm", "structure"), default="model")
    p.add_argument("--component", help="component to draw (kinds sm and structure)")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=_cmd_export)
    return parser


def _cmd_validate(args) -> int:
    model, diags = collect_diagnostics_file(args.model)
    for d in diags:
        print(d.render(), file=sys.stderr)
    errors = sum(1 for d in diags if d.severity is Severity.ERROR)
    warnings = len(diags) - errors
    print(f"errors={errors} warnings={warnings}")
    return 1 if errors or model is None else 0


def _cmd_run(args) -> int:
    model = load_file(args.model)
    rt = instantiate(model)
    run_to_quiescence(rt, args.max_steps)
    for spec in args.inject:
        path, port, event, values = _parse_inject_spec(spec)
        inject(rt, path, port, event, values)
        run_to_quiescence(rt, args.max_steps)
    _write_text(render_trace(rt.trace), args.trace)
    return 0


def _cmd_simulate(args) -> int:
    model = load_file(args.model)
    if args.threshold_ms is not None:
        model = with_property_initial(model, THRESHOLD_PROPERTY, args.threshold_ms)
    scenario = load_scenario_file(args.scenario)
    if not args.trace:
        # Without a trace to write, a model whose timeline cannot be read
        # fails before it is simulated.
        find_led_paths(instance_paths(model))
    result = simulate(
        model,
        scenario,
        speed_m_per_s=args.speed,
        sample_period_ms=args.sample_period_ms,
        floor_distance_m=args.floor_distance_m,
        max_steps=args.max_steps,
    )
    if args.trace:
        _write_text(render_trace(result.trace), args.trace)
    sys.stdout.write(render_timeline(occupancy_timeline(result)))
    return 0


def _cmd_export(args) -> int:
    model = load_file(args.model, check=False)
    if args.kind in ("sm", "structure") and not args.component:
        raise CiotError.of("E_USAGE", f"export --kind {args.kind} needs --component")
    if args.kind == "sm":
        text = statemachine_to_dot(model, args.component)
    elif args.kind == "structure":
        text = structure_to_dot(model, args.component)
    else:
        text = export_model(model)
    _write_text(text, args.output)
    return 0


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CiotError.of("E_IO", f"cannot write {path!r}: {exc}", None, path) from exc


def _parse_inject_spec(spec: str) -> tuple[str, str, str, dict | None]:
    name, values = spec, None
    if "{" in spec:
        if not spec.endswith("}"):
            raise CiotError.of("E_USAGE", f"malformed injection {spec!r}: missing closing brace")
        name, _, body = spec.partition("{")
        values = _parse_value_list(body[:-1], spec)
    parts = name.split(".")
    if len(parts) < 3 or not all(parts):
        raise CiotError.of("E_USAGE", f"malformed injection {spec!r}: expected PATH.PORT.EVENT")
    return ".".join(parts[:-2]), parts[-2], parts[-1], values


def _parse_value_list(body: str, spec: str) -> dict:
    values: dict = {}
    for pair in _split_pairs(body):
        if not pair.strip():
            continue
        key, eq, raw = pair.partition("=")
        if not eq:
            raise CiotError.of("E_USAGE", f"malformed injection {spec!r}: field {pair.strip()!r} has no value")
        values[key.strip()] = _parse_field_value(raw.strip())
    return values


def _split_pairs(body: str) -> list[str]:
    parts, depth, quoted, escaped, start = [], 0, False, False, 0
    for i, ch in enumerate(body):
        if escaped:
            escaped = False
        elif quoted:
            if ch == "\\":
                escaped = True
            elif ch == '"':
                quoted = False
        elif ch == '"':
            quoted = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


def _parse_field_value(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        if math.isfinite(value):
            return value
        # Digits that int() refuses past the interpreter's int-string digit
        # limit, or that float() reads as inf: named by length, not echoed.
        if NUMBER_DIGITS.fullmatch(text):
            digits = sum(ch.isdigit() for ch in text)
            raise CiotError.of("E_USAGE", f"field value of {digits} digits is out of range")
        raise CiotError.of("E_USAGE", f"field value {text!r} is not a finite number")
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return decode_string(text)
    return text


if __name__ == "__main__":
    raise SystemExit(main())

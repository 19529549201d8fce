"""Front door: text to resolved (and optionally validated) models."""

from __future__ import annotations

import os

from .diagnostics import CiotError, Diagnostic, Severity, read_text, require_type
from .metamodel import Model
from .parser import parse
from .resolver import resolve
from .validate import validate


def load_text(text: str, source: str | None = None, *, check: bool = True) -> Model:
    """Parse and resolve; with ``check`` also validate, raising on errors."""
    model = resolve(parse(text, source))
    if check:
        diags = validate(model)
        errors = [d for d in diags if d.severity is Severity.ERROR]
        if errors:
            raise CiotError(errors[0].rule, errors)
    return model


def load_file(path: str | os.PathLike, *, check: bool = True) -> Model:
    return load_text(read_text(path), os.fspath(path), check=check)


def collect_diagnostics(text: str, source: str | None = None) -> tuple[Model | None, list[Diagnostic]]:
    """Gather every diagnostic instead of raising; model is None when the
    text does not even resolve. Text that is not a str raises E_USAGE."""
    require_type(text, str, "text")
    try:
        model = resolve(parse(text, source))
    except CiotError as exc:
        return None, list(exc.diagnostics)
    return model, validate(model)


def collect_diagnostics_file(path: str | os.PathLike) -> tuple[Model | None, list[Diagnostic]]:
    return collect_diagnostics(read_text(path), os.fspath(path))


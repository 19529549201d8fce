"""Execution trace records and their canonical text form.

Every observable step of a run becomes one record; rendering is stable so two
identical runs produce byte-identical trace files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .guards import format_value


@dataclass(frozen=True)
class TraceRecord:
    seq: int
    time_us: int
    instance: str
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)


def fmt_payload(values: Mapping[str, Any] | None) -> str:
    """``{k=v,...}`` in field order, a record field nested as its own braces; ``-`` for no payload."""
    if values is None:
        return "-"
    inner = ",".join(f"{k}={fmt_payload(v) if isinstance(v, dict) else format_value(v)}" for k, v in values.items())
    return "{" + inner + "}"


def render_trace_line(rec: TraceRecord) -> str:
    parts = [f"seq={rec.seq}", f"t={rec.time_us}", f"inst={rec.instance}", f"kind={rec.kind}"]
    parts.extend(f"{k}={v}" for k, v in rec.detail.items())
    return " ".join(parts)


def render_trace(records: list[TraceRecord]) -> str:
    return "".join(render_trace_line(r) + "\n" for r in records)

"""Execution trace records and their canonical text form.

Every observable step of a run becomes one record holding the raw values of
that step. Text is built only when a record is read, by ``detail`` or by the
renderer, so a run that renders nothing formats nothing. Rendering is stable,
so two identical runs produce byte-identical trace files.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple

from .guards import format_value

# The keys of each kind's values, in record and render order. Raw values:
# names as strings; ``eseq`` an int; ``payload`` and ``set`` the field dicts
# (None for no payload, empty for no assignment); ``type`` an ``ActionKind``;
# ``guard`` the quoted guard text; ``result`` a bool; a transition's
# ``trigger`` an event name or None; a send's ``to`` the (peer path, peer
# port) route or None, and its ``error`` None when the send was delivered.
FIELDS = {
    "state_entered": ("state",),
    "state_exited": ("state",),
    "event_delivered": ("event", "eseq", "from", "payload"),
    "action": ("action", "type", "set"),
    "guard_eval": ("transition", "guard", "result"),
    "transition": ("from", "to", "trigger"),
    "payload_sent": ("port", "event", "to", "payload", "error"),
}


class TraceRecord(NamedTuple):
    seq: int
    time_us: int
    instance: str
    kind: str
    values: tuple  # raw values, keyed by FIELDS[kind]

    @property
    def detail(self) -> dict[str, Any]:
        """The values as the trace line shows them, keyed by ``FIELDS``.

        ``eseq`` stays an int; a delivered send has no ``error`` key."""
        texts = zip(FIELDS[self.kind], _TEXTS[self.kind](*self.values))
        return {k: text for k, text in texts if text is not None}


def _route(route: tuple[str, str] | None) -> str:
    return "-" if route is None else f"{route[0]}.{route[1]}"


def _set(assigned: Mapping[str, Any]) -> str:
    return fmt_payload(assigned) if assigned else "-"


# Per kind: the text of each value, in FIELDS order (None leaves the key out).
_TEXTS = {
    "state_entered": lambda state: (state,),
    "state_exited": lambda state: (state,),
    "event_delivered": lambda event, eseq, source, payload: (event, eseq, source, fmt_payload(payload)),
    "action": lambda action, kind, assigned: (action, kind.value, _set(assigned)),
    "guard_eval": lambda label, guard, result: (label, guard, "true" if result else "false"),
    "transition": lambda source, target, trigger: (source, target, trigger or "-"),
    "payload_sent": lambda port, event, route, payload, error: (
        port, event, _route(route), fmt_payload(payload), error
    ),
}

# Per kind: the rendered values, one f-string straight from the raw values.
_LINES = {
    "state_entered": lambda state: f" state={state}",
    "state_exited": lambda state: f" state={state}",
    "event_delivered": lambda event, eseq, source, payload: (
        f" event={event} eseq={eseq} from={source} payload={fmt_payload(payload)}"
    ),
    "action": lambda action, kind, assigned: f" action={action} type={kind.value} set={_set(assigned)}",
    "guard_eval": lambda label, guard, result: (
        f" transition={label} guard={guard} result={'true' if result else 'false'}"
    ),
    "transition": lambda source, target, trigger: f" from={source} to={target} trigger={trigger or '-'}",
    "payload_sent": lambda port, event, route, payload, error: (
        f" port={port} event={event} to={_route(route)} payload={fmt_payload(payload)}"
        + ("" if error is None else f" error={error}")
    ),
}


def fmt_payload(values: Mapping[str, Any] | None) -> str:
    """``{k=v,...}`` in field order, a record field nested as its own braces; ``-`` for no payload.

    Nested records are walked with an explicit stack, so depth cannot exhaust
    the interpreter's recursion limit."""
    if values is None:
        return "-"
    # Per open record: its remaining items, its rendered fields, its key in the parent.
    stack = [(iter(values.items()), [], None)]
    while True:
        items, done, key = stack[-1]
        for k, v in items:
            if isinstance(v, dict):
                stack.append((iter(v.items()), [], k))
                break
            done.append(f"{k}={format_value(v)}")
        else:
            stack.pop()
            text = "{" + ",".join(done) + "}"
            if not stack:
                return text
            stack[-1][1].append(f"{key}={text}")


def render_trace_line(rec: TraceRecord) -> str:
    seq, time_us, instance, kind, values = rec
    return f"seq={seq} t={time_us} inst={instance} kind={kind}" + _LINES[kind](*values)


def render_trace(records: list[TraceRecord]) -> str:
    return "".join(render_trace_line(r) + "\n" for r in records)

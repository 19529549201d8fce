"""Execution trace records and their canonical text form.

Every observable step of a run becomes one record holding the raw values of
that step. Text is built only when a record is read, by ``detail`` or by the
renderer, so a run that renders nothing formats nothing. Rendering is stable,
so two identical runs produce byte-identical trace files.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, NamedTuple

from .guards import format_value
from .metamodel import ActionKind

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


# The ``type`` text of each action kind, by identity: hashing an enum member
# runs Python code.
_ACTION_TYPE = {id(kind): kind.value for kind in ActionKind}


# Per kind: the text of each value, in FIELDS order (None leaves the key out).
_TEXTS = {
    "state_entered": lambda state: (state,),
    "state_exited": lambda state: (state,),
    "event_delivered": lambda event, eseq, source, payload: (event, eseq, source, fmt_payload(payload)),
    "action": lambda action, kind, assigned: (
        action, _ACTION_TYPE[id(kind)], fmt_payload(assigned) if assigned else "-"
    ),
    "guard_eval": lambda label, guard, result: (label, guard, "true" if result else "false"),
    "transition": lambda source, target, trigger: (source, target, trigger or "-"),
    "payload_sent": lambda port, event, route, payload, error: (
        port, event, _route(route), fmt_payload(payload), error
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


def _renderer() -> Callable[[Iterable[TraceRecord]], list[str]]:
    """A function from records to their lines that formats each distinct text once.

    It keeps the text after ``kind=`` of each state, guard and transition
    record, and of each action record that assigns nothing, by the identity
    of its values tuple (the engine builds these once), and the text of each float
    and str in a payload or ``set`` by the identity of that value. It holds
    every object it keys, so no id is reused while the renderer lives, and no
    value is hashed. Payload and ``set`` dicts are formatted at each record:
    keeping their text too saves little and holds it all until the end."""
    tails: dict[int, tuple[str, str]] = {}  # id(values) -> (text, kind)
    texts: dict[int, str] = {}  # id(value) -> text
    held: list = []  # every keyed object, so that its id is not reused
    hold = held.append

    def payload(values: Mapping[str, Any] | None) -> str:
        """``fmt_payload(values)``, flat records without its stack walk."""
        if values is None:
            return "-"
        parts = []
        for k, v in values.items():
            t = type(v)
            if t is float or t is str:
                text = texts.get(id(v))
                if text is None:
                    text = texts[id(v)] = format_value(v)
                    hold(v)
                parts.append(f"{k}={text}")
            elif t is int or t is bool:
                parts.append(f"{k}={format_value(v)}")
            else:  # a nested record, or a value of another type
                return fmt_payload(values)
        return "{" + ",".join(parts) + "}"

    def lines(records: Iterable[TraceRecord]) -> list[str]:
        out = []
        append = out.append
        last_time = time_text = None  # consecutive records mostly share a time
        for seq, time_us, instance, kind, values in records:
            if time_us is not last_time:
                last_time, time_text = time_us, f"{time_us}"
            if kind == "action" and values[2]:
                action, action_kind, assigned = values
                tail = f" action={action} type={_ACTION_TYPE[id(action_kind)]} set={payload(assigned)}"
            elif kind == "event_delivered":
                event, eseq, source, sent = values
                tail = f" event={event} eseq={eseq} from={source} payload={payload(sent)}"
            elif kind == "payload_sent":
                port, event, route, sent, error = values
                tail = f" port={port} event={event} to={_route(route)} payload={payload(sent)}"
                if error is not None:
                    tail += f" error={error}"
            else:  # a state, guard, transition or no-assignment action record
                entry = tails.get(id(values))
                if entry is None or entry[1] is not kind:
                    pairs = zip(FIELDS[kind], _TEXTS[kind](*values))
                    entry = tails[id(values)] = ("".join(f" {k}={text}" for k, text in pairs), kind)
                    hold(values)
                tail = entry[0]
            append(f"seq={seq} t={time_text} inst={instance} kind={kind}{tail}")
        return out

    return lines


def render_trace(records: Iterable[TraceRecord]) -> str:
    lines = _renderer()(records)
    lines.append("")
    return "\n".join(lines)

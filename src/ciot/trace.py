"""Execution trace records and their canonical text form.

Every observable step of a run becomes one record holding the raw values of
that step. The engine keeps each as a plain ``(kind, values)`` pair, whose
index is its seq, and every record of one step shares a time and an
instance, so it keeps that pair once as the step's head: ``(index of its
first record, time_us, instance)``. A pair the model fixes is built once and
appended by every instance that makes it. Heads, and pairs whose values hold
no dict, are ones the collector stops tracking. A ``Trace`` reads the heads
and pairs as ``TraceRecord``s, built only as each is read. Text is built
only when a record is read, by ``detail`` or by the renderer, so a run that
renders nothing formats nothing. Rendering is stable, so two identical runs
produce byte-identical trace files.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from .diagnostics import CiotError
from .guards import format_value

# The keys of each kind's values, in record and render order. Raw values:
# names as strings; ``eseq`` an int; ``payload`` and ``set`` the field dicts
# (None for no payload, empty for no assignment); ``type`` the action kind's
# text, such as "SendPayload"; ``guard`` the quoted guard text; ``result`` a
# bool; a transition's ``trigger`` an event name or None; a send's ``to`` the
# (peer path, peer port) route or None, and its ``error`` None when the send
# was delivered.
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


# A record's plain tuple as a TraceRecord, without the Python-level call of
# its generated __new__.
_as_record = partial(tuple.__new__, TraceRecord)


def _groups(heads: list[tuple], records: list[tuple]):
    """Each head with its records: ``(seq of its first record, time_us,
    instance, its (kind, values) pairs)``. A head's records run from its
    first index up to the next head's, or to the end of ``records``."""
    for k, (first, time_us, instance) in enumerate(heads):
        end = heads[k + 1][0] if k + 1 < len(heads) else len(records)
        yield first, time_us, instance, records[first:end]


class Trace(Sequence):
    """A read-only, live view of a run's heads and ``(kind, values)`` pairs
    as ``TraceRecord``s.

    A head ``(first index, time_us, instance)`` stamps every record from its
    first index up to the next head's, and a record's seq is its index. Each
    record is built as it is read: iterating walks the heads, an index finds
    its head by bisection, and a slice gives a list. The view shows records
    the run appends after it was taken, and it equals a list (or another
    ``Trace``) of the same records, since a record compares as a tuple."""

    __slots__ = ("_heads", "_records")

    def __init__(self, heads: list[tuple], records: list[tuple]) -> None:
        self._heads = heads
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        seqs = range(len(self._records))[index]  # IndexError or TypeError as a list's
        if isinstance(seqs, range):
            return [self._at(seq) for seq in seqs]
        return self._at(seqs)

    def _at(self, seq: int) -> TraceRecord:
        _, time_us, instance = self._heads[bisect_right(self._heads, seq, key=itemgetter(0)) - 1]
        kind, values = self._records[seq]
        return _as_record((seq, time_us, instance, kind, values))

    def __iter__(self):
        for first, time_us, instance, pairs in _groups(self._heads, self._records):
            for seq, (kind, values) in enumerate(pairs, first):
                yield _as_record((seq, time_us, instance, kind, values))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Trace, list)):
            return list(self) == list(other)
        return NotImplemented


def _route(route: tuple[str, str] | None) -> str:
    return "-" if route is None else f"{route[0]}.{route[1]}"


# Per kind: the text of each value, in FIELDS order (None leaves the key out).
_TEXTS = {
    "state_entered": lambda state: (state,),
    "state_exited": lambda state: (state,),
    "event_delivered": lambda event, eseq, source, payload: (event, eseq, source, fmt_payload(payload)),
    "action": lambda action, kind, assigned: (action, kind, fmt_payload(assigned) if assigned else "-"),
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


def _renderer() -> Callable[[Iterable[tuple]], list[str]]:
    """A function from record groups, as ``_groups`` gives them, to their
    lines that formats each distinct text once.

    It builds the `` t=… inst=… kind=`` text once per group. It keeps the
    text from the kind on of each state, guard and transition record, and of
    each action record that assigns nothing, by the identity of its values
    tuple. The engine builds that tuple once, inside its prebuilt pair, and
    a record rendered from any other iterable shares it just as well, where
    the pair built for it does not. It keeps the text of each float and str
    in a payload or ``set`` by the identity of that value. It holds every
    object it keys, so no id is reused while the renderer lives, and no value
    is hashed. Payload and ``set`` dicts are formatted at each record:
    keeping their text too saves little and holds it all until the end."""
    tails: dict[int, tuple[str, str]] = {}  # id(values) -> (text from the kind on, kind)
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

    def lines(groups: Iterable[tuple]) -> list[str]:
        out = []
        append = out.append
        for first, time_us, instance, pairs in groups:
            head = f" t={time_us} inst={instance} kind="
            for seq, (kind, values) in enumerate(pairs, first):
                if kind == "action" and values[2]:
                    action, action_kind, assigned = values
                    tail = f"action action={action} type={action_kind} set={payload(assigned)}"
                elif kind == "event_delivered":
                    event, eseq, source, sent = values
                    tail = f"event_delivered event={event} eseq={eseq} from={source} payload={payload(sent)}"
                elif kind == "payload_sent":
                    port, event, route, sent, error = values
                    tail = f"payload_sent port={port} event={event} to={_route(route)} payload={payload(sent)}"
                    if error is not None:
                        tail += f" error={error}"
                else:  # a state, guard, transition or no-assignment action record
                    entry = tails.get(id(values))
                    if entry is None or entry[1] is not kind:
                        shown = zip(FIELDS[kind], _TEXTS[kind](*values))
                        entry = tails[id(values)] = (kind + "".join(f" {k}={text}" for k, text in shown), kind)
                        hold(values)
                    tail = entry[0]
                append(f"seq={seq}{head}{tail}")
        return out

    return lines


def render_trace(records: Iterable[TraceRecord]) -> str:
    """The trace text of ``records``, one line each; E_USAGE unless
    ``records`` is an iterable of trace records. A ``Trace`` is rendered
    head by head from its pairs, so no ``TraceRecord`` is built. Any other
    iterable goes through the same renderer, each record a group of its own.

    No record is checked up front: one that is not a trace record fails in
    the renderer's unpacking or lookups, and that failure becomes E_USAGE."""
    if isinstance(records, Trace):
        groups = _groups(records._heads, records._records)
    else:
        try:
            groups = ((seq, t, instance, ((kind, values),)) for seq, t, instance, kind, values in records)
        except TypeError:
            raise CiotError.of("E_USAGE", f"records must be an iterable, got {type(records).__name__}") from None
    try:
        lines = _renderer()(groups)
    except (TypeError, ValueError, LookupError, AttributeError) as exc:
        raise CiotError.of("E_USAGE", "records must hold only trace records") from exc
    lines.append("")
    return "\n".join(lines)

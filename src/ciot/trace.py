"""Execution trace records and their canonical text form.

Every observable step of a run becomes one record holding the raw values of
that step. The engine keeps each as one flat tuple ``(kind, *values)``,
whose index is its seq, and every record of one step shares a time and an
instance, so it keeps those once per step as that step's head, in three
columns: the index of the head's first record, its time_us and its
instance. A record the model fixes, such as a transition's or a folded
action's, is built once and appended by every instance that makes it, and
a folded send's payload_sent record once per instance. The columns hold
only ints and strings, and a record whose values hold no dict is one the
collector stops tracking. A ``Trace`` reads the columns and records as
``TraceRecord``s, built only as each is read. Text is built only when a
record is read, by ``detail`` or by the renderer, so a run that renders
nothing formats nothing. Rendering is stable, so two identical runs produce
byte-identical trace files.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import chain, count, repeat
from operator import itemgetter, sub
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


class Trace(Sequence):
    """A read-only, live view of a run's heads and ``(kind, *values)``
    records as ``TraceRecord``s.

    The heads are three columns, one entry per head: the index of its first
    record, its time_us and its instance. A head stamps every record from its
    first index up to the next head's, and a record's seq is its index. Each
    record is built as it is read: iterating repeats each head's time and
    instance over its records, an index finds its head by bisection, and a
    slice gives a list. The view shows records the run appends after it was
    taken (an iterator shows those of the heads there were when it began),
    and it equals a list (or another ``Trace``) of the same records, since a
    record compares as a tuple."""

    __slots__ = ("_first", "_time", "_instance", "_records")

    def __init__(self, first: list[int], time_us: list[int], instance: list[str], records: list[tuple]) -> None:
        self._first = first
        self._time = time_us
        self._instance = instance
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        seqs = range(len(self._records))[index]  # IndexError or TypeError as a list's
        if isinstance(seqs, range):
            return [self._at(seq) for seq in seqs]
        return self._at(seqs)

    def _at(self, seq: int) -> TraceRecord:
        k = bisect_right(self._first, seq) - 1
        record = self._records[seq]
        return tuple.__new__(TraceRecord, (seq, self._time[k], self._instance[k], record[0], record[1:]))

    def _ends(self) -> list[int]:
        """Per head, the index after its last record."""
        ends = self._first[1:]
        ends.append(len(self._records))
        return ends

    def __iter__(self):
        """The records in seq order, built by a C-level walk of ``map`` and
        ``zip`` over the heads, since a plain generator over the same heads
        is 7–9% slower (the arrive/depart run's 5,656 records, Python 3.11
        on a 2-CPU Xeon)."""
        counts = list(map(sub, self._ends(), self._first))
        records = self._records
        stamps = zip(
            count(),
            chain.from_iterable(map(repeat, self._time, counts)),
            chain.from_iterable(map(repeat, self._instance, counts)),
            map(itemgetter(0), records),
            map(itemgetter(slice(1, None)), records),  # the values, after the kind
        )
        # tuple.__new__ skips the Python-level call of TraceRecord's generated __new__.
        return map(tuple.__new__, repeat(TraceRecord), stamps)

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


def _renderer(keep: bool) -> Callable[[Iterable[tuple]], list[str]]:
    """A function from record groups, each ``(seq of its first record,
    time_us, instance, its (kind, *values) records)``, to their lines.

    It builds the `` t=… inst=… kind=`` text once per group. With ``keep``,
    it formats each distinct text once: it keeps the text from the kind on
    of every record but an event_delivered by the identity of the record's
    tuple (the engine builds the records the model fixes once: state, guard
    and transition records, and the action and payload_sent records of
    folded actions and sends), and the text of each float and str in a
    payload or ``set`` by the identity of that value. That is sound only
    while every keyed object lives, so that no id is reused: ``keep`` is for
    groups whose records and values the caller holds for the whole call. No
    value is hashed."""
    tails: dict[int, str] = {}  # id(record) -> its text from the kind on
    texts: dict[int, str] = {}  # id(value) -> text

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
                    text = format_value(v)
                    if keep:
                        texts[id(v)] = text
                parts.append(f"{k}={text}")
            elif t is int or t is bool:
                parts.append(f"{k}={format_value(v)}")
            else:  # a nested record, or a value of another type
                return fmt_payload(values)
        return "{" + ",".join(parts) + "}"

    def lines(groups: Iterable[tuple]) -> list[str]:
        out = []
        append = out.append
        for first, time_us, instance, records in groups:
            head = f" t={time_us} inst={instance} kind="
            for seq, record in enumerate(records, first):
                tail = tails.get(id(record))
                if tail is None:
                    kind = record[0]
                    if kind == "event_delivered":
                        _, event, eseq, source, sent = record
                        tail = f"event_delivered event={event} eseq={eseq} from={source} payload={payload(sent)}"
                    else:
                        if kind == "action":
                            _, action, action_kind, assigned = record
                            shown = payload(assigned) if assigned else "-"
                            tail = f"action action={action} type={action_kind} set={shown}"
                        elif kind == "payload_sent":
                            _, port, event, route, sent, error = record
                            tail = f"payload_sent port={port} event={event} to={_route(route)} payload={payload(sent)}"
                            if error is not None:
                                tail += f" error={error}"
                        else:  # a state, guard or transition record
                            shown = zip(FIELDS[kind], _TEXTS[kind](*record[1:]))
                            tail = kind + "".join(f" {k}={text}" for k, text in shown)
                        if keep:
                            tails[id(record)] = tail
                append(f"seq={seq}{head}{tail}")
        return out

    return lines


def render_trace(records: Iterable[TraceRecord]) -> str:
    """The trace text of ``records``, one line each; E_USAGE unless
    ``records`` is an iterable of trace records. A ``Trace`` is rendered
    head by head from its columns and records, so no ``TraceRecord`` is
    built; its run holds every record and value for the whole call, so the
    renderer keeps the text it formats. Any other iterable goes through the
    same renderer, each record rebuilt as a fresh group of its own, and
    keeps nothing.

    No record is checked up front: one that is not a trace record fails in
    the renderer's unpacking or lookups, and that failure becomes E_USAGE."""
    keep = isinstance(records, Trace)
    if keep:
        first, flat = records._first, records._records
        groups = zip(first, records._time, records._instance, map(flat.__getitem__, map(slice, first, records._ends())))
    else:
        try:
            groups = ((seq, t, instance, ((kind, *values),)) for seq, t, instance, kind, values in records)
        except TypeError:
            raise CiotError.of("E_USAGE", f"records must be an iterable, got {type(records).__name__}") from None
    try:
        lines = _renderer(keep)(groups)
    except (TypeError, ValueError, LookupError, AttributeError) as exc:
        raise CiotError.of("E_USAGE", "records must hold only trace records") from exc
    lines.append("")
    return "\n".join(lines)

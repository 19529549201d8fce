"""The trace renderer on hand-built records, and the ``Trace`` view.

``fmt_payload`` is the one payload formatter; a property pins it to a
recursive reference. ``render_trace`` of a ``Trace`` keeps text by the
identity of the objects it formats (its flat records, and its payload and
``set`` dicts); these tests pin that a whole trace renders exactly as its
records do one at a time, as their ``detail`` reads, and as a ``Trace`` of
records and dicts shared as a run's are. A ``Trace`` reads a run's heads and
``(kind, *values)`` records as ``TraceRecord``s; its tests pin that it reads
as the list of its records, by index and slice as by iteration and through
``heads``."""

from __future__ import annotations

import operator
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciot import inject, instantiate, load_scenario_file, load_text, run_to_quiescence, simulate
from ciot.guards import format_value
from ciot.trace import FIELDS, Trace, TraceRecord, fmt_payload, render_trace

from genmodels import alphabet, generate

# Kinds whose values have the same shape: a values tuple may appear under either.
TWIN = {
    "state_entered": "state_exited",
    "state_exited": "state_entered",
    "guard_eval": "transition",
    "transition": "guard_eval",
}

# Text with every character the renderer escapes, and some that it does not.
texts = st.text(st.sampled_from('ab"\\\n\t é→'), max_size=5)
# Names as strings, or as lists, which make their values tuple unhashable.
names = st.one_of(texts, st.lists(texts, max_size=2))
scalars = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(),
    st.booleans(),
    texts,
)
payloads = st.recursive(
    st.dictionaries(texts, scalars, max_size=3),
    lambda inner: st.dictionaries(texts, st.one_of(scalars, inner), max_size=3),
    max_leaves=8,
)


@st.composite
def traces(draw) -> list[TraceRecord]:
    """Records that share values tuples and payload dicts, as a run's do."""
    shared = draw(st.lists(payloads, min_size=1, max_size=4))
    payload = st.one_of(st.none(), st.sampled_from(shared))
    values = {
        "state_entered": st.tuples(names),
        "state_exited": st.tuples(names),
        "guard_eval": st.tuples(names, texts, st.booleans()),
        "transition": st.tuples(names, names, st.one_of(st.none(), names, st.booleans())),
        "event_delivered": st.tuples(names, st.integers(0, 10**6), names, payload),
        "action": st.tuples(
            names, st.sampled_from(("SendPayload", "ReceivePayload", "Generic")), st.one_of(st.just({}), st.sampled_from(shared))
        ),
        "payload_sent": st.one_of(
            st.tuples(names, names, st.tuples(texts, texts), payload, st.none()),
            st.tuples(names, names, st.none(), payload, st.just("E_NO_ROUTE")),
        ),
    }
    pool = draw(
        st.lists(st.sampled_from(sorted(FIELDS)).flatmap(lambda k: values[k].map(lambda v: (k, v))), min_size=1, max_size=8)
    )
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.sampled_from(["a", "b.c", "é"]), st.integers(0, 10**9), st.booleans()),
            max_size=30,
        )
    )
    records = []
    for seq, ((kind, vals), instance, time_us, flip) in enumerate(picks):
        if flip and kind in TWIN:
            kind = TWIN[kind]
        records.append(TraceRecord(seq, time_us, instance, kind, vals))
    return records


@settings(max_examples=200, deadline=None)
@given(records=traces())
def test_trace_renders_as_its_lines_and_their_detail(records):
    assert render_trace(records) == "".join(render_trace([r]) for r in records)
    for r in records:
        head = f"seq={r.seq} t={r.time_us} inst={r.instance} kind={r.kind}"
        assert render_trace([r]) == " ".join([head] + [f"{k}={v}" for k, v in r.detail.items()]) + "\n"


def reference_payload(values) -> str:
    """``fmt_payload`` as plain recursion: ``{k=v,...}``, a nested record as its own braces."""
    if values is None:
        return "-"
    fields = (f"{k}={reference_payload(v) if isinstance(v, dict) else format_value(v)}" for k, v in values.items())
    return "{" + ",".join(fields) + "}"


@settings(max_examples=200, deadline=None)
@given(values=payloads, scalar=scalars)
def test_fmt_payload_matches_a_recursive_reference(values, scalar):
    """Flat and nested payloads, and a nested field at the first, a middle and the last position."""
    record = {"first": values, "s": scalar, "middle": values, "t": scalar, "last": values}
    for shown in (None, values, record):
        assert fmt_payload(shown) == reference_payload(shown)


@settings(max_examples=200, deadline=None)
@given(records=traces(), data=st.data())
def test_trace_of_shared_records_renders_as_their_list(records, data):
    """A ``Trace`` whose flat records and payload dicts are shared between
    records and heads, as a run's are, renders as the list of its records:
    the text kept by their identity is the text of each."""
    n = len(records)
    first = [0, *sorted(data.draw(st.sets(st.integers(1, n - 1))))] if n > 1 else [0] * n
    times, instances = [records[f].time_us for f in first], [records[f].instance for f in first]
    flat: dict[tuple, tuple] = {}  # (kind, id(values)) -> the one flat record
    rows = [flat.setdefault((r.kind, id(r.values)), (r.kind, *r.values)) for r in records]
    view = Trace(first, times, instances, rows)
    heads = [bisect_right(first, seq) - 1 for seq in range(n)]
    expected = [TraceRecord(r.seq, times[h], instances[h], r.kind, r.values) for r, h in zip(records, heads)]
    assert list(view) == expected
    walk = view.heads()
    flattened = [(seq, t, inst, r[0], r[1:]) for first, t, inst, rs in walk for seq, r in enumerate(rs, first)]
    assert flattened == expected
    assert render_trace(view) == render_trace(expected)
    # A walk taken before an append shows none of the appended records.
    walk = view.heads()
    rows.append(("state_exited", "S"))
    assert sum(len(rs) for *_, rs in walk) == n


def test_empty_trace_renders_empty():
    assert render_trace([]) == ""


def test_freed_objects_cannot_return_stale_text():
    """Each record and its fresh tuple, dicts, floats and strs are freed once
    rendered, so the allocator hands their addresses to the next record's."""
    n = 2000

    def records():
        for i in range(n):
            yield TraceRecord(3 * i, i, "c", "state_entered", (f"S{i}",))
            yield TraceRecord(3 * i + 1, i, "c", "event_delivered", ("e", i, "env", {"v": float(i)}))
            yield TraceRecord(3 * i + 2, i, "c", "action", ("a", "Generic", {"v": float(i), "s": str(i)}))

    expected = "".join(
        f"seq={3 * i} t={i} inst=c kind=state_entered state=S{i}\n"
        f"seq={3 * i + 1} t={i} inst=c kind=event_delivered event=e eseq={i} from=env payload={{v={float(i)!r}}}\n"
        f'seq={3 * i + 2} t={i} inst=c kind=action action=a type=Generic set={{v={float(i)!r},s="{i}"}}\n'
        for i in range(n)
    )
    assert render_trace(records()) == expected


def test_dict_changed_between_records_renders_its_contents_at_each():
    sent = {"v": 1.0, "s": "a"}

    def records():
        yield TraceRecord(0, 0, "c", "payload_sent", ("p", "e", None, sent, "E_NO_ROUTE"))
        sent["v"], sent["s"] = 2.0, "b"
        yield TraceRecord(1, 0, "c", "event_delivered", ("e", 0, "env", sent))

    assert render_trace(records()) == (
        'seq=0 t=0 inst=c kind=payload_sent port=p event=e to=- payload={v=1.0,s="a"} error=E_NO_ROUTE\n'
        'seq=1 t=0 inst=c kind=event_delivered event=e eseq=0 from=env payload={v=2.0,s="b"}\n'
    )


def test_plain_records_render_their_own_seq_and_time():
    """Records that are not a ``Trace`` render one by one: a seq that skips
    and a time that goes back and forth show as each record holds them."""
    records = [
        (7, 100, "a", "state_entered", ("S",)),
        (3, 5, "a", "state_exited", ("S",)),
        (42, 100, "b", "event_delivered", ("e", 0, "env", None)),
        (42, 0, "a", "state_entered", ("S",)),
    ]
    assert render_trace(records) == (
        "seq=7 t=100 inst=a kind=state_entered state=S\n"
        "seq=3 t=5 inst=a kind=state_exited state=S\n"
        "seq=42 t=100 inst=b kind=event_delivered event=e eseq=0 from=env payload=-\n"
        "seq=42 t=0 inst=a kind=state_entered state=S\n"
    )


def test_trace_view_reads_its_list_as_records():
    sent = {"state": "high"}
    columns = [0, 1], [0, 5], ["a", "a.b"]
    flat = [("state_entered", "S"), ("payload_sent", "p", "e", ("a", "q"), sent, None)]
    view = Trace(*columns, flat)
    assert len(view) == 2
    last = view[-1]
    assert type(last) is TraceRecord
    assert (last.seq, last.kind, last.instance, last.time_us) == (1, "payload_sent", "a.b", 5)
    assert last.detail == {"port": "p", "event": "e", "to": "a.q", "payload": '{state="high"}'}
    assert last.values == flat[1][1:] and last.values[3] is sent
    assert view[:1] == [TraceRecord(0, 0, "a", "state_entered", ("S",))] and type(view[:1]) is list
    # The view is live: it shows a record appended after it was taken, under the last head.
    flat.append(("state_exited", "S"))
    assert len(view) == 3 and view[2] == (2, 5, "a.b", "state_exited", ("S",)) and view[2].detail == {"state": "S"}
    assert all(type(r) is TraceRecord for r in view)
    stamps = [(0, 0, "a"), (1, 5, "a.b"), (2, 5, "a.b")]
    records = [(*stamp, r[0], r[1:]) for stamp, r in zip(stamps, flat)]
    assert view == list(view) == records and view == Trace(*map(list, columns), list(flat))
    assert view != records[:2] and Trace([], [], [], []) == []
    with pytest.raises(TypeError):
        view[0] = records[0]


@pytest.mark.parametrize("scenario_fixture", ["arrive_depart_path", "physical_path"])
def test_trace_view_renders_as_the_list_of_its_records(request, shared_parking_model, scenario_fixture):
    view = simulate(shared_parking_model(), load_scenario_file(request.getfixturevalue(scenario_fixture))).trace
    assert isinstance(view, Trace) and len(view) > 0
    assert render_trace(view) == render_trace(list(view))


def slices(n: int):
    bounds = st.one_of(st.none(), st.integers(-n - 3, n + 3))
    steps = st.one_of(st.none(), st.integers(-4, 4).filter(bool))
    return st.builds(slice, bounds, bounds, steps)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    picks=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 2)), max_size=10),
    data=st.data(),
)
def test_trace_view_indexes_as_it_iterates(seed, picks, data):
    """An index or a slice of a run's view reads the records that iterating
    it reads: the head an index finds by bisection is the head its record
    was made under, over several heads per clock time."""
    gm = generate(seed)
    symbols = alphabet(gm)
    rt = instantiate(load_text(gm.text))
    for pick, tick in picks:
        rt.clock_us += tick * 1000
        event, payload = symbols[pick % len(symbols)]
        inject(rt, "m", "p1", event, dict(payload))
        run_to_quiescence(rt, 100)
    view = rt.trace
    records = list(view)
    n = len(records)
    assert n == len(view) == len(rt.records)
    for i in range(-n, n):
        assert view[i] == records[i] and all(map(operator.is_, view[i].values, records[i].values))
    for i in (n, n + 1, -n - 1, -n - 2):
        with pytest.raises(IndexError):
            view[i]
    for s in data.draw(st.lists(slices(n), max_size=6)):
        assert view[s] == records[s] and type(view[s]) is list

"""The trace renderer on hand-built records.

``render_trace`` keeps text by the identity of the objects it formats
(shared values tuples, and the floats and strs in payloads); these tests pin
that a whole trace renders exactly as its records do one at a time, and as
their ``detail`` reads."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from ciot.metamodel import ActionKind
from ciot.trace import FIELDS, TraceRecord, render_trace

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
        "action": st.tuples(names, st.sampled_from(ActionKind), st.one_of(st.just({}), st.sampled_from(shared))),
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
            yield TraceRecord(3 * i + 2, i, "c", "action", ("a", ActionKind.GENERIC, {"v": float(i), "s": str(i)}))

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

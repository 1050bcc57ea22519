"""Temporal-graph model: validation, persistence, conversions, interchange."""

from __future__ import annotations

import csv
import io
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import EVENT_MUTATIONS, MUTATIONS, events, parts, temporal_graphs
from tempowl import kgraph
from tempowl.errors import (
    EmptyEdgeSet,
    MissingColour,
    NonIncreasingTimes,
    NotColourPersistent,
    SelfLoop,
    UnknownNode,
    ValidationError,
)
from tempowl.gen import fixture, random_tg
from tempowl.tgraph import (
    AggregatedGraph,
    Snapshot,
    TemporalGraph,
    events_from_csv,
    events_to_csv,
    from_aggregated,
    from_events,
    from_json,
    is_colour_persistent,
    shifted_copy,
    to_aggregated,
    to_dict,
    to_json,
    validate,
)


def _graph(times, snaps, nodes=("a", "b", "c")):
    return TemporalGraph(nodes, tuple(times), tuple(snaps))


GREEN = {"a": "green", "b": "green", "c": "green"}


def test_validate_fig2_ok():
    validate(fixture("fig2"))


def test_validate_duplicate_times():
    with pytest.raises(NonIncreasingTimes):
        _graph((3, 3), [Snapshot(GREEN, set()), Snapshot(GREEN, set())])


def test_validate_empty_times():
    with pytest.raises(NonIncreasingTimes):
        validate(_graph((), []))


def test_validate_self_loop():
    with pytest.raises(SelfLoop):
        _graph((1,), [Snapshot(GREEN, {("a", "a")})])


def test_validate_unknown_edge_endpoint():
    with pytest.raises(UnknownNode):
        _graph((1,), [Snapshot(GREEN, {("a", "z")})])


def test_validate_unknown_coloured_node():
    with pytest.raises(UnknownNode):
        _graph((1,), [Snapshot({**GREEN, "z": "red"}, set())])


def test_validate_missing_colour():
    with pytest.raises(MissingColour):
        _graph((1,), [Snapshot({"a": "green", "b": "green"}, set())])


def test_validate_snapshot_count_mismatch():
    with pytest.raises(ValidationError):
        validate(_graph((1, 2), [Snapshot(GREEN, set())]))


def test_validate_non_integer_time():
    with pytest.raises(ValidationError):
        validate(_graph((1.5, 2), [Snapshot(GREEN, set())] * 2))


_PAIR = Snapshot({"a": "g", "b": "g"}, {("a", "b")})


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: TemporalGraph(("a", "b"), (1, 2), (_PAIR, Snapshot({"a": "g"}, set()))),
            MissingColour,
            "snapshot 1: no colour for node 'b'",
        ),
        (
            lambda: TemporalGraph(("a",), (1, 2), (Snapshot({"a": "g"}, set()),)),
            ValidationError,
            "1 snapshots for 2 time points",
        ),
        (
            lambda: TemporalGraph(("a", "b"), (1,), (_PAIR, _PAIR)),
            ValidationError,
            "2 snapshots for 1 time points",
        ),
        (
            lambda: TemporalGraph(("a",), (1,), (Snapshot({"a": "g"}, {("a", "z")}),)),
            UnknownNode,
            "snapshot 0: edge endpoint 'z' is unknown",
        ),
    ],
    ids=["missing_colour", "too_few_snapshots", "too_many_snapshots", "unknown_endpoint"],
)
def test_construction_raises_validate_errors(build, error, message):
    # no invalid graph reaches the engine: construction itself rejects it
    with pytest.raises(error, match=message):
        build()


def test_colours_must_be_a_mapping():
    # dict() would read the list ["ab", "cd"] as {"a": "b", "c": "d"}
    with pytest.raises(ValidationError, match="are not a mapping"):
        Snapshot(["ab", "cd"], set())


def test_edges_normalise_orientation_and_duplicates():
    snap = Snapshot(GREEN, {("b", "a"), ("a", "b")})
    assert snap.edges == frozenset({("a", "b")})
    assert snap.has_edge("b", "a")


def test_colour_persistence():
    assert is_colour_persistent(fixture("fig3"))
    assert not is_colour_persistent(fixture("fig2"))  # a is blue at t1, green at t2
    single = _graph((5,), [Snapshot({"a": "x", "b": "y", "c": "y"}, set())])
    assert is_colour_persistent(single)


def test_to_aggregated_fig3():
    agg = to_aggregated(fixture("fig3"))
    assert agg.edges == {
        ("a", "b", 2),
        ("b", "c", 3),
        ("a", "c", 4),
        ("b", "c", 4),
    }
    assert agg.colours == {"a": "blue", "b": "green", "c": "green"}


def test_to_aggregated_edgeless():
    tg = _graph((1, 2), [Snapshot(GREEN, set())] * 2)
    assert to_aggregated(tg).edges == frozenset()


def test_to_aggregated_rejects_colour_drift():
    with pytest.raises(NotColourPersistent):
        to_aggregated(fixture("fig2"))


def test_from_aggregated_with_explicit_times_recovers_fig3():
    fig3 = fixture("fig3")
    assert from_aggregated(to_aggregated(fig3), times=fig3.times) == fig3


def test_from_aggregated_derives_times_from_labels():
    tg = from_aggregated(to_aggregated(fixture("fig3")))
    # t1 has no edges, so only the labelled times survive
    assert tg.times == (2, 3, 4)
    assert tg.snapshots == fixture("fig3").snapshots[1:]


def test_from_aggregated_single_edge():
    agg = AggregatedGraph(("u", "v"), {"u": "green", "v": "green"}, {("u", "v", 5)})
    tg = from_aggregated(agg)
    assert tg.times == (5,)
    assert tg.snapshots[0].edges == frozenset({("u", "v")})


def test_from_aggregated_empty_needs_times():
    agg = AggregatedGraph(("u",), {"u": "green"}, set())
    with pytest.raises(EmptyEdgeSet):
        from_aggregated(agg)
    assert from_aggregated(agg, times=(1, 4)).times == (1, 4)


def test_from_aggregated_rejects_uncovered_labels():
    agg = AggregatedGraph(("u", "v"), {"u": "g", "v": "g"}, {("u", "v", 5)})
    with pytest.raises(ValidationError):
        from_aggregated(agg, times=(1, 2))


def test_from_aggregated_rejects_unordered_times():
    agg = AggregatedGraph(("u", "v"), {"u": "g", "v": "g"}, {("u", "v", 1)})
    with pytest.raises(NonIncreasingTimes, match=r"times\[1\] = 1 does not exceed"):
        from_aggregated(agg, times=[2, 1, 1])


def test_round_trip_on_random_persistent_graphs():
    for seed in range(30):
        tg = random_tg(
            seed, nodes=5, snapshots=4, edge_prob=0.6,
            palette=("green", "blue"), colour_persistent=True,
        )
        agg = to_aggregated(tg)
        assert from_aggregated(agg, times=tg.times) == tg
        assert to_aggregated(from_aggregated(agg, times=tg.times)) == agg
        if all(snap.edges for snap in tg.snapshots):
            assert from_aggregated(agg) == tg


def test_from_events_matches_fig3_tail():
    events = [("a", "b", 2), ("b", "c", 3), ("a", "c", 4), ("b", "c", 4)]
    tg = from_events(events, "green")
    assert tg.node_ids == ("a", "b", "c")
    assert tg.times == (2, 3, 4)
    fig3 = fixture("fig3")
    assert [s.edges for s in tg.snapshots] == [s.edges for s in fig3.snapshots[1:]]
    assert is_colour_persistent(tg)
    validate(tg)


def test_from_events_empty():
    with pytest.raises(EmptyEdgeSet):
        from_events([], "green")


def test_from_events_rejects_self_loop_events():
    with pytest.raises(SelfLoop):
        from_events([("a", "a", 1)], "green")


def test_from_events_recount_on_bulk_random_events():
    rng = random.Random(42)
    names = [f"n{i}" for i in range(40)]
    events = []
    for _ in range(10_000):
        u, v = rng.sample(names, 2)
        events.append((u, v, rng.randint(1, 200)))
    tg = from_events(events, "green")

    # independent recount straight from the event list
    assert len(tg.node_ids) == len({x for u, v, _ in events for x in (u, v)})
    assert tg.times == tuple(sorted({t for _, _, t in events}))
    per_time = Counter()
    expected = {t: set() for t in tg.times}
    for u, v, t in events:
        expected[t].add((min(u, v), max(u, v)))
    for t, snap in zip(tg.times, tg.snapshots):
        assert snap.edges == frozenset(expected[t])
        per_time[t] = len(expected[t])
    assert sum(len(s.edges) for s in tg.snapshots) == sum(per_time.values())
    validate(tg)


def test_shifted_copy_moves_only_times():
    tg = fixture("fig3")
    moved = shifted_copy(tg, 7)
    assert moved.times == (8, 9, 10, 11)
    assert moved.snapshots == tg.snapshots


def test_json_round_trip():
    for name in ("fig2", "fig3"):
        tg = fixture(name)
        assert from_json(to_json(tg)) == tg


def _document(nodes=("a", "b"), colours=None, edges=(["a", "b"],)):
    colours = {v: "g" for v in nodes} if colours is None else colours
    return {
        "nodes": list(nodes),
        "times": [1],
        "snapshots": [{"colours": colours, "edges": list(edges)}],
    }


# (document, fragment of the ValidationError it must raise): none of these may
# load as something other than what it says, or end in a bare ValueError
MALFORMED_DOCUMENTS = (
    ('{"nodes": ["a"]}', "malformed"),
    ("{not json", "not a JSON document"),
    (json.dumps(_document(edges=["ab"])), "is not a list of two node ids"),
    (json.dumps(_document(edges=[["a", "b", "a"]])), "is not a list of two node ids"),
    (json.dumps(_document(edges=[["a", 1]])), "is not a list of two node ids"),
    (json.dumps(dict(_document(), nodes="ab")), "is not a list of node ids"),
    (json.dumps(_document(colours=[["a"]])), "malformed"),
    (json.dumps(_document(nodes=["a", 1], edges=[])), "node id 1 is not a string"),
    (json.dumps(_document(nodes=["a", ""], edges=[])), "empty node id"),
    (json.dumps(_document(colours={"a": "g", "b": 1})), "node 'b' has a non-string colour"),
    (json.dumps(_document(colours=["ab", "cd"])), "snapshot 0: colours .* is not a JSON object"),
    (json.dumps(_document(colours=[["a", "g"], ["b", "g"]])), "is not a JSON object"),
)


def test_json_rejects_malformed_documents():
    for text, message in MALFORMED_DOCUMENTS:
        with pytest.raises(ValidationError, match=message):
            from_json(text)


_BOUNDARY = settings(max_examples=25, deadline=None, database=None, derandomize=True)


@_BOUNDARY
@given(temporal_graphs())
def test_generated_graphs_round_trip(tg):
    assert from_json(to_json(tg)) == tg
    for encode in (kgraph.k_glob, kgraph.k_loc):
        kg = encode(tg)
        assert kgraph.from_dict(json.loads(json.dumps(kgraph.to_dict(kg)))) == kg


@pytest.mark.parametrize("name", sorted(MUTATIONS))
@_BOUNDARY
@given(tg=temporal_graphs(min_snapshots=2), data=st.data())
def test_each_single_defect_is_a_typed_error(name, tg, data):
    plant, error = MUTATIONS[name]
    doc = to_dict(tg)
    plant(doc, data.draw)
    with pytest.raises(error):
        from_json(json.dumps(doc))
    with pytest.raises(error):
        TemporalGraph(*parts(doc))


def test_events_csv_round_trip():
    events = [("a", "b", 2), ("b", "c", 3)]
    text = events_to_csv(events)
    assert text.splitlines()[0] == "u,v,t"
    assert events_from_csv(text) == events


@_BOUNDARY
@given(events())
def test_generated_events_round_trip_through_csv(ev):
    assert events_from_csv(events_to_csv(ev)) == ev


@pytest.mark.parametrize("name", sorted(EVENT_MUTATIONS))
@_BOUNDARY
@given(ev=events(min_size=1), data=st.data())
def test_each_single_event_csv_defect_is_a_typed_error(name, ev, data):
    plant, error = EVENT_MUTATIONS[name]
    rows = [["u", "v", "t"], *([u, v, str(t)] for u, v, t in ev)]
    plant(rows, data.draw)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    with pytest.raises(error):
        events_from_csv(out.getvalue())


def test_events_csv_rejects_bad_header():
    with pytest.raises(ValidationError):
        events_from_csv("x,y,z\na,b,1\n")
    with pytest.raises(ValidationError):
        events_from_csv("u,v,t\na,b,notanint\n")


def test_empty_node_ids_are_rejected():
    for text in ("u,v,t\n,b,1\n", "u,v,t\na,,1\n"):
        with pytest.raises(ValidationError, match="empty node id"):
            events_from_csv(text)
    with pytest.raises(ValidationError, match="empty node id"):
        from_events([("", "b", 1), ("a", "b", 2)], "green")


def test_validate_reports_colour_keys_of_mixed_types():
    with pytest.raises(UnknownNode, match="unknown node 1"):
        TemporalGraph(("a",), (0,), (Snapshot({"a": "g", 1: "g"}, set()),))
    # string keys are still reported in sorted order, before other types
    with pytest.raises(UnknownNode, match="unknown node 'y'"):
        TemporalGraph(("a",), (0,), (Snapshot({"a": "g", 2: "g", "z": "g", "y": "g"}, set()),))

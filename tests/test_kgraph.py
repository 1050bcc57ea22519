"""Knowledge-graph encodings: exact edge sets, neighbourhoods, unions."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairs import union_pairs
from strategies import KG_MUTATIONS, temporal_graphs
from tempowl import rwl
from tempowl.gen import fixture, random_tg
from tempowl.errors import UnknownNode, ValidationError
from tempowl.kgraph import (
    KnowledgeGraph,
    disjoint_union,
    from_dict,
    in_neighbourhood,
    k_glob,
    k_loc,
    temporal_neighbourhood,
    to_dict,
    union_arrays,
)
from tempowl.tgraph import Snapshot, TemporalGraph, TimestampedNode as TN


def _random_graphs():
    for seed in range(20):
        yield random_tg(
            seed,
            nodes=2 + seed % 4,
            snapshots=1 + seed % 4,
            edge_prob=0.5,
            palette=("green", "blue"),
            colour_persistent=seed % 2 == 0,
            uniform_grid=seed % 3 != 0,
        )


# Full edge sets of both encodings of the fig2 fixture, expanded by hand:
# times (1,2,3,4), edges {a,b}@2, {b,c}@3, {a,c}@4, {b,c}@4.
FIG2_GLOB = {
    (0, TN("a", 1), TN("b", 1)), (0, TN("b", 1), TN("a", 1)),
    (1, TN("a", 1), TN("b", 2)), (1, TN("b", 1), TN("a", 2)),
    (2, TN("a", 1), TN("b", 3)), (2, TN("b", 1), TN("a", 3)),
    (0, TN("b", 2), TN("c", 2)), (0, TN("c", 2), TN("b", 2)),
    (1, TN("b", 2), TN("c", 3)), (1, TN("c", 2), TN("b", 3)),
    (0, TN("a", 3), TN("c", 3)), (0, TN("c", 3), TN("a", 3)),
    (0, TN("b", 3), TN("c", 3)), (0, TN("c", 3), TN("b", 3)),
}

FIG2_LOC = {
    (0, TN("a", 1), TN("b", 1)), (0, TN("b", 1), TN("a", 1)),
    (1, TN("a", 2), TN("b", 2)), (1, TN("b", 2), TN("a", 2)),
    (2, TN("a", 3), TN("b", 3)), (2, TN("b", 3), TN("a", 3)),
    (0, TN("b", 2), TN("c", 2)), (0, TN("c", 2), TN("b", 2)),
    (1, TN("b", 3), TN("c", 3)), (1, TN("c", 3), TN("b", 3)),
    (0, TN("a", 3), TN("c", 3)), (0, TN("c", 3), TN("a", 3)),
    (0, TN("b", 3), TN("c", 3)), (0, TN("c", 3), TN("b", 3)),
}


def test_k_glob_fig2_exact_edges():
    kg = k_glob(fixture("fig2"))
    assert kg.edges == frozenset(FIG2_GLOB)
    assert kg.relations == {0, 1, 2}
    assert len(kg.nodes) == 12
    assert kg.colours[TN("a", 0)] == "blue"
    assert kg.colours[TN("a", 1)] == "green"


def test_k_loc_fig2_exact_edges():
    kg = k_loc(fixture("fig2"))
    assert kg.edges == frozenset(FIG2_LOC)
    # parallel labelled edges between one ordered pair: (b,t4)-(c,t4) at 0 and 1
    assert (0, TN("c", 3), TN("b", 3)) in kg.edges
    assert (1, TN("c", 3), TN("b", 3)) in kg.edges


def test_k_loc_edges_stay_inside_a_time_slice():
    for tg in _random_graphs():
        for _, src, tgt in k_loc(tg).edges:
            assert src.time_index == tgt.time_index


def test_edgeless_graph_encodes_to_edgeless_kg():
    tg = TemporalGraph(
        ("a", "b"),
        (1, 2, 3),
        tuple(Snapshot({"a": "green", "b": "green"}, set()) for _ in range(3)),
    )
    for encode in (k_glob, k_loc):
        kg = encode(tg)
        assert not kg.edges and not kg.relations
        assert len(kg.nodes) == 6


def test_single_snapshot_collapses_both_encodings():
    tg = TemporalGraph(
        ("a", "b", "c"),
        (9,),
        (Snapshot({"a": "g", "b": "g", "c": "g"}, {("a", "b"), ("b", "c")}),),
    )
    assert k_glob(tg).edges == k_loc(tg).edges
    assert {r for r, _, _ in k_glob(tg).edges} == {0}


def test_edge_counts_agree_between_encodings():
    for tg in _random_graphs():
        assert len(k_glob(tg).edges) == len(k_loc(tg).edges)


def test_same_time_edges_are_symmetric():
    for tg in _random_graphs():
        for kg in (k_glob(tg), k_loc(tg)):
            for r, src, tgt in kg.edges:
                if src.time_index == tgt.time_index:
                    assert (r, tgt, src) in kg.edges


def test_in_neighbourhood_examples():
    glob = k_glob(fixture("fig2"))
    assert in_neighbourhood(glob, TN("a", 3), 2) == {TN("b", 1)}
    assert in_neighbourhood(glob, TN("a", 3), 99) == set()
    loc = k_loc(fixture("fig2"))
    assert in_neighbourhood(loc, TN("c", 3), 0) == {TN("a", 3), TN("b", 3)}
    with pytest.raises(UnknownNode):
        in_neighbourhood(glob, TN("z", 0), 0)


def test_temporal_neighbourhood_examples():
    fig2 = fixture("fig2")
    assert temporal_neighbourhood(fig2, "a", 3) == {TN("c", 3), TN("b", 1)}
    assert temporal_neighbourhood(fig2, "b", 3) == {TN("c", 3), TN("c", 2), TN("a", 1)}
    assert temporal_neighbourhood(fig2, "a", 0) == set()
    with pytest.raises(UnknownNode):
        temporal_neighbourhood(fig2, "z", 0)
    with pytest.raises(UnknownNode):
        temporal_neighbourhood(fig2, "a", 9)


def test_cross_encoding_consistency_with_temporal_neighbourhood():
    # global form: an incoming r-edge is exactly a temporal neighbour r time
    # units back; local form: the source sits at the target's own time and r
    # records the gap to when the edge existed
    for tg in _random_graphs():
        glob, loc = k_glob(tg), k_loc(tg)
        rels = {r for r, _, _ in glob.edges} | {0}
        for i, t in enumerate(tg.times):
            for v in tg.node_ids:
                target = TN(v, i)
                nbhd = temporal_neighbourhood(tg, v, i)
                for r in rels:
                    expected_glob = {
                        (u, j) for (u, j) in nbhd if t - tg.times[j] == r
                    }
                    assert in_neighbourhood(glob, target, r) == expected_glob
                    expected_loc = {
                        TN(u, i) for (u, j) in nbhd if t - tg.times[j] == r
                    }
                    assert in_neighbourhood(loc, target, r) == expected_loc


def test_disjoint_union_of_fig5_encodings():
    a, b = fixture("fig5_pair")
    merged, origin = disjoint_union(k_glob(a), k_glob(b))
    assert len(merged.nodes) == 12
    assert merged.relations == {0, 1}
    assert len(origin) == 12
    sides = {side for side, _ in origin.values()}
    assert sides == {0, 1}
    # labels are merged by value: both graphs contribute label-1 edges
    assert len(merged.edges) == len(k_glob(a).edges) + len(k_glob(b).edges)


def test_disjoint_union_with_empty_graph():
    kg = k_glob(fixture("fig3"))
    empty = KnowledgeGraph((), frozenset(), frozenset(), {})
    merged, origin = disjoint_union(kg, empty)
    assert len(merged.nodes) == len(kg.nodes)
    assert len(merged.edges) == len(kg.edges)
    assert all(side == 0 for side, _ in origin.values())


def test_disjoint_union_node_count_is_sum():
    a, b = fixture("fig6_pair")
    merged, _ = disjoint_union(k_loc(a), k_loc(b))
    assert len(merged.nodes) == len(k_loc(a).nodes) + len(k_loc(b).nodes)


@pytest.mark.parametrize("encoding, encode", [("glob", k_glob), ("loc", k_loc)])
def test_union_arrays_match_kernel_inputs_of_tagged_union(encoding, encode):
    for tg1, tg2 in union_pairs():
        merged, origin_map = disjoint_union(encode(tg1), encode(tg2))
        nodes, indptr, srcs, rels, init = rwl.kernel_inputs(merged)
        compiled = union_arrays((tg1, tg2), encoding)
        assert compiled[0] == [origin_map[tn] for tn in nodes]
        assert compiled[1:] == (indptr, srcs, rels, init)
        # one graph: its own encoding, every node from origin 0
        for tg in (tg1, tg2):
            nodes, indptr, srcs, rels, init = rwl.kernel_inputs(encode(tg))
            compiled = union_arrays((tg,), encoding)
            assert compiled[0] == [(0, tn) for tn in nodes]
            assert compiled[1:] == (indptr, srcs, rels, init)


def test_union_arrays_reject_an_unknown_encoding():
    with pytest.raises(ValueError):
        union_arrays((fixture("fig2"), fixture("fig3")), "both")


def test_kg_json_round_trip():
    for tg in (fixture("fig2"), fixture("fig3")):
        for encode in (k_glob, k_loc):
            kg = encode(tg)
            assert from_dict(to_dict(kg)) == kg


_A, _B = TN("a", 0), TN("b", 0)
_BOTH = {_A: "g", _B: "g"}


@pytest.mark.parametrize(
    "nodes, relations, edges, colours, message",
    [
        ((_A, _A), {0}, set(), {_A: "g"}, "duplicate knowledge-graph nodes"),
        ((_A, _B), {0}, set(), {_A: "g"}, "colours are not total over the nodes"),
        ((_A, _B), {0, -1}, {(-1, _A, _B)}, _BOTH, "negative relation label -1"),
        ((_A, _B), {0}, {(1, _A, _B)}, _BOTH, "edge label 1 missing from relation set"),
        ((_A,), {0}, {(0, _A, _B)}, {_A: "g"}, f"edge (0, {_A}, {_B}) leaves the node set"),
        ((_A, _B), {"x"}, {("x", _A, _B)}, _BOTH, "relation label 'x' is not an integer"),
        ((_A, _B), {True}, {(True, _A, _B)}, _BOTH, "relation label True is not an integer"),
        # True == 1, so a set of labels holding 1 would hide the bool relation
        ((_A, _B), {True}, {(1, _A, _B)}, _BOTH, "relation label True is not an integer"),
        ((_A, _B), {1.5}, {(1.5, _A, _B)}, _BOTH, "relation label 1.5 is not an integer"),
        ((_A, _B), {0}, set(), {_A: "g", _B: 1}, f"node {_B} has a non-string colour 1"),
        (
            (TN("a", True),),
            set(),
            set(),
            {TN("a", True): "g"},
            "node TimestampedNode(node='a', time_index=True) is not a (string, integer) pair",
        ),
        (
            (_A, TN("a", -1)),
            set(),
            set(),
            {_A: "g", TN("a", -1): "g"},
            "node TimestampedNode(node='a', time_index=-1) has a negative time index",
        ),
    ],
    ids=[
        "duplicate_nodes",
        "colours_not_total",
        "negative_label",
        "label_outside_relations",
        "edge_leaves_nodes",
        "str_label",
        "bool_label",
        "bool_relation_beside_int_label",
        "float_label",
        "int_colour",
        "bool_time_index",
        "negative_time_index",
    ],
)
def test_knowledge_graph_constructor_errors(nodes, relations, edges, colours, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        KnowledgeGraph(nodes, frozenset(relations), frozenset(edges), colours)


def test_kg_json_rejects_bool_time_indexes_and_non_string_colours():
    for document in (
        {"nodes": [["a", True]], "colours": {"a#1": "g"}, "edges": []},
        {"nodes": [["a", -1]], "colours": {"a#-1": "g"}, "edges": []},
        {"nodes": [["a", 0]], "colours": {"a#0": 1}, "edges": []},
        {"nodes": [["a", 0]], "colours": ["a#0"], "edges": []},
        {"nodes": [["a", 0]], "colours": [["a#0", "g"]], "edges": []},
        {"nodes": [["a", 0], ["b", 0]], "colours": {"a#0": "g", "b#0": "g"},
         "edges": [[False, ["a", 0], ["b", 0]]]},
    ):
        with pytest.raises(ValidationError):
            from_dict(document)


@pytest.mark.parametrize("name", sorted(KG_MUTATIONS))
@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(tg=temporal_graphs(), encode=st.sampled_from((k_glob, k_loc)), data=st.data())
def test_each_single_kg_document_defect_is_a_typed_error(name, tg, encode, data):
    plant, error = KG_MUTATIONS[name]
    doc = json.loads(json.dumps(to_dict(encode(tg))))
    plant(doc, data.draw)
    with pytest.raises(error):
        from_dict(json.loads(json.dumps(doc)))

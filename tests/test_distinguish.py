"""Distinguishability verdicts, the four-way classifier, matrix consistency."""

from __future__ import annotations

from itertools import product

import pytest

from pairs import union_pairs
from tempowl.distinguish import (
    classify_all,
    classify_pair,
    distinguishable_global,
    distinguishable_local,
)
from tempowl.errors import UnknownNode
from tempowl.gen import fixture, random_tg
from tempowl.iso import timewise_iso
from tempowl.tgraph import TimestampedNode as TN


def test_colour_drift_pair_is_global_only():
    fig2, fig3 = fixture("fig2"), fixture("fig3")
    b4 = TN("b", 3)
    g = distinguishable_global(fig2, b4, fig3, b4)
    assert (g.distinguishable, g.first_layer, g.mode) == (True, 1, "global")
    l = distinguishable_local(fig2, b4, fig3, b4)
    assert (l.distinguishable, l.first_layer) == (False, None)
    assert classify_pair(fig2, b4, fig3, b4) == "global_only"


def test_two_step_local_pair_is_local_only():
    a, b = fixture("fig6_pair")
    lhs, rhs = TN("a", 1), TN("a'", 1)
    assert not distinguishable_global(a, lhs, b, rhs).distinguishable
    l = distinguishable_local(a, lhs, b, rhs)
    assert (l.distinguishable, l.first_layer) == (True, 2)
    assert classify_pair(a, lhs, b, rhs) == "local_only"


def test_pointwise_isomorphic_pair_is_both():
    a, b = fixture("fig5_pair")
    lhs, rhs = TN("a", 1), TN("a'", 1)
    for query in (distinguishable_global, distinguishable_local):
        verdict = query(a, lhs, b, rhs)
        assert (verdict.distinguishable, verdict.first_layer) == (True, 1)
    assert classify_pair(a, lhs, b, rhs) == "both"


def test_node_against_itself_is_neither():
    tg = fixture("fig2")
    for tn in tg.timestamped_nodes():
        assert not distinguishable_global(tg, tn, tg, tn).distinguishable
        assert not distinguishable_local(tg, tn, tg, tn).distinguishable


def test_verdicts_are_symmetric():
    for seed in range(8):
        tg1 = random_tg(seed, nodes=4, snapshots=3, edge_prob=0.5, palette=("g", "b"))
        tg2 = random_tg(seed + 99, nodes=4, snapshots=3, edge_prob=0.5, palette=("g", "b"))
        for query in (distinguishable_global, distinguishable_local):
            for tn1 in (TN("v0", 0), TN("v2", 2)):
                for tn2 in (TN("v1", 1), TN("v3", 2)):
                    fwd = query(tg1, tn1, tg2, tn2)
                    rev = query(tg2, tn2, tg1, tn1)
                    assert (fwd.distinguishable, fwd.first_layer) == (
                        rev.distinguishable,
                        rev.first_layer,
                    )


def test_max_layers_bounds_the_verdict():
    a, b = fixture("fig6_pair")
    lhs, rhs = TN("a", 1), TN("a'", 1)
    shallow = distinguishable_local(a, lhs, b, rhs, max_layers=1)
    assert not shallow.distinguishable
    deep = distinguishable_local(a, lhs, b, rhs, max_layers=5)
    assert (deep.distinguishable, deep.first_layer) == (True, 2)


def test_timewise_correspondence_classifies_neither():
    # the fig5 pair is timewise isomorphic via a -> b'; its corresponding
    # timestamped nodes are protected, unlike the pointwise pair (a,.)/(a',.)
    a, b = fixture("fig5_pair")
    witness = timewise_iso(a, b)
    assert witness is not None
    f = witness.maps[0]
    for i in range(2):
        for v in a.node_ids:
            assert classify_pair(a, TN(v, i), b, TN(f[v], i)) == "neither"


def test_classify_all_matches_per_pair_oracle():
    for a, b in union_pairs():
        result = classify_all(a, b)
        assert set(result.counts) == {"both", "global_only", "local_only", "neither"}
        assert sum(result.counts.values()) == len(result.rows) * len(result.cols)
        assert list(result.classes) == list(product(result.rows, result.cols))
        for row in result.rows:
            for col in result.cols:
                assert result.classes[(row, col)] == classify_pair(a, row, b, col)
                g = distinguishable_global(a, row, b, col)
                l = distinguishable_local(a, row, b, col)
                assert result.global_layers[(row, col)] == g.first_layer
                assert result.local_layers[(row, col)] == l.first_layer


def test_first_separating_layers_are_ints_or_none():
    # edgeless, so refinement never splits and only layer 0 is stored
    never_split = random_tg(0, nodes=4, snapshots=1, edge_prob=0.0, palette=("g", "b"))
    result = classify_all(never_split, never_split)
    assert set(result.global_layers.values()) == {0, None}
    for a, b in [*union_pairs(), (never_split, never_split)]:
        result = classify_all(a, b)
        for layers in (result.global_layers, result.local_layers):
            assert all(type(v) is int or v is None for v in layers.values())


def test_classify_all_self_diagonal_is_neither():
    tg = fixture("fig2")
    result = classify_all(tg, tg)
    for tn in tg.timestamped_nodes():
        assert result.classes[(tn, tn)] == "neither"


def test_classify_all_layers_match_verdicts():
    a, b = fixture("fig6_pair")
    result = classify_all(a, b)
    lhs, rhs = TN("a", 1), TN("a'", 1)
    assert result.global_layers[(lhs, rhs)] is None
    assert result.local_layers[(lhs, rhs)] == 2


def test_colour_persistent_pairs_never_global_only():
    for seed in range(15):
        tg1 = random_tg(
            seed, nodes=4, snapshots=3, edge_prob=0.5,
            palette=("g", "b"), colour_persistent=True,
        )
        tg2 = random_tg(
            seed + 77, nodes=4, snapshots=3, edge_prob=0.5,
            palette=("g", "b"), colour_persistent=True,
        )
        assert classify_all(tg1, tg2).counts["global_only"] == 0


def test_regular_non_isomorphic_pair_is_refinement_blind():
    # two triangles vs a hexagon: node-level refinement cannot split any
    # pair even though the graphs are not isomorphic — distinguishability
    # speaks about nodes, not graph identity
    from tempowl.tgraph import Snapshot, TemporalGraph

    def single(nodes, edges):
        return TemporalGraph(
            tuple(nodes), (1,), (Snapshot({v: "green" for v in nodes}, edges),)
        )

    triangles = single(
        "abcdef",
        {("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")},
    )
    hexagon = single(
        "abcdef",
        {("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("a", "f")},
    )
    result = classify_all(triangles, hexagon)
    assert result.counts == {
        "both": 0, "global_only": 0, "local_only": 0, "neither": 36,
    }


def test_unknown_nodes_are_rejected():
    tg = fixture("fig2")
    with pytest.raises(UnknownNode):
        distinguishable_global(tg, TN("z", 0), tg, TN("a", 0))
    with pytest.raises(UnknownNode):
        distinguishable_local(tg, TN("a", 0), tg, TN("a", 9))

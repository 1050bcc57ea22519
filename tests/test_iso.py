"""Isomorphism checkers against brute-force enumeration oracles."""

from __future__ import annotations

import pytest

from oracles import brute_force_snapshot_iso_exists, brute_force_timewise_maps
from pairs import union_pairs
from tempowl import iso, rwl
from tempowl.errors import MissingColour, SizeLimitExceeded, ValidationError
from tempowl.gen import fixture, permuted_copy, random_tg
from tempowl.iso import (
    pointwise_iso,
    timewise_iso,
    verify_pointwise,
    verify_timewise,
)
from tempowl.kgraph import KnowledgeGraph, disjoint_union
from tempowl.tgraph import Snapshot, TemporalGraph, TimestampedNode, shifted_copy


def test_fig5_pointwise_witness_matches_worked_example():
    a, b = fixture("fig5_pair")
    witness = pointwise_iso(a, b)
    assert witness is not None and witness.kind == "pointwise"
    assert witness.maps[0] == {"a": "b'", "b": "c'", "c": "a'"}
    assert witness.maps[1] == {"a": "a'", "b": "b'", "c": "c'"}
    assert verify_pointwise(a, b, witness.maps)


def test_pointwise_self_is_identity():
    tg = fixture("fig2")
    witness = pointwise_iso(tg, tg)
    assert witness is not None
    assert all(f == {v: v for v in tg.node_ids} for f in witness.maps)


def test_pointwise_requires_equal_time_sets():
    tg = fixture("fig3")
    assert pointwise_iso(tg, shifted_copy(tg, 1)) is None


def test_pointwise_detects_removed_edge():
    tg = random_tg(4, nodes=4, snapshots=3, edge_prob=0.7, palette=("g",))
    target = next(i for i, s in enumerate(tg.snapshots) if s.edges)
    snaps = list(tg.snapshots)
    kept = sorted(snaps[target].edges)[0]
    snaps[target] = Snapshot(
        snaps[target].colours, snaps[target].edges - {kept}
    )
    broken = TemporalGraph(tg.node_ids, tg.times, tuple(snaps))
    assert pointwise_iso(tg, broken) is None
    assert not brute_force_snapshot_iso_exists(tg, broken, target)


def test_timewise_shifted_self_is_identity():
    tg = fixture("fig3")
    witness = timewise_iso(tg, shifted_copy(tg, 7))
    assert witness is not None and witness.kind == "timewise"
    assert witness.maps == ({v: v for v in tg.node_ids},)


def test_fig5_timewise_matches_exhaustive_search():
    # both t2 snapshots are edgeless, so a single bijection (the pointwise
    # f_1) already works for every snapshot; the exhaustive 3! search agrees
    a, b = fixture("fig5_pair")
    expected = brute_force_timewise_maps(a, b)
    assert expected  # two witnesses exist
    witness = timewise_iso(a, b)
    assert witness is not None
    assert witness.maps[0] in expected


def test_fig6_timewise_and_pointwise_fail():
    a, b = fixture("fig6_pair")
    assert brute_force_timewise_maps(a, b) == []
    assert timewise_iso(a, b) is None
    assert pointwise_iso(a, b) is None  # t2 edge counts differ


def test_timewise_recovers_generated_permutation():
    for seed in range(12):
        tg = random_tg(
            seed, nodes=5, snapshots=3, edge_prob=0.5,
            palette=("g", "b"), colour_persistent=seed % 2 == 0,
        )
        copy, perm = permuted_copy(tg, seed + 50)
        witness = timewise_iso(tg, copy)
        assert witness is not None
        assert verify_timewise(tg, copy, witness.maps[0])
        assert verify_timewise(tg, copy, perm)
        assert witness.maps[0] in brute_force_timewise_maps(tg, copy)


def test_timewise_agrees_with_exhaustive_search_on_unrelated_pairs():
    for seed in range(12):
        tg1 = random_tg(seed, nodes=4, snapshots=2, edge_prob=0.5, palette=("g",))
        tg2 = random_tg(seed + 500, nodes=4, snapshots=2, edge_prob=0.5, palette=("g",))
        expected = brute_force_timewise_maps(tg1, tg2)
        witness = timewise_iso(tg1, tg2)
        if expected:
            assert witness is not None and witness.maps[0] in expected
        else:
            assert witness is None


def test_timewise_implies_pointwise_on_equal_time_sets():
    for seed in range(12):
        tg = random_tg(seed, nodes=5, snapshots=3, edge_prob=0.4, palette=("g", "b"))
        copy, _ = permuted_copy(tg, seed + 9)
        assert timewise_iso(tg, copy) is not None
        assert pointwise_iso(tg, copy) is not None


def test_timewise_rejects_unequal_gaps():
    tg = fixture("fig3")  # times 1,2,3,4
    stretched = TemporalGraph(tg.node_ids, (1, 3, 5, 7), tg.snapshots)
    assert timewise_iso(tg, stretched) is None


def test_size_limit():
    big = random_tg(1, nodes=65, snapshots=1, edge_prob=0.1)
    with pytest.raises(SizeLimitExceeded):
        pointwise_iso(big, big)
    small = random_tg(1, nodes=5, snapshots=1, edge_prob=0.2)
    with pytest.raises(SizeLimitExceeded):
        timewise_iso(small, small, max_nodes=4)


def test_search_stays_exact_where_refinement_pruning_is_blind():
    # two triangles vs a hexagon: every node lands in one refinement class,
    # so candidate pruning cuts nothing and only exhaustive backtracking can
    # (and must) reject the pair
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
    assert pointwise_iso(triangles, hexagon) is None
    assert timewise_iso(triangles, hexagon) is None
    # a rotated hexagon, by contrast, is matched fine
    rotated, perm = permuted_copy(hexagon, 3)
    assert timewise_iso(hexagon, rotated) is not None


def test_pointwise_agrees_with_per_snapshot_brute_force():
    for seed in range(14):
        tg1 = random_tg(
            seed, nodes=4, snapshots=3, edge_prob=0.5,
            palette=("g", "b")[: 1 + seed % 2],
        )
        tg2 = random_tg(
            seed + 900, nodes=4, snapshots=3, edge_prob=0.5,
            palette=("g", "b")[: 1 + seed % 2],
        )
        expected = all(
            brute_force_snapshot_iso_exists(tg1, tg2, i) for i in range(3)
        )
        witness = pointwise_iso(tg1, tg2)
        assert (witness is not None) == expected
        if witness is not None:
            assert verify_pointwise(tg1, tg2, witness.maps)


def test_verification_rejects_corrupted_witnesses():
    tg = random_tg(3, nodes=4, snapshots=2, edge_prob=0.6, palette=("g",))
    copy, perm = permuted_copy(tg, 77)
    names = sorted(perm)
    broken = dict(perm)
    broken[names[0]], broken[names[1]] = broken[names[1]], broken[names[0]]
    if broken != perm:
        tampered_ok = verify_timewise(tg, copy, broken)
        honest_ok = verify_timewise(tg, copy, perm)
        assert honest_ok
        # a swapped witness may only survive when it is itself an isomorphism
        assert tampered_ok == (broken in brute_force_timewise_maps(tg, copy))
    not_a_bijection = {v: names[0] for v in names}
    assert not verify_timewise(tg, copy, not_a_bijection)
    assert not verify_pointwise(
        tg, copy, tuple([not_a_bijection] * len(tg.times))
    )


def test_edges_to_unknown_nodes_are_validation_errors():
    # built without validate: the edge (a, z) names a node outside node_ids
    snap = Snapshot({"a": "g", "b": "g"}, {("a", "b")})
    ok = TemporalGraph(("a", "b"), (1,), (snap,))
    stray = TemporalGraph(("a", "b"), (1,), (Snapshot(snap.colours, {("a", "z")}),))
    for check in (pointwise_iso, timewise_iso):
        for tg1, tg2 in ((stray, ok), (ok, stray), (stray, stray)):
            with pytest.raises(ValidationError, match="leaves the node set"):
                check(tg1, tg2)


def test_unvalidated_graphs_raise_typed_errors():
    # built without validate: snapshot 1 gives no colour for b, and `short`
    # has one snapshot for two time points
    snap = Snapshot({"a": "g", "b": "g"}, {("a", "b")})
    ok = TemporalGraph(("a", "b"), (1, 2), (snap, snap))
    no_colour = TemporalGraph(("a", "b"), (1, 2), (snap, Snapshot({"a": "g"}, set())))
    short = TemporalGraph(("a", "b"), (1, 2), (snap,))
    for check in (pointwise_iso, timewise_iso):
        for tg1, tg2 in ((no_colour, ok), (ok, no_colour)):
            with pytest.raises(MissingColour, match="snapshot 1: no colour for node 'b'"):
                check(tg1, tg2)
        for tg1, tg2 in ((short, ok), (ok, short)):
            with pytest.raises(ValidationError, match="1 snapshots for 2 time points"):
                check(tg1, tg2)


def _pruning_input(tg, index):
    """(nodes, colour, relation -> edges) as the pointwise search sees snapshot
    `index` of tg, or, for index None, as the timewise search sees all of tg."""
    if index is None:
        return (
            tg.node_ids,
            lambda v: tuple(s.colours[v] for s in tg.snapshots),
            {i: s.edges for i, s in enumerate(tg.snapshots)},
        )
    snap = tg.snapshots[index]
    return tg.node_ids, lambda v: snap.colours[v], {0: snap.edges}


def _knowledge_graph(nodes, colour, rel_edges):
    """One node per graph node, each edge read both ways, colours by repr."""
    at = {v: TimestampedNode(v, 0) for v in nodes}
    edges = {
        (r, at[a], at[b])
        for r, pairs in rel_edges.items()
        for u, v in pairs
        for a, b in ((u, v), (v, u))
    }
    colours = {at[v]: repr(colour(v)) for v in nodes}
    return KnowledgeGraph(tuple(at.values()), frozenset(rel_edges), frozenset(edges), colours)


def test_pruning_colours_are_those_of_the_knowledge_graph_union():
    for tg1, tg2 in union_pairs():
        for index in (None, *range(min(len(tg1.times), len(tg2.times)))):
            inputs = [_pruning_input(tg, index) for tg in (tg1, tg2)]
            merged, origin = disjoint_union(*(_knowledge_graph(*x) for x in inputs))
            colouring = rwl.refine(merged)
            expected = {}
            for tagged, cid in zip(colouring.nodes, colouring.layers[-1]):
                side, tn = origin[tagged]
                expected[side, tn.node] = cid
            sides = [
                (nodes, colour, {r: iso._adjacency(nodes, e) for r, e in rel_edges.items()})
                for nodes, colour, rel_edges in inputs
            ]
            assert iso._stable_colours(sides) == expected

"""Distinguishability verdicts, the four-way classifier, matrix consistency."""

from __future__ import annotations

from itertools import product

import pytest

from oracles import first_difference, temporal_wl_layers
from pairs import union_pairs
from tempowl import rwl
from tempowl.distinguish import (
    CLASS_OF,
    classify_all,
    classify_pair,
    distinguishable_global,
    distinguishable_local,
)
from tempowl.errors import MissingColour, UnknownNode
from tempowl.gen import fixture, random_tg
from tempowl.iso import timewise_iso
from tempowl.kgraph import disjoint_union, k_glob, k_loc
from tempowl.tgraph import Snapshot, TemporalGraph, TimestampedNode as TN


def _retimed(tg, scale, offset):
    """tg with every timestamp t mapped to scale * t + offset."""
    times = tuple(scale * t + offset for t in tg.times)
    return TemporalGraph(tg.node_ids, times, tg.snapshots)


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


def _first_separating_layer(colouring, a, b):
    pa, pb = colouring.position(a), colouring.position(b)
    for layer, ids in enumerate(colouring.layers):
        if ids[pa] != ids[pb]:
            return layer
    return None


def _reference_layers(a, b, encode, bound=None):
    """First separating layer of every cross pair, from one refinement of
    the KnowledgeGraph union: the reference the array path is held to."""
    merged, origin = disjoint_union(encode(a), encode(b))
    colouring = rwl.refine(merged, bound)
    tagged = {node: name for name, node in origin.items()}
    return {
        (row, col): _first_separating_layer(colouring, tagged[0, row], tagged[1, col])
        for row in a.timestamped_nodes()
        for col in b.timestamped_nodes()
    }


def test_classify_all_matches_per_pair_oracle():
    for a, b in union_pairs():
        result = classify_all(a, b)
        assert set(result.counts) == {"both", "global_only", "local_only", "neither"}
        assert sum(result.counts.values()) == len(result.rows) * len(result.cols)
        assert list(result.classes) == list(product(result.rows, result.cols))
        glob, loc = _reference_layers(a, b, k_glob), _reference_layers(a, b, k_loc)
        assert result.global_layers == glob
        assert result.local_layers == loc
        for (row, col), cls in result.classes.items():
            expected = CLASS_OF[glob[row, col] is not None, loc[row, col] is not None]
            assert cls == expected
            assert classify_pair(a, row, b, col) == expected


def test_single_pair_queries_match_reference_at_every_bound():
    for a, b in union_pairs():
        for query, encode in (
            (distinguishable_global, k_glob),
            (distinguishable_local, k_loc),
        ):
            for bound in (None, 0, 1, 2):
                for (row, col), layer in _reference_layers(a, b, encode, bound).items():
                    verdict = query(a, row, b, col, bound)
                    assert (verdict.distinguishable, verdict.first_layer) == (
                        layer is not None,
                        layer,
                    )


def _oracle_pairs(seeds):
    """`union_pairs()`, plus seeded pairs with colour drift and uneven grids."""
    yield from union_pairs()
    for seed in range(seeds):
        draw = dict(
            snapshots=1 + seed % 4,
            edge_prob=(0.3, 0.5, 0.7)[seed % 3],
            palette=("green", "blue", "red")[: 1 + seed % 3],
            uniform_grid=seed % 4 == 0,
        )
        yield random_tg(seed, nodes=2 + seed % 4, **draw), random_tg(
            seed + 500, nodes=2 + (seed + 1) % 4, **draw
        )


def _oracle_layers(a, b, local, bound=None):
    """First separating layer of every cross pair by the temporal-WL oracle."""
    layers = temporal_wl_layers((a, b), local)
    return {
        (row, col): first_difference(layers, (0, *row), (1, *col), bound)
        for row in a.timestamped_nodes()
        for col in b.timestamped_nodes()
    }


def test_classify_all_matches_temporal_wl_oracle():
    for a, b in _oracle_pairs(60):
        result = classify_all(a, b)
        glob, loc = _oracle_layers(a, b, False), _oracle_layers(a, b, True)
        assert result.global_layers == glob
        assert result.local_layers == loc
        assert result.classes == {
            pair: CLASS_OF[glob[pair] is not None, loc[pair] is not None] for pair in glob
        }


def test_single_pair_queries_match_temporal_wl_oracle_at_small_bounds():
    for a, b in _oracle_pairs(24):
        for query, local in ((distinguishable_global, False), (distinguishable_local, True)):
            layers = temporal_wl_layers((a, b), local)
            pairs = list(product(a.timestamped_nodes(), b.timestamped_nodes()))
            for row, col in pairs[::11]:
                for bound in (0, 1, 2):
                    layer = first_difference(layers, (0, *row), (1, *col), bound)
                    verdict = query(a, row, b, col, bound)
                    assert (verdict.distinguishable, verdict.first_layer) == (
                        layer is not None,
                        layer,
                    )


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


def test_missing_snapshot_colour_is_a_typed_error():
    # built without validate: snapshot 1 gives no colour for b
    tg = TemporalGraph(
        ("a", "b"),
        (1, 2),
        (
            Snapshot({"a": "g", "b": "g"}, frozenset({("a", "b")})),
            Snapshot({"a": "g"}, frozenset()),
        ),
    )
    calls = (
        lambda: classify_all(tg, fixture("fig2")),
        lambda: classify_all(fixture("fig2"), tg),
        lambda: classify_pair(tg, TN("a", 0), tg, TN("b", 0)),
        lambda: k_glob(tg),
        lambda: k_loc(tg),
    )
    for call in calls:
        with pytest.raises(MissingColour, match="snapshot 1: no colour for node 'b'"):
            call()


def test_pair_tables_are_read_only_mappings():
    a, b = fixture("fig6_pair")
    result = classify_all(a, b)
    table = result.classes
    row, col = result.rows[1], result.cols[-1]
    assert (row, col) in table
    assert table[row, col] == table.flat[2 * len(result.cols) - 1]
    assert len(table) == len(result.rows) * len(result.cols) == len(table.values())
    assert list(table.values()) == list(table.flat)
    assert set(table.values()) <= set(CLASS_OF.values())
    # keys whose row is a node of graph b, unknown nodes, keys that are no pair
    for key in (
        (col, row),
        (TN("zz", 0), col),
        (row, TN(col.node, 99)),
        "ab",
        7,
        (row,),
        (row, col, col),
        ([], col),
    ):
        assert key not in table
        with pytest.raises(KeyError):
            table[key]
    with pytest.raises(TypeError):
        table[row, col] = "both"
    with pytest.raises(AttributeError):
        table.flat = ()
    plain = dict(table.items())
    assert table == plain and plain == table
    plain[row, col] = "both" if table[row, col] != "both" else "neither"
    assert table != plain and plain != table
    del plain[row, col]
    assert table != plain and plain != table
    assert table != list(table)
    assert classify_all(a, b) == result


def test_swapping_the_graphs_transposes_every_table():
    for a, b in _oracle_pairs(40):
        fwd, rev = classify_all(a, b), classify_all(b, a)
        assert (rev.rows, rev.cols) == (fwd.cols, fwd.rows)
        assert rev.counts == fwd.counts
        for name in ("classes", "global_layers", "local_layers"):
            table, swapped = getattr(fwd, name), getattr(rev, name)
            assert [swapped[col, row] for row, col in table] == list(table.values())


def test_affine_retiming_changes_no_table():
    # relation labels are time gaps, which t -> 3t - 7 maps injectively
    for a, b in _oracle_pairs(40):
        assert classify_all(_retimed(a, 3, -7), _retimed(b, 3, -7)) == classify_all(a, b)

"""Refinement engine: fixture regressions, oracle equivalence, invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import full_resign_rounds, naive_refinement_partitions, refines
from pairs import union_pairs
from tempowl import rwl
from tempowl.distinguish import distinguishable_global
from tempowl.errors import LayerNotComputed, UnknownNode, ValidationError
from tempowl.gen import fixture, random_tg
from tempowl.kgraph import KnowledgeGraph, disjoint_union, k_glob, k_loc, union_arrays
from tempowl.tgraph import Snapshot, TemporalGraph
from tempowl.tgraph import TimestampedNode as TN


def random_kg(seed: int, size: int) -> KnowledgeGraph:
    """Raw random knowledge graph, independent of the encoders."""
    rng = random.Random(seed)
    nodes = tuple(TN(f"n{i}", 0) for i in range(size))
    colours = {tn: rng.choice("xyz"[: rng.randint(1, 3)]) for tn in nodes}
    edges = set()
    for src in nodes:
        for tgt in nodes:
            for r in range(3):
                if rng.random() < 0.15:
                    edges.add((r, src, tgt))
    return KnowledgeGraph(nodes, frozenset({0, 1, 2}), frozenset(edges), colours)


def engine_partitions(colouring):
    return [
        {frozenset(group) for group in rwl.partition_at(colouring, layer)}
        for layer in range(len(colouring.layers))
    ]


def test_fig5_union_separates_at_layer_one():
    # (a,t2) has one incoming edge in the global encoding, (a',t2) has none
    a, b = fixture("fig5_pair")
    merged, _ = disjoint_union(k_glob(a), k_glob(b))
    colouring = rwl.refine(merged)
    lhs, rhs = TN("0:a", 1), TN("1:a'", 1)
    assert rwl.colours_at(colouring, 0, lhs) == rwl.colours_at(colouring, 0, rhs)
    assert rwl.colours_at(colouring, 1, lhs) != rwl.colours_at(colouring, 1, rhs)


def test_fig6_local_union_separates_at_layer_two():
    a, b = fixture("fig6_pair")
    merged, _ = disjoint_union(k_loc(a), k_loc(b))
    colouring = rwl.refine(merged)
    lhs, rhs = TN("0:a", 1), TN("1:a'", 1)
    assert rwl.colours_at(colouring, 1, lhs) == rwl.colours_at(colouring, 1, rhs)
    assert rwl.colours_at(colouring, 2, lhs) != rwl.colours_at(colouring, 2, rhs)


def test_edgeless_uniform_kg_is_stable_immediately():
    nodes = tuple(TN(f"n{i}", 0) for i in range(4))
    kg = KnowledgeGraph(nodes, frozenset(), frozenset(), {tn: "g" for tn in nodes})
    colouring = rwl.refine(kg)
    assert colouring.stable_at == 0
    assert rwl.partition_at(colouring, 0) == [sorted(nodes)]


def test_matches_naive_pairwise_oracle():
    kgs = [random_kg(seed, 4 + seed % 9) for seed in range(25)]
    kgs += [k_glob(fixture("fig2")), k_loc(fixture("fig2"))]
    for seed in range(10):
        tg = random_tg(seed, nodes=3, snapshots=3, edge_prob=0.5,
                       palette=("green", "blue"), colour_persistent=seed % 2 == 0)
        kgs += [k_glob(tg), k_loc(tg)]
    for kg in kgs:
        expected = naive_refinement_partitions(kg)
        got = engine_partitions(rwl.refine(kg))
        assert got == expected


def test_partitions_refine_monotonically():
    for seed in range(40):
        kg = random_kg(seed, 3 + seed % 8)
        parts = engine_partitions(rwl.refine(kg))
        for finer, coarser in zip(parts[1:], parts):
            assert refines(finer, coarser)


def test_stabilisation_bound():
    for seed in range(40):
        kg = random_kg(seed, 3 + seed % 8)
        colouring = rwl.refine(kg)
        assert colouring.stable_at is not None
        assert colouring.stable_at <= len(kg.nodes)


def test_kernel_layer_contract():
    kgs = [k(fixture(name)) for name in ("fig2", "fig3") for k in (k_glob, k_loc)]
    kgs += [random_kg(seed, 3 + seed % 10) for seed in range(30)]
    for kg in kgs:
        for bound in (None, 0, 1, 2):
            colouring = rwl.refine(kg, bound)
            for layer in colouring.layers:
                # dense ids, handed out in first-encounter order over the sweep
                top = -1
                for cid in layer:
                    assert cid <= top + 1
                    top = max(top, cid)
            for coarser, finer in zip(colouring.layers, colouring.layers[1:]):
                # each stored layer strictly refines the one before it
                parent = dict(zip(finer, coarser))
                assert all(parent[f] == c for f, c in zip(finer, coarser))
                assert len(parent) > len(set(coarser))
            if colouring.stable_at is not None:
                assert colouring.stable_at == len(colouring.layers) - 1


def mirror_path(n: int, later: int) -> TemporalGraph:
    """One-colour path on n nodes plus `later` snapshots, each keeping every
    third edge together with its mirror image."""
    ids = tuple(f"p{i:02d}" for i in range(n))
    path = [(ids[i], ids[i + 1]) for i in range(n - 1)]
    colours = {v: "c" for v in ids}
    snaps = [Snapshot(colours, path)]
    for k in range(later):
        kept = set()
        for i in range(k, (n - 1) // 2, 3):
            kept.update((path[i], path[n - 2 - i]))
        snaps.append(Snapshot(colours, kept))
    return TemporalGraph(ids, tuple(range(1, later + 2)), tuple(snaps))


def kernel_cases():
    """(indptr, srcs, rels, init) kernel inputs: raw random knowledge graphs,
    both encodings of every union pair, and mirror paths, which refine for
    about n/4 rounds with few nodes touched in each."""
    for seed in range(40):
        _, *arrays = rwl.kernel_inputs(random_kg(seed, 2 + seed % 12))
        yield arrays
    for tg1, tg2 in union_pairs():
        for encoding in ("glob", "loc"):
            _, *arrays = union_arrays((tg1, tg2), encoding)
            yield arrays
    for n in (2, 3, 7, 12, 17):
        for later in (0, 1, 2):
            for encode in (k_glob, k_loc):
                _, *arrays = rwl.kernel_inputs(encode(mirror_path(n, later)))
                yield arrays


def assert_matches_full_resign(indptr, srcs, rels, init, bound):
    n = len(init)
    expected = full_resign_rounds(n, indptr, srcs, rels, init, bound)
    assert rwl._refine_rounds(n, indptr, srcs, rels, init, bound) == expected


def test_incremental_kernel_matches_full_resign():
    deep = 0
    for indptr, srcs, rels, init in kernel_cases():
        n = len(init)
        for bound in sorted({0, 1, 2, 3, max(1, n)}):
            assert_matches_full_resign(indptr, srcs, rels, init, bound)
        deep += len(rwl._refine_rounds(n, indptr, srcs, rels, init, n)[0]) > 4
    assert deep >= 10  # enough cases run past the rounds that re-sign most nodes


@st.composite
def csr_inputs(draw):
    """Random CSR kernel inputs; `init` uses arbitrary, unordered colour ids."""
    n = draw(st.integers(0, 10))
    indptr, srcs, rels = [0], [], []
    in_edges = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2)), max_size=4)
    for _ in range(n):
        for src, rel in draw(in_edges):
            srcs.append(src)
            rels.append(rel)
        indptr.append(len(srcs))
    init = draw(st.lists(st.sampled_from((9, 4, 0, 7)), min_size=n, max_size=n))
    bound = draw(st.integers(0, n + 1))
    return indptr, srcs, rels, init, bound


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(csr_inputs())
# colours 1 and 0 are not in first-encounter order: an edgeless graph stores
# the renumbered layer 1 and stabilises there, a 3-cycle splits
@example(([0, 0, 0, 0], [], [], [1, 0, 1], 3))
@example(([0, 1, 2, 3], [1, 2, 0], [0, 0, 0], [1, 0, 1], 3))
def test_incremental_kernel_matches_full_resign_on_random_csr(inputs):
    assert_matches_full_resign(*inputs)


def test_negative_layer_bound_is_rejected():
    tg = fixture("fig2")
    with pytest.raises(ValidationError):
        rwl.refine(k_glob(tg), -1)
    with pytest.raises(ValidationError):
        distinguishable_global(tg, TN("a", 0), tg, TN("b", 0), max_layers=-3)
    zero = rwl.refine(k_glob(tg), 0)
    assert (len(zero.layers), zero.stable_at) == (1, None)


def test_refine_is_deterministic():
    kg = k_glob(fixture("fig2"))
    first, second = rwl.refine(kg), rwl.refine(kg)
    assert first.layers == second.layers
    assert first.stable_at == second.stable_at
    assert first.nodes == second.nodes


def test_isomorphism_invariance_under_node_renaming():
    for seed in range(15):
        kg = random_kg(seed, 6)
        rng = random.Random(seed + 1000)
        targets = [tn.node for tn in kg.nodes]
        rng.shuffle(targets)
        sigma = {tn: TN(new, tn.time_index) for tn, new in zip(kg.nodes, targets)}
        permuted = KnowledgeGraph(
            tuple(sigma[tn] for tn in kg.nodes),
            kg.relations,
            frozenset((r, sigma[s], sigma[t]) for r, s, t in kg.edges),
            {sigma[tn]: kg.colours[tn] for tn in kg.nodes},
        )
        original = rwl.refine(kg)
        renamed = rwl.refine(permuted)
        assert len(original.layers) == len(renamed.layers)
        for layer in range(len(original.layers)):
            expected = {
                frozenset(sigma[tn] for tn in group)
                for group in rwl.partition_at(original, layer)
            }
            got = {
                frozenset(group) for group in rwl.partition_at(renamed, layer)
            }
            assert got == expected


def test_colours_at_layer_rules():
    kg = k_glob(fixture("fig2"))
    colouring = rwl.refine(kg)
    stable = colouring.stable_at
    node = TN("b", 3)
    assert rwl.colours_at(colouring, stable + 5, node) == rwl.colours_at(
        colouring, stable, node
    )
    bounded = rwl.refine(kg, max_layers=1)
    if bounded.stable_at is None:
        with pytest.raises(LayerNotComputed):
            rwl.colours_at(bounded, 3, node)
    with pytest.raises(UnknownNode):
        rwl.colours_at(colouring, 0, TN("z", 0))


def test_layer_zero_partition_matches_initial_colours():
    colouring = rwl.refine(k_glob(fixture("fig2")))
    blues = frozenset({TN("a", 0), TN("a", 3)})
    reds = frozenset({TN("c", 0), TN("c", 1)})
    classes = {frozenset(group) for group in rwl.partition_at(colouring, 0)}
    assert blues in classes
    assert reds in classes
    assert len(classes) == 3


def test_partition_at_orders_by_smallest_member():
    colouring = rwl.refine(k_glob(fixture("fig3")))
    groups = rwl.partition_at(colouring, 0)
    assert groups == sorted(groups, key=lambda g: g[0])
    assert all(group == sorted(group) for group in groups)


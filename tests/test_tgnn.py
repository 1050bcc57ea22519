"""Forward simulator: exactness, determinism, refinement correspondence."""

from __future__ import annotations

import pytest

from test_architecture import imported_modules
from tempowl import rwl, tgnn
from tempowl.errors import ConfigMismatch, LayerNotComputed, UnknownNode
from tempowl.gen import fixture, random_tg
from tempowl.kgraph import k_glob, k_loc, temporal_neighbourhood
from tempowl.tgnn import (
    EmbeddingState,
    ModelConfig,
    classes_at,
    embedding_equal,
    forward,
)
from tempowl.tgraph import Snapshot, TemporalGraph, TimestampedNode as TN


def _hash_matches_refinement(tg, mode, encode):
    colouring = rwl.refine(encode(tg))
    depth = len(colouring.layers) - 1
    cfg = ModelConfig(mode, layers=depth, width=1, variant="hash_injective")
    state = forward(tg, cfg)
    for layer in range(depth + 1):
        expected = {
            frozenset(group) for group in rwl.partition_at(colouring, layer)
        }
        got = {frozenset(group) for group in classes_at(state, layer)}
        assert got == expected, (mode, layer)


def test_hash_injective_equality_classes_realise_refinement():
    graphs = [fixture("fig2"), fixture("fig3"), *fixture("fig5_pair"), *fixture("fig6_pair")]
    for seed in range(10):
        graphs.append(
            random_tg(
                seed,
                nodes=2 + seed % 4,
                snapshots=1 + seed % 4,
                edge_prob=0.5,
                palette=("g", "b")[: 1 + seed % 2],
                colour_persistent=seed % 2 == 0,
                uniform_grid=seed % 3 != 0,
            )
        )
    for tg in graphs:
        _hash_matches_refinement(tg, "global", k_glob)
        _hash_matches_refinement(tg, "local", k_loc)


def test_edgeless_nodes_evolve_independently():
    # with no neighbours the update is sign(W h - b): adding bystander nodes
    # must leave a node's trajectory untouched
    lone = TemporalGraph(("v",), (1, 2), (Snapshot({"v": "g"}, set()),) * 2)
    crowd = TemporalGraph(
        ("v", "w", "x"),
        (1, 2),
        (Snapshot({"v": "g", "w": "b", "x": "g"}, set()),) * 2,
    )
    for mode in ("global", "local"):
        cfg = ModelConfig(mode, layers=3, width=4, seed=5)
        alone = forward(lone, cfg)
        crowded = forward(crowd, cfg)
        for layer in range(4):
            for i in range(2):
                assert alone.value(TN("v", i), layer) == crowded.value(
                    TN("v", i), layer
                )


def test_fig5_some_seed_separates_at_layer_one():
    # a concrete random-weight model distinguishing the pointwise-isomorphic
    # pair in each mode, found within 50 seeds
    a, b = fixture("fig5_pair")
    lhs, rhs = TN("a", 1), TN("a'", 1)
    for mode in ("global", "local"):
        hits = 0
        for seed in range(50):
            cfg = ModelConfig(mode, layers=1, width=8, seed=seed)
            if not embedding_equal(forward(a, cfg), lhs, rhs, 1, forward(b, cfg)):
                hits += 1
        assert hits > 0, mode


def test_fig6_no_global_model_separates():
    a, b = fixture("fig6_pair")
    lhs, rhs = TN("a", 1), TN("a'", 1)
    for seed in range(50):
        for variant in ("sum_sign", "concat_sum_relu"):
            cfg = ModelConfig("global", layers=3, width=4, variant=variant, seed=seed)
            sa, sb = forward(a, cfg), forward(b, cfg)
            for layer in range(4):
                assert embedding_equal(sa, lhs, rhs, layer, sb), (seed, variant, layer)


def test_refinement_equal_nodes_get_equal_embeddings():
    for seed in range(10):
        tg = random_tg(
            seed, nodes=4, snapshots=3, edge_prob=0.5,
            palette=("g", "b"), colour_persistent=seed % 2 == 0,
        )
        for mode, encode in (("global", k_glob), ("local", k_loc)):
            colouring = rwl.refine(encode(tg))
            for sim_seed in range(3):
                for variant in ("sum_sign", "concat_sum_relu"):
                    cfg = ModelConfig(mode, layers=3, width=4, variant=variant, seed=sim_seed)
                    state = forward(tg, cfg)
                    for layer in range(4):
                        for group in rwl.partition_at(
                            colouring, min(layer, len(colouring.layers) - 1)
                        ):
                            ref = state.value(group[0], layer)
                            for tn in group[1:]:
                                assert state.value(tn, layer) == ref


def test_forward_is_deterministic():
    tg = fixture("fig2")
    cfg = ModelConfig("local", layers=2, width=6, seed=13)
    assert forward(tg, cfg).layers == forward(tg, cfg).layers


def test_embedding_values_are_integer_vectors():
    state = forward(fixture("fig3"), ModelConfig("global", layers=2, width=5, seed=1))
    vec = state.value(TN("b", 2), 2)
    assert len(vec) == 5
    assert all(isinstance(x, int) for x in vec)


def test_embedding_equal_reflexive_and_errors():
    state = forward(fixture("fig3"), ModelConfig("local", layers=1, width=4))
    assert embedding_equal(state, TN("a", 0), TN("a", 0), 1)
    with pytest.raises(LayerNotComputed):
        state.value(TN("a", 0), 2)
    with pytest.raises(UnknownNode):
        state.value(TN("z", 0), 0)


def test_config_validation():
    with pytest.raises(ConfigMismatch):
        ModelConfig("sideways", layers=1)
    with pytest.raises(ConfigMismatch):
        ModelConfig("global", layers=1, variant="nope")
    with pytest.raises(ConfigMismatch):
        ModelConfig("global", layers=-1)
    with pytest.raises(ConfigMismatch):
        ModelConfig("global", layers=1, width=0)


def test_state_carries_config_and_nodes():
    tg = fixture("fig3")
    cfg = ModelConfig("global", layers=1, width=2, seed=3)
    state = forward(tg, cfg)
    assert isinstance(state, EmbeddingState)
    assert state.config == cfg
    assert set(state.nodes) == set(tg.timestamped_nodes())


def test_simulator_shares_no_code_with_the_encoders():
    # forward is the cross-check of refinement, so it may not reuse its code
    banned = {"tempowl.kgraph", "tempowl.rwl", "tempowl.distinguish"}
    imported = imported_modules(tgnn.__file__)
    assert not imported & banned, imported & banned


def test_neighbourhoods_match_the_encoder_module():
    graphs = [fixture(name) for name in ("fig2", "fig3")]
    graphs += [*fixture("fig5_pair"), *fixture("fig6_pair")]
    for seed in range(12):
        tg = random_tg(
            seed,
            nodes=1 + seed % 6,
            snapshots=1 + seed % 4,
            edge_prob=(0.0, 0.3, 0.7)[seed % 3],
            uniform_grid=seed % 2 == 0,
        )
        graphs.append(tg)
    for tg in graphs:
        nbhds = tgnn._neighbourhoods(tg)
        tnodes = tg.timestamped_nodes()
        assert len(nbhds) == len(tnodes)
        for tn, nbhd in zip(tnodes, nbhds):
            got = [TN(tg.node_ids[u], i) for u, i in nbhd]
            assert len(got) == len(set(got))
            assert set(got) == temporal_neighbourhood(tg, tn.node, tn.time_index)

"""Fixture exactness and generator determinism/statistics."""

from __future__ import annotations

import math

import pytest

from tempowl.errors import UnknownFixture
from tempowl.gen import (
    Xorshift64Star,
    derive_seed,
    fixture,
    permuted_copy,
    random_tg,
)
from tempowl.iso import verify_timewise
from tempowl.tgraph import is_colour_persistent, validate


def test_fixture_fig2_shape():
    tg = fixture("fig2")
    validate(tg)
    assert not is_colour_persistent(tg)
    assert tg.times == (1, 2, 3, 4)
    assert tg.snapshots[0].colours == {"a": "blue", "b": "green", "c": "red"}
    assert tg.snapshots[3].edges == {("a", "c"), ("b", "c")}


def test_fixture_fig3_is_persistent_twin_of_fig2():
    fig2, fig3 = fixture("fig2"), fixture("fig3")
    validate(fig3)
    assert is_colour_persistent(fig3)
    assert [s.edges for s in fig3.snapshots] == [s.edges for s in fig2.snapshots]


def test_fixture_pairs_validate():
    for name in ("fig5_pair", "fig6_pair"):
        a, b = fixture(name)
        validate(a)
        validate(b)
        assert is_colour_persistent(a) and is_colour_persistent(b)


def test_fixture_fig5_edges():
    a, b = fixture("fig5_pair")
    assert a.snapshots[0].edges == {("a", "b")} and not a.snapshots[1].edges
    assert b.snapshots[0].edges == {("b'", "c'")} and not b.snapshots[1].edges


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        fixture("fig99")


def test_prng_reference_values():
    # frozen outputs of the documented xorshift64* constants; a change here
    # silently invalidates every seeded suite
    rng = Xorshift64Star(1)
    assert [rng.next_u64() for _ in range(3)] == [
        1164970750538294679,
        2646037555109054538,
        13079745358478519759,
    ]


def test_prng_bounds_and_extremes():
    rng = Xorshift64Star(7)
    assert all(0 <= rng.below(10) < 10 for _ in range(200))
    assert all(3 <= rng.randint(3, 5) <= 5 for _ in range(200))
    assert not any(rng.chance(0.0) for _ in range(50))
    assert all(rng.chance(1.0) for _ in range(50))
    with pytest.raises(ValueError):
        rng.below(0)


def _reference_randint(rng, lo, hi):
    # rejection sampling on `next_u64`, step by step
    n = hi - lo + 1
    limit = (1 << 64) - ((1 << 64) % n)
    while True:
        u = rng.next_u64()
        if u < limit:
            return lo + u % n


def test_randints_is_rejection_sampling_on_next_u64():
    # (-3, 3) is the simulator's weight range; a span of 2**63 + 1 values
    # rejects about half of the raw draws
    for lo, hi in ((-3, 3), (0, 0), (0, 2**63)):
        for seed in range(51):
            batched, ref = Xorshift64Star(seed), Xorshift64Star(seed)
            for count in (0, 1, 9):
                assert batched.randints(lo, hi, count) == [
                    _reference_randint(ref, lo, hi) for _ in range(count)
                ]
                assert batched.next_u64() == ref.next_u64()
            assert batched.randint(lo, hi) == _reference_randint(ref, lo, hi)
            assert batched.below(hi - lo + 1) == _reference_randint(ref, 0, hi - lo)
            assert batched.next_u64() == ref.next_u64()
    with pytest.raises(ValueError):
        Xorshift64Star(0).randints(1, 0, 3)


def test_random_tg_rejects_an_empty_palette():
    with pytest.raises(ValueError, match="palette must not be empty"):
        random_tg(1, 3, 2, 0.5, palette=())


def test_derive_seed_is_stable_and_tag_sensitive():
    assert derive_seed(1, "x") == derive_seed(1, "x")
    assert derive_seed(1, "x") != derive_seed(1, "y")
    assert derive_seed(1, "x", 0) != derive_seed(2, "x", 0)


def test_random_tg_deterministic_in_seed():
    kwargs = dict(nodes=6, snapshots=4, edge_prob=0.5, palette=("g", "b"))
    assert random_tg(11, **kwargs) == random_tg(11, **kwargs)
    assert random_tg(11, **kwargs) != random_tg(12, **kwargs)


def test_random_tg_edge_prob_extremes():
    edgeless = random_tg(3, nodes=5, snapshots=3, edge_prob=0.0)
    assert all(not s.edges for s in edgeless.snapshots)
    complete = random_tg(3, nodes=5, snapshots=3, edge_prob=1.0)
    assert all(len(s.edges) == 10 for s in complete.snapshots)


def test_random_tg_grids():
    uniform = random_tg(5, nodes=3, snapshots=4, edge_prob=0.5, uniform_grid=True)
    assert uniform.times == (1, 2, 3, 4)
    ragged = random_tg(5, nodes=3, snapshots=4, edge_prob=0.5, uniform_grid=False)
    assert all(a < b for a, b in zip(ragged.times, ragged.times[1:]))


def test_random_tg_persistence_flag():
    tg = random_tg(
        9, nodes=5, snapshots=4, edge_prob=0.3,
        palette=("g", "b", "r"), colour_persistent=True,
    )
    assert is_colour_persistent(tg)


def test_validate_accepts_every_generator_output():
    for seed in range(40):
        tg = random_tg(
            seed,
            nodes=1 + seed % 7,
            snapshots=1 + seed % 5,
            edge_prob=(seed % 10) / 10,
            palette=("g", "b", "r")[: 1 + seed % 3],
            colour_persistent=seed % 2 == 0,
            uniform_grid=seed % 3 != 0,
        )
        validate(tg)


def test_edge_count_within_binomial_bounds():
    nodes, snapshots, p = 8, 4, 0.3
    draws_per_seed = math.comb(nodes, 2) * snapshots
    total = sum(
        sum(len(s.edges) for s in random_tg(seed, nodes, snapshots, p).snapshots)
        for seed in range(10)
    )
    n_draws = 10 * draws_per_seed
    mean = n_draws * p
    sigma = math.sqrt(n_draws * p * (1 - p))
    assert abs(total - mean) <= 5 * sigma


def test_permuted_copy_is_timewise_isomorphic_by_construction():
    for seed in range(10):
        tg = random_tg(
            seed, nodes=5, snapshots=3, edge_prob=0.5,
            palette=("g", "b"), colour_persistent=seed % 2 == 0,
        )
        copy, perm = permuted_copy(tg, seed + 100)
        validate(copy)
        assert sorted(copy.node_ids) == sorted(tg.node_ids)
        assert verify_timewise(tg, copy, perm)


def test_permuted_copy_identity_on_single_node():
    tg = random_tg(2, nodes=1, snapshots=2, edge_prob=0.0)
    copy, perm = permuted_copy(tg, 5)
    assert copy == tg
    assert perm == {"v0": "v0"}

"""Deterministic figure fixtures and seeded random generators.

Randomness comes from a self-contained xorshift64* stream (shifts 12/25/27,
multiplier 2685821657736338717, golden-ratio seed pad 0x9E3779B97F4A7C15) so
every generator is a pure function of its integer seed and reproducible
across platforms and languages. Derived seeds for sub-experiments come from
`derive_seed`, which hashes the base seed with a textual tag.
"""

from __future__ import annotations

import hashlib

from tempowl.errors import UnknownFixture
from tempowl.tgraph import Snapshot, TemporalGraph

_MASK64 = (1 << 64) - 1
_XS_MULTIPLIER = 2685821657736338717
_SEED_PAD = 0x9E3779B97F4A7C15


class Xorshift64Star:
    """Minimal 64-bit xorshift* generator with documented constants."""

    def __init__(self, seed: int) -> None:
        state = (int(seed) ^ _SEED_PAD) & _MASK64
        self._state = state if state else _SEED_PAD

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _XS_MULTIPLIER) & _MASK64

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection to avoid modulo bias."""
        return self.randints(0, n - 1, 1)[0]

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        return self.randints(lo, hi, 1)[0]

    def randints(self, lo: int, hi: int, count: int) -> list[int]:
        """`count` uniform integers in [lo, hi], by rejection to avoid modulo bias.

        The steps of `next_u64` run inline on a local copy of the state.
        """
        n = hi - lo + 1
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        x, out = self._state, []
        while len(out) < count:
            x ^= x >> 12
            x ^= (x << 25) & _MASK64
            x ^= x >> 27
            u = (x * _XS_MULTIPLIER) & _MASK64
            if u < limit:
                out.append(lo + u % n)
        self._state = x
        return out

    def chance(self, p: float) -> bool:
        return self.next_u64() < int(p * 2.0**64)

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def derive_seed(base: int, *tags) -> int:
    """Stable 64-bit sub-seed for (base, tags); independent streams per tag."""
    text = repr((int(base),) + tags).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


# --- Fixtures -----------------------------------------------------------------

def _tg(nodes, times, snaps) -> TemporalGraph:
    return TemporalGraph(
        tuple(nodes),
        tuple(times),
        tuple(Snapshot(colours, edges) for colours, edges in snaps),
    )


def fixture(name: str):
    """The named worked example: a graph, or a pair for the *_pair names.

    fig2 changes node colours over time; fig3 is its colour-persistent
    sibling with the same edges. fig5_pair and fig6_pair are the two-snapshot
    all-green counterexample pairs.
    """
    if name == "fig2":
        return _tg(
            ("a", "b", "c"),
            (1, 2, 3, 4),
            [
                ({"a": "blue", "b": "green", "c": "red"}, set()),
                ({"a": "green", "b": "green", "c": "red"}, {("a", "b")}),
                ({"a": "green", "b": "green", "c": "green"}, {("b", "c")}),
                ({"a": "blue", "b": "green", "c": "green"}, {("a", "c"), ("b", "c")}),
            ],
        )
    if name == "fig3":
        persistent = {"a": "blue", "b": "green", "c": "green"}
        return _tg(
            ("a", "b", "c"),
            (1, 2, 3, 4),
            [
                (persistent, set()),
                (persistent, {("a", "b")}),
                (persistent, {("b", "c")}),
                (persistent, {("a", "c"), ("b", "c")}),
            ],
        )
    if name == "fig5_pair":
        green = {"a": "green", "b": "green", "c": "green"}
        green_p = {"a'": "green", "b'": "green", "c'": "green"}
        first = _tg(("a", "b", "c"), (1, 2), [(green, {("a", "b")}), (green, set())])
        second = _tg(
            ("a'", "b'", "c'"), (1, 2), [(green_p, {("b'", "c'")}), (green_p, set())]
        )
        return first, second
    if name == "fig6_pair":
        green = {"a": "green", "b": "green", "c": "green"}
        green_p = {"a'": "green", "b'": "green", "c'": "green"}
        first = _tg(
            ("a", "b", "c"), (1, 2), [(green, {("a", "b")}), (green, {("b", "c")})]
        )
        second = _tg(
            ("a'", "b'", "c'"), (1, 2), [(green_p, {("a'", "b'")}), (green_p, set())]
        )
        return first, second
    raise UnknownFixture(name)


FIXTURE_NAMES = ("fig2", "fig3", "fig5_pair", "fig6_pair")


# --- Random generators ----------------------------------------------------------

def random_tg(
    seed: int,
    nodes: int,
    snapshots: int,
    edge_prob: float,
    palette: tuple[str, ...] = ("green",),
    colour_persistent: bool = False,
    uniform_grid: bool = True,
) -> TemporalGraph:
    """Seeded random temporal graph with per-snapshot Erdos-Renyi edges.

    Times are 1..snapshots on a uniform grid, otherwise a random strictly
    increasing integer sequence (start in 1..5, gaps in 1..4).
    """
    if nodes < 1 or snapshots < 1:
        raise ValueError("need at least one node and one snapshot")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must be within [0, 1]")
    if not palette:
        raise ValueError("palette must not be empty")
    rng = Xorshift64Star(seed)
    ids = tuple(f"v{i}" for i in range(nodes))
    if uniform_grid:
        times = tuple(range(1, snapshots + 1))
    else:
        ticks = [rng.randint(1, 5)]
        for _ in range(snapshots - 1):
            ticks.append(ticks[-1] + rng.randint(1, 4))
        times = tuple(ticks)
    persistent = (
        {v: rng.choice(palette) for v in ids} if colour_persistent else None
    )
    snaps = []
    for _ in range(snapshots):
        colours = (
            dict(persistent)
            if persistent is not None
            else {v: rng.choice(palette) for v in ids}
        )
        edges = {
            (ids[i], ids[j])
            for i in range(nodes)
            for j in range(i + 1, nodes)
            if rng.chance(edge_prob)
        }
        snaps.append(Snapshot(colours, edges))
    return TemporalGraph(ids, times, tuple(snaps))


def permuted_copy(tg: TemporalGraph, seed: int) -> tuple[TemporalGraph, dict[str, str]]:
    """Rename nodes by one random bijection applied uniformly to all snapshots.

    The copy is timewise isomorphic to the input by construction; the second
    return value is the renaming old -> new.
    """
    rng = Xorshift64Star(seed)
    names = list(tg.node_ids)
    targets = list(names)
    rng.shuffle(targets)
    perm = dict(zip(names, targets))
    snaps = tuple(
        Snapshot(
            {perm[v]: snap.colours[v] for v in names},
            {(perm[u], perm[w]) for u, w in snap.edges},
        )
        for snap in tg.snapshots
    )
    return TemporalGraph(tuple(perm[v] for v in tg.node_ids), tg.times, snaps), perm

"""The three seeded workloads: instance generators, the op, checks and digests.

Each workload turns a seed into one input document (see loader.py) plus the
data its checks need, and turns the loaded inputs into a fixed list of ops
that the run cycles through. Every op returns its full output; `check`
tests invariants that hold whatever the engine does internally, and `digest`
hashes the whole output so that any change in colour ids, `stable_at`, pair
classes or first separating layers shows.

Ops call the engine through module attributes (`distinguish.classify_all`,
not a local name), so the traced run sees the re-bound entry points.

Instance sizes are fixed grids that cover the ranges each workload names,
one grid point per instance; the seed draws the graphs' contents. Drawing
the sizes from the seed as well would make the cost of a run depend mostly
on which sizes were drawn, and the spread between seeds would hide changes
in the engine.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import product
from typing import Callable

from tempowl import distinguish, gen, kgraph, properties, rwl, tgraph
from tempowl.tgraph import Snapshot, TemporalGraph, TimestampedNode

DEFAULT_SEED = 0
PAIR_CODES = {"both": "b", "global_only": "g", "local_only": "l", "neither": "n"}

# Instance grids list the strata in bit-reversed order, so that every prefix
# of a cycle (a run may stop part-way through one) spreads over the ranges.

# (nodes, snapshots, edge probability): a Latin hypercube over 30-50 nodes,
# 6-10 snapshots and p in 0.05-0.15, one stratum of each per instance. The
# strata are paired so that every instance costs about the same (~1 s; a
# lone 50x10 graph at p=0.15 would take 4 s), so a run that stops part-way
# through a cycle measures the same mix as one that does not.
CLASSIFY_GRID = (
    (31, 10, 0.097),
    (41, 8, 0.078),
    (36, 8, 0.141),
    (46, 7, 0.084),
    (33, 9, 0.128),
    (43, 7, 0.122),
    (38, 8, 0.116),
    (48, 6, 0.134),
    (32, 10, 0.091),
    (42, 8, 0.066),
    (37, 9, 0.072),
    (47, 6, 0.147),
    (34, 9, 0.103),
    (44, 7, 0.109),
    (39, 9, 0.053),
    (49, 7, 0.059),
)

# (path nodes, later snapshots): 150-400 nodes in sixteen strata with 1-3
# later snapshots. Costs span about 4x whatever the pairing; this one makes
# them rise in steps of under 15%, so op_tail_s does not jump between a few
# cost levels from run to run.
REFINE_GRID = (
    (158, 3),
    (283, 1),
    (220, 3),
    (345, 2),
    (189, 2),
    (314, 1),
    (252, 3),
    (377, 1),
    (173, 3),
    (298, 1),
    (236, 3),
    (361, 2),
    (205, 2),
    (330, 2),
    (267, 1),
    (392, 1),
)

FUZZ_CHECKS = ("theorem6", "theorem9", "lemma1", "soundness")
# More trials than a run reaches, so a run measures distinct trials; the
# spread between seeds shrinks with the number of trials a run covers.
FUZZ_TRIALS = 1024


@dataclass(frozen=True)
class Op:
    run: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], str]


def digest(*parts: str) -> str:
    """Order-sensitive hash of text parts, independent of hash seeds and platform."""
    h = hashlib.sha256()
    for part in parts:
        data = part.encode()
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()[:16]


def _document(graphs: list[TemporalGraph], trials: list) -> str:
    return json.dumps({"graphs": [tgraph.to_json(g) for g in graphs], "trials": trials})


# --- classify_twins ---------------------------------------------------------------


def twin_pair(seed: int, index: int) -> tuple[TemporalGraph, TemporalGraph, dict[str, str]]:
    """Instance `index`: G, G' = shifted_copy(permuted_copy(G)) and the renaming."""
    nodes, snapshots, edge_prob = CLASSIFY_GRID[index]
    rng = random.Random(f"classify_twins/{seed}/{index}")
    g = gen.random_tg(
        rng.getrandbits(63),
        nodes,
        snapshots,
        edge_prob,
        palette=("green", "blue"),
        colour_persistent=index % 2 == 0,
    )
    twin, perm = gen.permuted_copy(g, rng.getrandbits(63))
    return g, tgraph.shifted_copy(twin, rng.randint(1, 7)), perm


def classify_digest(result) -> str:
    keys = list(product(result.rows, result.cols))
    return digest(
        repr((result.rows, result.cols)),
        "".join(map(PAIR_CODES.__getitem__, map(result.classes.__getitem__, keys))),
        repr(list(map(result.global_layers.__getitem__, keys))),
        repr(list(map(result.local_layers.__getitem__, keys))),
        repr(sorted(result.counts.items())),
    )


def classify_check(perm: dict[str, str]) -> Callable[[object], str | None]:
    def check(result) -> str | None:
        total = sum(result.counts.values())
        if total != len(result.rows) * len(result.cols):
            return f"class counts sum to {total}, not |rows|*|cols|"
        for a in result.rows:
            b = TimestampedNode(perm[a.node], a.time_index)
            if result.classes[(a, b)] != "neither":
                return f"renamed pair {a}/{b} classified {result.classes[(a, b)]}"
        return None

    return check


class ClassifyTwins:
    name = "classify_twins"

    def generate(self, seed: int) -> tuple[str, list]:
        pairs = [twin_pair(seed, i) for i in range(len(CLASSIFY_GRID))]
        graphs = [graph for g, twin, _ in pairs for graph in (g, twin)]
        return _document(graphs, []), [perm for _, _, perm in pairs]

    def ops(self, graphs: list, trials: list, perms: list) -> list[Op]:
        return [
            Op(
                lambda g=graphs[2 * i], h=graphs[2 * i + 1]: distinguish.classify_all(g, h),
                classify_check(perm),
                classify_digest,
            )
            for i, perm in enumerate(perms)
        ]


# --- refine_deep ------------------------------------------------------------------


def mirror_path(seed: int, index: int) -> TemporalGraph:
    """Single-colour path on n nodes, plus later snapshots that keep a seeded
    subset of its edges, always together with their mirror images."""
    n, later = REFINE_GRID[index]
    rng = random.Random(f"refine_deep/{seed}/{index}")
    ids = tuple(f"p{i:03d}" for i in range(n))
    path = [(ids[i], ids[i + 1]) for i in range(n - 1)]
    colours = {v: "c" for v in ids}
    snaps = [Snapshot(colours, path)]
    for _ in range(later):
        kept = set()
        for i in range(n // 2):  # edge i mirrors edge n-2-i
            if rng.random() < 0.5:
                kept.update((path[i], path[n - 2 - i]))
        snaps.append(Snapshot(colours, kept))
    return TemporalGraph(ids, tuple(range(1, later + 2)), tuple(snaps))


def colouring_digest(colouring) -> str:
    return digest(repr(colouring.nodes), repr(colouring.layers), repr(colouring.stable_at))


def mirror_check(n: int) -> Callable[[object], str | None]:
    def check(colouring) -> str | None:
        if colouring.stable_at is None or colouring.stable_at > len(colouring.nodes):
            return f"stable_at {colouring.stable_at} for {len(colouring.nodes)} nodes"
        stable = colouring.layers[-1]
        for tn in colouring.nodes:
            mirror = TimestampedNode(f"p{n - 1 - int(tn.node[1:]):03d}", tn.time_index)
            if stable[colouring.position(tn)] != stable[colouring.position(mirror)]:
                return f"mirror nodes {tn}/{mirror} have different stable colours"
        return None

    return check


class RefineDeep:
    name = "refine_deep"

    def generate(self, seed: int) -> tuple[str, list]:
        graphs = [mirror_path(seed, i) for i in range(len(REFINE_GRID))]
        return _document(graphs, []), [n for n, _ in REFINE_GRID]

    def ops(self, graphs: list, trials: list, sizes: list) -> list[Op]:
        ops = []
        for g, n in zip(graphs, sizes):
            ops.append(Op(lambda g=g: rwl.refine(kgraph.k_glob(g)), mirror_check(n), colouring_digest))
            ops.append(Op(lambda g=g: rwl.refine(kgraph.k_loc(g)), mirror_check(n), colouring_digest))
        return ops


# --- fuzz_rounds ------------------------------------------------------------------


def fuzz_round(seeds: list[int]) -> tuple:
    return tuple(
        getattr(properties, f"check_{name}")(s) for name, s in zip(FUZZ_CHECKS, seeds)
    )


def fuzz_check(results: tuple) -> str | None:
    for name, violation in zip(FUZZ_CHECKS, results):
        if violation is not None:
            return f"{name} violation: {violation}"
    return None


def fuzz_digest(results: tuple) -> str:
    return digest(repr(results))


class FuzzRounds:
    name = "fuzz_rounds"

    def generate(self, seed: int) -> tuple[str, list]:
        trials = [
            [gen.derive_seed(seed, name, i) for name in FUZZ_CHECKS]
            for i in range(FUZZ_TRIALS)
        ]
        return _document([], trials), []

    def ops(self, graphs: list, trials: list, meta: list) -> list[Op]:
        return [Op(lambda s=seeds: fuzz_round(s), fuzz_check, fuzz_digest) for seeds in trials]


WORKLOADS = {w.name: w for w in (ClassifyTwins(), RefineDeep(), FuzzRounds())}

"""Exact-arithmetic forward simulator for temporal message-passing models.

Computes an embedding for every (node, time point) pair, layer by layer. In
global mode a message from temporal neighbour (u, t') carries u's embedding
at t'; in local mode it carries u's embedding at the current time t. Either
way the time gap t - t' rides along with the message.

Everything is integer arithmetic on Python ints (activations are sign and
max(0, .)), so embedding equality is exact — no float summation-order
flakiness. Weights are drawn from streams keyed by (seed, role, ...), which
makes a run bit-identical for a given (graph, config) and, importantly,
makes the same seed denote the same model across different graphs: colour
embeddings are keyed by colour token and time coefficients by the raw time
gap, never by per-graph indices. Being pure, the parameters are drawn once
per (seed, width) through small bounded caches, so the two graphs of a
comparison and both modes share one draw.

`forward_many(tg, configs)` runs a batch of models on one graph. It builds
the graph's messages once per mode and returns each model's layers as flat
lists in `timestamped_nodes()` order; `forward` is a batch of one, keyed by
node. Temporal neighbourhoods are built here, from the snapshot edge lists,
in one sweep per graph. The simulator shares no code with the
knowledge-graph encoders or the refinement engine, so it stays an
independent cross-check of them.

Variants:
* sum_sign        — sign(W (h + sum of alpha-weighted messages) - b)
* concat_sum_relu — W2 [h || relu(W1 (sum of (message || gap) vectors))]
* hash_injective  — injective combine/aggregate via canonical interning; the
                    "embedding" is a dense id whose equality classes realise
                    the refinement partitions exactly. Ids are run-local:
                    compare classes, not raw ids, across separate runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from tempowl.errors import ConfigMismatch, LayerNotComputed, UnknownNode
from tempowl.gen import Xorshift64Star, derive_seed
from tempowl.tgraph import TemporalGraph, TimestampedNode

MODES = ("global", "local")
VARIANTS = ("sum_sign", "concat_sum_relu", "hash_injective")

WEIGHT_RANGE = (-3, 3)


@dataclass(frozen=True)
class ModelConfig:
    """Structural form plus the seed that fixes all integer parameters."""

    mode: str
    layers: int
    width: int = 8
    variant: str = "sum_sign"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigMismatch(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.variant not in VARIANTS:
            raise ConfigMismatch(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )
        if self.layers < 0:
            raise ConfigMismatch("layers must be non-negative")
        if self.width < 1:
            raise ConfigMismatch("width must be positive")


@dataclass(frozen=True)
class EmbeddingState:
    """Embeddings per layer: integer vectors, or dense ids for hash_injective."""

    config: ModelConfig
    nodes: tuple[TimestampedNode, ...]
    layers: tuple[dict, ...]
    _node_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_node_set", frozenset(self.nodes))

    def value(self, node: TimestampedNode, layer: int):
        if node not in self._node_set:
            raise UnknownNode(f"{node} has no embedding in this state")
        if not 0 <= layer < len(self.layers):
            raise LayerNotComputed(
                f"layer {layer} not computed (0..{len(self.layers) - 1})"
            )
        return self.layers[layer][node]


# --- Seeded integer parameters ---------------------------------------------------
#
# Parameters are pure functions of their arguments and are drawn through
# bounded caches: one draw serves every graph and both modes of a model. The
# bound covers the models of one fuzz trial (ten seeds, a few layers, gaps
# and colour tokens each), so when a trial runs the same batch on its second
# graph every draw is cached; and it keeps a long run from growing.

_CACHE_SIZE = 256


def _stream(seed: int, *tags) -> Xorshift64Star:
    return Xorshift64Star(derive_seed(seed, *tags))


def _entries(rng: Xorshift64Star, count: int) -> tuple[int, ...]:
    return tuple(rng.randints(*WEIGHT_RANGE, count))


def _matrix(seed: int, tag: str, layer: int, rows: int, cols: int):
    flat = _entries(_stream(seed, "W", tag, layer), rows * cols)
    return tuple(flat[r : r + cols] for r in range(0, rows * cols, cols))


@lru_cache(maxsize=_CACHE_SIZE)
def _weights(seed: int, variant: str, layer: int, width: int):
    """(W, b) of a sum_sign layer, or (W1, W2) of a concat_sum_relu layer."""
    if variant == "sum_sign":
        return (
            _matrix(seed, "sum", layer, width, width),
            _entries(_stream(seed, "b", layer), width),
        )
    return (
        _matrix(seed, "agg", layer, width, width + 1),
        _matrix(seed, "com", layer, width, 2 * width),
    )


@lru_cache(maxsize=_CACHE_SIZE)
def _alpha(seed: int, gap: int) -> int:
    return _entries(_stream(seed, "alpha", gap), 1)[0]


@lru_cache(maxsize=_CACHE_SIZE)
def _colour_vector(seed: int, token: str, width: int) -> tuple[int, ...]:
    return _entries(_stream(seed, "x", token), width)


# --- Temporal neighbourhoods ---------------------------------------------------------

def _neighbourhoods(tg: TemporalGraph) -> list[list[tuple[int, int]]]:
    """Temporal neighbourhood of every timestamped node, in `timestamped_nodes()`
    order, as (rank of u in `node_ids`, time index i) pairs in no set order.

    (u, i) neighbours (v, j) iff i <= j and {u, v} is an edge of snapshot i,
    so one sweep over the snapshots accumulates each node's set as j grows.
    """
    rank = {v: r for r, v in enumerate(tg.node_ids)}
    seen: list[set[tuple[int, int]]] = [set() for _ in rank]
    out = []
    for i, snap in enumerate(tg.snapshots):
        for a, b in snap.edges:
            ra, rb = rank[a], rank[b]
            seen[ra].add((rb, i))
            seen[rb].add((ra, i))
        out.extend(list(s) for s in seen)
    return out


class _Messages(NamedTuple):
    """One mode's messages, and what every model reads from them."""

    pairs: list[list[tuple[int, int]]]  # per node, (source position, time gap)
    sources: list[list[int]]
    gap_sums: list[int]
    gaps: frozenset[int]  # the distinct gaps


def _messages(
    tg: TemporalGraph, nbhds: list[list[tuple[int, int]]], local: bool
) -> _Messages:
    """Per timestamped node, one (source position, time gap) pair per message.

    Positions index `timestamped_nodes()`: neighbour (u, i) of (v, j) sends
    from (u, i) in global mode and from (u, j) in local mode.
    """
    n, times = len(tg.node_ids), tg.times
    pairs = [
        [((j if local else i) * n + u, times[j] - times[i]) for u, i in nbhds[p]]
        for j in range(len(times))
        for p in range(j * n, (j + 1) * n)
    ]
    return _Messages(
        pairs,
        [[src for src, _ in m] for m in pairs],
        [sum(gap for _, gap in m) for m in pairs],
        frozenset(gap for m in pairs for _, gap in m),
    )


# --- Forward pass ------------------------------------------------------------------

def forward_many(tg: TemporalGraph, configs) -> tuple[tuple[list, ...], ...]:
    """Layers 0..cfg.layers of each config, as flat lists in `timestamped_nodes()` order.

    Entry k of the result holds `configs[k]`'s layers. The graph's messages
    are built once per mode and shared by every config of that mode.
    """
    tokens = [snap.colours[v] for snap in tg.snapshots for v in tg.node_ids]
    nbhds = _neighbourhoods(tg)
    per_mode: dict[str, _Messages] = {}
    out = []
    for cfg in configs:
        if cfg.mode not in per_mode:
            per_mode[cfg.mode] = _messages(tg, nbhds, cfg.mode == "local")
        run = _FORWARD[cfg.variant]
        out.append(tuple(run(cfg, tokens, per_mode[cfg.mode])))
    return tuple(out)


def forward(tg: TemporalGraph, cfg: ModelConfig) -> EmbeddingState:
    """Embeddings for every timestamped node at layers 0..cfg.layers."""
    tnodes = tg.timestamped_nodes()
    (layers,) = forward_many(tg, (cfg,))
    return EmbeddingState(
        cfg, tuple(tnodes), tuple(dict(zip(tnodes, layer)) for layer in layers)
    )


# The layer loops below run over flat lists in `timestamped_nodes()` order.
# Integer sums do not depend on the order of the messages.

def _forward_sum_sign(cfg, tokens, msgs):
    seed, d = cfg.seed, cfg.width
    alpha = {gap: _alpha(seed, gap) for gap in msgs.gaps}
    # coefficient 1 for the node's own state, then one alpha per message
    coefs = [(1, *[alpha[gap] for _, gap in m]) for m in msgs.pairs]
    h = [_colour_vector(seed, token, d) for token in tokens]
    layers = [h]
    for layer in range(1, cfg.layers + 1):
        w, b = _weights(seed, cfg.variant, layer, d)
        prev, h = h, []
        for x, srcs, coef in zip(prev, msgs.sources, coefs):
            acc = [sum(map(mul, col, coef)) for col in zip(x, *[prev[s] for s in srcs])]
            y = [sum(map(mul, row, acc)) for row in w]
            h.append(tuple([(v > c) - (v < c) for v, c in zip(y, b)]))
        layers.append(h)
    return layers


def _forward_concat_sum_relu(cfg, tokens, msgs):
    seed, d = cfg.seed, cfg.width
    zero = (0,) * d
    h = [_colour_vector(seed, token, d) for token in tokens]
    layers = [h]
    for layer in range(1, cfg.layers + 1):
        w1, w2 = _weights(seed, cfg.variant, layer, d)
        prev, h = h, []
        for x, srcs, gap_sum in zip(prev, msgs.sources, msgs.gap_sums):
            acc = [*map(sum, zip(zero, *[prev[s] for s in srcs])), gap_sum]
            y = [sum(map(mul, row, acc)) for row in w1]
            both = (*x, *[v if v > 0 else 0 for v in y])
            h.append(tuple([sum(map(mul, row, both)) for row in w2]))
        layers.append(h)
    return layers


def _forward_hash(cfg, tokens, msgs):
    intern: dict = {}
    h = [intern.setdefault(("colour", token), len(intern)) for token in tokens]
    layers = [h]
    for _ in range(cfg.layers):
        prev = h
        # the intern key is canonical: the sorted tuple of (id, gap) messages
        h = [
            intern.setdefault(
                ("combine", x, tuple(sorted([(prev[s], gap) for s, gap in m]))),
                len(intern),
            )
            for x, m in zip(prev, msgs.pairs)
        ]
        layers.append(h)
    return layers


_FORWARD = {
    "sum_sign": _forward_sum_sign,
    "concat_sum_relu": _forward_concat_sum_relu,
    "hash_injective": _forward_hash,
}


# --- Queries -------------------------------------------------------------------

def embedding_equal(
    state: EmbeddingState,
    node1: TimestampedNode,
    node2: TimestampedNode,
    layer: int,
    state2: EmbeddingState | None = None,
) -> bool:
    """Exact equality of two embeddings at one layer.

    Pass `state2` to compare nodes living in two separate runs of the same
    model on different graphs (meaningful for the weighted variants; the
    hash variant's ids are run-local).
    """
    other = state if state2 is None else state2
    return state.value(node1, layer) == other.value(node2, layer)


def classes_at(state: EmbeddingState, layer: int) -> list[list[TimestampedNode]]:
    """Equality classes of embeddings at `layer`, ordered by smallest member."""
    groups: dict = {}
    for tn in state.nodes:
        groups.setdefault(state.value(tn, layer), []).append(tn)
    classes = [sorted(members) for members in groups.values()]
    return sorted(classes, key=lambda g: g[0])

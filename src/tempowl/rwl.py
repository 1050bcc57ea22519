"""Relational colour refinement over knowledge graphs.

A node's next colour combines its current colour with the multiset of
(colour, label) pairs over its incoming edges. Injectivity of that
combination is guaranteed by canonical interning — the serialised signature
is mapped to a dense integer through an intern table shared by all nodes of
the run — rather than by raw hashing, so there are no silent collisions.

Colour ids are assigned in first-encounter order during a deterministic node
sweep (nodes sorted by (node id, time index)), which makes runs bit-identical.
Refining a disjoint union interns into one shared table, so colour ids are
directly comparable across the two origins.

The per-layer kernel is compiled (Cython) when the extension built, with a
pure-Python fallback selected at import; REFINE_BACKEND records the choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from tempowl.errors import LayerNotComputed, UnknownNode, ValidationError
from tempowl.kgraph import KnowledgeGraph
from tempowl.tgraph import TimestampedNode

try:
    from tempowl._refine_core import refine_rounds as _refine_rounds

    REFINE_BACKEND = "compiled"
except ImportError:  # extension not built on this install
    from tempowl._refine_py import refine_rounds as _refine_rounds

    REFINE_BACKEND = "pure-python"


@dataclass(frozen=True)
class Colouring:
    """Per-layer colour ids for one refinement run.

    `layers[l][i]` is the colour of `nodes[i]` at layer l; layer 0 is the
    partition induced by the initial knowledge-graph colours. `stable_at` is
    the first layer whose partition the next one repeats, or None when a
    bounded run stopped before seeing a repeat.
    """

    nodes: tuple[TimestampedNode, ...]
    layers: tuple[tuple[int, ...], ...]
    stable_at: int | None
    _pos: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_pos", {tn: i for i, tn in enumerate(self.nodes)})

    def position(self, node: TimestampedNode) -> int:
        try:
            return self._pos[node]
        except KeyError:
            raise UnknownNode(f"{node} was not part of this refinement run") from None


def kernel_inputs(
    kg: KnowledgeGraph,
) -> tuple[list[TimestampedNode], list[int], list[int], list[int], list[int]]:
    """Flatten a knowledge graph into the arrays the kernels consume.

    Returns (nodes in sweep order, CSR indptr, edge sources, dense relation
    ids, dense layer-0 colour ids). Exposed so the benchmark can drive both
    kernels on identical inputs.
    """
    nodes = sorted(kg.nodes)
    pos = {tn: i for i, tn in enumerate(nodes)}
    rel_ids = {r: i for i, r in enumerate(sorted({r for r, _, _ in kg.edges}))}
    colour_ids: dict[str, int] = {}
    init = []
    for tn in nodes:
        token = kg.colours[tn]
        if token not in colour_ids:
            colour_ids[token] = len(colour_ids)
        init.append(colour_ids[token])
    indptr = [0]
    srcs: list[int] = []
    rels: list[int] = []
    for tn in nodes:
        for r, src in kg.incoming(tn):
            srcs.append(pos[src])
            rels.append(rel_ids[r])
        indptr.append(len(srcs))
    return nodes, indptr, srcs, rels, init


def refine_arrays(
    indptr: list[int],
    srcs: list[int],
    rels: list[int],
    init: list[int],
    max_layers: int | None = None,
) -> tuple[list[list[int]], int | None]:
    """Run the selected kernel on flattened inputs (see `kernel_inputs`).

    Returns (layers, stable_at) with the meaning they have in `Colouring`.
    The default bound of |nodes| rounds always reaches stabilisation: the
    partition can strictly refine at most |nodes| - 1 times.
    """
    if max_layers is not None and max_layers < 0:
        raise ValidationError(f"max_layers must not be negative, got {max_layers}")
    n = len(init)
    cap = max(1, n) if max_layers is None else max_layers
    return _refine_rounds(n, indptr, srcs, rels, init, cap)


def refine(kg: KnowledgeGraph, max_layers: int | None = None) -> Colouring:
    """Run refinement until stabilisation or for at most `max_layers` rounds.

    Without a bound the run always reaches stabilisation. Pass a smaller
    bound to emulate networks with a fixed number of layers; a negative
    bound raises ValidationError.
    """
    nodes, indptr, srcs, rels, init = kernel_inputs(kg)
    layers, stable_at = refine_arrays(indptr, srcs, rels, init, max_layers)
    return Colouring(
        tuple(nodes), tuple(tuple(layer) for layer in layers), stable_at
    )


def colours_at(colouring: Colouring, layer: int, node: TimestampedNode) -> int:
    """Colour id of `node` at `layer`; stable colours extend past stabilisation."""
    pos = colouring.position(node)
    if layer < len(colouring.layers):
        return colouring.layers[layer][pos]
    if colouring.stable_at is not None:
        return colouring.layers[-1][pos]
    raise LayerNotComputed(
        f"layer {layer} beyond the {len(colouring.layers) - 1} computed layers"
    )


def partition_at(colouring: Colouring, layer: int) -> list[list[TimestampedNode]]:
    """Colour classes at `layer`, each sorted, ordered by smallest member."""
    if layer >= len(colouring.layers):
        if colouring.stable_at is None:
            raise LayerNotComputed(
                f"layer {layer} beyond the {len(colouring.layers) - 1} computed layers"
            )
        layer = len(colouring.layers) - 1
    classes: dict[int, list[TimestampedNode]] = {}
    for tn, cid in zip(colouring.nodes, colouring.layers[layer]):
        classes.setdefault(cid, []).append(tn)
    groups = [sorted(members) for members in classes.values()]
    return sorted(groups, key=lambda g: g[0])


def layer_map(colouring: Colouring, layer: int) -> dict[TimestampedNode, int]:
    """The layer as a plain node -> colour id map."""
    return {
        tn: colours_at(colouring, layer, tn) for tn in colouring.nodes
    }

"""Relational colour refinement over knowledge graphs.

A node's next colour combines its current colour with the multiset of
(colour, label) pairs over its incoming edges. Injectivity of that
combination is guaranteed by keying each round on the exact signature
tuples, rather than on raw hashes, so there are no silent collisions.

Colour ids are assigned in first-encounter order during a deterministic node
sweep (nodes sorted by (node id, time index)), which makes runs bit-identical.
Refining a disjoint union numbers both origins in one sweep, so colour ids
are directly comparable across the two origins.

Everything runs through one pure-Python kernel, `_refine_rounds`, over flat
integer arrays: a CSR layout of each node's incoming edges plus the dense
layer-0 colour ids (see `kernel_inputs`). The kernel is incremental. After
the first round it re-signs only the nodes a split can change: those with an
in-neighbour in a piece of a split class other than its largest piece. This
is the "all but the largest piece" rule of Paige and Tarjan ("Three
partition refinement algorithms", 1987) and of Berkholz, Bonsma and Grohe
("Tight lower and upper bounds for the complexity of canonical colour
refinement", 2017). Every other node keeps its class, renamed. The
partitions, and so the colour ids and `stable_at`, are those of re-signing
every node in every round; `_refine_rounds` gives the argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from tempowl.errors import LayerNotComputed, UnknownNode, ValidationError
from tempowl.kgraph import KnowledgeGraph
from tempowl.tgraph import TimestampedNode

# Recorded with every benchmark result, which refuses to compare mixed kernels.
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
    ids, dense layer-0 colour ids). `kgraph.union_arrays` gives the same
    arrays for one encoded graph or a union of two; the tests hold them equal.
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


def _refine_rounds(
    n: int,
    indptr: list[int],
    srcs: list[int],
    rels: list[int],
    init: list[int],
    max_layers: int,
) -> tuple[list[list[int]], int | None]:
    """Iterate colour refinement until the partition stops splitting.

    Each layer maps every node to a dense id assigned in first-encounter
    order over the node sweep 0..n-1. Because consecutive layers with equal
    partitions then produce elementwise-equal arrays, stabilisation is a
    plain array comparison; the duplicate layer is not stored.

    Round 1 signs every node with (colour, sorted (source colour, label)
    in-multiset). After that, a node is re-signed only if it is *touched*:
    it has an in-neighbour in a piece of a class that split in the round
    before, other than that class's largest piece. Every other node keeps
    its class. This gives the partition that re-signing every node gives:

    * An untouched node's in-edges from a split class all come from the
      largest piece, so its new in-multiset is a function of its old one.
      Classmates had equal old in-multisets, so untouched classmates stay
      together.
    * A touched node has an in-edge (p, label) from a non-largest piece p.
      An untouched classmate has the same number of in-edges with that label
      from p's old class, all of them from the largest piece and none from
      p, so the two are split apart.
    * Touched classmates are compared by their full signatures.

    So untouched nodes are keyed by their class and touched ones by their
    signature, and the renumbering in sweep order gives the same ids.
    Classes are kept under internal block ids. The untouched rest of a
    split class keeps its block, or its largest piece when every member was
    re-signed, and each other piece gets a new one. A round therefore costs
    Python work only for touched nodes and the small pieces. Renumbering
    into the stored layer and the stabilisation test are C-level passes
    over the n nodes.

    Returns (layers, stable_at) where layers[0] is `init` and stable_at is
    None when `max_layers` ran out before a repeat was seen.
    """
    layers = [list(init)]
    block = _first_encounter(init)
    members: list[set[int]] = [set() for _ in range(max(block, default=-1) + 1)]
    for v, b in enumerate(block):
        members[b].add(v)
    targets: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for u in srcs[indptr[v]:indptr[v + 1]]:
            targets[u].append(v)
    touched = range(n)
    stable_at = None
    for _ in range(max_layers):
        groups: dict[tuple, list[int]] = {}
        for v in touched:
            sig = (
                block[v],
                tuple(
                    sorted(
                        (block[srcs[e]], rels[e])
                        for e in range(indptr[v], indptr[v + 1])
                    )
                ),
            )
            group = groups.get(sig)
            if group is None:
                groups[sig] = [v]
            else:
                group.append(v)
        pieces_of: dict[int, list[list[int]]] = {}
        for (b, _), group in groups.items():
            pieces_of.setdefault(b, []).append(group)
        touched = set()
        for b, pieces in pieces_of.items():
            rest = members[b]
            if len(pieces) == 1 and len(pieces[0]) == len(rest):
                continue  # every member re-signed alike: no split
            largest = max(pieces, key=len)
            # untouched members keep block b; failing those, the largest piece
            stays = None if sum(map(len, pieces)) < len(rest) else largest
            for piece in pieces:
                if piece is not stays:
                    rest.difference_update(piece)
                    b_new = len(members)
                    for v in piece:
                        block[v] = b_new
                    members.append(set(piece))
            if stays is None:
                pieces.append(rest)
                if len(rest) > len(largest):
                    largest = rest
            for piece in pieces:
                if piece is not largest:
                    for v in piece:
                        touched.update(targets[v])
        new = _first_encounter(block)
        if new == layers[-1]:
            stable_at = len(layers) - 1
            break
        layers.append(new)
    return layers, stable_at


def _first_encounter(labels: list[int]) -> list[int]:
    """Relabel with dense ids handed out in order of first appearance."""
    order = dict.fromkeys(labels)
    ids = dict(zip(order, range(len(order))))
    return list(map(ids.__getitem__, labels))


def refine_arrays(
    indptr: list[int],
    srcs: list[int],
    rels: list[int],
    init: list[int],
    max_layers: int | None = None,
) -> tuple[list[list[int]], int | None]:
    """Run the kernel on flattened inputs (see `kernel_inputs`).

    Returns (layers, stable_at) with the meaning they have in `Colouring`.
    The default bound of |nodes| rounds always reaches stabilisation: the
    partition can strictly refine at most |nodes| - 1 times.
    """
    if max_layers is not None and max_layers < 0:
        raise ValidationError(f"max_layers must not be negative, got {max_layers}")
    n = len(init)
    cap = max(1, n) if max_layers is None else max_layers
    # a global lookup on purpose: the traced benchmark rebinds `_refine_rounds`
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


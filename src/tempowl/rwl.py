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
layer-0 colour ids (see `kernel_inputs`). The kernel re-signs every node
only while the splits are large. After that it is incremental: it re-signs
only the nodes a split can change, those with an in-neighbour in a piece of
a split class other than its largest piece. This is the "all but the
largest piece" rule of Paige and Tarjan ("Three partition refinement
algorithms", 1987) and of Berkholz, Bonsma and Grohe ("Tight lower and upper
bounds for the complexity of canonical colour refinement", 2017). Every
other node keeps its class, renamed. A class's first-encounter id is the
rank of its smallest node among the classes' smallest nodes, so a split
re-ranks only the classes from the smallest changed one onward, and the run
ends on the first round that splits nothing. The partitions, and so the
colour ids and `stable_at`, are those of re-signing every node in every
round; `_refine_rounds` gives the argument.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import add

from tempowl.errors import LayerNotComputed, UnknownNode, ValidationError
from tempowl.kgraph import KnowledgeGraph, union_arrays
from tempowl.tgraph import TemporalGraph, TimestampedNode

# Recorded with every benchmark result, which refuses to compare mixed kernels.
REFINE_BACKEND = "pure-python"


@dataclass(frozen=True)
class Colouring:
    """Per-layer colour ids for one refinement run.

    `layers[l][i]` is the colour of `nodes[i]` at layer l; layer 0 is the
    partition induced by the initial knowledge-graph colours. `stable_at` is
    the first layer whose partition the next one repeats, or None when a
    bounded run stopped before seeing a repeat. `nodes` are sorted: a knowledge
    graph's for `refine`, (origin, node) pairs for `refine_graphs`.
    """

    nodes: tuple
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
    nodes = list(kg.nodes)  # a KnowledgeGraph keeps its nodes sorted
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

    Each stored layer maps every node to a dense id assigned in
    first-encounter order over the node sweep 0..n-1, so a class's id is the
    rank of its smallest node among the classes' smallest nodes. A node's
    signature is its colour plus the sorted in-multiset of (source colour,
    label) pairs, each pair coded as the integer label * n + colour (colours
    are below n, so the code is injective).

    The first rounds re-sign every node and number the signatures directly,
    as plain full re-signing does. Once a round's split looks small enough
    that the next round would re-sign fewer than about half the nodes, the
    kernel builds its reverse adjacency and class member sets and turns
    incremental. A node is then re-signed only if it is *touched*: it has an
    in-neighbour in a piece of a class that split in the round before, other
    than that class's largest piece. Every other node keeps its class. This
    gives the partition that re-signing every node gives:

    * An untouched node's in-edges from a split class all come from the
      largest piece, so its new in-multiset is a function of its old one.
      Classmates had equal old in-multisets, so untouched classmates stay
      together.
    * A touched node has an in-edge (p, label) from a non-largest piece p.
      An untouched classmate has the same number of in-edges with that label
      from p's old class, all of them from the largest piece and none from
      p, so the two are split apart.
    * Touched classmates are compared by their full signatures.

    Classes are kept under internal block ids. The untouched rest of a
    split class keeps its block, or its largest piece when every member was
    re-signed, and each other piece gets a new one. Each block's smallest
    node (its *first*) sits in the list `sorted_firsts`, and `rank[block]`
    is the first's index there, which is the class's first-encounter id. A
    split inserts the firsts of its new parts, so only the classes whose
    firsts are at or past the smallest changed first need a new rank, and the
    stored layer is one C-level `map` of `rank` over the blocks. A round
    therefore costs Python work only for touched nodes, the small pieces
    and the re-ranked classes.

    The partition refines from round to round, so it is stable as soon as
    a round splits nothing; that round's layer repeats the one before and
    is not stored. The one exception is round 1 when `init` is not in
    first-encounter order: its renumbered layer differs from `init` though
    the partition does not, so it is stored and layer 1 is stable.

    Returns (layers, stable_at) where layers[0] is `init` and stable_at is
    None when `max_layers` ran out before a repeat was seen.
    """
    layers = [list(init)]
    ids: dict[int, int] = {}
    block = [ids.setdefault(c, len(ids)) for c in init]
    classes = len(ids)
    coded = [r * n for r in rels]
    rounds = 0
    while rounds < max_layers:
        rounds += 1
        get = block.__getitem__
        table: dict[tuple, int] = {}
        new = []
        lo = indptr[0]
        for v in range(n):
            hi = indptr[v + 1]
            sig = (block[v], *sorted(map(add, coded[lo:hi], map(get, srcs[lo:hi]))))
            new.append(table.setdefault(sig, len(table)))
            lo = hi
        if len(table) == classes:  # no split
            if len(layers) > 1 or new == layers[0]:
                return layers, len(layers) - 1
            layers.append(new)  # stable, as the next round will show
            continue
        layers.append(new)
        split, block, classes = len(table) - classes, new, len(table)
        # The new pieces, at the mean class size, would touch about
        # split * len(srcs) / classes nodes. Split-off pieces are smaller
        # than the mean, and on the benchmark graphs the estimate runs two
        # to five times high, so 2n here means about half the nodes.
        if split * len(srcs) < 2 * n * classes:
            break
    else:
        return layers, None

    block = list(block)  # the stored layer stays as it is
    members: list[set[int]] = [set() for _ in range(classes)]
    first: list[int] = []
    for v, b in enumerate(block):
        if b == len(first):
            first.append(v)
        members[b].add(v)
    sorted_firsts = list(first)
    rank = list(range(classes))
    targets: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for u in srcs[indptr[v]:indptr[v + 1]]:
            targets[u].append(v)
    pieces_of: dict[int, list[int]] = {}
    for sig, b in table.items():
        pieces_of.setdefault(sig[0], []).append(b)
    touched: set[int] = set()
    for pieces in pieces_of.values():
        largest = max(pieces, key=lambda b: len(members[b]))
        for b in pieces:
            if b != largest:
                for v in members[b]:
                    touched.update(targets[v])
    while rounds < max_layers:
        rounds += 1
        get = block.__getitem__
        groups: dict[tuple, list[int]] = {}
        for v in touched:
            lo, hi = indptr[v], indptr[v + 1]
            sig = (block[v], *sorted(map(add, coded[lo:hi], map(get, srcs[lo:hi]))))
            group = groups.get(sig)
            if group is None:
                groups[sig] = [v]
            else:
                group.append(v)
        split_of: dict[int, list[list[int]]] = {}
        for sig, group in groups.items():
            split_of.setdefault(sig[0], []).append(group)
        touched = set()
        changed = n  # the smallest first whose class changed
        for b, pieces in split_of.items():
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
                    low = min(piece)
                    if low != first[b]:
                        insort(sorted_firsts, low)
                    first.append(low)
                    rank.append(0)
                    changed = min(changed, low)
            if block[first[b]] != b:  # b's first left with a piece
                low = first[b] = min(rest)
                insort(sorted_firsts, low)
                changed = min(changed, low)
            if stays is None:
                pieces.append(rest)
                if len(rest) > len(largest):
                    largest = rest
            for piece in pieces:
                if piece is not largest:
                    for v in piece:
                        touched.update(targets[v])
        if changed == n:
            return layers, len(layers) - 1
        for i in range(bisect_left(sorted_firsts, changed), len(sorted_firsts)):
            rank[block[sorted_firsts[i]]] = i
        layers.append(list(map(rank.__getitem__, block)))
    return layers, None


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


def refine_graphs(
    graphs: tuple[TemporalGraph, ...], encoding: str, max_layers: int | None = None
) -> Colouring:
    """`refine` over `kgraph.union_arrays(graphs, encoding)`: one temporal
    graph's encoding or the disjoint union of two, nodes as (origin, node)."""
    nodes, indptr, srcs, rels, init = union_arrays(graphs, encoding)
    layers, stable_at = refine_arrays(indptr, srcs, rels, init, max_layers)
    return Colouring(tuple(nodes), tuple(map(tuple, layers)), stable_at)


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


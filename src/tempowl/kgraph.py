"""Multi-relational knowledge graphs and the two temporal-graph encodings.

Both encodings share the node set (one KG node per timestamped node of the
source graph) and label edges with exact time differences. They differ in
where the edges land:

* global form: an edge runs from the earlier endpoint ``(v, t_i)`` to the
  later one ``(u, t_j)``, so messages cross time slices;
* local form: the same generating pair instead yields an edge between the
  same-time copies ``(v, t_j)`` and ``(u, t_j)``, so edges never leave a
  slice and the time gap survives only in the label.

Unordered source edges induce both directions, and parallel edges between one
ordered node pair with distinct labels are allowed (and do occur).

`union_arrays` compiles one temporal graph, or the disjoint union of two,
straight to the refinement kernel's arrays for `rwl.refine_graphs`, which
every query that starts from temporal graphs goes through. The
`KnowledgeGraph` path (`k_glob`/`k_loc`, `disjoint_union`) serves where a
knowledge graph is the input or the output (`transform`, the CLI's `refine`)
and is the reference the tests hold the arrays to.

Temporal graphs are valid once built, so the encoders read them unchecked; a
`KnowledgeGraph`, which documents also build, checks itself.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Mapping, Sequence

from tempowl.errors import UnknownNode, ValidationError
from tempowl.tgraph import TemporalGraph, TimestampedNode

Edge = tuple[int, TimestampedNode, TimestampedNode]


@dataclass(frozen=True)
class KnowledgeGraph:
    """Directed node-coloured graph with integer edge labels.

    Immutable after construction. An index of incoming edges sorted by
    (target, label, source) is built once so that in-neighbourhood reads in
    the refinement loop are contiguous range scans.
    """

    nodes: tuple[TimestampedNode, ...]
    relations: frozenset[int]
    edges: frozenset[Edge]
    colours: Mapping[TimestampedNode, str]
    _in_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (
            set(map(type, self.nodes)) <= {TimestampedNode}
            and set(map(type, map(itemgetter(0), self.nodes))) <= {str}
            and set(map(type, map(itemgetter(1), self.nodes))) <= {int}
        ):
            bad = next(tn for tn in self.nodes if not _is_node(tn))
            raise ValidationError(
                f"knowledge-graph node {bad!r} is not a (string, integer) pair"
            )
        if min(map(itemgetter(1), self.nodes), default=0) < 0:
            bad = next(tn for tn in self.nodes if tn.time_index < 0)
            raise ValidationError(f"knowledge-graph node {bad!r} has a negative time index")
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        object.__setattr__(self, "relations", frozenset(self.relations))
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "colours", dict(self.colours))
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValidationError("duplicate knowledge-graph nodes")
        if set(self.colours) != node_set:
            raise ValidationError("colours are not total over the nodes")
        if not set(map(type, self.colours.values())) <= {str}:
            tn, c = next(kv for kv in self.colours.items() if type(kv[1]) is not str)
            raise ValidationError(f"node {tn} has a non-string colour {c!r}")
        labels = set(map(itemgetter(0), self.edges))
        for r in labels | self.relations:
            if type(r) is not int:  # bool is an int subclass, and excluded
                raise ValidationError(f"relation label {r!r} is not an integer")
        ends = set(map(itemgetter(1), self.edges))
        ends.update(map(itemgetter(2), self.edges))
        if (
            min(labels, default=0) < 0
            or not labels <= self.relations
            or not ends <= node_set
        ):
            for r, src, tgt in self.edges:  # name the first bad edge
                if r < 0:
                    raise ValidationError(f"negative relation label {r}")
                if r not in self.relations:
                    raise ValidationError(f"edge label {r} missing from relation set")
                if src not in node_set or tgt not in node_set:
                    raise ValidationError(f"edge ({r}, {src}, {tgt}) leaves the node set")
        if min(self.relations, default=0) < 0:
            raise ValidationError(f"negative relation label {min(self.relations)}")
        index: dict[TimestampedNode, list[tuple[int, TimestampedNode]]] = {}
        for r, src, tgt in self.edges:
            index.setdefault(tgt, []).append((r, src))
        for pairs in index.values():  # many short sorts beat one sort of every edge
            pairs.sort()
        object.__setattr__(self, "_in_index", index)

    def incoming(self, node: TimestampedNode) -> list[tuple[int, TimestampedNode]]:
        """All (label, source) pairs of edges into `node`, sorted."""
        return self._in_index.get(node, [])


def _is_node(tn) -> bool:
    # exact types: a bool time index or a str subclass is not accepted
    return (
        type(tn) is TimestampedNode
        and type(tn.node) is str
        and type(tn.time_index) is int
    )


def _encode(tg: TemporalGraph, local: bool) -> KnowledgeGraph:
    """`k_glob` (local False) or `k_loc` (local True), with one node object
    per (node, time index)."""
    times = tg.times
    n = len(times)
    at = {v: [TimestampedNode(v, i) for i in range(n)] for v in tg.node_ids}
    edges: set[Edge] = set()
    for i, snap in enumerate(tg.snapshots):
        for u, v in snap.edges:
            us, vs = at[u], at[v]
            for j in range(i, n):
                r = times[j] - times[i]
                k = j if local else i
                edges.add((r, vs[k], us[j]))
                edges.add((r, us[k], vs[j]))
    colours = {
        at[v][i]: snap.colours[v]
        for i, snap in enumerate(tg.snapshots)
        for v in tg.node_ids
    }
    return KnowledgeGraph(
        tuple(at[v][i] for i in range(n) for v in tg.node_ids),
        frozenset(map(itemgetter(0), edges)),
        frozenset(edges),
        colours,
    )


def k_glob(tg: TemporalGraph) -> KnowledgeGraph:
    """Encoding whose refinement tracks message passing across time points."""
    return _encode(tg, local=False)


def k_loc(tg: TemporalGraph) -> KnowledgeGraph:
    """Encoding whose edges stay inside one time slice; gaps live in labels."""
    return _encode(tg, local=True)


def _union_node(origin: int, tn: TimestampedNode) -> TimestampedNode:
    """The name `disjoint_union` gives node `tn` of its argument `origin` (0 or 1)."""
    return TimestampedNode(f"{origin}:{tn.node}", tn.time_index)


def disjoint_union(
    kg1: KnowledgeGraph, kg2: KnowledgeGraph
) -> tuple[KnowledgeGraph, dict[TimestampedNode, tuple[int, TimestampedNode]]]:
    """Merge two knowledge graphs on disjoint (origin-tagged) node sets.

    Relation labels are merged by value — they are time differences, hence
    comparable across graphs — so refinement colours computed on the result
    are directly comparable across origins. Returns the merged graph plus a
    map from each merged node back to (origin index, original node).
    """
    nodes = []
    edges: set[Edge] = set()
    colours: dict[TimestampedNode, str] = {}
    origin_map: dict[TimestampedNode, tuple[int, TimestampedNode]] = {}
    for k, kg in enumerate((kg1, kg2)):
        for tn in kg.nodes:
            tagged = _union_node(k, tn)
            nodes.append(tagged)
            colours[tagged] = kg.colours[tn]
            origin_map[tagged] = (k, tn)
        for r, src, tgt in kg.edges:
            edges.add((r, _union_node(k, src), _union_node(k, tgt)))
    return (
        KnowledgeGraph(
            tuple(nodes),
            kg1.relations | kg2.relations,
            frozenset(edges),
            colours,
        ),
        origin_map,
    )


def union_arrays(
    graphs: Sequence[TemporalGraph], encoding: str
) -> tuple[list[tuple[int, TimestampedNode]], list[int], list[int], list[int], list[int]]:
    """Kernel inputs of one graph's encoding, or of the disjoint union of two.

    `encoding` is "glob" or "loc". For graphs ``(tg1, tg2)`` the result
    equals, element for element, ``rwl.kernel_inputs(disjoint_union(k(tg1),
    k(tg2)))`` with k the named encoder, and for ``(tg,)`` it equals
    ``rwl.kernel_inputs(k(tg))``, except that each node is given as
    (origin, node) rather than by its name. No knowledge graph and no
    per-edge object is built: node (v, j) of graph k sits at
    ``offset_k + rank(v) * T_k + j``, where rank(v) is v's place among the
    graph's sorted node ids, which is the (origin, node, time) order the
    tagged union sorts in. Each node's in-edges come out already sorted by
    (label, source): time differences grow as the edge's snapshot index i
    falls, and within one snapshot the sources follow their ranks. In both
    encodings the edge {u, v} of snapshot i reaches (u, j) for every j >= i,
    labelled t_j - t_i; it comes from (v, i) in the global encoding and from
    (v, j) in the local one.
    """
    if encoding not in ("glob", "loc"):
        raise ValueError(f"unknown encoding {encoding!r}")
    local = encoding == "loc"
    compiled = []  # (offset, graph, sorted ids, adjacency[i][rank u] -> sorted ranks)
    labels: set[int] = set()
    offset = 0
    for tg in graphs:
        ids = sorted(tg.node_ids)
        rank = {v: r for r, v in enumerate(ids)}
        adjacency = []
        for i, snap in enumerate(tg.snapshots):
            nbrs: list[list[int]] = [[] for _ in ids]
            for u, v in snap.edges:
                nbrs[rank[u]].append(rank[v])
                nbrs[rank[v]].append(rank[u])
            adjacency.append([sorted(s) for s in nbrs])
            if snap.edges:
                labels.update(t - tg.times[i] for t in tg.times[i:])
        compiled.append((offset, tg, ids, adjacency))
        offset += len(ids) * len(tg.times)
    rel_id = {r: x for x, r in enumerate(sorted(labels))}

    nodes: list[tuple[int, TimestampedNode]] = []
    init: list[int] = []
    colour_ids: dict[str, int] = {}
    indptr = [0]
    srcs: list[int] = []
    rels: list[int] = []
    for k, (offset, tg, ids, adjacency) in enumerate(compiled):
        times = tg.times
        n_times = len(times)
        for u, name in enumerate(ids):
            for j in range(n_times):
                nodes.append((k, TimestampedNode(name, j)))
                token = tg.snapshots[j].colours[name]
                init.append(colour_ids.setdefault(token, len(colour_ids)))
                for i in range(j, -1, -1):
                    nb = adjacency[i][u]
                    if nb:
                        base = offset + (j if local else i)
                        srcs.extend([base + w * n_times for w in nb])
                        rels.extend([rel_id[times[j] - times[i]]] * len(nb))
                indptr.append(len(srcs))
    return nodes, indptr, srcs, rels, init


def in_neighbourhood(
    kg: KnowledgeGraph, node: TimestampedNode, r: int
) -> set[TimestampedNode]:
    """Sources of r-labelled edges into `node`; empty for an unused label."""
    if node not in kg.colours:
        raise UnknownNode(f"{node} is not a node of this knowledge graph")
    pairs = kg.incoming(node)
    lo = bisect_left(pairs, r, key=lambda p: p[0])
    hi = bisect_right(pairs, r, key=lambda p: p[0])
    return {src for _, src in pairs[lo:hi]}


def temporal_neighbourhood(
    tg: TemporalGraph, v: str, time_index: int
) -> set[TimestampedNode]:
    """All (u, i) with an edge {u, v} in snapshot i and i at or before `time_index`."""
    if v not in tg.node_ids:
        raise UnknownNode(f"unknown node {v!r}")
    if not 0 <= time_index < len(tg.times):
        raise UnknownNode(f"time index {time_index} out of range")
    out: set[TimestampedNode] = set()
    for i in range(time_index + 1):
        for a, b in tg.snapshots[i].edges:
            if a == v:
                out.add(TimestampedNode(b, i))
            elif b == v:
                out.add(TimestampedNode(a, i))
    return out


# --- JSON interchange ---------------------------------------------------------

def to_dict(kg: KnowledgeGraph) -> dict:
    return {
        "nodes": [[tn.node, tn.time_index] for tn in sorted(kg.nodes)],
        "colours": {
            f"{tn.node}#{tn.time_index}": kg.colours[tn] for tn in sorted(kg.nodes)
        },
        "edges": [
            [r, [src.node, src.time_index], [tgt.node, tgt.time_index]]
            for r, src, tgt in sorted(kg.edges)
        ],
    }


def from_dict(data: dict) -> KnowledgeGraph:
    try:
        nodes = tuple(TimestampedNode(n, i) for n, i in data["nodes"])
        if not isinstance(data["colours"], dict):
            raise TypeError(f"colours {data['colours']!r} is not a JSON object")
        colours = {}
        for key, colour in data["colours"].items():
            name, _, idx = key.rpartition("#")
            colours[TimestampedNode(name, int(idx))] = colour
        edges = frozenset(
            (r, TimestampedNode(s, si), TimestampedNode(t, ti))
            for r, (s, si), (t, ti) in data["edges"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed knowledge-graph document: {exc}") from exc
    return KnowledgeGraph(nodes, frozenset(r for r, _, _ in edges), edges, colours)

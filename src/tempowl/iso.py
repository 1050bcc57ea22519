"""Exact pointwise and timewise isomorphism checkers for desk-scale graphs.

The search is plain backtracking over node bijections. Candidate sets are
pruned by stable refinement classes of an encoded form of the pair (a sound
cut: any isomorphism maps a node to one with equal refinement colours), but
correctness never relies on refinement being complete — within classes the
search is exhaustive. Every witness found is re-checked by independent
verification code before being returned, so a search bug cannot
self-certify.

Above the configured node bound the checkers refuse (SizeLimitExceeded)
rather than answer heuristically.
"""

from __future__ import annotations

from dataclasses import dataclass

from tempowl import rwl
from tempowl.errors import SizeLimitExceeded
from tempowl.kgraph import KnowledgeGraph, disjoint_union
from tempowl.tgraph import TemporalGraph, TimestampedNode

DEFAULT_NODE_LIMIT = 64


@dataclass(frozen=True)
class IsoWitness:
    """A found isomorphism: one map per snapshot, or a single shared map."""

    kind: str  # "pointwise" | "timewise"
    maps: tuple[dict[str, str], ...]


# --- Generic backtracking matcher ------------------------------------------------

def _encode_for_pruning(
    nodes: tuple[str, ...],
    colour_token,
    rel_edges: dict[int, frozenset[tuple[str, str]]],
) -> KnowledgeGraph:
    """View a node-coloured multi-relational undirected graph as a KnowledgeGraph."""
    tns = tuple(TimestampedNode(v, 0) for v in nodes)
    edges = set()
    for r, pairs in rel_edges.items():
        for u, v in pairs:
            edges.add((r, TimestampedNode(u, 0), TimestampedNode(v, 0)))
            edges.add((r, TimestampedNode(v, 0), TimestampedNode(u, 0)))
    return KnowledgeGraph(
        tns,
        frozenset(rel_edges),
        frozenset(edges),
        {TimestampedNode(v, 0): repr(colour_token(v)) for v in nodes},
    )


def _match(
    nodes1: tuple[str, ...],
    nodes2: tuple[str, ...],
    colour1,
    colour2,
    rel_edges1: dict[int, frozenset[tuple[str, str]]],
    rel_edges2: dict[int, frozenset[tuple[str, str]]],
) -> dict[str, str] | None:
    """One bijection nodes1 -> nodes2 preserving colours and every relation."""
    if len(nodes1) != len(nodes2):
        return None
    merged, origin = disjoint_union(
        _encode_for_pruning(nodes1, colour1, rel_edges1),
        _encode_for_pruning(nodes2, colour2, rel_edges2),
    )
    colouring = rwl.refine(merged)
    cls1, cls2 = {}, {}
    for tagged, cid in zip(colouring.nodes, colouring.layers[-1]):
        side, tn = origin[tagged]
        (cls2 if side else cls1)[tn.node] = cid
    if sorted(cls1.values()) != sorted(cls2.values()):
        return None

    candidates = {
        v: sorted(u for u in nodes2 if cls2[u] == cls1[v]) for v in nodes1
    }
    if any(not cands for cands in candidates.values()):
        return None
    order = sorted(nodes1, key=lambda v: (len(candidates[v]), v))

    adj1 = {r: _adjacency(nodes1, pairs) for r, pairs in rel_edges1.items()}
    adj2 = {r: _adjacency(nodes2, pairs) for r, pairs in rel_edges2.items()}
    relations = sorted(set(rel_edges1) | set(rel_edges2))
    for r in relations:
        adj1.setdefault(r, {v: frozenset() for v in nodes1})
        adj2.setdefault(r, {v: frozenset() for v in nodes2})

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(v: str, u: str) -> bool:
        for r in relations:
            nbrs1 = adj1[r][v]
            nbrs2 = adj2[r][u]
            for w, fw in mapping.items():
                if (w in nbrs1) != (fw in nbrs2):
                    return False
        return True

    def extend(depth: int) -> bool:
        if depth == len(order):
            return True
        v = order[depth]
        for u in candidates[v]:
            if u in used or not consistent(v, u):
                continue
            mapping[v] = u
            used.add(u)
            if extend(depth + 1):
                return True
            del mapping[v]
            used.discard(u)
        return False

    return dict(mapping) if extend(0) else None


def _adjacency(
    nodes: tuple[str, ...], pairs: frozenset[tuple[str, str]]
) -> dict[str, frozenset[str]]:
    out: dict[str, set[str]] = {v: set() for v in nodes}
    for u, v in pairs:
        out[u].add(v)
        out[v].add(u)
    return {v: frozenset(nbrs) for v, nbrs in out.items()}


def _check_size(tg1: TemporalGraph, tg2: TemporalGraph, max_nodes: int) -> None:
    biggest = max(len(tg1.node_ids), len(tg2.node_ids))
    if biggest > max_nodes:
        raise SizeLimitExceeded(
            f"{biggest} nodes exceeds the configured bound of {max_nodes}"
        )


# --- Pointwise ------------------------------------------------------------------

def pointwise_iso(
    tg1: TemporalGraph, tg2: TemporalGraph, max_nodes: int = DEFAULT_NODE_LIMIT
) -> IsoWitness | None:
    """Per-snapshot isomorphisms under exact timestamp equality.

    Requires identical time sequences; each snapshot pair may be matched by
    its own bijection.
    """
    _check_size(tg1, tg2, max_nodes)
    if tg1.times != tg2.times or len(tg1.node_ids) != len(tg2.node_ids):
        return None
    maps = []
    for i in range(len(tg1.times)):
        s1, s2 = tg1.snapshots[i], tg2.snapshots[i]
        f_i = _match(
            tg1.node_ids,
            tg2.node_ids,
            lambda v, s=s1: s.colours[v],
            lambda u, s=s2: s.colours[u],
            {0: s1.edges},
            {0: s2.edges},
        )
        if f_i is None:
            return None
        maps.append(f_i)
    witness = IsoWitness("pointwise", tuple(maps))
    if not verify_pointwise(tg1, tg2, witness.maps):
        raise RuntimeError("pointwise search produced a witness that fails verification")
    return witness


def verify_pointwise(
    tg1: TemporalGraph, tg2: TemporalGraph, maps: tuple[dict[str, str], ...]
) -> bool:
    """Re-check the pointwise conditions from scratch (independent of search)."""
    if tg1.times != tg2.times or len(maps) != len(tg1.times):
        return False
    nodes2 = set(tg2.node_ids)
    for i, f in enumerate(maps):
        if set(f) != set(tg1.node_ids) or set(f.values()) != nodes2:
            return False
        if len(set(f.values())) != len(f):
            return False
        s1, s2 = tg1.snapshots[i], tg2.snapshots[i]
        for v in tg1.node_ids:
            if s1.colours[v] != s2.colours[f[v]]:
                return False
        for u in tg1.node_ids:
            for v in tg1.node_ids:
                if u < v and s1.has_edge(u, v) != s2.has_edge(f[u], f[v]):
                    return False
    return True


# --- Timewise -------------------------------------------------------------------

def timewise_iso(
    tg1: TemporalGraph, tg2: TemporalGraph, max_nodes: int = DEFAULT_NODE_LIMIT
) -> IsoWitness | None:
    """One bijection isomorphic on every snapshot, under equal time gaps.

    Absolute times may differ; only consecutive gaps must agree. Solved as
    labelled-multigraph isomorphism: relation i carries snapshot i's edges
    and a node's colour is its whole colour history.
    """
    _check_size(tg1, tg2, max_nodes)
    n = len(tg1.times)
    if n != len(tg2.times) or len(tg1.node_ids) != len(tg2.node_ids):
        return None
    gaps1 = tuple(tg1.times[i + 1] - tg1.times[i] for i in range(n - 1))
    gaps2 = tuple(tg2.times[i + 1] - tg2.times[i] for i in range(n - 1))
    if gaps1 != gaps2:
        return None
    f = _match(
        tg1.node_ids,
        tg2.node_ids,
        lambda v: tuple(s.colours[v] for s in tg1.snapshots),
        lambda u: tuple(s.colours[u] for s in tg2.snapshots),
        {i: tg1.snapshots[i].edges for i in range(n)},
        {i: tg2.snapshots[i].edges for i in range(n)},
    )
    if f is None:
        return None
    witness = IsoWitness("timewise", (f,))
    if not verify_timewise(tg1, tg2, f):
        raise RuntimeError("timewise search produced a witness that fails verification")
    return witness


def verify_timewise(tg1: TemporalGraph, tg2: TemporalGraph, f: dict[str, str]) -> bool:
    """Re-check the timewise conditions from scratch (independent of search)."""
    n = len(tg1.times)
    if n != len(tg2.times):
        return False
    for i in range(n - 1):
        if tg1.times[i + 1] - tg1.times[i] != tg2.times[i + 1] - tg2.times[i]:
            return False
    if set(f) != set(tg1.node_ids) or set(f.values()) != set(tg2.node_ids):
        return False
    if len(set(f.values())) != len(f):
        return False
    for i in range(n):
        s1, s2 = tg1.snapshots[i], tg2.snapshots[i]
        for v in tg1.node_ids:
            if s1.colours[v] != s2.colours[f[v]]:
                return False
        for u in tg1.node_ids:
            for v in tg1.node_ids:
                if u < v and s1.has_edge(u, v) != s2.has_edge(f[u], f[v]):
                    return False
    return True

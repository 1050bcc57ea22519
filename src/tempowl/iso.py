"""Exact pointwise and timewise isomorphism checkers for desk-scale graphs.

The search is plain backtracking over node bijections. Candidate sets are
pruned by the stable refinement classes of the two graphs side by side,
compiled straight to the kernel's arrays with no knowledge graph (a sound
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
from tempowl.errors import SizeLimitExceeded, ValidationError
from tempowl.tgraph import TemporalGraph, check_snapshot_count, missing_colour

DEFAULT_NODE_LIMIT = 64


@dataclass(frozen=True)
class IsoWitness:
    """A found isomorphism: one map per snapshot, or a single shared map."""

    kind: str  # "pointwise" | "timewise"
    maps: tuple[dict[str, str], ...]


# --- Generic backtracking matcher ------------------------------------------------

def _stable_colours(sides) -> dict[tuple[int, str], int]:
    """Stable refinement colour of every (side, node) of two graphs, each
    given as (nodes, colour token of a node, relation -> node -> neighbours).

    The kernel gets the disjoint union of their knowledge-graph views in
    `rwl.kernel_inputs`' node order, with colours named by the `repr` of
    their tokens, so the ids are those of refining that union. Relations,
    snapshot indices, serve as the kernel's relation ids as they are.
    """
    sweep = [(k, v) for k, (nodes, _, _) in enumerate(sides) for v in sorted(nodes)]
    pos = {node: p for p, node in enumerate(sweep)}
    if len(pos) != len(sweep):
        raise ValidationError("duplicate node ids")
    colour_ids: dict[str, int] = {}
    init = [colour_ids.setdefault(repr(sides[k][1](v)), len(colour_ids)) for k, v in sweep]
    indptr, srcs, rels = [0], [], []
    for k, v in sweep:
        for r, adj in sides[k][2].items():
            srcs.extend(pos[k, w] for w in adj[v])
            rels.extend([r] * len(adj[v]))
        indptr.append(len(srcs))
    layers, _ = rwl.refine_arrays(indptr, srcs, rels, init)
    return dict(zip(sweep, layers[-1]))


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
    adj1 = {r: _adjacency(nodes1, pairs) for r, pairs in rel_edges1.items()}
    adj2 = {r: _adjacency(nodes2, pairs) for r, pairs in rel_edges2.items()}
    relations = sorted(set(rel_edges1) | set(rel_edges2))
    for r in relations:
        adj1.setdefault(r, {v: frozenset() for v in nodes1})
        adj2.setdefault(r, {v: frozenset() for v in nodes2})

    cls = _stable_colours(((nodes1, colour1, adj1), (nodes2, colour2, adj2)))
    if sorted(cls[0, v] for v in nodes1) != sorted(cls[1, u] for u in nodes2):
        return None
    candidates = {
        v: sorted(u for u in nodes2 if cls[1, u] == cls[0, v]) for v in nodes1
    }
    if any(not cands for cands in candidates.values()):
        return None
    order = sorted(nodes1, key=lambda v: (len(candidates[v]), v))

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
        if u not in out or v not in out:
            raise ValidationError(f"edge ({u}, {v}) leaves the node set")
        out[u].add(v)
        out[v].add(u)
    return {v: frozenset(nbrs) for v, nbrs in out.items()}


def _check_inputs(tg1: TemporalGraph, tg2: TemporalGraph, max_nodes: int) -> None:
    """Refuse graphs over the node bound, and raise `validate`'s typed error
    for a graph that skipped it and lacks a snapshot or a colour."""
    biggest = max(len(tg1.node_ids), len(tg2.node_ids))
    if biggest > max_nodes:
        raise SizeLimitExceeded(
            f"{biggest} nodes exceeds the configured bound of {max_nodes}"
        )
    for tg in (tg1, tg2):
        check_snapshot_count(tg)
        for snap in tg.snapshots:
            for v in tg.node_ids:
                if v not in snap.colours:
                    raise missing_colour(tg, v)


# --- Pointwise ------------------------------------------------------------------

def pointwise_iso(
    tg1: TemporalGraph, tg2: TemporalGraph, max_nodes: int = DEFAULT_NODE_LIMIT
) -> IsoWitness | None:
    """Per-snapshot isomorphisms under exact timestamp equality.

    Requires identical time sequences; each snapshot pair may be matched by
    its own bijection.
    """
    _check_inputs(tg1, tg2, max_nodes)
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
    _check_inputs(tg1, tg2, max_nodes)
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

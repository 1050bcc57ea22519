"""Independent reference implementations used as test oracles.

Nothing here may call the engine code paths it is meant to check: the
refinement oracle compares nodes pairwise without interning or hashing, the
full re-sign loop re-signs every node in every round, the temporal-WL oracle
refines the temporal graphs themselves and builds no knowledge graph, and the
isomorphism oracle enumerates every bijection.
"""

from __future__ import annotations

from itertools import permutations


def naive_refinement_partitions(kg):
    """Partition sequence by repeated O(|V|^2) pairwise comparison.

    Two nodes stay together at layer l iff they were together at l-1 and
    their incoming (source class, label) multisets match, where multiset
    equality is decided by explicit matching rather than canonical ids.
    Iterates to the fixpoint; returns one set-of-frozensets per layer, the
    final repeated layer excluded (mirroring the engine's storage rule).
    """
    nodes = sorted(kg.nodes)
    incoming = {v: kg.incoming(v) for v in nodes}

    same = {
        (u, v): kg.colours[u] == kg.colours[v] for u in nodes for v in nodes
    }
    partitions = [_classes(nodes, same)]
    while True:
        nxt = {}
        for u in nodes:
            for v in nodes:
                nxt[(u, v)] = same[(u, v)] and _multiset_match(
                    incoming[u], incoming[v], same
                )
        new_partition = _classes(nodes, nxt)
        if new_partition == partitions[-1]:
            return partitions
        partitions.append(new_partition)
        same = nxt


def _multiset_match(inc_u, inc_v, same) -> bool:
    if len(inc_u) != len(inc_v):
        return False
    used = [False] * len(inc_v)
    for r1, w1 in inc_u:
        for k, (r2, w2) in enumerate(inc_v):
            if not used[k] and r1 == r2 and same[(w1, w2)]:
                used[k] = True
                break
        else:
            return False
    return True


def _classes(nodes, same):
    groups = []
    for v in nodes:
        for group in groups:
            if same[(v, next(iter(group)))]:
                group.add(v)
                break
        else:
            groups.append({v})
    return {frozenset(g) for g in groups}


def full_resign_rounds(n, indptr, srcs, rels, init, max_layers):
    """Colour refinement that re-signs every node in every round.

    The kernel's contract without its incremental bookkeeping: each round
    keys every node by (colour, sorted (source colour, label) in-multiset),
    hands out dense ids in first-encounter order over 0..n-1, and stops when
    a round reproduces the previous layer exactly, which is then not stored.
    Returns (layers, stable_at) as `rwl._refine_rounds` does.
    """
    layers = [list(init)]
    for _ in range(max_layers):
        cur = layers[-1]
        table = {}
        new = []
        for v in range(n):
            incoming = sorted(
                (cur[srcs[e]], rels[e]) for e in range(indptr[v], indptr[v + 1])
            )
            new.append(table.setdefault((cur[v], tuple(incoming)), len(table)))
        if new == cur:
            return layers, len(layers) - 1
        layers.append(new)
    return layers, None


def temporal_wl_layers(graphs, local):
    """Temporal WL, as the paper defines it, on one or more graphs side by side.

    Layer 0 names each (origin, node, time index) by its colour in that
    snapshot. Layer l + 1 names (v, j) by its layer-l name and the multiset
    of (t_j - t_i, layer-l name of the sender) over the edges {u, v} of the
    snapshots i <= j, where the sender is (u, i) in the global variant and
    (u, j) in the local one. Each layer renames its values by their rank
    among the sorted `repr`s, so names are comparable across the graphs.
    Returns every layer up to the first that splits no class, which is left
    out, as dicts keyed by (origin, node, time index).
    """
    names, inbox = {}, {}
    for k, tg in enumerate(graphs):
        for j, snap in enumerate(tg.snapshots):
            for v in tg.node_ids:
                names[k, v, j] = repr(snap.colours[v])
                inbox[k, v, j] = [
                    (tg.times[j] - tg.times[i], (k, b if a == v else a, j if local else i))
                    for i in range(j + 1)
                    for a, b in tg.snapshots[i].edges
                    if v in (a, b)
                ]
    layers = [_ranked(names)]
    while True:
        prev = layers[-1]
        new = _ranked({
            x: repr((prev[x], sorted((gap, prev[src]) for gap, src in inbox[x])))
            for x in prev
        })
        if len(set(new.values())) == len(set(prev.values())):
            return layers
        layers.append(new)


def _ranked(values):
    rank = {value: r for r, value in enumerate(sorted(set(values.values())))}
    return {x: rank[value] for x, value in values.items()}


def first_difference(layers, x, y, bound=None):
    """First layer, up to `bound`, whose names of x and y differ; else None."""
    for layer, names in enumerate(layers[: None if bound is None else bound + 1]):
        if names[x] != names[y]:
            return layer
    return None


def brute_force_timewise_maps(tg1, tg2):
    """Every bijection that is an isomorphism on all snapshots simultaneously."""
    if len(tg1.node_ids) != len(tg2.node_ids):
        return []
    out = []
    for target in permutations(tg2.node_ids):
        f = dict(zip(tg1.node_ids, target))
        if _is_simultaneous_iso(tg1, tg2, f):
            out.append(f)
    return out


def brute_force_snapshot_iso_exists(tg1, tg2, index) -> bool:
    """Does any bijection map snapshot `index` of tg1 onto that of tg2?"""
    s1, s2 = tg1.snapshots[index], tg2.snapshots[index]
    for target in permutations(tg2.node_ids):
        f = dict(zip(tg1.node_ids, target))
        if all(s1.colours[v] == s2.colours[f[v]] for v in tg1.node_ids) and all(
            s1.has_edge(u, v) == s2.has_edge(f[u], f[v])
            for u in tg1.node_ids
            for v in tg1.node_ids
            if u < v
        ):
            return True
    return False


def _is_simultaneous_iso(tg1, tg2, f) -> bool:
    for s1, s2 in zip(tg1.snapshots, tg2.snapshots):
        for v in tg1.node_ids:
            if s1.colours[v] != s2.colours[f[v]]:
                return False
        for u in tg1.node_ids:
            for v in tg1.node_ids:
                if u < v and s1.has_edge(u, v) != s2.has_edge(f[u], f[v]):
                    return False
    return True


def refines(finer, coarser) -> bool:
    """Every class of `finer` lies inside one class of `coarser` (subset test)."""
    return all(
        any(cls <= big for big in coarser) for cls in finer
    )

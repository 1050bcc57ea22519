"""Graph pairs on which the array path of classify_all must match the
KnowledgeGraph reference path."""

from __future__ import annotations

from tempowl.gen import fixture, random_tg


def union_pairs():
    """Every fixture pair, plus seeded random pairs that cover the edge cases.

    The random graphs all name their nodes v0, v1, ..., so every random pair
    shares node ids, and graphs of more than ten nodes sort their ids out of
    creation order (v10 before v2).
    """
    yield fixture("fig2"), fixture("fig3")
    yield fixture("fig5_pair")
    yield fixture("fig6_pair")
    drift = dict(palette=("green", "blue"))
    # a graph with no edges
    yield random_tg(1, nodes=3, snapshots=2, edge_prob=0.0), random_tg(
        2, nodes=4, snapshots=3, edge_prob=0.5
    )
    # single-snapshot graphs
    yield random_tg(3, nodes=5, snapshots=1, edge_prob=0.5, **drift), random_tg(
        4, nodes=4, snapshots=1, edge_prob=0.6, **drift
    )
    # colour drift, uneven time grids
    yield random_tg(5, nodes=4, snapshots=3, edge_prob=0.5, **drift), random_tg(
        6, nodes=3, snapshots=4, edge_prob=0.4, uniform_grid=False, **drift
    )
    # one graph on both sides
    tg = random_tg(7, nodes=4, snapshots=3, edge_prob=0.4, uniform_grid=False, **drift)
    yield tg, tg
    # ids that sort out of creation order
    yield random_tg(8, nodes=11, snapshots=1, edge_prob=0.3, **drift), random_tg(
        9, nodes=12, snapshots=2, edge_prob=0.2, **drift
    )

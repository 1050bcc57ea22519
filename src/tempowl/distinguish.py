"""Node-distinguishability oracles and the four-way pair classifier.

Whether some global (resp. local) model can tell two timestamped nodes apart
is decided by refining the disjoint union of the corresponding encodings of
the two graphs and comparing the nodes' colours layer by layer. Running to
stabilisation decides distinguishability by any number of layers; the first
separating layer is recorded so fixed-depth networks can be emulated.

Cross-graph comparison needs no time alignment: relation labels are time
differences shared by value across the union.

Every query refines the union once through `rwl.refine_graphs`, which
compiles it straight to the kernel's arrays, and reads first separating
layers from the colour histories: `classify_all` for every cross pair, the
single-pair queries (`distinguishable_*`, `classify_pair`) for one. The tests
hold both to a reference built from the `KnowledgeGraph` union, and to a
temporal-WL oracle that works on the temporal graphs themselves.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import product, repeat
from operator import is_not

from tempowl import rwl
from tempowl.errors import UnknownNode
from tempowl.tgraph import TemporalGraph, TimestampedNode

PAIR_CLASSES = ("both", "global_only", "local_only", "neither")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one mode's distinguishability query."""

    distinguishable: bool
    first_layer: int | None
    mode: str


def _check_node(tg: TemporalGraph, tn: TimestampedNode) -> None:
    if tn.node not in tg.node_ids or not 0 <= tn.time_index < len(tg.times):
        raise UnknownNode(f"{tn} is not a timestamped node of this graph")


def _verdict(tg1, node1, tg2, node2, encoding, mode, max_layers):
    _check_node(tg1, node1)
    _check_node(tg2, node2)
    (layer,) = _pair_layers(tg1, tg2, encoding, [node1], [node2], max_layers)
    return Verdict(layer is not None, layer, mode)


def distinguishable_global(
    tg1: TemporalGraph,
    node1: TimestampedNode,
    tg2: TemporalGraph,
    node2: TimestampedNode,
    max_layers: int | None = None,
) -> Verdict:
    """Can some global message-passing model separate the pair?

    With the default unbounded run the answer covers models of any depth;
    a `max_layers` bound answers relative to networks of at most that depth.
    """
    return _verdict(tg1, node1, tg2, node2, "glob", "global", max_layers)


def distinguishable_local(
    tg1: TemporalGraph,
    node1: TimestampedNode,
    tg2: TemporalGraph,
    node2: TimestampedNode,
    max_layers: int | None = None,
) -> Verdict:
    """Can some local message-passing model separate the pair?"""
    return _verdict(tg1, node1, tg2, node2, "loc", "local", max_layers)


# pair class by (separated globally, separated locally)
CLASS_OF = {
    (True, True): "both",
    (True, False): "global_only",
    (False, True): "local_only",
    (False, False): "neither",
}


def classify_pair(
    tg1: TemporalGraph,
    node1: TimestampedNode,
    tg2: TemporalGraph,
    node2: TimestampedNode,
) -> str:
    """Four-way class of one pair, with both refinements run to stabilisation."""
    g = distinguishable_global(tg1, node1, tg2, node2)
    l = distinguishable_local(tg1, node1, tg2, node2)
    return CLASS_OF[g.distinguishable, l.distinguishable]


class PairTable(Mapping):
    """Read-only view of a row-major table as a mapping (row, col) -> value.

    `flat` holds the values of `product(rows, cols)` in that order, so a
    lookup reads two small per-graph dicts (a row's offset in `flat`, a
    column's index) and one tuple slot; no key tuple or dict of pairs is
    ever built. A key that is not a (row, col) pair of the table raises
    `KeyError`, as for a dict. Views compare equal to any mapping, a plain
    dict included, with the same items.
    """

    __slots__ = ("_flat", "_rows", "_cols", "_row_offset", "_col_index")

    def __init__(self, rows: tuple, cols: tuple, flat: tuple) -> None:
        self._flat = flat
        self._rows, self._cols = rows, cols
        self._row_offset = {row: i * len(cols) for i, row in enumerate(rows)}
        self._col_index = {col: j for j, col in enumerate(cols)}

    def __getitem__(self, key):
        try:
            row, col = key
            return self._flat[self._row_offset[row] + self._col_index[col]]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None

    @property
    def flat(self) -> tuple:
        """The values, row-major in `product(rows, cols)` order."""
        return self._flat

    def __iter__(self):
        return product(self._rows, self._cols)

    def __len__(self) -> int:
        return len(self._flat)

    def __eq__(self, other) -> bool:
        # Mapping's own __eq__ would copy both sides into dicts
        if not isinstance(other, Mapping):
            return NotImplemented
        missing = object()
        return len(self) == len(other) and all(
            other.get(key, missing) == value for key, value in zip(self, self._flat)
        )


@dataclass(frozen=True)
class ClassifyResult:
    """classify_all output: per-pair classes and layers, plus summary counts.

    `classes`, `global_layers` and `local_layers` are `PairTable` views keyed
    by (row, col) pairs, iterating in `product(rows, cols)` order; their
    values sit in flat row-major tuples (`view.flat`).
    """

    rows: tuple[TimestampedNode, ...]
    cols: tuple[TimestampedNode, ...]
    classes: PairTable  # (row, col) -> one of PAIR_CLASSES
    global_layers: PairTable  # (row, col) -> first separating layer or None
    local_layers: PairTable
    counts: dict[str, int]


def _separating_layers(
    layers: tuple[tuple[int, ...], ...], row_pos: list[int], col_pos: list[int]
) -> list[int | None]:
    """First separating layer of every (row, column) pair, row-major.

    Partitions only ever split, so the columns whose colour matches a row's
    at layer l are a subset of those that match it at layer l - 1. Each row
    starts at 0 for every column; each column that still matches at layer l
    moves on to l + 1, or to None at the last stored layer. A pair's value
    is thus the number of stored layers on which its two colours agree.
    """
    last = len(layers) - 1
    matching = []  # per layer: colour -> indices of the columns of that colour
    for layer in layers:
        by_colour: dict[int, list[int]] = {}
        for idx, p in enumerate(col_pos):
            by_colour.setdefault(layer[p], []).append(idx)
        matching.append(by_colour)
    out: list[int | None] = []
    for p in row_pos:
        row: list[int | None] = [0] * len(col_pos)
        for l, (layer, by_colour) in enumerate(zip(layers, matching)):
            value = l + 1 if l < last else None
            for idx in by_colour.get(layer[p], ()):
                row[idx] = value
        out.extend(row)
    return out


def _pair_layers(tg1, tg2, encoding, rows, cols, max_layers=None):
    """First separating layer of every (row of tg1, column of tg2) pair,
    row-major, from one refinement of the union's encoding."""
    colouring = rwl.refine_graphs((tg1, tg2), encoding, max_layers)
    pos = colouring.position
    return _separating_layers(
        colouring.layers, [pos((0, a)) for a in rows], [pos((1, b)) for b in cols]
    )


def classify_all(tg1: TemporalGraph, tg2: TemporalGraph) -> ClassifyResult:
    """Classify every cross pair from two shared refinement runs.

    Each encoding's disjoint union is refined once to stabilisation. A
    pair's first separating layer is then the number of stored layers on
    which its two colours agree, or None when they agree on the last one.
    The three per-pair tables are flat row-major tuples behind `PairTable`
    views.
    """
    rows = tuple(tg1.timestamped_nodes())
    cols = tuple(tg2.timestamped_nodes())
    glob, loc = (
        _pair_layers(tg1, tg2, encoding, rows, cols) for encoding in ("glob", "loc")
    )
    separated = zip(map(is_not, glob, repeat(None)), map(is_not, loc, repeat(None)))
    classes = tuple(map(CLASS_OF.__getitem__, separated))
    tally = Counter(classes)
    return ClassifyResult(
        rows,
        cols,
        PairTable(rows, cols, classes),
        PairTable(rows, cols, tuple(glob)),
        PairTable(rows, cols, tuple(loc)),
        {name: tally[name] for name in PAIR_CLASSES},
    )

"""Temporal graphs in the snapshot representation, plus conversions.

A temporal graph is a sequence of node-coloured undirected snapshots over a
fixed node set, taken at strictly increasing integer time points (micro-unit
resolution; all arithmetic on them stays exact). A graph is valid and
immutable after construction: `TemporalGraph` runs `validate` as it is
built, so no engine module re-checks what a graph holds. Values are safe to
share between workers; every operation in this module is a pure function.

Colour tokens are opaque strings compared for equality only. Feature vectors
can be used as colours by serialising them to a canonical string first.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from tempowl.errors import (
    EmptyEdgeSet,
    MissingColour,
    NonIncreasingTimes,
    NotColourPersistent,
    SelfLoop,
    UnknownNode,
    ValidationError,
)


class TimestampedNode(NamedTuple):
    """A node paired with the index of a time point (the index, not the timestamp).

    Storing the index rather than the timestamp makes shifting along the time
    axis plain index arithmetic.
    """

    node: str
    time_index: int


def _normalise_edge(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Snapshot:
    """One time slice: a colour per node and a set of undirected edges.

    Edges are stored as sorted pairs, so ``(u, v)`` and ``(v, u)`` denote the
    same edge and duplicates collapse.
    """

    colours: Mapping[str, str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        if not isinstance(self.colours, Mapping):  # dict() would read ["ab"] as {"a": "b"}
            raise ValidationError(f"colours {self.colours!r} are not a mapping")
        object.__setattr__(self, "colours", dict(self.colours))
        object.__setattr__(
            self, "edges", frozenset(_normalise_edge(u, v) for u, v in self.edges)
        )

    def has_edge(self, u: str, v: str) -> bool:
        return _normalise_edge(u, v) in self.edges


@dataclass(frozen=True)
class TemporalGraph:
    """A finite sequence of snapshots over a shared node set, validated as built."""

    node_ids: tuple[str, ...]
    times: tuple[int, ...]
    snapshots: tuple[Snapshot, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_ids", tuple(self.node_ids))
        object.__setattr__(self, "times", tuple(self.times))
        object.__setattr__(self, "snapshots", tuple(self.snapshots))
        validate(self)

    def timestamped_nodes(self) -> list[TimestampedNode]:
        """All (node, time index) pairs, time-major."""
        return [
            TimestampedNode(v, i)
            for i in range(len(self.times))
            for v in self.node_ids
        ]


@dataclass(frozen=True)
class AggregatedGraph:
    """Static multigraph view of a colour-persistent temporal graph.

    Each labelled edge (u, v, t) records that {u, v} was present at time t.
    """

    nodes: tuple[str, ...]
    colours: Mapping[str, str]
    edges: frozenset[tuple[str, str, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "colours", dict(self.colours))
        object.__setattr__(
            self,
            "edges",
            frozenset((*_normalise_edge(u, v), t) for u, v, t in self.edges),
        )


def node_key(tn: TimestampedNode) -> str:
    """Stable textual form ``name#index`` used in JSON/CSV outputs."""
    return f"{tn.node}#{tn.time_index}"


def validate(tg: TemporalGraph) -> None:
    """Check every structural invariant, raising on the first violation.

    Scan order is deterministic (times first, then snapshots in order with
    sorted contents), so the same broken graph always reports the same error.
    """
    if not tg.times:
        raise NonIncreasingTimes("time sequence is empty")
    for t in tg.times:
        if not isinstance(t, int) or isinstance(t, bool):
            raise ValidationError(f"time point {t!r} is not an integer")
    for i in range(1, len(tg.times)):
        if tg.times[i] <= tg.times[i - 1]:
            raise NonIncreasingTimes(
                f"times[{i}] = {tg.times[i]} does not exceed times[{i - 1}] = {tg.times[i - 1]}"
            )
    if len(tg.snapshots) != len(tg.times):
        raise ValidationError(
            f"{len(tg.snapshots)} snapshots for {len(tg.times)} time points"
        )
    for v in tg.node_ids:
        if not isinstance(v, str):
            raise ValidationError(f"node id {v!r} is not a string")
        if not v:
            raise ValidationError("empty node id")
    if len(set(tg.node_ids)) != len(tg.node_ids):
        raise ValidationError("duplicate node ids")
    known = set(tg.node_ids)
    for i, snap in enumerate(tg.snapshots):
        unknown = snap.colours.keys() - known
        if unknown:  # keys of any type: strings first, in sorted order
            v = min(unknown, key=lambda v: (not isinstance(v, str), str(v)))
            raise UnknownNode(f"snapshot {i}: colour given for unknown node {v!r}")
        for v in tg.node_ids:
            if v not in snap.colours:
                raise MissingColour(f"snapshot {i}: no colour for node {v!r}")
            if not isinstance(snap.colours[v], str):
                raise ValidationError(f"snapshot {i}: node {v!r} has a non-string colour")
        for u, v in sorted(snap.edges):
            if u == v:
                raise SelfLoop(f"snapshot {i}: self-loop on {u!r}")
            if u not in known:
                raise UnknownNode(f"snapshot {i}: edge endpoint {u!r} is unknown")
            if v not in known:
                raise UnknownNode(f"snapshot {i}: edge endpoint {v!r} is unknown")


def is_colour_persistent(tg: TemporalGraph) -> bool:
    """True iff every node keeps one colour across all snapshots."""
    first = tg.snapshots[0].colours
    return all(snap.colours == first for snap in tg.snapshots[1:])


def to_aggregated(tg: TemporalGraph) -> AggregatedGraph:
    """Collapse a colour-persistent graph into its labelled-multigraph form."""
    if not is_colour_persistent(tg):
        raise NotColourPersistent("aggregation requires one colour per node")
    edges = {
        (u, v, tg.times[i])
        for i, snap in enumerate(tg.snapshots)
        for (u, v) in snap.edges
    }
    return AggregatedGraph(tg.node_ids, dict(tg.snapshots[0].colours), frozenset(edges))


def from_aggregated(
    agg: AggregatedGraph, times: Sequence[int] | None = None
) -> TemporalGraph:
    """Expand a labelled multigraph back into snapshots.

    Snapshot times default to the sorted distinct edge labels; an edgeless
    aggregate carries no time information, so the caller must then supply
    `times` explicitly (also the way to recover edge-free snapshots).
    """
    if times is None:
        if not agg.edges:
            raise EmptyEdgeSet("no edge labels to derive snapshot times from")
        times = sorted({t for _, _, t in agg.edges})
    else:
        times = list(times)
        labels = {t for _, _, t in agg.edges}
        missing = labels - set(times)
        if missing:
            raise ValidationError(
                f"edge labels {sorted(missing)} not covered by explicit times"
            )
    snapshots = [
        Snapshot(
            dict(agg.colours),
            {(u, v) for u, v, t in agg.edges if t == time},
        )
        for time in times
    ]
    return TemporalGraph(agg.nodes, tuple(times), tuple(snapshots))


def reject_self_loops(events: Iterable[tuple[str, str, int]]) -> None:
    """Raise SelfLoop for the first (u, v, t) event with u == v."""
    for u, v, _ in events:
        if u == v:
            raise SelfLoop(f"event has equal endpoints {u!r}")


def from_events(
    events: Iterable[tuple[str, str, int]], default_colour: str
) -> TemporalGraph:
    """Build a colour-persistent graph from (u, v, t) edge events.

    Snapshots are grouped by distinct sorted t; the node set is the union of
    endpoints and every node gets `default_colour` everywhere.
    """
    events = list(events)
    if not events:
        raise EmptyEdgeSet("no events")
    reject_self_loops(events)
    nodes = tuple(sorted({x for u, v, _ in events for x in (u, v)}))
    if "" in nodes:
        raise ValidationError("empty node id in events")
    times = tuple(sorted({t for _, _, t in events}))
    colours = {v: default_colour for v in nodes}
    by_time: dict[int, set[tuple[str, str]]] = {t: set() for t in times}
    for u, v, t in events:
        by_time[t].add(_normalise_edge(u, v))
    snapshots = tuple(Snapshot(colours, by_time[t]) for t in times)
    return TemporalGraph(nodes, times, snapshots)


def shifted_copy(tg: TemporalGraph, offset: int) -> TemporalGraph:
    """The same graph with every time point moved by `offset`."""
    return TemporalGraph(
        tg.node_ids, tuple(t + offset for t in tg.times), tg.snapshots
    )


# --- JSON / CSV interchange -------------------------------------------------

def to_dict(tg: TemporalGraph) -> dict:
    return {
        "nodes": list(tg.node_ids),
        "times": list(tg.times),
        "snapshots": [
            {
                "colours": {v: snap.colours[v] for v in tg.node_ids},
                "edges": [list(e) for e in sorted(snap.edges)],
            }
            for snap in tg.snapshots
        ],
    }


def _pair(edge, i: int) -> tuple[str, str]:
    # checked, as tuple(edge) would read the string "ab" as the edge {a, b}
    if isinstance(edge, list) and len(edge) == 2:
        u, v = edge
        if isinstance(u, str) and isinstance(v, str):
            return u, v
    raise ValidationError(f"snapshot {i}: edge {edge!r} is not a list of two node ids")


def from_dict(data: dict) -> TemporalGraph:
    """Read a temporal-graph document, raising ValidationError on any defect."""
    try:
        if not isinstance(data["nodes"], list):
            raise ValidationError(f"nodes {data['nodes']!r} is not a list of node ids")
        snapshots = []
        for i, snap in enumerate(data["snapshots"]):
            if not isinstance(snap["colours"], dict):
                raise TypeError(f"snapshot {i}: colours {snap['colours']!r} is not a JSON object")
            snapshots.append(Snapshot(snap["colours"], {_pair(e, i) for e in snap["edges"]}))
        return TemporalGraph(tuple(data["nodes"]), tuple(data["times"]), snapshots)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed temporal-graph document: {exc}") from exc


def to_json(tg: TemporalGraph) -> str:
    return json.dumps(to_dict(tg), sort_keys=True)


def from_json(text: str) -> TemporalGraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not a JSON document: {exc}") from exc
    return from_dict(data)


def events_from_csv(text: str) -> list[tuple[str, str, int]]:
    """Parse the event interchange format: header ``u,v,t``, one event per row."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["u", "v", "t"]:
        raise ValidationError(f"expected header u,v,t, got {header!r}")
    events = []
    for row in reader:
        if not row:
            continue
        if len(row) != 3:
            raise ValidationError(f"expected 3 columns, got {row!r}")
        u, v, t = row
        if not u or not v:
            raise ValidationError(f"empty node id in {row!r}")
        try:
            events.append((u, v, int(t)))
        except ValueError as exc:
            raise ValidationError(f"non-integer timestamp {t!r}") from exc
    return events


def events_to_csv(events: Iterable[tuple[str, str, int]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["u", "v", "t"])
    for u, v, t in events:
        writer.writerow([u, v, t])
    return out.getvalue()

"""Hypothesis strategies for temporal graphs and their documents.

`temporal_graphs()` draws small valid graphs, with node ids that contain the
CLI's separators and times that may be negative or unevenly spaced.
`MUTATIONS` maps the name of one defect to a function that plants it in a
valid graph's document (the `to_dict` form) and to the `ValidationError`
subclass that reading the result must raise. `parts` turns a document back
into constructor arguments without any check, so a test can feed the same
defect to `TemporalGraph(...)` and to `from_dict`.
"""

from __future__ import annotations

from hypothesis import strategies as st

from tempowl.errors import (
    MissingColour,
    NonIncreasingTimes,
    SelfLoop,
    UnknownNode,
    ValidationError,
)
from tempowl.tgraph import Snapshot, TemporalGraph

NODE_IDS = st.text(alphabet="abxy#@", min_size=1, max_size=3)
COLOURS = st.sampled_from(("g", "r", "b"))


@st.composite
def temporal_graphs(draw, max_nodes=4, min_snapshots=1, max_snapshots=4):
    """A valid graph of 1..max_nodes nodes and min..max_snapshots snapshots."""
    ids = draw(st.lists(NODE_IDS, min_size=1, max_size=max_nodes, unique=True))
    times = draw(
        st.lists(
            st.integers(-20, 20),
            min_size=min_snapshots,
            max_size=max_snapshots,
            unique=True,
        )
    )
    pairs = [(u, v) for u in ids for v in ids if u < v]
    snaps = [
        Snapshot(
            {v: draw(COLOURS) for v in ids},
            draw(st.sets(st.sampled_from(pairs))) if pairs else set(),
        )
        for _ in times
    ]
    return TemporalGraph(ids, sorted(times), snaps)


def parts(doc: dict) -> tuple:
    """(node_ids, times, snapshots) of a document, as `TemporalGraph` takes them."""
    snaps = [
        Snapshot(snap["colours"], {tuple(e) for e in snap["edges"]})
        for snap in doc["snapshots"]
    ]
    return doc["nodes"], doc["times"], snaps


def _drop_colour(doc, draw):
    snap = draw(st.sampled_from(doc["snapshots"]))
    del snap["colours"][draw(st.sampled_from(doc["nodes"]))]


def _unknown_endpoint(doc, draw):
    v = draw(st.sampled_from(doc["nodes"]))
    # "?" is outside NODE_IDS' alphabet, so no graph has it as a node
    draw(st.sampled_from(doc["snapshots"]))["edges"].append([v, "?"])


def _self_loop(doc, draw):
    v = draw(st.sampled_from(doc["nodes"]))
    draw(st.sampled_from(doc["snapshots"]))["edges"].append([v, v])


def _repeat_time(doc, draw):
    i = draw(st.integers(0, len(doc["times"]) - 1))
    doc["times"].insert(i, doc["times"][i])
    doc["snapshots"].insert(i, doc["snapshots"][i])


def _reverse_times(doc, draw):
    doc["times"].reverse()


def _drop_snapshot(doc, draw):
    doc["snapshots"].pop(draw(st.integers(0, len(doc["snapshots"]) - 1)))


def _empty_node_id(doc, draw):
    doc["nodes"].append("")
    for snap in doc["snapshots"]:
        snap["colours"][""] = "g"


def _non_string_colour(doc, draw):
    snap = draw(st.sampled_from(doc["snapshots"]))
    snap["colours"][draw(st.sampled_from(doc["nodes"]))] = draw(
        st.sampled_from((1, None, ["g"]))
    )


def _colours_as_pairs(doc, draw):
    snap = draw(st.sampled_from(doc["snapshots"]))
    snap["colours"] = [[v, c] for v, c in snap["colours"].items()]


# name -> (plant the defect in a document, the error reading it must raise);
# every mutation assumes at least two snapshots, so that reversing changes order
MUTATIONS = {
    "drop_colour": (_drop_colour, MissingColour),
    "unknown_endpoint": (_unknown_endpoint, UnknownNode),
    "self_loop": (_self_loop, SelfLoop),
    "repeat_time": (_repeat_time, NonIncreasingTimes),
    "reverse_times": (_reverse_times, NonIncreasingTimes),
    "drop_snapshot": (_drop_snapshot, ValidationError),
    "empty_node_id": (_empty_node_id, ValidationError),
    "non_string_colour": (_non_string_colour, ValidationError),
    "colours_as_pairs": (_colours_as_pairs, ValidationError),
}

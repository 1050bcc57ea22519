"""Hypothesis strategies for temporal graphs and their documents.

`temporal_graphs()` draws small valid graphs, with node ids that contain the
CLI's separators and times that may be negative or unevenly spaced.
`MUTATIONS` maps the name of one defect to a function that plants it in a
valid graph's document (the `to_dict` form) and to the `ValidationError`
subclass that reading the result must raise. `parts` turns a document back
into constructor arguments without any check, so a test can feed the same
defect to `TemporalGraph(...)` and to `from_dict`.

`events()` draws event lists for the u,v,t CSV format, with node ids that
need CSV quoting. `KG_MUTATIONS` and `EVENT_MUTATIONS` do for a
knowledge-graph document (`kgraph.to_dict`) and for the rows of an event-CSV
document what `MUTATIONS` does for a graph document.
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


# --- Knowledge-graph documents ---------------------------------------------------


def _kg_node(doc, draw):
    return list(draw(st.sampled_from(doc["nodes"])))


def _kg_drop_colour(doc, draw):
    del doc["colours"][draw(st.sampled_from(sorted(doc["colours"])))]


def _kg_non_string_colour(doc, draw):
    key = draw(st.sampled_from(sorted(doc["colours"])))
    doc["colours"][key] = draw(st.sampled_from((1, None, ["g"])))


def _kg_bad_colour_key(doc, draw):
    key = draw(st.sampled_from(sorted(doc["colours"])))
    name = key.rpartition("#")[0]
    doc["colours"][f"{name}#{draw(st.sampled_from(('x', '', '1.5')))}"] = (
        doc["colours"].pop(key)
    )


def _kg_duplicate_node(doc, draw):
    doc["nodes"].append(_kg_node(doc, draw))


def _kg_negative_time_index(doc, draw):
    name = _kg_node(doc, draw)[0]
    doc["nodes"].append([name, -1])
    doc["colours"][f"{name}#-1"] = "g"


def _kg_node_not_a_pair(doc, draw):
    doc["nodes"][draw(st.integers(0, len(doc["nodes"]) - 1))] = draw(
        st.sampled_from((["a"], ["a", 0, 1], 7, ["a", "0"], [1, 0], ["a", True]))
    )


def _kg_edge_leaves_node_set(doc, draw):
    # "?" is outside NODE_IDS' alphabet, so no graph has it as a node
    doc["edges"].append([0, _kg_node(doc, draw), ["?", 0]])


def _kg_bad_label(doc, draw):
    node = _kg_node(doc, draw)
    doc["edges"].append([draw(st.sampled_from((-1, "1", 1.5, True, None))), node, node])


def _kg_edge_not_a_triple(doc, draw):
    doc["edges"].append(draw(st.sampled_from(([0], [0, ["a", 0]], 5, [0, "a", "b"]))))


def _kg_drop_key(doc, draw):
    del doc[draw(st.sampled_from(("nodes", "colours", "edges")))]


def _kg_colours_as_pairs(doc, draw):
    doc["colours"] = [[k, c] for k, c in doc["colours"].items()]


# name -> (plant the defect in a knowledge-graph document, the error reading
# it must raise); every mutation works on a document with at least one node
KG_MUTATIONS = {
    name: (plant, ValidationError)
    for name, plant in (
        ("drop_colour", _kg_drop_colour),
        ("non_string_colour", _kg_non_string_colour),
        ("bad_colour_key", _kg_bad_colour_key),
        ("duplicate_node", _kg_duplicate_node),
        ("negative_time_index", _kg_negative_time_index),
        ("node_not_a_pair", _kg_node_not_a_pair),
        ("edge_leaves_node_set", _kg_edge_leaves_node_set),
        ("bad_label", _kg_bad_label),
        ("edge_not_a_triple", _kg_edge_not_a_triple),
        ("drop_key", _kg_drop_key),
        ("colours_as_pairs", _kg_colours_as_pairs),
    )
}


# --- Event-CSV documents -----------------------------------------------------------

# comma, quote and space make the CSV writer quote a field
EVENT_IDS = st.text(alphabet='ab,"# @', min_size=1, max_size=3)


def events(min_size=0, max_size=6):
    """A list of (u, v, t) events, as `events_to_csv` takes them."""
    return st.lists(
        st.tuples(EVENT_IDS, EVENT_IDS, st.integers(-20, 20)),
        min_size=min_size,
        max_size=max_size,
    )


def _row(rows, draw):
    return draw(st.integers(1, len(rows) - 1))


def _ev_bad_header(rows, draw):
    rows[0] = draw(st.sampled_from((["v", "u", "t"], ["u", "v"], ["u", "v", "t", "w"])))


def _ev_no_header(rows, draw):
    del rows[0]


def _ev_empty_document(rows, draw):
    rows.clear()


def _ev_column_count(rows, draw):
    i = _row(rows, draw)
    rows[i] = draw(st.sampled_from((rows[i][:2], [*rows[i], "1"], rows[i][:1])))


def _ev_empty_node_id(rows, draw):
    rows[_row(rows, draw)][draw(st.integers(0, 1))] = ""


def _ev_non_integer_time(rows, draw):
    rows[_row(rows, draw)][2] = draw(st.sampled_from(("x", "1.5", "", "0x1", "1e3")))


# name -> (plant the defect in the rows of an event-CSV document, header
# first, the error reading it must raise); every mutation assumes one event
EVENT_MUTATIONS = {
    name: (plant, ValidationError)
    for name, plant in (
        ("bad_header", _ev_bad_header),
        ("no_header", _ev_no_header),
        ("empty_document", _ev_empty_document),
        ("column_count", _ev_column_count),
        ("empty_node_id", _ev_empty_node_id),
        ("non_integer_time", _ev_non_integer_time),
    )
}

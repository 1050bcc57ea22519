"""Parse a workload's input document, the step that `setup_s` times.

The document is one JSON object: `graphs` holds temporal-graph documents in
tempowl's canonical JSON (each a string, read with `tgraph.from_json`, which
also runs `validate`), and `trials` holds any trial seeds. The benchmark
process and the fresh interpreter that measures set-up both call
`load_inputs`, so the two cannot drift apart.
"""

from __future__ import annotations

import json

from tempowl import tgraph


def load_inputs(text: str) -> tuple[list, list]:
    doc = json.loads(text)
    return [tgraph.from_json(g) for g in doc["graphs"]], doc["trials"]

"""The engine's layers as the traced run sees them, and their per-layer metrics.

A layer is a module of `tempowl`. SPANS lists the public entry points the
traced run wraps, the span each call records and the counts it adds. All
time metrics are self times (a span minus its children), as seconds per
traced op, except `tgraph.load_s`, which is the whole load before the first
op. Counts are per traced op. Shares are a layer's self time over the wall
time of the traced ops. `tgraph` has no share: it runs only before the first
op.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

from spans import Tracer, self_times
from workloads import FUZZ_CHECKS

LOAD_OP = "load"


def _encode(add, args, kg) -> None:
    add("kgraph.encode_edges", len(kg.edges))


def _union(add, args, result) -> None:
    merged, _ = result
    add("kgraph.union_nodes", len(merged.nodes))
    add("kgraph.union_edges", len(merged.edges))


def _kernel(add, args, result) -> None:
    layers, stable_at = result
    splits = len(layers) - 1
    rounds = splits + (stable_at is not None)  # the round that repeats is not stored
    add("rwl.kernel_rounds", rounds)
    add("rwl.split_rounds", splits)
    add("rwl.kernel_edge_visits", rounds * len(args[2]))  # args: n, indptr, srcs, ...
    add("rwl.classes_final", len(set(layers[-1])))


def _pairs(add, args, result) -> None:
    add("distinguish.pairs", len(result.classes))


def _forward(add, args, state) -> None:
    add("tgnn.forward_calls", 1)
    add("tgnn.node_layers", len(state.nodes) * state.config.layers)


# (module, function, span name, count hook)
SPANS = (
    ("tgraph", "from_json", "tgraph.load", None),
    ("tgraph", "validate", "tgraph.load", None),
    ("kgraph", "k_glob", "kgraph.encode", _encode),
    ("kgraph", "k_loc", "kgraph.encode", _encode),
    ("kgraph", "disjoint_union", "kgraph.union", _union),
    ("rwl", "kernel_inputs", "rwl.flatten", None),
    ("rwl", "_refine_rounds", "rwl.kernel", _kernel),
    ("rwl", "refine", "rwl.refine", None),
    ("distinguish", "classify_all", "distinguish.extract", _pairs),
    ("tgnn", "forward", "tgnn.forward", _forward),
    ("gen", "random_tg", "gen.random_tg", None),
    *(("properties", f"check_{name}", "properties.trial", None) for name in FUZZ_CHECKS),
)
SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span, _ in SPANS))
COUNTS = (
    "kgraph.encode_edges",
    "kgraph.union_nodes",
    "kgraph.union_edges",
    "rwl.kernel_rounds",
    "rwl.kernel_edge_visits",
    "rwl.classes_final",
    "distinguish.pairs",
    "tgnn.forward_calls",
    "tgnn.node_layers",
    "tgnn.derive_seed_calls",
)
SHARE_LAYERS = ("kgraph", "rwl", "distinguish", "tgnn", "gen", "properties")
SOURCE_FILES = (
    "__init__.py",
    "_refine_py.py",
    "cli.py",
    "distinguish.py",
    "errors.py",
    "gen.py",
    "iso.py",
    "kgraph.py",
    "properties.py",
    "rwl.py",
    "tgnn.py",
    "tgraph.py",
    "_refine_core.pyx",
    "_refine_core.c",
)


def source_metric(filename: str) -> str:
    stem, _, ext = filename.rpartition(".")
    return f"src.lines.{stem if ext == 'py' else filename}"


def make_tracer() -> Tracer:
    """A tracer over every tempowl module loaded now; import the engine first."""
    tracer = Tracer()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tempowl"]
    for module, attr, span, count in SPANS:
        original = getattr(sys.modules[f"tempowl.{module}"], attr)
        tracer.rebind(modules, original, tracer.spanned(span, original, count))
    tgnn = sys.modules["tempowl.tgnn"]
    tracer.rebind([tgnn], tgnn.derive_seed, tracer.counted("tgnn.derive_seed_calls", tgnn.derive_seed))
    return tracer


def per_layer(tracer: Tracer, op_ids: list, op_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced ops `op_ids`, which took `op_wall_s` in all."""
    ops, n = set(op_ids), len(op_ids)
    own = defaultdict(float)
    load = 0.0
    for record, self_s in zip(tracer.spans, self_times(tracer.spans)):
        if record[4] in ops:
            own[record[0]] += self_s
        elif record[4] == LOAD_OP:
            load += self_s
    counts = defaultdict(float)
    for (op, name), value in tracer.counts.items():
        if op in ops:
            counts[name] += value
    metrics = {}
    for span in SPAN_NAMES:
        metrics[f"{span}_s"] = (load if span == "tgraph.load" else own[span] / n, "s")
    for name in COUNTS:
        metrics[name] = (counts[name] / n, "count")
    rounds = counts["rwl.kernel_rounds"]
    metrics["rwl.split_round_ratio"] = (counts["rwl.split_rounds"] / rounds if rounds else 0.0, "ratio")
    for layer in SHARE_LAYERS:
        layer_s = sum(v for span, v in own.items() if span.split(".")[0] == layer)
        metrics[f"{layer}.share"] = (layer_s / op_wall_s, "ratio")
    return metrics


def source_lines(src: Path) -> dict[str, tuple[float, str]]:
    """Lines per engine source file (0 once a file is gone), and the total
    over the hand-written .py and .pyx files; the generated C is separate."""
    pkg = src / "tempowl"
    metrics = {}
    for filename in SOURCE_FILES:
        path = pkg / filename
        lines = len(path.read_text().splitlines()) if path.exists() else 0
        metrics[source_metric(filename)] = (lines, "lines")
    handwritten = [*pkg.glob("*.py"), *pkg.glob("*.pyx")]
    metrics["src.lines.total"] = (sum(len(p.read_text().splitlines()) for p in handwritten), "lines")
    return metrics

"""Command-line surface; every output is UTF-8 JSON (or CSV where stated).

Timestamped nodes are addressed as ``name@time`` (exact timestamp) or
``name#index`` (0-based snapshot index); the last separator wins, so a node
name may itself contain either character.

Exit codes: 0 success, 1 failed check or property violation, 2 usage error,
3 internal error (a crash; the traceback goes to stderr).
"""

from __future__ import annotations

import csv
import io
import json
import sys
import traceback

import click

from tempowl import distinguish, gen, iso, kgraph, properties, rwl, tgnn, tgraph
from tempowl.errors import TempowlError, ValidationError
from tempowl.tgraph import TimestampedNode, node_key


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None


def _load_graph(path: str) -> tgraph.TemporalGraph:
    return tgraph.from_json(_read_text(path))


def _emit(data, output: str | None) -> None:
    text = json.dumps(data, sort_keys=True)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        click.echo(text)


def _parse_node_ref(ref: str, tg: tgraph.TemporalGraph) -> TimestampedNode:
    cut = max(ref.rfind("#"), ref.rfind("@"))
    if cut < 0:
        raise click.UsageError(
            f"node reference {ref!r} needs name@time or name#index"
        )
    name, separator, raw = ref[:cut], ref[cut], ref[cut + 1:]
    if separator == "#":
        try:
            index = int(raw)
        except ValueError:
            raise click.UsageError(f"bad node index in {ref!r}") from None
    else:
        try:
            stamp = int(raw)
        except ValueError:
            raise click.UsageError(f"bad timestamp in {ref!r}") from None
        if stamp not in tg.times:
            raise click.UsageError(f"{stamp} is not a time point of the graph")
        index = tg.times.index(stamp)
    if name not in tg.node_ids or not 0 <= index < len(tg.times):
        raise click.UsageError(f"{ref!r} is not a timestamped node of the graph")
    return TimestampedNode(name, index)


_ENCODERS = {"glob": kgraph.k_glob, "loc": kgraph.k_loc}


class _Group(click.Group):
    """Reports a library error from any command as ``{"error", "detail"}``,
    exit 1, and any other exception as ``{"error": "InternalError", ...}``,
    exit 3, with the traceback on stderr. Click's own exceptions pass through."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except TempowlError as exc:
            _emit({"error": type(exc).__name__, "detail": str(exc)}, None)
            sys.exit(1)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            traceback.print_exc()
            detail = f"{type(exc).__name__}: {exc}"
            _emit({"error": "InternalError", "detail": detail}, None)
            sys.exit(3)


@click.group(cls=_Group)
def main() -> None:
    """Decide which timestamped nodes temporal message passing can tell apart."""


@main.command()
@click.argument("graph", type=click.Path(exists=True))
def validate(graph: str) -> None:
    """Check a temporal-graph JSON file against all invariants."""
    try:
        _load_graph(graph)
    except TempowlError as exc:
        _emit({"ok": False, "error": type(exc).__name__, "detail": str(exc)}, None)
        sys.exit(1)
    _emit({"ok": True}, None)


@main.command()
@click.argument("graph", type=click.Path(exists=True))
@click.option("--encoding", type=click.Choice(["glob", "loc"]), required=True)
@click.option("-o", "--output", type=click.Path())
def transform(graph: str, encoding: str, output: str | None) -> None:
    """Compile a temporal graph into one of the knowledge-graph encodings."""
    kg = _ENCODERS[encoding](_load_graph(graph))
    _emit(kgraph.to_dict(kg), output)


@main.command()
@click.argument("graph", type=click.Path(exists=True))
@click.option("--encoding", type=click.Choice(["glob", "loc"]), default="glob")
@click.option(
    "--layers", type=click.IntRange(min=0), default=None, help="Bound the iteration count."
)
@click.option("-o", "--output", type=click.Path())
def refine(graph: str, encoding: str, layers: int | None, output: str | None) -> None:
    """Run colour refinement and emit the per-layer partitions."""
    kg = _ENCODERS[encoding](_load_graph(graph))
    colouring = rwl.refine(kg, layers)
    partitions = [
        [[node_key(tn) for tn in group] for group in rwl.partition_at(colouring, layer)]
        for layer in range(len(colouring.layers))
    ]
    _emit(
        {
            "backend": rwl.REFINE_BACKEND,
            "stable_at": colouring.stable_at,
            "classes_per_layer": [len(groups) for groups in partitions],
            "partitions": partitions,
        },
        output,
    )


def _verdict_json(first_layer: int | None, layers: int | None = None) -> dict:
    """A verdict as JSON, cut at a bound of `layers` when one is given."""
    if layers is not None and first_layer is not None and first_layer > layers:
        first_layer = None
    return {"distinguishable": first_layer is not None, "first_layer": first_layer}


@main.command()
@click.option("--a", "graph_a", type=click.Path(exists=True), required=True)
@click.option("--node-a", required=True)
@click.option("--b", "graph_b", type=click.Path(exists=True), required=True)
@click.option("--node-b", required=True)
@click.option("--mode", type=click.Choice(["global", "local", "both"]), default="both")
@click.option("--layers", type=click.IntRange(min=0), default=None)
def compare(graph_a, node_a, graph_b, node_b, mode, layers) -> None:
    """Distinguishability verdict for one pair of timestamped nodes."""
    tg1, tg2 = _load_graph(graph_a), _load_graph(graph_b)
    n1, n2 = _parse_node_ref(node_a, tg1), _parse_node_ref(node_b, tg2)
    queries = {
        "global": distinguish.distinguishable_global,
        "local": distinguish.distinguishable_local,
    }
    if mode != "both":
        verdict = queries[mode](tg1, n1, tg2, n2, layers)
        _emit({"mode": mode, **_verdict_json(verdict.first_layer)}, None)
        return
    # The class needs unbounded verdicts. A run bounded at --layers stores a
    # prefix of the unbounded run's layers, so it separates the pair exactly
    # when the unbounded first layer is at most --layers.
    g, l = (query(tg1, n1, tg2, n2) for query in queries.values())
    payload = {
        "global": _verdict_json(g.first_layer, layers),
        "local": _verdict_json(l.first_layer, layers),
        "class": distinguish.CLASS_OF[g.distinguishable, l.distinguishable],
    }
    _emit(payload, None)


@main.command()
@click.option("--a", "graph_a", type=click.Path(exists=True), required=True)
@click.option("--b", "graph_b", type=click.Path(exists=True), required=True)
@click.option("-o", "--output", type=click.Path())
def classify(graph_a, graph_b, output) -> None:
    """CSV matrix of pair classes over all cross pairs of timestamped nodes."""
    result = distinguish.classify_all(_load_graph(graph_a), _load_graph(graph_b))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([""] + [node_key(tn) for tn in result.cols])
    classes, width = result.classes.flat, len(result.cols)
    for i, row_node in enumerate(result.rows):
        writer.writerow([node_key(row_node), *classes[i * width : (i + 1) * width]])
    text = buffer.getvalue()
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)


@main.command("iso")
@click.argument("graph_a", type=click.Path(exists=True))
@click.argument("graph_b", type=click.Path(exists=True))
@click.option("--kind", type=click.Choice(["pointwise", "timewise"]), required=True)
@click.option(
    "--max-nodes", type=click.IntRange(min=0), default=iso.DEFAULT_NODE_LIMIT
)
def iso_command(graph_a, graph_b, kind, max_nodes) -> None:
    """Search for a pointwise or timewise isomorphism witness."""
    tg1, tg2 = _load_graph(graph_a), _load_graph(graph_b)
    search = iso.pointwise_iso if kind == "pointwise" else iso.timewise_iso
    witness = search(tg1, tg2, max_nodes)
    if witness is None:
        _emit({"isomorphic": False}, None)
    else:
        _emit(
            {"isomorphic": True, "kind": witness.kind, "maps": list(witness.maps)},
            None,
        )


@main.command()
@click.argument("graph", type=click.Path(exists=True))
@click.option("--mode", type=click.Choice(["global", "local"]), required=True)
@click.option(
    "--variant", type=click.Choice(list(tgnn.VARIANTS)), default="sum_sign"
)
@click.option("--seed", type=int, default=0)
@click.option("--layers", type=click.IntRange(min=0), default=2)
@click.option("--width", type=click.IntRange(min=1), default=8)
@click.option("-o", "--output", type=click.Path())
def simulate(graph, mode, variant, seed, layers, width, output) -> None:
    """Exact integer forward pass; emits all per-layer embeddings."""
    state = tgnn.forward(
        _load_graph(graph), tgnn.ModelConfig(mode, layers, width, variant, seed)
    )

    def as_json(value):
        return list(value) if isinstance(value, tuple) else value

    embeddings = {
        node_key(tn): [as_json(state.value(tn, layer)) for layer in range(layers + 1)]
        for tn in state.nodes
    }
    _emit(
        {
            "mode": mode,
            "variant": variant,
            "seed": seed,
            "layers": layers,
            "width": width,
            "embeddings": embeddings,
        },
        output,
    )


@main.command()
@click.argument("name")
@click.option("--part", type=click.Choice(["a", "b"]), default=None)
@click.option("-o", "--output", type=click.Path())
def fixture(name, part, output) -> None:
    """Write a named figure fixture; use --part to pick one side of a pair."""
    value = gen.fixture(name)
    if isinstance(value, tuple):
        if part:
            value = value[0 if part == "a" else 1]
            _emit(tgraph.to_dict(value), output)
        else:
            _emit(
                {"a": tgraph.to_dict(value[0]), "b": tgraph.to_dict(value[1])}, output
            )
    else:
        if part:
            raise click.UsageError(f"fixture {name} is not a pair")
        _emit(tgraph.to_dict(value), output)


@main.command("gen")
@click.option("--seed", type=int, required=True)
@click.option("--nodes", type=click.IntRange(min=1), default=5)
@click.option("--snapshots", type=click.IntRange(min=1), default=3)
@click.option("--edge-prob", type=click.FloatRange(0, 1), default=0.4)
@click.option("--palette", default="green,blue,red", help="Comma-separated colours.")
@click.option("--colour-persistent", is_flag=True)
@click.option("--non-uniform-grid", is_flag=True)
@click.option("-o", "--output", type=click.Path())
def gen_command(
    seed, nodes, snapshots, edge_prob, palette, colour_persistent, non_uniform_grid, output
) -> None:
    """Emit a seeded random temporal graph."""
    tg = gen.random_tg(
        seed,
        nodes,
        snapshots,
        edge_prob,
        tuple(palette.split(",")),
        colour_persistent,
        not non_uniform_grid,
    )
    _emit(tgraph.to_dict(tg), output)


@main.command()
@click.option(
    "--property",
    "property_name",
    type=click.Choice(list(properties.PROPERTY_NAMES)),
    required=True,
)
@click.option("--trials", type=click.IntRange(min=1), default=100)
@click.option("--seed", type=int, default=0)
@click.option(
    "--jobs",
    type=click.IntRange(min=1),
    default=None,
    help="Worker pool size (capped by TEMPOWL_THREADS).",
)
def fuzz(property_name, trials, seed, jobs) -> None:
    """Fuzz one property; exit 1 with the minimal reproducing seed on violation."""
    try:
        report = properties.run_property(property_name, trials, seed, jobs)
    except ValidationError as exc:  # a bad TEMPOWL_THREADS
        raise click.UsageError(str(exc)) from None
    _emit(
        {
            "property": report.property,
            "trials": report.trials,
            "passed": report.passed,
            "violations": report.violations,
            "min_seed": report.min_seed(),
        },
        None,
    )
    if not report.passed:
        sys.exit(1)


@main.command()
@click.argument("events", type=click.Path(exists=True))
def stats(events) -> None:
    """Node/edge/step counts of a CSV event file."""
    rows = tgraph.events_from_csv(_read_text(events))
    tgraph.reject_self_loops(rows)
    nodes = {x for u, v, _ in rows for x in (u, v)}
    steps = {t for _, _, t in rows}
    _emit({"nodes": len(nodes), "edges": len(rows), "steps": len(steps)}, None)


if __name__ == "__main__":
    main()

"""Tests for the benchmark's own helpers: python -m pytest perfbench

The generator checks below use only benchmark code and the graphs' plain
data, never the engine's own comparisons, so an engine bug cannot hide a
generator bug.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from gc import disable as gc_off, enable as gc_on, isenabled as gc_is_enabled
from pathlib import Path

import pytest

import compare
import hostspeed
import layers
import run
import workloads
from loader import load_inputs
from run import tail
from spans import Tracer, covered, self_times
from tempowl import kgraph, rwl
from tempowl.gen import fixture

BENCH = Path(__file__).resolve().parent


# --- tail percentile ----------------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    latencies = [float(x) for x in range(30, 0, -1)]
    value, percentile = tail(latencies)
    assert value == 20.0
    assert sum(x > value for x in latencies) == 10
    assert percentile == pytest.approx(100 * 20 / 30)


def test_tail_is_the_median_at_twenty_samples():
    value, percentile = tail([float(x) for x in range(1, 21)])
    assert (value, percentile) == (10.0, 50.0)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)
    assert tail([1.0] * 11) == (1.0, pytest.approx(100 / 11))


# --- host-speed calibration -------------------------------------------------------------


def test_adjust_scales_by_the_passes_around_the_op():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.adjust(0.3, ref, ref) == pytest.approx(0.3)
    assert hostspeed.adjust(0.3, 2 * ref, 2 * ref) == pytest.approx(0.15)
    assert hostspeed.adjust(0.3, ref, 3 * ref) == pytest.approx(0.15)


@pytest.mark.parametrize("enabled", [True, False])
def test_calibration_pass_keeps_the_gc_state(enabled):
    (gc_on if enabled else gc_off)()
    try:
        assert hostspeed.calibration_pass() > 0
        assert gc_is_enabled() is enabled
    finally:
        gc_on()


class _FixedOps:
    """A runner of a three-op cycle whose every op takes 0.1 wall seconds."""

    def __init__(self):
        self.ops = [None] * 3
        self.calls = 0

    def run(self, k, op_id=None):
        self.calls += 1
        return 0.1, True


@pytest.mark.parametrize("slowdown, expected_ops", [(2.0, 80), (0.5, run.MIN_OPS)])
def test_loop_runs_for_reference_seconds(monkeypatch, slowdown, expected_ops):
    """On a host twice as slow as the reference, 0.1 s ops are 0.05 reference
    seconds, so just under 4 s take 80 of them; on a faster host MIN_OPS
    still run."""
    monkeypatch.setattr(run, "calibration_pass", lambda: slowdown * hostspeed.REFERENCE_S)
    runner = _FixedOps()
    plain, traced, measured = run.timed_loop(runner, 3.99, False, deadline=float("inf"))
    assert runner.calls == len(plain) == expected_ops
    assert traced == []
    assert [latency.position for latency in plain[:4]] == [0, 1, 2, 0]
    assert (plain[0].wall, plain[0].ref) == pytest.approx((0.1, 0.1 / slowdown))
    assert measured == pytest.approx(expected_ops * 0.1 / slowdown)


def test_instance_median_weighs_every_instance_once():
    def run_of(*pairs):
        return [run.Latency(position, 0.0, seconds) for position, seconds in pairs]

    once = run_of((0, 1.0), (1, 2.0), (2, 9.0))
    assert run.instance_median(once) == 2.0
    # a partial second cycle repeats the cheap instance; the median stays put
    assert run.instance_median(once + run_of((0, 1.1))) == 2.0
    # one slow sample of an instance run three times does not move it
    thrice = run_of((0, 1.0), (0, 1.0), (0, 5.0), (1, 2.0), (1, 2.0), (1, 2.0), (2, 3.0))
    assert run.instance_median(thrice) == 2.0
    assert run.instance_median(thrice, "wall") == 0.0


# --- spans and self time --------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["parent", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 6.0, 0, 1],  # overlaps a: the union 1..6 counts once
        ["c", 2.0, 3.0, 1, 1],
        ["other", 20.0, 21.0, -1, 2],
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0, 1.0])


def test_covered_clips_to_the_parent():
    assert covered([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([], 0.0, 10.0) == 0.0


def test_tracer_rebinds_every_lookup_site_and_restores_them():
    def leaf(x):
        return x + 1

    def outer(x):
        return mod_a.leaf(x) * 2

    mod_a = types.ModuleType("mod_a")
    mod_b = types.ModuleType("mod_b")
    mod_a.leaf = mod_b.leaf_alias = leaf
    mod_a.outer = outer
    tracer = Tracer()
    tracer.rebind([mod_a, mod_b], leaf, tracer.spanned("leaf", leaf, lambda add, args, r: add("n", r)))
    tracer.rebind([mod_a], outer, tracer.spanned("outer", outer))

    tracer.enable(7)
    assert mod_a.outer(1) == 4
    assert mod_b.leaf_alias(5) == 6
    tracer.disable()

    assert mod_a.leaf is leaf and mod_b.leaf_alias is leaf and mod_a.outer is outer
    assert [(name, parent, op) for name, _, _, parent, op in tracer.spans] == [
        ("outer", -1, 7),
        ("leaf", 0, 7),
        ("leaf", -1, 7),
    ]
    assert tracer.counts == {(7, "n"): 8}
    mod_a.outer(1)
    assert len(tracer.spans) == 3  # disabled: nothing recorded


def test_traced_refine_reports_kernel_counts():
    tracer = layers.make_tracer()
    kg = kgraph.k_loc(fixture("fig3"))
    tracer.enable(0)
    colouring = rwl.refine(kg)
    tracer.disable()
    assert rwl.refine.__name__ == "refine"
    metrics = layers.per_layer(tracer, [0], 1.0)
    splits = len(colouring.layers) - 1
    assert metrics["rwl.kernel_rounds"] == (splits + 1, "count")
    assert metrics["rwl.split_round_ratio"][0] == pytest.approx(splits / (splits + 1))
    assert metrics["rwl.classes_final"][0] == len(set(colouring.layers[-1]))
    assert metrics["rwl.kernel_edge_visits"][0] == (splits + 1) * len(kg.edges)
    assert metrics["rwl.kernel_s"][0] > 0 and metrics["kgraph.encode_s"] == (0.0, "s")


# --- digests ---------------------------------------------------------------------------


def test_digest_separates_its_parts():
    assert workloads.digest("ab", "c") != workloads.digest("a", "bc")


_DIGEST_CHILD = """
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
from tempowl.distinguish import classify_all
from tempowl.gen import fixture
print(workloads.classify_digest(classify_all(fixture("fig2"), fixture("fig3"))))
"""


def test_digest_does_not_depend_on_the_hash_seed():
    found = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_CHILD, str(BENCH.parent / "src"), str(BENCH)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        found.add(out.stdout.strip())
    assert len(found) == 1


def test_golden_digests_reproduce():
    golden = json.loads((BENCH / "golden.json").read_text())
    assert golden["seed"] == workloads.DEFAULT_SEED
    for name, positions in (("refine_deep", range(2, 4)), ("fuzz_rounds", range(4))):
        workload = workloads.WORKLOADS[name]
        document, meta = workload.generate(golden["seed"])
        ops = workload.ops(*load_inputs(document), meta)
        assert len(golden["digests"][name]) == len(ops)
        for i in positions:
            output = ops[i].run()
            assert ops[i].check(output) is None
            assert ops[i].digest(output) == golden["digests"][name][i]


# --- generators -------------------------------------------------------------------------


def renaming_plus_shift(g, twin, perm) -> bool:
    """True iff twin is g with nodes renamed by the bijection perm and times
    moved by one positive offset, in every snapshot."""
    if sorted(perm) != sorted(g.node_ids) or sorted(perm.values()) != sorted(twin.node_ids):
        return False
    if len(set(perm.values())) != len(perm) or len(g.times) != len(twin.times):
        return False
    offsets = {b - a for a, b in zip(g.times, twin.times)}
    if len(offsets) != 1 or offsets.pop() <= 0:
        return False
    for snap, other in zip(g.snapshots, twin.snapshots):
        if {perm[v]: c for v, c in snap.colours.items()} != dict(other.colours):
            return False
        renamed = {frozenset((perm[u], perm[v])) for u, v in snap.edges}
        if renamed != {frozenset(e) for e in other.edges}:
            return False
    return True


@pytest.mark.parametrize("seed,index", [(0, 0), (5, 3), (9, 6)])
def test_twin_is_a_renaming_plus_shift(seed, index):
    g, twin, perm = workloads.twin_pair(seed, index)
    assert renaming_plus_shift(g, twin, perm)
    assert any(perm[v] != v for v in perm)
    _, other, _ = workloads.twin_pair(seed + 1, index)
    assert not renaming_plus_shift(g, other, perm)  # the check can fail


def test_twin_colour_drift_alternates():
    drifting = [
        any(s.colours != g.snapshots[0].colours for s in g.snapshots)
        for g in (workloads.twin_pair(0, i)[0] for i in range(len(workloads.CLASSIFY_GRID)))
    ]
    assert drifting == [i % 2 == 1 for i in range(len(drifting))]


@pytest.mark.parametrize("seed,index", [(0, 0), (3, 1), (8, 7)])
def test_mirror_graph_is_invariant_under_reversal(seed, index):
    g = workloads.mirror_path(seed, index)
    n, later = workloads.REFINE_GRID[index]
    position = {v: i for i, v in enumerate(g.node_ids)}
    assert len(g.node_ids) == n and len(g.snapshots) == later + 1
    assert {frozenset(position[x] for x in e) for e in g.snapshots[0].edges} == {
        frozenset((i, i + 1)) for i in range(n - 1)
    }
    for snap in g.snapshots:
        assert set(snap.colours.values()) == {"c"}
        edges = {frozenset(position[x] for x in e) for e in snap.edges}
        assert {frozenset(n - 1 - i for i in e) for e in edges} == edges
    assert any(len(s.edges) < n - 1 for s in g.snapshots[1:])


# --- the contract without sources --------------------------------------------------------


def test_run_refuses_without_engine_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "refine_deep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout


# --- comparing results ---------------------------------------------------------------------


def _result(path: Path, backend: str, ops_per_s: float) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "workload": "refine_deep",
                "env": {"refine_backend": backend},
                "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"}},
            }
        )
    )


def test_compare_refuses_results_from_different_kernels(tmp_path):
    _result(tmp_path / "base" / "a.json", "pure-python", 4.0)
    _result(tmp_path / "new" / "a.json", "pure-python", 4.1)
    assert compare.main(["compare", str(tmp_path / "base"), str(tmp_path / "new")]) == 0
    _result(tmp_path / "new" / "a.json", "pure-python", 2.0)
    assert compare.main(["compare", str(tmp_path / "base"), str(tmp_path / "new")]) == 1
    _result(tmp_path / "new" / "a.json", "compiled", 4.0)
    assert compare.main(["compare", str(tmp_path / "base"), str(tmp_path / "new")]) == 2

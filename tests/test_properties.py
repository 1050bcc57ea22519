"""Property-suite engine: dispatch, reports, worker-pool fan-out."""

from __future__ import annotations

import pytest

from tempowl import properties, rwl, tgnn
from tempowl.errors import ValidationError
from tempowl.gen import derive_seed, permuted_copy


def test_unknown_property_rejected():
    with pytest.raises(ValueError):
        properties.run_property("theorem42", 1, 0)


def test_fixture_properties_pass():
    for name in ("theorem7", "theorem8"):
        report = properties.run_property(name, 1, 0)
        assert report.passed and report.min_seed() is None


def test_theorem5_report():
    report = properties.run_property("theorem5", 50, 0)
    assert report.passed
    assert report.trials == 50


def test_pool_and_serial_runs_agree():
    serial = properties.run_property("theorem9", 8, seed=3, jobs=1)
    pooled = properties.run_property("theorem9", 8, seed=3, jobs=2)
    assert serial.violations == pooled.violations
    assert serial.passed and pooled.passed


def test_thread_cap_env(monkeypatch):
    monkeypatch.setenv("TEMPOWL_THREADS", "1")
    assert properties._resolve_jobs(None) == 1
    assert properties._resolve_jobs(8) == 1
    for bad in ("abc", "0", "-1", "1.5"):
        monkeypatch.setenv("TEMPOWL_THREADS", bad)
        with pytest.raises(ValidationError, match="TEMPOWL_THREADS"):
            properties._resolve_jobs(None)
    monkeypatch.delenv("TEMPOWL_THREADS")
    assert properties._resolve_jobs(1) == 1


def test_min_seed_picks_earliest_trial():
    report = properties.PropertyReport(
        "x", 5, [{"trial": 3, "seed": 33}, {"trial": 1, "seed": 11}]
    )
    assert report.min_seed() == 11
    assert not report.passed


def test_trial_seeds_differ_per_index_and_property():
    a0 = properties._trial_args("theorem6", 1, 0)
    a1 = properties._trial_args("theorem6", 1, 1)
    b0 = properties._trial_args("theorem9", 1, 0)
    assert a0[1] != a1[1]
    assert a0[1] != b0[1]


def _route_forward_many(monkeypatch, position=None):
    """Send the suites' `forward_many` calls through a wrapper; return the
    graphs it sees. With `position`, the second graph's first model gets a
    foreign value at that position of layer 1."""
    graphs = []

    def wrapper(tg, configs):
        runs = tgnn.forward_many(tg, configs)
        graphs.append(tg)
        if position is not None and len(graphs) == 2:
            layers = list(runs[0])
            layers[1] = list(layers[1])
            layers[1][position] = ("changed",)
            runs = (tuple(layers), *runs[1:])
        return runs

    monkeypatch.setattr(properties, "forward_many", wrapper)
    return graphs


def test_theorem6_names_the_changed_node(monkeypatch):
    for trial_seed in range(3):
        graphs = _route_forward_many(monkeypatch)
        assert properties.check_theorem6(trial_seed) is None
        tg, copy = graphs
        _, perm = permuted_copy(tg, derive_seed(trial_seed, "perm"))
        sim_seed = derive_seed(trial_seed, "sim", 0)
        for position, (w, i) in enumerate(copy.timestamped_nodes()):
            (v,) = [u for u in tg.node_ids if perm[u] == w]
            _route_forward_many(monkeypatch, position)
            assert properties.check_theorem6(trial_seed) == {
                "seed": trial_seed,
                "detail": (
                    f"global/sum_sign seed {sim_seed}: embeddings of "
                    f"({v},{i}) and ({w},{i}) differ at layer 1"
                ),
            }


def test_soundness_names_the_changed_node(monkeypatch):
    checked = 0
    for trial_seed in range(6):
        graphs = _route_forward_many(monkeypatch)
        assert properties.check_soundness(trial_seed) is None
        if len(graphs) == 1:  # the trial drew one graph twice
            continue
        colouring = rwl.refine_graphs(graphs, "glob")
        classes = {
            member: members
            for members in rwl.partition_at(colouring, 1)
            for member in members
            if len(members) > 1
        }
        sim_seed = derive_seed(trial_seed, "sim", 0)
        for position, tn in enumerate(graphs[1].timestamped_nodes()):
            if (1, tn) not in classes:
                continue
            first, second = classes[(1, tn)][:2]
            pair = (first, second) if first == (1, tn) else (first, (1, tn))
            _route_forward_many(monkeypatch, position)
            assert properties.check_soundness(trial_seed) == {
                "seed": trial_seed,
                "detail": (
                    f"global/sum_sign seed {sim_seed}: colours agree but "
                    f"embeddings differ at layer 1 for {pair[0]} vs {pair[1]}"
                ),
            }
            checked += 1
    assert checked >= 5

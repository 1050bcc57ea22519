"""Property-suite engine: dispatch, reports, worker-pool fan-out."""

from __future__ import annotations

import pytest

from tempowl import properties
from tempowl.errors import ValidationError


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

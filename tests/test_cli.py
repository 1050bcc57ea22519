"""CLI: subcommand outputs, addressing syntax, exit codes."""

from __future__ import annotations

import hashlib
import json
import re

import pytest
from click.testing import CliRunner

from tempowl import distinguish, properties
from tempowl.cli import main
from tempowl.gen import fixture, permuted_copy, random_tg
from tempowl.tgraph import Snapshot, TemporalGraph, events_to_csv, to_json
from test_tgraph import MALFORMED_DOCUMENTS


def _write_fixture(path, name):
    path.write_text(to_json(fixture(name)), encoding="utf-8")
    return str(path)


def _write_pair(tmp_path, name):
    a, b = fixture(name)
    pa = tmp_path / f"{name}_a.json"
    pb = tmp_path / f"{name}_b.json"
    pa.write_text(to_json(a), encoding="utf-8")
    pb.write_text(to_json(b), encoding="utf-8")
    return str(pa), str(pb)


def test_validate_ok(tmp_path):
    path = _write_fixture(tmp_path / "g.json", "fig2")
    result = CliRunner().invoke(main, ["validate", path])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"ok": True}


def test_validate_broken_graph_exits_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "nodes": ["a"],
                "times": [3, 3],
                "snapshots": [
                    {"colours": {"a": "g"}, "edges": []},
                    {"colours": {"a": "g"}, "edges": []},
                ],
            }
        ),
        encoding="utf-8",
    )
    result = CliRunner().invoke(main, ["validate", str(path)])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["ok"] is False
    assert payload["error"] == "NonIncreasingTimes"


def test_missing_file_is_usage_error():
    result = CliRunner().invoke(main, ["validate", "/nonexistent.json"])
    assert result.exit_code == 2


def test_transform_emits_kg_json(tmp_path):
    path = _write_fixture(tmp_path / "g.json", "fig2")
    result = CliRunner().invoke(main, ["transform", "--encoding", "glob", path])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload["nodes"]) == 12
    assert len(payload["edges"]) == 14
    assert payload["colours"]["a#0"] == "blue"


def test_refine_reports_partitions(tmp_path):
    path = _write_fixture(tmp_path / "g.json", "fig3")
    result = CliRunner().invoke(
        main, ["refine", "--encoding", "loc", "--layers", "2", path]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["backend"] == "pure-python"
    assert len(payload["partitions"]) >= 1
    assert all(isinstance(group, list) for group in payload["partitions"][0])


def test_refine_reports_classes_per_layer(tmp_path):
    path = _write_fixture(tmp_path / "g.json", "fig2")
    for encoding in ("glob", "loc"):
        result = CliRunner().invoke(main, ["refine", "--encoding", encoding, path])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        # 3 colours on 12 timestamped nodes split to 9, then to 10 and stay
        assert payload["classes_per_layer"] == [3, 9, 10]
        assert payload["classes_per_layer"] == [len(p) for p in payload["partitions"]]
        assert payload["stable_at"] == 2


def test_compare_fig6_global_is_negative(tmp_path):
    pa, pb = _write_pair(tmp_path, "fig6_pair")
    result = CliRunner().invoke(
        main,
        [
            "compare", "--a", pa, "--node-a", "a@2",
            "--b", pb, "--node-b", "a'@2", "--mode", "global",
        ],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["distinguishable"] is False
    assert payload["first_layer"] is None


def test_compare_both_modes_reports_class(tmp_path):
    pa, pb = _write_pair(tmp_path, "fig6_pair")
    result = CliRunner().invoke(
        main,
        [
            "compare", "--a", pa, "--node-a", "a#1",
            "--b", pb, "--node-b", "a'#1",
        ],
    )
    payload = json.loads(result.output)
    assert payload["class"] == "local_only"
    assert payload["local"] == {"distinguishable": True, "first_layer": 2}


def test_compare_layers_option_bounds_the_run(tmp_path):
    pa, pb = _write_pair(tmp_path, "fig6_pair")
    args = ["compare", "--a", pa, "--node-a", "a@2", "--b", pb,
            "--node-b", "a'@2", "--mode", "local"]
    shallow = json.loads(CliRunner().invoke(main, args + ["--layers", "1"]).output)
    assert shallow["distinguishable"] is False
    deep = json.loads(CliRunner().invoke(main, args).output)
    assert (deep["distinguishable"], deep["first_layer"]) == (True, 2)


def test_negative_layers_is_usage_error(tmp_path):
    path = _write_fixture(tmp_path / "g.json", "fig2")
    pa, pb = _write_pair(tmp_path, "fig6_pair")
    commands = (
        ["refine", "--layers", "-1", path],
        ["compare", "--a", pa, "--node-a", "a@2", "--b", pb, "--node-b", "a'@2",
         "--layers", "-1"],
    )
    for args in commands:
        assert CliRunner().invoke(main, args).exit_code == 2


def test_compare_rejects_bad_node_refs(tmp_path):
    pa, pb = _write_pair(tmp_path, "fig6_pair")
    for ref in ("a@99", "z@2", "a", "a#notanumber"):
        result = CliRunner().invoke(
            main,
            ["compare", "--a", pa, "--node-a", ref, "--b", pb, "--node-b", "a'@2"],
        )
        assert result.exit_code == 2, ref


def test_node_refs_split_at_the_last_separator(tmp_path):
    # node names hold both separators; time 1 is snapshot index 0
    tg = TemporalGraph(
        ("a#b", "x@y"),
        (1, 2),
        (
            Snapshot({"a#b": "g", "x@y": "g"}, set()),
            Snapshot({"a#b": "r", "x@y": "g"}, set()),
        ),
    )
    path = tmp_path / "g.json"
    path.write_text(to_json(tg), encoding="utf-8")
    for ref_a, ref_b, expected in (
        ("a#b@1", "a#b#0", "neither"),
        ("x@y#0", "x@y@1", "neither"),
        ("a#b#1", "x@y@2", "both"),
    ):
        result = CliRunner().invoke(
            main,
            ["compare", "--a", str(path), "--node-a", ref_a,
             "--b", str(path), "--node-b", ref_b],
        )
        assert result.exit_code == 0, (ref_a, ref_b, result.output)
        assert json.loads(result.output)["class"] == expected, (ref_a, ref_b)


def test_classify_emits_csv_matrix(tmp_path):
    pa, pb = _write_pair(tmp_path, "fig5_pair")
    result = CliRunner().invoke(main, ["classify", "--a", pa, "--b", pb])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0].startswith(",a'#0")
    assert len(lines) == 7  # header + 6 timestamped nodes
    assert "both" in result.output


# sha256 of `classify`'s CSV, recorded when classify_all still returned dicts
CLASSIFY_SHA256 = {
    "fig5_pair": "ceab63bf274244464420af027d69395fe186e4bb60d984c97d2053e5357e6048",
    "fig6_pair": "b622a9a750f89911b021c4a0bea0f53b402b60d39236b331fa59bf9a2e8c1b89",
    "twin_20x6": "a6495392d3d2e91c23f6b0e599c3fdd03caa4235cb1ccba97ee2b25f5fdacc37",
}


def test_classify_output_is_pinned(tmp_path):
    g = random_tg(0, nodes=20, snapshots=6, edge_prob=0.2)
    pairs = {
        "fig5_pair": fixture("fig5_pair"),
        "fig6_pair": fixture("fig6_pair"),
        "twin_20x6": (g, permuted_copy(g, 1)[0]),
    }
    for name, graphs in pairs.items():
        paths = []
        for side, tg in zip("ab", graphs):
            paths.append(tmp_path / f"{name}_{side}.json")
            paths[-1].write_text(to_json(tg), encoding="utf-8")
        result = CliRunner().invoke(
            main, ["classify", "--a", str(paths[0]), "--b", str(paths[1])]
        )
        assert result.exit_code == 0, name
        assert hashlib.sha256(result.output.encode()).hexdigest() == CLASSIFY_SHA256[name]


def test_classify_against_a_graph_without_nodes(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(
        json.dumps(
            {"nodes": [], "times": [1], "snapshots": [{"colours": {}, "edges": []}]}
        ),
        encoding="utf-8",
    )
    fig2 = _write_fixture(tmp_path / "fig2.json", "fig2")
    result = CliRunner().invoke(main, ["classify", "--a", fig2, "--b", str(empty)])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == '""'
    assert lines[1:] == [f"{v}#{i}" for i in range(4) for v in "abc"]
    result = CliRunner().invoke(main, ["classify", "--a", str(empty), "--b", fig2])
    assert result.exit_code == 0
    assert len(result.output.splitlines()) == 1


def test_crash_is_an_internal_error_with_its_own_exit_code(tmp_path, monkeypatch):
    def crash(tg1, tg2):
        raise RuntimeError("boom")

    monkeypatch.setattr(distinguish, "classify_all", crash)
    pa, pb = _write_pair(tmp_path, "fig5_pair")
    result = CliRunner().invoke(main, ["classify", "--a", pa, "--b", pb])
    assert result.exit_code == 3
    assert json.loads(result.stdout) == {
        "error": "InternalError",
        "detail": "RuntimeError: boom",
    }
    assert "Traceback" in result.stderr and "RuntimeError: boom" in result.stderr


def test_iso_commands(tmp_path):
    pa, pb = _write_pair(tmp_path, "fig5_pair")
    result = CliRunner().invoke(main, ["iso", "--kind", "pointwise", pa, pb])
    payload = json.loads(result.output)
    assert payload["isomorphic"] is True
    assert payload["maps"][0] == {"a": "b'", "b": "c'", "c": "a'"}

    pa, pb = _write_pair(tmp_path, "fig6_pair")
    result = CliRunner().invoke(main, ["iso", "--kind", "timewise", pa, pb])
    assert json.loads(result.output) == {"isomorphic": False}


def test_iso_size_limit_exits_one(tmp_path):
    path = _write_fixture(tmp_path / "g.json", "fig3")
    result = CliRunner().invoke(
        main, ["iso", "--kind", "timewise", "--max-nodes", "2", path, path]
    )
    assert result.exit_code == 1
    assert json.loads(result.output)["error"] == "SizeLimitExceeded"


def test_simulate_outputs_vectors(tmp_path):
    path = _write_fixture(tmp_path / "g.json", "fig3")
    result = CliRunner().invoke(
        main,
        ["simulate", "--mode", "local", "--layers", "2", "--width", "4",
         "--seed", "9", path],
    )
    payload = json.loads(result.output)
    assert payload["mode"] == "local"
    vecs = payload["embeddings"]["a#0"]
    assert len(vecs) == 3
    assert all(len(v) == 4 for v in vecs)


def test_simulate_hash_variant_outputs_ids(tmp_path):
    path = _write_fixture(tmp_path / "g.json", "fig3")
    result = CliRunner().invoke(
        main,
        ["simulate", "--mode", "global", "--variant", "hash_injective",
         "--layers", "1", path],
    )
    payload = json.loads(result.output)
    assert all(
        isinstance(v, int) for vecs in payload["embeddings"].values() for v in vecs
    )


def test_simulate_rejects_bad_options_and_reports_errors(tmp_path):
    path = _write_fixture(tmp_path / "g.json", "fig2")
    for option, value in (("--layers", "-1"), ("--width", "0"), ("--width", "-3")):
        result = CliRunner().invoke(
            main, ["simulate", "--mode", "global", option, value, path]
        )
        assert result.exit_code == 2, (option, value)
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "nodes": ["a", "b"],
                "times": [1],
                "snapshots": [{"colours": {"a": "g"}, "edges": []}],
            }
        ),
        encoding="utf-8",
    )
    result = CliRunner().invoke(main, ["simulate", "--mode", "local", str(bad)])
    assert result.exit_code == 1
    assert json.loads(result.output) == {
        "error": "MissingColour",
        "detail": "snapshot 0: no colour for node 'b'",
    }


def test_fixture_command(tmp_path):
    result = CliRunner().invoke(main, ["fixture", "fig2"])
    assert result.exit_code == 0
    assert json.loads(result.output)["times"] == [1, 2, 3, 4]

    result = CliRunner().invoke(main, ["fixture", "fig5_pair", "--part", "b"])
    assert json.loads(result.output)["nodes"] == ["a'", "b'", "c'"]

    result = CliRunner().invoke(main, ["fixture", "fig5_pair"])
    payload = json.loads(result.output)
    assert set(payload) == {"a", "b"}

    assert CliRunner().invoke(main, ["fixture", "nope"]).exit_code == 1
    assert (
        CliRunner().invoke(main, ["fixture", "fig2", "--part", "a"]).exit_code == 2
    )


def test_gen_command_is_deterministic():
    args = ["gen", "--seed", "4", "--nodes", "4", "--snapshots", "3",
            "--edge-prob", "0.5", "--colour-persistent"]
    first = CliRunner().invoke(main, args)
    second = CliRunner().invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output


def test_fuzz_passing_property():
    result = CliRunner().invoke(
        main,
        ["fuzz", "--property", "theorem8", "--trials", "1", "--seed", "1"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["passed"] is True
    assert payload["min_seed"] is None


def test_fuzz_violation_exits_one_with_min_seed(monkeypatch):
    def fake_run(name, trials, seed, jobs=None):
        return properties.PropertyReport(
            name, trials, [{"trial": 2, "seed": 222, "detail": "boom"}]
        )

    monkeypatch.setattr(properties, "run_property", fake_run)
    result = CliRunner().invoke(
        main, ["fuzz", "--property", "theorem6", "--trials", "3"]
    )
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["passed"] is False
    assert payload["min_seed"] == 222


def test_fuzz_unknown_property_is_usage_error():
    result = CliRunner().invoke(main, ["fuzz", "--property", "theorem42"])
    assert result.exit_code == 2


def test_fuzz_counts_below_one_are_usage_errors():
    for option, value in (("--trials", "-5"), ("--trials", "0"), ("--jobs", "0")):
        result = CliRunner().invoke(
            main, ["fuzz", "--property", "theorem9", option, value]
        )
        assert result.exit_code == 2, (option, value)
        assert "passed" not in result.output


def test_fuzz_bad_thread_cap_is_usage_error(monkeypatch):
    monkeypatch.setenv("TEMPOWL_THREADS", "abc")
    result = CliRunner().invoke(
        main, ["fuzz", "--property", "theorem9", "--trials", "5"]
    )
    assert result.exit_code == 2
    assert "TEMPOWL_THREADS must be a positive integer" in result.output


def test_stats_counts_fig3_events(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(
        events_to_csv([("a", "b", 2), ("b", "c", 3), ("a", "c", 4), ("b", "c", 4)]),
        encoding="utf-8",
    )
    result = CliRunner().invoke(main, ["stats", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"nodes": 3, "edges": 4, "steps": 3}


def test_stats_reports_bad_events_as_errors(tmp_path):
    path = tmp_path / "events.csv"
    cases = (
        ("u,v,t\na,a,1\na,b,2\n", "SelfLoop"),
        ("a,b,c\n", "ValidationError"),
        ("u,v,t\n,b,1\n", "ValidationError"),
    )
    for text, error in cases:
        path.write_text(text, encoding="utf-8")
        result = CliRunner().invoke(main, ["stats", str(path)])
        assert result.exit_code == 1
        assert json.loads(result.output)["error"] == error


def test_compare_both_equals_the_bounded_single_mode_runs(tmp_path):
    fig2 = _write_fixture(tmp_path / "fig2.json", "fig2")
    fig3 = _write_fixture(tmp_path / "fig3.json", "fig3")
    cases = [(fig2, "b#3", fig3, "b#3")]
    for name in ("fig5_pair", "fig6_pair"):
        pa, pb = _write_pair(tmp_path, name)
        cases.append((pa, "a#1", pb, "a'#1"))
    classes = []
    for pa, ref_a, pb, ref_b in cases:
        args = ["compare", "--a", pa, "--node-a", ref_a, "--b", pb, "--node-b", ref_b]
        for bound in ([], ["--layers", "0"], ["--layers", "1"], ["--layers", "2"]):
            both = CliRunner().invoke(main, args + bound)
            assert both.exit_code == 0
            payload = json.loads(both.output)
            classes.append(payload.pop("class"))
            for mode in ("global", "local"):
                single = CliRunner().invoke(main, args + bound + ["--mode", mode])
                expected = json.loads(single.output)
                assert expected.pop("mode") == mode
                assert payload[mode] == expected
    # the class ignores --layers, as classify_pair does
    assert classes == ["global_only"] * 4 + ["both"] * 4 + ["local_only"] * 4


def test_load_errors_are_reported_by_every_command(tmp_path):
    bad = tmp_path / "short.json"
    bad.write_text(
        json.dumps(
            {
                "nodes": ["a"],
                "times": [1, 2],
                "snapshots": [{"colours": {"a": "g"}, "edges": []}],
            }
        ),
        encoding="utf-8",
    )
    path = str(bad)
    for args in (
        ["refine", path],
        ["transform", "--encoding", "loc", path],
        ["compare", "--a", path, "--node-a", "a#0", "--b", path, "--node-b", "a#0"],
        ["classify", "--a", path, "--b", path],
    ):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, args
        assert json.loads(result.output) == {
            "error": "ValidationError",
            "detail": "1 snapshots for 2 time points",
        }


def test_malformed_documents_are_rejected_by_validate_and_refine(tmp_path):
    path = tmp_path / "bad.json"
    for text, message in MALFORMED_DOCUMENTS:
        path.write_text(text, encoding="utf-8")
        checked = CliRunner().invoke(main, ["validate", str(path)])
        assert checked.exit_code == 1, text
        payload = json.loads(checked.output)
        assert (payload["ok"], payload["error"]) == (False, "ValidationError")
        assert re.search(message, payload["detail"]), text
        refined = CliRunner().invoke(main, ["refine", str(path)])
        assert refined.exit_code == 1, text
        assert json.loads(refined.output) == {
            "error": "ValidationError",
            "detail": payload["detail"],
        }


def test_out_of_range_options_are_usage_errors(tmp_path):
    path = _write_fixture(tmp_path / "g.json", "fig2")
    for args in (
        ["gen", "--seed", "1", "--nodes", "0"],
        ["gen", "--seed", "1", "--snapshots", "0"],
        ["gen", "--seed", "1", "--edge-prob", "2"],
        ["gen", "--seed", "1", "--edge-prob", "-0.5"],
        ["iso", "--kind", "timewise", "--max-nodes", "-1", path, path],
    ):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, args
        assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "command, expected",
    [
        (["validate"], {"ok": False, "error": "ValidationError"}),
        (["refine"], {"error": "ValidationError"}),
        (["transform", "--encoding", "loc"], {"error": "ValidationError"}),
        (["stats"], {"error": "ValidationError"}),
    ],
    ids=["validate", "refine", "transform", "stats"],
)
def test_non_utf8_files_are_validation_errors(tmp_path, command, expected):
    # a UTF-16 byte-order mark is not valid UTF-8
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    result = CliRunner().invoke(main, [*command, str(path)])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert "not UTF-8 text" in payload.pop("detail")
    assert payload == expected

import json

import numpy as np
import pytest

import wavechain as w
from wavechain import cli, errors
from wavechain.cli import main


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def test_analyze_circle_default_analyses(tmp_path, capsys):
    code = main(
        ["analyze", "--model", "circle", "--param", "n=7", "--param",
         "eps=1.0", "--out", str(tmp_path)]
    )
    assert code == 0
    report = read_report(tmp_path)
    assert report["violations"] == []
    assert report["config"]["model"] == "circle"
    assert set(report["results"]) == {"spectral", "merging"}
    assert report["results"]["spectral"]["sigma"][0] == pytest.approx(1.0)
    assert (tmp_path / "trace.csv").exists()


def test_reports_are_byte_stable_across_directories(tmp_path):
    args = ["analyze", "--model", "circle", "--param", "n=5",
            "--analyses", "spectral,merging,stability,bounds"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_stability_analysis_reports_the_circle_constant(tmp_path):
    code = main(
        ["analyze", "--model", "circle", "--param", "n=9", "--param",
         "eps=1.0", "--analyses", "stability", "--out", str(tmp_path)]
    )
    assert code == 0
    stab = read_report(tmp_path)["results"]["stability"]
    assert stab["c"] == pytest.approx(2.0, abs=1e-10)
    assert stab["periodic"] is True


def test_merge_time_four_point_is_unbounded(tmp_path):
    code = main(
        ["merge-time", "--model", "four-point", "--out", str(tmp_path)]
    )
    assert code == 0
    merging = read_report(tmp_path)["results"]["merging"]
    assert merging["merging_time"] == "unbounded"
    assert "reducible" in merging["reason"]
    assert merging["trace"][0] == [0, "inf"]


def test_merge_time_metric_flag(tmp_path):
    code = main(
        ["merge-time", "--model", "four-point", "--metric",
         "total_variation", "--param", "horizon=60", "--out", str(tmp_path)]
    )
    assert code == 0
    merging = read_report(tmp_path)["results"]["merging"]
    assert merging["metric"] == "total_variation"
    assert merging["merging_time"] == 23


def test_malformed_kernel_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "size": 2,
        "triplets": [[0, 0, 0.6], [0, 1, 0.6], [1, 1, 1.0]],
    }))
    code = main(["analyze", "--model", str(bad), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "row 0" in err


def test_unknown_model_exits_one(tmp_path, capsys):
    assert main(["analyze", "--model", "nope", "--out", str(tmp_path)]) == 1
    assert "nope" in capsys.readouterr().err


def test_usage_errors_exit_one():
    assert main(["analyze", "--bogus-flag"]) == 1
    assert main([]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out


def test_scaled_bounds_violation_exits_two(tmp_path, capsys):
    # bound_scale shrinks the certified bound: a self-test hook that must
    # trip the violation path and exit 2
    code = main(
        ["analyze", "--model", "circle", "--param", "n=5", "--param",
         "bound_scale=0.02", "--analyses", "bounds", "--out", str(tmp_path)]
    )
    assert code == 2
    report = read_report(tmp_path)
    assert report["violations"]
    assert "dominates" in report["violations"][0]["inequality"]


def test_bounds_analysis_clean_by_default(tmp_path):
    code = main(
        ["analyze", "--model", "circle", "--param", "n=7", "--analyses",
         "bounds", "--out", str(tmp_path)]
    )
    assert code == 0
    assert read_report(tmp_path)["violations"] == []


def test_simulate_writes_profile_and_tv_line(tmp_path, capsys):
    code = main(
        ["simulate", "--model", "circle", "--param", "n=5", "--param",
         "trials=2000", "--param", "steps=8", "--seed", "5",
         "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "tv" in out.lower()
    lines = (tmp_path / "profile.csv").read_text().splitlines()
    assert lines[0] == "state,mass"
    assert len(lines) == 6


def test_wave_profile_command(tmp_path):
    code = main(
        ["wave-profile", "--model", "circle", "--param", "n=5", "--param",
         "samples=2000", "--param", "burn_in=200", "--out", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "profile.csv").read_text().splitlines()
    assert lines[0] == "state,mass"
    total = sum(float(row.split(",")[1]) for row in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_wave_profile_refuses_nonmerging_models(tmp_path, capsys):
    code = main(
        ["wave-profile", "--model", "four-point", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "irreducible" in capsys.readouterr().err


def test_scan_reports_proven_and_empirical_rows(tmp_path):
    code = main(
        ["scan", "--model", "circle", "--param", "n=9", "--count", "6",
         "--out", str(tmp_path)]
    )
    assert code == 0
    rows = (tmp_path / "scan.csv").read_text().splitlines()
    header, body = rows[0], rows[1:]
    assert header == "map,ratio,status"
    statuses = {r.split(",")[2] for r in body}
    assert "proven" in statuses  # the small shifts carry the exact bound
    assert statuses <= {"proven", "empirical", "reducible"}


def test_scan_lazy_rows_are_all_proven(tmp_path):
    code = main(
        ["scan", "--model", "lazy-circle", "--param", "n=9", "--count",
         "8", "--out", str(tmp_path)]
    )
    assert code == 0
    rows = (tmp_path / "scan.csv").read_text().splitlines()[1:]
    assert {r.split(",")[2] for r in rows} == {"proven"}


def test_scaling_command_has_quadratic_slope(tmp_path):
    code = main(
        ["scaling", "--family", "circle", "--n-list", "5,9,13,17",
         "--out", str(tmp_path)]
    )
    assert code == 0
    doc = json.loads((tmp_path / "scaling.json").read_text())
    assert 1.7 <= doc["slope"] <= 2.3
    assert (tmp_path / "scaling.csv").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "model": "circle",
        "model_params": {"n": 5, "eps": 1.0},
        "analyses": ["merging"],
        "seed": 7,
    }))
    code = main(
        ["analyze", "--config", str(cfg), "--param", "eps=2.0",
         "--out", str(tmp_path)]
    )
    assert code == 0
    conf = read_report(tmp_path)["config"]
    assert conf["model_params"]["eps"] == 2.0
    assert conf["seed"] == 7


def test_explicit_bijection_overrides_the_model_default(tmp_path):
    code = main(
        ["analyze", "--model", "circle", "--param", "n=5", "--bijection",
         "shift:2", "--analyses", "merging", "--out", str(tmp_path)]
    )
    assert code == 0
    assert read_report(tmp_path)["config"]["bijection"] == "shift:2"


def test_kernel_file_runs_with_identity_default(tmp_path):
    kern, _ = w.circle_kernel(5, 1.0)
    path = tmp_path / "circle.json"
    w.save_kernel(kern, str(path))
    code = main(
        ["analyze", "--model", str(path), "--analyses", "spectral",
         "--out", str(tmp_path)]
    )
    assert code == 0
    report = read_report(tmp_path)
    assert report["results"]["spectral"]["flags"]["irreducible"] is True


ALL_ANALYSES = "spectral,merging,stability,bounds,simulate,scan-permutations"
CIRCLE5 = ["--model", "circle", "--param", "n=5"]


@pytest.mark.parametrize(
    "argv, files, prefixes",
    [
        (["merge-time", *CIRCLE5], {"report.json", "trace.csv"}, ["merging: time "]),
        (["simulate", *CIRCLE5, "--param", "trials=500"], {"profile.csv", "report.json"},
         ["simulate: endpoint TV vs exact "]),
        (["scan", *CIRCLE5, "--count", "3"], {"report.json", "scan.csv"},
         ["scan: worst max/min ratio ", "scan: maps beyond shifts "]),
        (["wave-profile", *CIRCLE5, "--param", "samples=2000", "--param", "burn_in=100"],
         {"profile.csv"},
         ["wave-profile: 2000 samples, ", "wave-profile: TV against exact invariant "]),
        (["scaling", "--family", "circle", "--n-list", "5,7"], {"scaling.csv", "scaling.json"},
         ["scaling: slope ", "scaling: max |residual| "]),
        (["analyze", *CIRCLE5, "--param", "trials=500", "--param", "count=3",
          "--analyses", ALL_ANALYSES],
         {"profile.csv", "report.json", "scan.csv", "trace.csv"},
         ["spectral: ", "merging: time ", "stability: c = ", "bounds: merging bound dominates ",
          "simulate: endpoint TV ", "scan: worst ", "scan: maps beyond "]),
    ],
    ids=["merge-time", "simulate", "scan", "wave-profile", "scaling", "analyze"],
)
def test_each_subcommand_writes_its_files_and_lines(tmp_path, capsys, argv, files, prefixes):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == files
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(prefixes)
    for line, prefix in zip(lines, prefixes):
        assert line.startswith(prefix)


@pytest.mark.parametrize(
    "argv",
    [
        ["wave-profile", "--model", "four-point"],
        ["analyze", "--model", "four-point", "--analyses", "merging,stability"],
        ["scaling", "--family", "sticky", "--n-list", "3,4", "--param", "eps=1"],
        ["scaling", "--family", "circle", "--n-list", "5,5"],
        ["scaling", "--family", "circle", "--n-list", "141,142"],
        ["scan", *CIRCLE5, "--bijection", "shift:1"],
    ],
    ids=["wave-profile", "analyze", "scaling", "scaling-repeated-sizes",
         "scaling-even-size", "scan-bijection"],
)
def test_failing_commands_create_no_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("start", ["-1", "5", "9"])
def test_simulate_rejects_an_out_of_range_start(tmp_path, capsys, start):
    out = tmp_path / "out"
    code = main(["simulate", *CIRCLE5, "--param", f"start={start}", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: start state {start} is outside 0..4\n"
    assert not out.exists()


@pytest.fixture
def no_merging(monkeypatch):
    """Fails the test if a merging time is computed."""
    def refuse(*args, **kwargs):
        raise AssertionError("merging time computed before the input was checked")

    monkeypatch.setattr(cli, "merging_time", refuse)


def test_scaling_rejects_foreign_parameters_before_the_sweep(no_merging):
    with pytest.raises(errors.ConfigInvalid, match="does not take parameters \\['eps'\\]"):
        cli.scaling_study("sticky", [3, 4, 5, 6], 1.0, {"eps": 1})
    with pytest.raises(errors.ConfigInvalid, match="unknown scaling family"):
        cli.scaling_study("cube", [5, 7], 1.0)


@pytest.mark.parametrize("sizes", [[5, 5], [7], [9, 9, 9]])
def test_scaling_needs_two_distinct_sizes(no_merging, sizes):
    with pytest.raises(errors.ConfigInvalid, match="at least two distinct sizes"):
        cli.scaling_study("circle", sizes, 1.0)


@pytest.mark.parametrize(
    "family, sizes, error",
    [("circle", [141, 142], errors.EvenN), ("sticky", [3, 4, 8], errors.TooLarge)],
)
def test_scaling_builds_every_size_before_the_first_merging_time(no_merging, family, sizes, error):
    with pytest.raises(error):
        cli.scaling_study(family, sizes, 1.0)


def test_scan_rejects_a_bijection_from_the_config_document(tmp_path, capsys):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps({"model": "circle", "bijection": "identity"}))
    out = tmp_path / "out"
    assert main(["scan", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: scan draws its own maps; it takes no bijection\n"
    assert not out.exists()

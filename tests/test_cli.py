import contextlib
import ctypes
import gc
import glob
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tomllib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavechain as w
from wavechain import cli, errors, models
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


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # threaded LAPACK rounds differently; `main` runs BLAS on one thread
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-m", "wavechain.cli", "analyze", "--model", "sticky",
             "--param", "n=6", "--analyses", "spectral,stability", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_main_restores_the_callers_blas_thread_count(tmp_path):
    libs = glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas64_-*.so")
    if not libs:
        pytest.skip("numpy bundles no scipy-openblas library here")
    lib = ctypes.CDLL(libs[0])
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        restore = cli._one_blas_thread()
        assert lib.scipy_openblas_get_num_threads64_() == 1
        restore()
        assert lib.scipy_openblas_get_num_threads64_() == 2
        assert main(["analyze", "--model", "circle", "--param", "n=5", "--analyses", "spectral",
                     "--out", str(tmp_path)]) == 0
        assert lib.scipy_openblas_get_num_threads64_() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


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


def test_tv_on_a_reducible_kernel_reports_no_reason(tmp_path, capsys):
    code = main(
        ["merge-time", "--model", "four-point", "--metric", "total_variation",
         "--param", "horizon=5", "--out", str(tmp_path)]
    )
    assert code == 0
    merging = read_report(tmp_path)["results"]["merging"]
    assert merging["merging_time"] == "unbounded"
    assert "reason" not in merging
    assert "merging: unbounded within 5 steps\n" in capsys.readouterr().out


def test_a_reducible_spectral_report_has_no_period(tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--model", "four-point", "--analyses", "spectral",
                 "--out", str(out)]) == 0
    spectral = read_report(out)["results"]["spectral"]
    assert spectral["flags"]["irreducible"] is False
    assert "period" not in spectral["flags"]
    assert spectral["stationary"] is None


def outside_input(tmp_path, case):
    """The arguments of one malformed outside input, with its files written."""
    config, kernel = tmp_path / "config.json", tmp_path / "kernel.json"
    if case == "config-unreadable":
        return ["analyze", "--config", str(tmp_path / "absent.json")]
    if case == "config-not-json":
        config.write_text("{model: circle")
        return ["analyze", "--config", str(config)]
    if case == "config-not-an-object":
        config.write_text(json.dumps(["circle"]))
        return ["analyze", "--config", str(config)]
    if case == "param-without-equals":
        return ["analyze", "--model", "circle", "--param", "n5"]
    kernel.write_text(json.dumps({"size": 2, "triplets": [[0, 0, 1.0], [1, 2, 1.0]]}))
    return ["analyze", "--model", str(kernel)]


@pytest.mark.parametrize("case", ["config-unreadable", "config-not-json", "config-not-an-object",
                                  "param-without-equals", "kernel-triplet-outside"])
def test_malformed_outside_input_is_config_invalid_and_one_error_line(tmp_path, capsys, case):
    argv = outside_input(tmp_path, case)
    with pytest.raises(errors.ConfigInvalid):
        cli.build_system(cli._config_from_args(cli.build_parser().parse_args(argv)))
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert not out.exists()


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


@pytest.mark.parametrize(
    "doc",
    [
        {"size": 2, "triplets": [1, 2]},
        {"size": 2, "triplets": 5},
        {"size": 2, "labels": [[1], [2]], "triplets": [[0, 0, 1.0], [1, 1, 1.0]]},
    ],
    ids=["triplet-not-a-list", "not-a-list", "label-arrays"],
)
def test_misshapen_kernel_file_is_one_error_line(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["analyze", "--model", str(bad), "--analyses", "spectral", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert not out.exists()


def test_a_kernel_file_takes_no_model_parameters(tmp_path, capsys):
    path = tmp_path / "circle.json"
    w.save_kernel(w.circle_kernel(5, 1.0)[0], str(path))
    out = tmp_path / "out"
    code = main(["analyze", "--model", str(path), "--param", "n=5", "--analyses", "spectral",
                 "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: model {str(path)!r} does not take parameters ['n']\n"
    assert not out.exists()


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


def test_the_readme_exit_two_example_exits_two(tmp_path, capsys):
    code = main(
        ["analyze", "--model", "circle", "--param", "n=5", "--analyses", "bounds",
         "--param", "bound_scale=0.5", "--out", str(tmp_path)]
    )
    assert code == 2
    (violation,) = read_report(tmp_path)["violations"]
    assert violation["detail"] == "exceeded by 3.701e-01 at n=1"


def test_bounds_on_a_kernel_too_large_to_densify_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["analyze", "--model", "circle", "--param", "n=4097", "--analyses", "bounds",
         "--out", str(out)]
    )
    assert code == 1
    assert capsys.readouterr() == ("", "error: refusing to densify a 4097-state kernel\n")
    assert not out.exists()


def test_merge_time_on_a_mergeable_kernel_above_the_limit_is_one_error_line(tmp_path, capsys):
    # a group walk that can merge needs powers; the dense view refuses them
    out = tmp_path / "out"
    code = main(["merge-time", "--model", "cyclic-to-random", "--param", "n=7",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr() == ("", "error: refusing to densify a 5040-state kernel\n")
    assert not out.exists()


def test_merge_time_gives_a_reducible_verdict_above_the_dense_limit(tmp_path, capsys,
                                                                    monkeypatch, dense_calls):
    # deck reversal on 7! states: the verdict is read off the support graph,
    # and the trace is written from no power
    built, real = [], cli.build_system

    def spy(config):
        built.append(real(config))
        return built[-1]

    monkeypatch.setattr(cli, "build_system", spy)
    code = main(["merge-time", "--model", "deck-reversal", "--param", "n=7",
                 "--out", str(tmp_path)])
    assert code == 0
    reason = "shifted kernel reducible; pairwise merging cannot occur"
    assert capsys.readouterr().out == f"merging: unbounded within 200 steps ({reason})\n"
    merging = read_report(tmp_path)["results"]["merging"]
    assert merging["reason"] == reason
    rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert rows[0] == "n,distance" and len(rows) == 202
    (system,) = built
    assert system.space.size == 5040 > w.DENSE_LIMIT
    assert not dense_calls


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_bounds_reject_a_scale_that_is_not_finite(tmp_path, capsys, scale):
    # a NaN or infinite scale compares as "dominates" everywhere
    out = tmp_path / "out"
    code = main(
        ["analyze", "--model", "circle", "--param", "n=5", "--param",
         f"bound_scale={scale}", "--analyses", "bounds", "--out", str(out)]
    )
    assert code == 1
    assert "bound_scale must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--analyses", "bounds"], "horizon must be nonnegative"),
        (["merge-time"], "max_steps must be nonnegative"),
    ],
    ids=["bounds", "merge-time"],
)
def test_a_negative_horizon_is_one_error_line(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    argv += ["--model", "circle", "--param", "n=9", "--param", "horizon=-5"]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_bounds_analysis_clean_by_default(tmp_path):
    code = main(
        ["analyze", "--model", "circle", "--param", "n=7", "--analyses",
         "bounds", "--out", str(tmp_path)]
    )
    assert code == 0
    assert read_report(tmp_path)["violations"] == []


@pytest.mark.parametrize(
    "model, param",
    [("circle", "n=41"), ("sticky", "n=4"), ("lazy-circle", "n=41"), ("cyclic-to-random", "n=5")],
)
def test_one_report_holds_one_sigma_tilde(tmp_path, model, param):
    # the full and the values-only SVD differ in the last bits on these
    argv = ["analyze", "--model", model, "--param", param, "--analyses", "spectral,bounds"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    results = read_report(tmp_path)["results"]
    assert results["bounds"]["sigma_tilde"] == results["spectral"]["sigma"][1]


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


def test_a_proven_scan_row_above_its_bound_exits_two(tmp_path, capsys, monkeypatch):
    # the scan's own check: a proven row may not exceed 1 + eps
    real = cli.scan_permutations

    def lying(*args):
        doc = real(*args)
        row = next(r for r in doc["rows"] if r["status"] == "proven")
        row["ratio"] = doc["proven_bound"] + 1e-6
        return doc

    monkeypatch.setattr(cli, "scan_permutations", lying)
    assert main(["scan", *CIRCLE5, "--count", "3", "--out", str(tmp_path)]) == 2
    (violation,) = read_report(tmp_path)["violations"]
    assert violation["inequality"] == "circle invariant-measure max/min stability"


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


@pytest.mark.parametrize("family, sizes", [("circle", list(range(5, 42, 4))), ("sticky", [4, 5])])
def test_scaling_studies_the_family_default_sizes(tmp_path, family, sizes):
    assert main(["scaling", "--family", family, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "scaling.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == sizes


def test_scaling_reads_the_threshold_of_the_config_document(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"epsilon_threshold": 0.1}))
    runs = {
        "document": ["--config", str(cfg)],
        "flag": ["--epsilon", "0.1"],
        "default": [],
    }
    for name, args in runs.items():
        argv = ["scaling", *args, "--n-list", "5,9", "--out", str(tmp_path / name)]
        assert main(argv) == 0
    assert (tmp_path / "document" / "scaling.csv").read_text() == "n,time\n5,17\n9,59\n"
    assert (tmp_path / "flag" / "scaling.csv").read_text() == "n,time\n5,17\n9,59\n"
    assert (tmp_path / "default" / "scaling.csv").read_text() == "n,time\n5,12\n9,40\n"


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


def test_config_bijection_images_must_be_integers(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "model": "circle",
        "model_params": {"n": 5},
        "bijection": [0.5, 1.5, 2.5, 3.5, 4.5],
        "analyses": ["stability"],
    }))
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 1
    assert "not an integer" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(errors.ConfigInvalid):
        cli._parse_bijection("0,1.5,2", w.StateSpace(3), 0)
    assert cli._parse_bijection([2.0, 0.0, 1.0], w.StateSpace(3), 0).forward.tolist() == [2, 0, 1]


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
        ["analyze", "--model", "sticky", "--param", "n=7", "--param", "rho=5040",
         "--analyses", "spectral"],
        ["analyze", "--model", "sticky", "--param", "rho=-1", "--analyses", "spectral"],
        ["analyze", "--model", "random-regular", "--param", "degree=4", "--param", "r=5",
         "--analyses", "spectral"],
        ["scaling", "--family", "circle", "--param", "n_list=5"],
        ["scaling", "--family", "circle", "--n-list", "5,9", "--model", "sticky"],
        ["scaling", "--family", "circle", "--n-list", "5,9", "--bijection", "shift:1"],
        ["analyze", *CIRCLE5, "--analyses", "spectral,nope"],
    ],
    ids=["wave-profile", "analyze", "scaling", "scaling-repeated-sizes",
         "scaling-even-size", "scan-bijection", "sticky-rho-past-the-end",
         "sticky-negative-rho", "regular-degree-and-r", "scaling-sizes-not-a-list",
         "scaling-model", "scaling-bijection", "unknown-analysis"],
)
def test_failing_commands_create_no_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out.exists()


def test_scan_rejects_a_negative_count(tmp_path, capsys):
    # a negative count once ran the four shift rows alone and exited 0
    out = tmp_path / "out"
    assert main(["scan", *CIRCLE5, "--count", "-3", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: count -3 is negative\n")
    assert not out.exists()


@pytest.mark.parametrize("start", ["-1", "5", "9"])
def test_simulate_rejects_an_out_of_range_start(tmp_path, capsys, start):
    out = tmp_path / "out"
    code = main(["simulate", *CIRCLE5, "--param", f"start={start}", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: start state {start} is outside 0..4\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["analyze", "--model", "circle", "--param", "n=5.5", "--analyses", "spectral"], "n 5.5"),
        (["simulate", *CIRCLE5, "--param", "steps=2.7"], "steps 2.7"),
        (["simulate", *CIRCLE5, "--param", "trials=100.5"], "trials 100.5"),
        (["simulate", *CIRCLE5, "--param", "start=1.5"], "start 1.5"),
        (["merge-time", *CIRCLE5, "--param", "horizon=9.5"], "horizon 9.5"),
        (["analyze", *CIRCLE5, "--analyses", "bounds", "--param", "horizon=9.5"], "horizon 9.5"),
        (["scan", *CIRCLE5, "--param", "count=2.5"], "count 2.5"),
        (["wave-profile", *CIRCLE5, "--param", "samples=10.5"], "samples 10.5"),
        (["wave-profile", *CIRCLE5, "--param", "burn_in=10.5"], "burn_in 10.5"),
        (["wave-profile", *CIRCLE5, "--param", "stride=1.5"], "stride 1.5"),
        (["merge-time", "--model", "binary-cycling", "--param", "bits=3.5"], "bits 3.5"),
        (["merge-time", "--model", "sticky", "--param", "rho=1.5"], "rho 1.5"),
        (["merge-time", "--model", "periodic-classes", "--param", "k=2.5"], "k 2.5"),
        (["merge-time", "--model", "periodic-classes", "--param", "class_size=2.5"],
         "class_size 2.5"),
        (["merge-time", "--model", "deck-reversal", "--param", "n=4.5"], "n 4.5"),
        (["merge-time", "--model", "random-regular", "--param", "r=3.5"], "degree 3.5"),
        (["merge-time", "--model", "random-regular", "--param", "graph_seed=0.5"],
         "graph_seed 0.5"),
    ],
)
def test_integer_parameters_are_rejected_not_truncated(tmp_path, capsys, argv, bad):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad} is not an integer\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, param",
    [
        (["analyze", "--model", "circle", "--analyses", "spectral,merging"], "n=5"),
        (["simulate", *CIRCLE5, "--param", "trials=300"], "steps=3"),
    ],
)
def test_integral_float_parameters_load(tmp_path, argv, param):
    for name, value in (("int", param), ("float", param + ".0")):
        assert main(argv + ["--param", value, "--out", str(tmp_path / name)]) == 0
    for path in (tmp_path / "int").iterdir():
        if path.name != "report.json":  # its config block records the value as given
            assert path.read_text() == (tmp_path / "float" / path.name).read_text()
    assert read_report(tmp_path / "int")["results"] == read_report(tmp_path / "float")["results"]


@pytest.fixture
def no_merging(monkeypatch):
    """Fails the test if a merging time is computed."""
    def refuse(*args, **kwargs):
        raise AssertionError("merging time computed before the input was checked")

    monkeypatch.setattr(models, "merging_time", refuse)


def test_scaling_rejects_foreign_parameters_before_the_sweep(no_merging):
    with pytest.raises(errors.ConfigInvalid, match="does not take parameters \\['eps'\\]"):
        w.scaling_study("sticky", [3, 4, 5, 6], 1.0, {"eps": 1})
    with pytest.raises(errors.ConfigInvalid, match="unknown scaling family"):
        w.scaling_study("cube", [5, 7], 1.0)


@pytest.mark.parametrize("sizes", [[5, 5], [7], [9, 9, 9], [5.0, 5]])
def test_scaling_needs_two_distinct_sizes(no_merging, sizes):
    with pytest.raises(errors.ConfigInvalid, match="at least two distinct sizes"):
        w.scaling_study("circle", sizes, 1.0)


@pytest.mark.parametrize("sizes", [5, "5,9", {5: 1, 9: 1}, [5, 9.5], [5, "nine"], [5, None]])
def test_scaling_sizes_must_be_a_list_of_integers(no_merging, sizes):
    with pytest.raises(errors.ConfigInvalid, match="is not an integer|are not a list of integers"):
        w.scaling_study("circle", sizes, 1.0)


@pytest.mark.parametrize(
    "family, sizes, error",
    [("circle", [141, 142], errors.EvenN), ("sticky", [3, 4, 8], errors.TooLarge)],
)
def test_scaling_builds_every_size_before_the_first_merging_time(no_merging, family, sizes, error):
    with pytest.raises(error):
        w.scaling_study(family, sizes, 1.0)


def test_scan_rejects_a_bijection_from_the_config_document(tmp_path, capsys):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps({"model": "circle", "bijection": "identity"}))
    out = tmp_path / "out"
    assert main(["scan", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: scan draws its own maps; it takes no bijection\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"model": "circle", "model_params": 5}, "error: model_params 5 is not an object\n"),
        ({"model": "circle", "seed": 1.5, "analyses": ["simulate"]},
         "error: seed 1.5 is not an integer\n"),
    ],
    ids=["model-params-not-an-object", "seed-not-an-integer"],
)
def test_config_document_fields_are_checked(tmp_path, capsys, doc, message):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_random_regular_takes_degree_or_its_alias_r():
    def kernel(*params):
        argv = ["analyze", "--model", "random-regular", "--param", "n=10"]
        for param in params:
            argv += ["--param", param]
        return cli.build_system(cli._config_from_args(cli.build_parser().parse_args(argv))).base

    assert np.array_equal(kernel("degree=4").dense(), kernel("r=4").dense())
    assert not np.array_equal(kernel("r=4").dense(), kernel().dense())


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--model", "circle", "--param", "eps=inf"],
        ["analyze", "--model", "lazy-circle", "--param", "eps=inf"],
        ["analyze", "--model", "circle", "--param", "eps=1e400"],
        ["scan", "--model", "circle", "--param", "eps=inf", "--count", "1"],
        ["scaling", "--family", "circle", "--param", "eps=inf"],
    ],
    ids=["circle", "lazy-circle", "overflowing-literal", "scan", "scaling"],
)
def test_an_infinite_circle_eps_is_one_error_line(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: eps must be finite\n"
    assert not out.exists()


def test_a_kernel_document_larger_than_its_triplets_is_one_error_line(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"size": 100_000_000_000, "triplets": []}))
    out = tmp_path / "out"
    assert main(["analyze", "--model", str(big), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: kernel size 100000000000 exceeds its 0 triplets\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--model", "nosuch"], "error: model 'nosuch' is not in the registry and is not a file;"),
        ([], "error: a model name or kernel file is required\n"),
        (["--model", "circle", "--epsilon", "-1"], "error: epsilon_threshold must be positive\n"),
    ],
    ids=["unknown-model", "no-model", "negative-epsilon"],
)
def test_wave_profile_validates_its_config(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(["wave-profile", *argv, "--param", "samples=100", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, steps",
    [
        # default stride: the map's order, 1 359 288; default burn-in 50 000
        (["--model", "sticky", "--param", "n=6", "--param", "samples=10000"], 2_768_576),
        # order 2 031 764 965 230, 25 recordings of 4096 lanes
        (["--model", "binary-cycling", "--param", "bits=10"], 48_762_359_215_520),
    ],
    ids=["sticky-6", "binary-cycling-10"],
)
def test_a_runaway_wave_profile_is_one_error_line(tmp_path, capsys, argv, steps):
    out = tmp_path / "out"
    start = time.monotonic()
    assert main(["wave-profile", *argv, "--bijection", "random", "--out", str(out)]) == 1
    assert time.monotonic() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: the profile walk would take {steps} steps, ")
    assert "; lower stride " in captured.err and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scaling", "--n-list", "5:41:4:2"],
         "--n-list '5:41:4:2' is not a,b,c or start:stop[:step]"),
        (["scaling", "--n-list", "5:41:0"], "--n-list '5:41:0' has step 0"),
        (["scaling", "--n-list", "5,nine"], "--n-list size 'nine' is not an integer"),
        (["scaling", "--n-list", "5:x"], "--n-list bound 'x' is not an integer"),
        (["analyze", *CIRCLE5, "--bijection", "shift:abc"],
         "bijection shift 'abc' is not an integer"),
        (["analyze", *CIRCLE5, "--bijection", "random:1.5"],
         "bijection random key 1.5 is not an integer"),
    ],
    ids=["n-list-four-parts", "n-list-zero-step", "n-list-size", "n-list-bound",
         "bijection-shift", "bijection-random-key"],
)
def test_flag_values_name_themselves(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_flag_values_that_parse_are_unchanged():
    assert cli._parse_int_list("5:13:4") == [5, 9, 13]
    assert cli._parse_int_list(" 5:7 ") == [5, 6, 7]
    assert cli._parse_int_list("3,4,5") == [3, 4, 5]
    assert cli._parse_int_list("3, 4 ,+5") == [3, 4, 5]
    space = w.StateSpace(5)
    assert cli._parse_bijection("shift:-1", space, 0).forward.tolist() == [4, 0, 1, 2, 3]
    assert cli._parse_bijection("shift: 2 ", space, 0).forward.tolist() == [2, 3, 4, 0, 1]
    assert (cli._parse_bijection("random:3", space, 0).forward.tolist()
            == np.random.default_rng(3).permutation(5).tolist())
    assert cli._parse_bijection("1, 0,2,4 ,3", space, 0).forward.tolist() == [1, 0, 2, 4, 3]


def test_a_config_number_written_as_a_string_is_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "circle", "model_params": {"n": "7", "eps": "0.5"}}))
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: n '7' is not an integer\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, sizes",
    [
        ("41:5:-4", [41, 37, 33, 29, 25, 21, 17, 13, 9, 5]),
        ("9:5:-2", [9, 7, 5]),
        ("9:6:-2", [9, 7]),
        ("5:9:2", [5, 7, 9]),
        ("5:5:-1", [5]),
        ("5:9:-1", []),
    ],
)
def test_an_n_list_range_includes_its_stop_in_either_direction(text, sizes):
    assert cli._parse_int_list(text) == sizes


def test_a_descending_n_list_runs_every_size(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["scaling", "--family", "circle", "--n-list", "9:5:-2", "--out", str(out)]) == 0
    rows = (out / "scaling.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["9", "7", "5"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--model", "circle", "--param", "steps=true", "--param", "trials=100"],
         "steps True is not an integer"),
        (["analyze", "--model", "circle", "--param", "eps=true", "--param", "n=7"],
         "eps True is not a number"),
        (["analyze", "--model", "lazy-circle", "--param", "eps=false"],
         "eps False is not a number"),
        (["analyze", "--model", "sticky", "--param", "delta=true"], "delta True is not a number"),
        (["analyze", *CIRCLE5, "--analyses", "bounds", "--param", "bound_scale=true"],
         "bound_scale True is not a number"),
        (["analyze", "--model", "circle", "--param", "n=true"], "n True is not an integer"),
        (["scan", "--model", "circle", "--param", "count=true"], "count True is not an integer"),
        (["scaling", "--param", "eps=true"], "eps True is not a number"),
    ],
    ids=["steps", "eps", "lazy-eps", "delta", "bound-scale", "n", "count", "scaling-eps"],
)
def test_a_boolean_parameter_is_not_a_number(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "field, message",
    [
        ({"epsilon_threshold": True}, "epsilon_threshold True is not a number"),
        ({"seed": False}, "seed False is not an integer"),
        ({"model_params": {"n": True}}, "n True is not an integer"),
        ({"model_params": {"eps": True}}, "eps True is not a number"),
        ({"bijection": [True, 0, 2, 3, 4]}, "bijection image True is not an integer"),
    ],
    ids=["epsilon-threshold", "seed", "n", "eps", "bijection-image"],
)
def test_a_boolean_config_document_number_is_rejected(tmp_path, capsys, field, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "circle", **field}))
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "field, message",
    [
        ({"model_params": {"eps": None}}, "eps None is not a number"),
        ({"model": "sticky", "model_params": {"delta": [0.1]}}, "delta [0.1] is not a number"),
        ({"analyses": ["bounds"], "model_params": {"bound_scale": {}}},
         "bound_scale {} is not a number"),
        ({"epsilon_threshold": None}, "epsilon_threshold None is not a number"),
        ({"analyses": None}, "analyses None is not a list of names"),
        ({"analyses": 5}, "analyses 5 is not a list of names"),
        ({"output": None}, "output None is not a string"),
        ({"output": 5}, "output 5 is not a string"),
        ({"model": ["circle"]}, "model ['circle'] is not a string"),
        ({"model": True}, "model True is not a string"),
        ({"model": 2}, "model 2 is not a string"),
    ],
    ids=["eps-null", "delta-list", "bound-scale-object", "epsilon-threshold-null",
         "analyses-null", "analyses-number", "output-null", "output-number",
         "model-list", "model-true", "model-number"],
)
def test_a_config_value_of_the_wrong_json_type_is_one_error_line(tmp_path, field, message):
    # run as a process of its own: a model read as a file descriptor would
    # close the caller's stderr
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "circle", "output": str(out), **field}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "wavechain.cli", "analyze", "--config", str(config)],
        env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path, capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n")
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, 2]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(["circle", "stability", "spectral", "identity", "shift:1", "7"]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
DOCUMENT_FIELDS = ("model", "model_params", "bijection", "analyses", "output", "seed",
                   "epsilon_threshold")
MODEL_PARAMS = ("n", "eps", "horizon")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_json_config_document_exits_cleanly(data):
    # a circle-5 stability document with up to two fields drawn anew; the
    # output is never a drawn string, so nothing lands outside tmp
    changed = data.draw(st.sets(st.sampled_from(DOCUMENT_FIELDS + MODEL_PARAMS), max_size=2))
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"model": "circle", "model_params": {"n": 5}, "analyses": ["stability"],
               "output": os.path.join(tmp, "out")}
        for name in sorted(changed):
            if name == "output":
                doc[name] = data.draw(JSON_SCALARS.filter(lambda v: not isinstance(v, str)))
            elif name in MODEL_PARAMS:
                if isinstance(doc["model_params"], dict):
                    doc["model_params"][name] = data.draw(JSON_VALUES)
            else:
                doc[name] = data.draw(JSON_VALUES)
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        os.chdir(tmp)  # a model named by a relative path is looked up in here
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["analyze", "--config", config])
        finally:
            os.chdir(here)
    lines = err.getvalue().splitlines()
    assert code == 0 or (code == 1 and len(lines) == 1 and lines[0].startswith("error: "))


ENTRY_CASES = {
    "merges": (["merge-time", "--model", "circle", "--param", "n=5", "--param", "horizon=40"], 0),
    "bound-violated": (["analyze", "--model", "circle", "--param", "n=5", "--analyses", "bounds",
                        "--param", "bound_scale=0.5"], 2),
    "config-error": (["merge-time", "--model", "nope"], 1),
}


def written_files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else None


@pytest.mark.parametrize("argv, code", ENTRY_CASES.values(), ids=ENTRY_CASES)
def test_the_program_entry_writes_what_main_writes(tmp_path, capsys, argv, code):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "wavechain.cli", *argv, "--out", str(tmp_path / "a")],
                          env=env, capture_output=True, text=True)
    assert main([*argv, "--out", str(tmp_path / "b")]) == proc.returncode == code
    assert capsys.readouterr() == (proc.stdout, proc.stderr)
    assert written_files(tmp_path / "a") == written_files(tmp_path / "b")
    assert (code == 1) == (written_files(tmp_path / "a") is None)
    # the freeze belongs to the program entry alone
    assert gc.get_freeze_count() == 0


def test_the_program_entry_collects_then_freezes_then_exits_with_main(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "collect", lambda: calls.append("collect"))
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 2)
    with pytest.raises(SystemExit) as exit_:
        cli._entry()
    assert calls == ["collect", "freeze", "main"] and exit_.value.code == 2


def test_the_installed_script_is_the_program_entry():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"wavechain": "wavechain.cli:_entry"}

"""Laws and merging times that do not depend on the BLAS kernel the CPU loads.

numpy's bundled OpenBLAS picks its kernels by CPU when it loads, and
OPENBLAS_CORETYPE makes it load those of another CPU: Haswell (AVX2) or
Prescott (SSE3).  The variable is read once, so each kernel runs in a
child process.  Every law the package pushes is a fixed-order sum over the
kernel's CSR triple (`core._vec_mat`), so `evolve` and `certify_stability`
with a horizon give the same bytes under every kernel, on the corpus and
the zoo.  `sv_product_bound` off the wave measure weighs those same laws,
but each of its sigma_1 factors comes from LAPACK's SVD, which calls BLAS:
on the corpus and the zoo's systems of at most 200 states, the bound
agrees within the SVD's backward error, N spacings of 1.0 a factor
(LAPACK Users' Guide, section 4.9).  The powers behind a merging time are
BLAS products under either stepping rule, and may round differently under
each kernel; the times and no-merge reasons must not move.  Three of the
benchmark's CLI commands are rerun under each kernel as well: their exit
codes and integer and structural answers must agree exactly, their floats
within 1e-12 relative.

Only the x86-64 kernel families these three name are covered: other
architectures (ARM, for example) load other kernels and are not tested.
"""
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavechain as w
from wavechain import models, spectral

CORETYPES = (None, "Haswell", "Prescott")
U = 2.0**-53  # float64 unit roundoff
SV_STEPS = (1, 4)
# (model, parameters, metric, horizon, merging time) as the benchmark runs them
PINNED = (
    ("circle", {"n": 17}, "chi_square", 1000, 92),
    ("circle", {"n": 41}, "total_variation", 1000, 418),
    ("circle", {"n": 41}, "relative_sup", 2000, 859),
    ("circle", {"n": 81}, "relative_sup", 6000, 3372),
    ("sticky", {"n": 6}, "relative_sup", 400, 24),
)


def child_results():
    """{key: value} for every case, computed in this process: a digest of
    the exact bytes for the laws and certificates, and (bound, allowance)
    for the singular-value products."""
    from conftest import CORPUS_COUNT, CORPUS_SEED, random_system
    from test_forward_pass import (
        STEPS, at_the_wave_measure, certificate, outcome, starts, zoo_systems,
    )

    rng = np.random.default_rng(CORPUS_SEED)
    systems = {f"corpus-{i}": random_system(rng) for i in range(CORPUS_COUNT)}
    systems.update(zoo_systems())
    out = {}
    for name, s in systems.items():
        off_wave = [mu0 for mu0 in starts(s) if not at_the_wave_measure(s, mu0)]
        laws = b"".join(w.evolve(mu0, s, n).weights.tobytes() for mu0 in starts(s) for n in STEPS)
        out[f"evolve/{name}"] = hashlib.sha256(laws).hexdigest()
        certs = [repr(outcome(certificate, s, mu0, 30)) for mu0 in off_wave]
        out[f"certify/{name}"] = hashlib.sha256("\n".join(certs).encode()).hexdigest()
        if s.space.size > 200:
            continue  # sticky-6 and sticky-7 would add seconds of SVD
        for j, mu0 in enumerate(off_wave):
            for n in SV_STEPS:
                bound = outcome(w.sv_product_bound, s, mu0, 0, s.space.size - 1, n)
                if isinstance(bound, type):
                    out[f"sv/{name}/{j}/{n}"] = bound.__name__
                    continue
                mus = [w.evolve(mu0, s, i) for i in range(n + 1)]
                sigmas = [
                    float(spectral._singular_values(w.kernel_at(s, i), mus[i], mus[i - 1])[1])
                    for i in range(1, n + 1)
                ]
                # two runs' sigma_1 differ by at most 4 N u each, and the
                # n + 4 roundings of the product by u each
                allowance = sum(4 * s.space.size * U / x for x in sigmas) + 2 * (n + 4) * U
                out[f"sv/{name}/{j}/{n}"] = [bound, allowance]
    return out


def merging_times():
    """{key: [merging time, reason]} for the merging corpus under each
    stepping rule at epsilon = 1/e, and for the pinned benchmark cases."""
    from conftest import CORPUS_COUNT, CORPUS_SEED, random_system
    from test_power_engine import METRICS, stepping

    rng = np.random.default_rng(CORPUS_SEED)
    corpus = [random_system(rng) for _ in range(CORPUS_COUNT)]
    merging = {
        i: s for i, s in enumerate(corpus)
        if w.is_irreducible(s.shifted) and w.period(s.shifted) == 1
    }
    out = {}
    for rule in ("dense", "gather"):
        with stepping(rule):
            for i, s in merging.items():
                for metric in METRICS:
                    rep = w.merging_time(s, 1 / math.e, 200, metric)
                    out[f"{rule}/corpus-{i}/{metric}"] = [rep.merging_time, rep.reason]
    for name, params, metric, horizon, _ in PINNED:
        rep = w.merging_time(models.build_model(name, params), 1 / math.e, horizon, metric)
        out[f"{name}-{params['n']}/{metric}"] = [rep.merging_time, rep.reason]
    return out


CHILDREN = {"laws": child_results, "merging": merging_times}


def child_env(coretype):
    """This process's environment with the given kernel and the package's
    source on the path."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    src = str(Path(w.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def start_child(coretype, child):
    """The child process computing CHILDREN[child] under the given kernel."""
    return subprocess.Popen(
        [sys.executable, __file__, child], env=child_env(coretype), stdout=subprocess.PIPE,
        text=True,
    )


def child_output(proc):
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    return json.loads(out)


def test_laws_and_certificates_are_the_same_bytes_under_every_blas_kernel():
    first, *others = [child_output(start_child(coretype, "laws")) for coretype in CORETYPES]
    exact = {k: v for k, v in first.items() if not k.startswith("sv/")}
    assert len(exact) == 2 * (200 + 11)
    for other in others:
        assert {k: v for k, v in other.items() if not k.startswith("sv/")} == exact
    bounds = {k: v for k, v in first.items() if k.startswith("sv/")}
    assert sum(isinstance(v, list) for v in bounds.values()) > 800
    for other in others:
        assert other.keys() == first.keys()
        for key, want in bounds.items():
            got = other[key]
            if isinstance(want, str):
                assert got == want, key
                continue
            allowance = max(want[1], got[1]) * max(abs(want[0]), abs(got[0]))
            assert abs(got[0] - want[0]) <= allowance, key


def test_merging_times_are_the_same_under_every_blas_kernel():
    # the children run while this process computes its own times
    children = {coretype: start_child(coretype, "merging") for coretype in CORETYPES}
    try:
        want = merging_times()
        assert len(want) == 2 * 184 * 3 + len(PINNED)
        assert sum(t is not None for t, _ in want.values()) > 1000
        for name, params, metric, _, pinned in PINNED:
            assert want[f"{name}-{params['n']}/{metric}"] == [pinned, None]
        for coretype, proc in children.items():
            assert child_output(proc) == want, coretype
    finally:
        for proc in children.values():
            proc.kill()
            proc.wait()


EPS = "0.36787944117144233"  # 1/e, the merging threshold of the benchmark's cases
# three benchmark cases, argv as perfbench/cases.py builds them
CLI_CASES = {
    "lazy41-scan": ["scan", "--model", "lazy-circle", "--param", "n=41", "--count", "1000",
                    "--seed", "1"],
    "circle101-relsup": ["merge-time", "--model", "circle", "--param", "n=101",
                         "--metric", "relative_sup", "--param", "horizon=25000",
                         "--epsilon", EPS],
    "sticky6-merging": ["analyze", "--model", "sticky", "--param", "n=6",
                        "--param", "horizon=400", "--epsilon", EPS,
                        "--analyses", "spectral,stability,merging"],
}
CLI_RTOL = 1e-12


def start_cli(coretype, argv, out):
    """The CLI process running argv under the given kernel, writing into out."""
    return subprocess.Popen([sys.executable, "-m", "wavechain.cli", *argv, "--out", str(out)],
                            env=child_env(coretype), stdout=subprocess.DEVNULL)


def cli_answers(out):
    """(exact, rounded): what must agree exactly, and the floats that may
    move with the kernel's rounding, from one CLI run's files."""
    exact, rounded = {}, {}
    if (out / "scan.csv").is_file():
        rows = [line.split(",") for line in (out / "scan.csv").read_text().splitlines()[1:]]
        exact["scan"] = [(name, status) for name, _, status in rows]
        rounded["scan ratio"] = [float(ratio) for _, ratio, _ in rows]
    results = json.loads((out / "report.json").read_text())["results"]
    if "merging" in results:
        doc = results["merging"]
        exact["merging time"] = doc["merging_time"]
        exact["trace length"] = len(doc["trace"])
        rounded["trace"] = [v for _, v in doc["trace"]]
    if "spectral" in results:
        exact["flags"] = {k: results["spectral"]["flags"].get(k) for k in ("irreducible", "period")}
        rounded["sigma"] = results["spectral"]["sigma"]
    if "stability" in results:
        # the witness is left out: sticky-6's c is 1 up to rounding, and the
        # witness, an argmax over that tie, names state 719, 5 or 143 under
        # one kernel or another (ROADMAP item 19's tie rule)
        rounded["c"] = [results["stability"]["c"]]
    return exact, rounded


def close(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):  # a trace value "inf"
        return a == b
    return abs(a - b) <= CLI_RTOL * max(abs(a), abs(b))


@pytest.mark.parametrize("case", CLI_CASES)
def test_cli_answers_agree_under_every_blas_kernel(tmp_path, case):
    outs = {coretype: tmp_path / str(coretype) for coretype in CORETYPES}
    procs = {coretype: start_cli(coretype, CLI_CASES[case], out) for coretype, out in outs.items()}
    try:
        codes = {coretype: proc.wait(timeout=120) for coretype, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    assert set(codes.values()) == {0}
    (want_exact, want_rounded), *others = [cli_answers(out) for out in outs.values()]
    assert want_exact and want_rounded
    for got_exact, got_rounded in others:
        assert got_exact == want_exact
        assert got_rounded.keys() == want_rounded.keys()
        for key, want in want_rounded.items():
            got = got_rounded[key]
            assert len(got) == len(want) and all(map(close, got, want)), key


if __name__ == "__main__":
    print(json.dumps(CHILDREN[sys.argv[1]]()))

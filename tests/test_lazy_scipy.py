"""The package never loads scipy, nor numpy.ma.

Runs on either side of `DENSE_LIMIT` states import no scipy: a kernel
above it is built, relabeled, saved, searched, sampled and multiplied in
numpy, and its top two singular values come from numpy's Lanczos.  scipy
stays a test dependency, as a reference and as a sparse input to
`make_kernel`.  Each check runs in a fresh interpreter, since the test
process itself has scipy loaded, and reports the scipy modules and
`numpy.ma` it ended with.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wavechain as w

SRC = str(Path(w.__file__).resolve().parents[1])

LOADED = """
loaded = sorted(name for name in sys.modules
                if name.split(".")[0] == "scipy" or name.split(".")[:2] == ["numpy", "ma"])
"""

PROBE = """\
import json, sys
from wavechain import cli
code = cli.main(sys.argv[1:])
""" + LOADED + """
print("LOADED " + json.dumps(loaded), file=sys.stderr)
sys.exit(code)
"""

ENV = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def run_probe(tmp_path, argv):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=ENV,
        cwd=tmp_path,
    )
    lines = [line for line in proc.stderr.splitlines() if line.startswith("LOADED ")]
    assert lines, proc.stderr
    return proc.returncode, json.loads(lines[-1][len("LOADED "):])


def loaded_after(code, tmp_path):
    """The modules a library snippet leaves loaded."""
    out = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + LOADED + "print(loaded)"],
        capture_output=True, text=True, check=True, env=ENV, cwd=tmp_path,
    ).stdout
    return out.strip().splitlines()[-1]


def test_importing_the_package_loads_no_scipy(tmp_path):
    assert loaded_after("import wavechain, wavechain.cli", tmp_path) == "[]"


def test_dense_library_calls_load_no_scipy(tmp_path):
    # kernels built from triplets, from a document and from the group and
    # bit models, then searched, multiplied and stored
    code = """
import wavechain as w
doc = {"size": 3, "triplets": [[0, 1, 1.0], [1, 2, 0.5], [1, 2, 0.5], [2, 0, 1.0]]}
k = w.kernel_from_document(doc)
assert w.period(k) == 3 and w.kernel_document(k)["size"] == 3
assert (k.dense()[0] @ k.dense()).tolist() == [0.0, 0.0, 1.0]
for s in (w.binary_cycling_system(4), w.sticky_permutation_system(4, 0, 0.1),
          w.deck_reversal_system(5)):
    assert not s.shifted.dense().flags.writeable
    if w.is_irreducible(s.shifted):
        w.period(s.shifted)
    w.empirical_distribution(s, 0, 5, 10, 0)
"""
    assert loaded_after(code, tmp_path) == "[]"


def test_csr_kernels_are_built_saved_and_sampled_without_scipy(tmp_path):
    code = """
import wavechain as w
for s in (w.sticky_permutation_system(7, 0, 0.05), w.cyclic_to_random_system(7)):
    assert s.space.size > w.DENSE_LIMIT
    assert w.shift_kernel(s.base, s.map).entries[2].tobytes() == s.shifted.entries[2].tobytes()
    w.transport_kernel(s.base, s.map, 3)
    w.save_kernel(s.shifted, "kernel.json")
    assert len(w.sample_path(s, 0, 20, 1).steps) == 21
    w.empirical_distribution(s, 0, 10, 500, 2)
"""
    assert loaded_after(code, tmp_path) == "[]"


DENSE_RUNS = {
    "merge-time-circle-41": ["merge-time", "--model", "circle", "--param", "n=41"],
    "analyze-circle-17": ["analyze", "--model", "circle", "--param", "n=17",
                          "--analyses", "spectral,stability,merging"],
    "simulate-deck-5": ["simulate", "--model", "deck-reversal", "--param", "n=5",
                        "--param", "steps=8", "--param", "trials=2000"],
    "scan-lazy-circle": ["scan", "--model", "lazy-circle", "--param", "n=9",
                         "--count", "20"],
    # several batches of stacked solves
    "scan-circle-41": ["scan", "--model", "circle", "--param", "n=41", "--count", "400"],
    # merging traces stepped by row gathers
    "merge-time-circle-101": ["merge-time", "--model", "circle", "--param", "n=101"],
    "analyze-merging-sticky-6": ["analyze", "--model", "sticky", "--param", "n=6",
                                 "--analyses", "merging"],
}


@pytest.mark.parametrize("argv", DENSE_RUNS.values(), ids=DENSE_RUNS.keys())
def test_dense_runs_load_no_scipy(tmp_path, argv):
    code, loaded = run_probe(tmp_path, argv)
    assert code == 0
    assert loaded == []


def test_a_saved_kernel_file_runs_without_scipy(tmp_path):
    kernel, _ = w.circle_kernel(9, 1.0)
    path = tmp_path / "circle.json"
    w.save_kernel(kernel, str(path))
    code, loaded = run_probe(
        tmp_path, ["analyze", "--model", str(path), "--analyses", "spectral,merging"]
    )
    assert code == 0
    assert loaded == []


def test_a_csr_simulation_loads_neither(tmp_path):
    code, loaded = run_probe(
        tmp_path, ["simulate", "--model", "sticky", "--param", "n=7", "--param", "steps=5",
                   "--param", "trials=1000"],
    )
    assert code == 0
    assert loaded == []
    assert (tmp_path / "out" / "profile.csv").exists()


def test_a_csr_wave_profile_loads_neither(tmp_path):
    # the irreducibility and period search runs in numpy on a CSR kernel too
    code, loaded = run_probe(
        tmp_path, ["wave-profile", "--model", "sticky", "--param", "n=7",
                   "--param", "samples=1000", "--param", "burn_in=10"],
    )
    assert code == 0
    assert loaded == []
    assert (tmp_path / "out" / "profile.csv").exists()


def test_a_csr_run_loads_no_scipy_and_reports_two_sigmas(tmp_path):
    for model in ("sticky", "cyclic-to-random"):
        code, loaded = run_probe(
            tmp_path, ["analyze", "--model", model, "--param", "n=7",
                       "--analyses", "spectral,stability"],
        )
        assert code == 0
        assert loaded == []
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["results"]["spectral"]["sigma"]) == 2  # the top-two path ran


def test_csr_evolve_and_spectra_load_no_scipy(tmp_path):
    code = """
import wavechain as w
s = w.sticky_permutation_system(7, 0, 0.05)
assert s.space.size > w.DENSE_LIMIT
mu = w.evolve(w.Distribution.point_mass(s.space, 0), s, 30)
assert abs(mu.weights.sum() - 1.0) < 1e-12
pi = s.wave_measure
assert len(w.weighted_singular_values(s.shifted, pi, pi).singular_values) == 2
"""
    assert loaded_after(code, tmp_path) == "[]"

"""The benchmark's workloads: CLI cases and the answer check for each.

Exact answers (merging times, sigma_1, c, bound verdicts, CSV digests) and
the exact laws behind the Monte Carlo checks are read from references.json,
which record_references.py wrote at the seed commit.  Nothing here depends
on the workload seed except the seeded cases' own ``--seed``; their checks
hold for every seed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

EPS = "0.36787944117144233"  # 1/e, the merging threshold of every merging case
SIGMA_TOL = 1e-8
C_RTOL = 1e-6  # the sparse stationary solve stops at a 1e-12 residual
SCAN_RTOL = 1e-9
REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple  # arguments after ``python3 -m wavechain.cli``
    checks: tuple  # callables (case, outdir, refs) -> list of problems

    def check(self, outdir: Path, refs: dict) -> list:
        problems = []
        for fn in self.checks:
            try:
                problems.extend(fn(self, outdir, refs))
            except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
                problems.append(f"{fn.__name__}: cannot read output ({exc!r})")
        return problems


def _report(outdir: Path) -> dict:
    return json.loads((outdir / "report.json").read_text())


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def merging_time(case, outdir, refs):
    got = _report(outdir)["results"]["merging"]["merging_time"]
    want = refs[case.name]["merging_time"]
    return [] if got == want else [f"merging time {got!r}, expected {want!r}"]


def never_merges(case, outdir, refs):
    ref = refs[case.name]
    doc = _report(outdir)["results"]["merging"]
    problems = []
    if doc["merging_time"] != "unbounded":
        problems.append(f"merging time {doc['merging_time']!r}, expected unbounded")
    if doc.get("reason") != ref["reason"]:
        problems.append(f"reason {doc.get('reason')!r}, expected {ref['reason']!r}")
    rows = len(_rows(outdir / "trace.csv")) - 1
    if rows != ref["trace_rows"]:
        problems.append(f"trace.csv has {rows} rows, expected {ref['trace_rows']}")
    return problems


def sigma1(case, outdir, refs):
    got = _report(outdir)["results"]["spectral"]["sigma"][1]
    want = refs[case.name]["sigma1"]
    return [] if abs(got - want) <= SIGMA_TOL else [f"sigma_1 {got!r}, expected {want!r}"]


def stability_c(case, outdir, refs):
    got = _report(outdir)["results"]["stability"]["c"]
    want = refs[case.name]["c"]
    return [] if abs(got - want) <= C_RTOL * want else [f"c {got!r}, expected {want!r}"]


def bound_dominates(case, outdir, refs):
    got = _report(outdir)["results"]["bounds"]["dominates"]
    want = refs[case.name]["dominates"]
    return [] if got == want else [f"bound verdict {got!r}, expected {want!r}"]


def scaling_csv(case, outdir, refs):
    got = _digest(outdir / "scaling.csv")
    want = refs[case.name]["scaling.csv"]
    return [] if got == want else [f"scaling.csv digest {got[:12]}, expected {want[:12]}"]


def flag_value(case, name) -> str:
    return case.argv[case.argv.index(name) + 1]


def param_value(case, key) -> str:
    for i, item in enumerate(case.argv):
        if item == "--param" and case.argv[i + 1].startswith(key + "="):
            return case.argv[i + 1].split("=", 1)[1]
    raise KeyError(key)


def scan_csv(case, outdir, refs):
    """Recompute every row of scan.csv independently of the package.

    The maps are the four shifts and ``count`` permutations drawn from
    ``numpy.random.default_rng(seed)``, as the CLI documents.  Each ratio is
    max/min of the invariant measure of base[:, g^{-1}], solved here with a
    bordered dense system on the recorded base kernel.  At the reference
    seed the file must also be byte-equal to the recorded one.
    """
    ref = refs[case.name]
    base = np.array(ref["base_kernel"])
    n = base.shape[0]
    seed, count = int(flag_value(case, "--seed")), int(flag_value(case, "--count"))
    rng = np.random.default_rng(seed)
    maps = [(f"shift:{s:+d}", (np.arange(n) + s) % n) for s in (1, -1, 2, -2)]
    maps += [(f"random:{j}", rng.permutation(n)) for j in range(count)]
    rows = _rows(outdir / "scan.csv")
    problems = []
    if rows[0] != ["map", "ratio", "status"] or len(rows) != len(maps) + 1:
        return [f"scan.csv has {len(rows) - 1} rows, expected {len(maps)}"]
    bound = 1.0 + ref["eps"]
    for (name, fwd), row in zip(maps, rows[1:]):
        shifted = base[:, np.argsort(fwd)]
        a = shifted.T - np.eye(n)
        a[-1, :] = 1.0
        rhs = np.zeros(n)
        rhs[-1] = 1.0
        pi = np.linalg.solve(a, rhs)
        ratio = float(pi.max() / pi.min())
        got = float(row[1])
        if row[0] != name or row[2] != "proven" or abs(got - ratio) > SCAN_RTOL * ratio:
            problems.append(f"scan row {row}, expected {name} ratio {ratio!r} proven")
        elif got > bound + 1e-9:
            problems.append(f"scan row {row} exceeds the proven bound {bound!r}")
    if seed == ref["seed"] and _digest(outdir / "scan.csv") != ref["scan.csv"]:
        problems.append("scan.csv differs from the recorded file at the reference seed")
    return problems[:5]


def tv_within_gate(case, outdir, refs):
    """TV between the CLI's histogram and the exact law, under 3*sqrt(N/trials)."""
    ref = refs[case.name]
    law = np.array(ref["law"])
    rows = _rows(outdir / "profile.csv")[1:]
    if [r[0] for r in rows] != ref["labels"]:
        return ["profile.csv states differ from the recorded state labels"]
    emp = np.array([float(r[1]) for r in rows])
    trials = int(param_value(case, "samples" if case.argv[0] == "wave-profile" else "trials"))
    tv = 0.5 * float(np.abs(emp - law).sum())
    gate = 3.0 * math.sqrt(len(law) / trials)
    return [] if tv <= gate else [f"TV to the exact law {tv:.6f} exceeds the gate {gate:.6f}"]


def _case(name, argv, *checks):
    return Case(name, tuple(argv), checks)


def _merge(model, metric, horizon, *params):
    return ["merge-time", "--model", model, *params, "--metric", metric,
            "--param", f"horizon={horizon}", "--epsilon", EPS]


def _analyze(model, analyses, *params):
    return ["analyze", "--model", model, *params, "--analyses", analyses]


def dense_merge(seed: int) -> list:
    return [
        _case("circle101-relsup", _merge("circle", "relative_sup", 25000, "--param", "n=101"),
              merging_time),
        _case("circle41-tv", _merge("circle", "total_variation", 1000, "--param", "n=41"),
              merging_time),
        _case("circle17-chi2", _merge("circle", "chi_square", 1000, "--param", "n=17"),
              merging_time),
        _case("circle81-analyze",
              _analyze("circle", "spectral,merging,stability,bounds", "--param", "n=81",
                       "--param", "horizon=6000", "--epsilon", EPS),
              merging_time, sigma1, stability_c, bound_dominates),
    ]


def shuffle_spectral(seed: int) -> list:
    return [
        _case("sticky7-spectral",
              _analyze("sticky", "spectral,stability", "--param", "n=7", "--param", "delta=0.3"),
              sigma1, stability_c),
        _case("sticky6-merging",
              _analyze("sticky", "spectral,stability,merging", "--param", "n=6",
                       "--param", "horizon=400", "--epsilon", EPS),
              sigma1, stability_c, merging_time),
        _case("cyclic7-spectral",
              _analyze("cyclic-to-random", "spectral,stability", "--param", "n=7"),
              sigma1, stability_c),
    ]


def monte_carlo(seed: int) -> list:
    return [
        _case("circle41-profile",
              ["wave-profile", "--model", "circle", "--param", "n=41",
               "--param", "samples=200000", "--param", "burn_in=800", "--seed", str(7 + seed)],
              tv_within_gate),
        _case("deck5-simulate",
              ["simulate", "--model", "deck-reversal", "--param", "n=5", "--param", "steps=8",
               "--param", "trials=200000", "--seed", str(3 + seed)],
              tv_within_gate),
        _case("sticky7-simulate",
              ["simulate", "--model", "sticky", "--param", "n=7", "--param", "steps=100",
               "--param", "trials=50000", "--seed", str(3 + seed)],
              tv_within_gate),
    ]


def small_sweep(seed: int) -> list:
    return [
        _case("lazy41-scan",
              ["scan", "--model", "lazy-circle", "--param", "n=41", "--count", "1000",
               "--seed", str(1 + seed)],
              scan_csv),
        _case("circle-scaling", ["scaling", "--family", "circle", "--n-list", "5:41:4"],
              scaling_csv),
        _case("sticky-scaling", ["scaling", "--family", "sticky", "--n-list", "3,4,5"],
              scaling_csv),
        _case("periodic-never",
              ["merge-time", "--model", "periodic-classes", "--param", "k=3",
               "--param", "class_size=2", "--param", "horizon=20000", "--epsilon", EPS],
              never_merges),
    ]


def exact(seed: int) -> list:
    # The dense-merge, shuffle-spectral and small-sweep groups run as one
    # workload: on a shared machine whose speed drifts over tens of seconds,
    # one long run over many cases is far steadier than three short ones.
    return dense_merge(seed) + shuffle_spectral(seed) + small_sweep(seed)


# Workload name -> case list for a workload seed.  Seed 0 gives the
# reference seeds 7, 3 and 1; seed s offsets each by s.
WORKLOADS: dict[str, Callable[[int], list]] = {
    "exact": exact,
    "monte-carlo": monte_carlo,
}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())

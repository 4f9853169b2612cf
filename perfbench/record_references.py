"""Write references.json: the answers every benchmark case is checked against.

Run once, from the repository root, at the commit whose answers are pinned:

    python3 perfbench/record_references.py

Every case is run through the CLI at workload seed 0.  The exact laws for the
Monte Carlo checks come from the package itself: the wave measure for
``wave-profile`` and ``evolve`` from the start state for ``simulate``.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from cases import REFERENCES, WORKLOADS, flag_value, param_value

ROOT = Path.cwd()
WORK = ROOT / ".perfbench" / "record"


def _cli(case) -> Path:
    outdir = WORK / case.name
    outdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "wavechain.cli", *case.argv, "--out", str(outdir)],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    return outdir


def _exact_law(case) -> tuple:
    from wavechain import cli
    from wavechain.core import Distribution, evolve

    config = cli._config_from_args(cli.build_parser().parse_args(list(case.argv)))
    system = cli.build_system(config)
    if case.argv[0] == "wave-profile":
        law = system.wave_measure
    else:
        _, knobs = cli._split_params(config)
        start = np.zeros(system.space.size)
        start[int(knobs.get("start", 0))] = 1.0
        law = evolve(Distribution(system.space, start), system, int(knobs["steps"]))
    labels = [system.space.label(i) for i in range(system.space.size)]
    return [float(w) for w in law.weights], labels


def record(case, outdir: Path) -> dict:
    ref: dict = {}
    report = outdir / "report.json"
    if report.exists():
        results = json.loads(report.read_text())["results"]
        if "merging" in results:
            ref["merging_time"] = results["merging"]["merging_time"]
            if "reason" in results["merging"]:
                ref["reason"] = results["merging"]["reason"]
                ref["trace_rows"] = len(results["merging"]["trace"])
        if "spectral" in results:
            ref["sigma1"] = results["spectral"]["sigma"][1]
        if "stability" in results:
            ref["c"] = results["stability"]["c"]
        if "bounds" in results:
            ref["dominates"] = results["bounds"]["dominates"]
    for name in ("scaling.csv", "scan.csv"):
        if (outdir / name).exists():
            ref[name] = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
    if case.argv[0] in ("wave-profile", "simulate"):
        ref["law"], ref["labels"] = _exact_law(case)
    if case.argv[0] == "scan":
        from wavechain.models import lazy_circle_kernel

        n, eps = int(param_value(case, "n")), 1.0
        ref["base_kernel"] = lazy_circle_kernel(n, eps).dense().tolist()
        ref["eps"] = eps
        ref["seed"] = int(flag_value(case, "--seed"))
    return ref


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    shutil.rmtree(WORK, ignore_errors=True)
    refs = {}
    for build in WORKLOADS.values():
        for case in build(0):
            refs[case.name] = record(case, _cli(case))
            print(case.name, {k: v for k, v in refs[case.name].items()
                              if k not in ("law", "labels", "base_kernel")})
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

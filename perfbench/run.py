"""wavechain benchmark: closed-loop CLI workloads with answer checks.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  One client runs one ``wavechain`` CLI process
at a time, each case of the workload in turn, and repeats the whole list
(a pass).  Every process is launched with BLAS pinned to one thread.

Passes repeat while the next one is expected to end within ``--seconds``
(the last pass's duration is the estimate); the first pass always runs.

``--trace 0`` reports the end-to-end metrics: the process wall time and CPU
time of the workload's CLI processes, each case's median over passes summed
over the cases, their largest median peak RSS, and the median over passes
of the set-up time (fresh interpreter, import, ``build_system`` for each
case).  Every pass runs its set-up probes after its cases, so set-up is
sampled across the whole run, not in one stretch before it.
``--trace 1`` alternates untraced passes with passes run under
perfbench/tracer.py and reports per-layer numbers from the traced ones.

Every CLI output is checked against references.json (see cases.py), and a
case whose output differs from its own output in an earlier pass of the run
fails.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from cases import WORKLOADS, load_references
from tracer import LAYERS, summarize

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Fresh interpreter: import the package and build the case's system, no analysis.
# Cases without a model (``scaling``) build their systems inside the study and
# pay only the import here.
SETUP_PROBE = """\
import sys
from wavechain import cli
config = cli._config_from_args(cli.build_parser().parse_args(sys.argv[1:]))
if config.model:
    cli.build_system(config)
"""

# Metric names and units, in the order BENCHMARK.json lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Per-layer metrics read from a differently named key of tracer.summarize.
_WORK_NAMES = {
    "core.evolve.steps": "core.evolve.work",
    "merging.merging_time.steps": "merging.merging_time.work",
    "rng.uniforms.variates": "rng.uniforms.work",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(argv: list, stdout_path: Path, env: dict) -> dict:
    """Run one process to completion; wall time from launch to exit, rusage."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def output_digest(outdir: Path, stdout: bytes) -> tuple:
    h = hashlib.sha256(stdout)
    size = 0
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), size


class Runner:
    """Runs cases, checks their answers and keeps the failure count."""

    def __init__(self, workload: str, cases: list, refs: dict):
        self.cases = cases
        self.refs = refs
        self.env = child_env()
        self.dir = WORK / f"{workload}-{os.getpid()}"
        self.digests: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def fail(self, label: str, problems: list) -> None:
        self.failed += 1
        self.problems.extend(f"{label}: {p}" for p in problems)
        for p in problems:
            print(f"FAIL {label}: {p}", file=sys.stderr)

    def run_case(self, case, tag: str, traced: bool) -> dict:
        outdir = self.dir / tag / case.name
        outdir.mkdir(parents=True)
        stdout_path = self.dir / tag / f"{case.name}.stdout"
        if traced:
            spans_path = self.dir / tag / f"{case.name}.spans.json"
            prefix = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--"]
        else:
            prefix = [sys.executable, "-m", "wavechain.cli"]
        rec = launch([*prefix, *case.argv, "--out", str(outdir)], stdout_path, self.env)
        self.attempted += 1
        stdout = stdout_path.read_bytes()
        problems = [] if rec["code"] == 0 else [
            f"exit code {rec['code']}: {stdout.decode(errors='replace')[-400:]!r}"]
        if not problems:
            problems = case.check(outdir, self.refs)
        digest, rec["write_bytes"] = output_digest(outdir, stdout)
        first = self.digests.setdefault(case.name, digest)
        if first != digest:
            problems.append("output differs from an earlier run with the same seed")
        if traced and spans_path.exists():
            rec["spans"] = json.loads(spans_path.read_text())
        if problems:
            self.fail(f"{tag}/{case.name}", problems)
        return rec

    def run_pass(self, tag: str, traced: bool = False) -> list:
        recs = [self.run_case(case, tag, traced) for case in self.cases]
        shutil.rmtree(self.dir / tag)
        return recs

    def warm_up(self) -> None:
        """Untimed import, so the package is byte-compiled before any timing."""
        self.dir.mkdir(parents=True)
        launch([sys.executable, "-c", "import wavechain.cli"], self.dir / "warm.stdout", self.env)

    def setup_time(self) -> float:
        """Summed wall time of one set-up probe per case."""
        total = 0.0
        for case in self.cases:
            rec = launch([sys.executable, "-c", SETUP_PROBE, *case.argv],
                         self.dir / "setup.stdout", self.env)
            self.attempted += 1
            if rec["code"] != 0:
                text = (self.dir / "setup.stdout").read_text(errors="replace")[-400:]
                self.fail(f"setup/{case.name}", [f"exit code {rec['code']}: {text!r}"])
            total += rec["wall"]
        return total


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration", blas.get("name")),
        "pinned_threads": {name: "1" for name in PINNED_THREADS},
    }


def describe(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def repeat(step, seconds: float) -> None:
    """Call step() at least once, and again while the next call is expected
    (from the last one's duration) to end within ``seconds`` of the start."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - began) - start > seconds:
            return


def end_to_end(runner: Runner, seconds: float, record: dict) -> tuple:
    setups, passes = [], []

    def step():
        passes.append(runner.run_pass(f"pass{len(passes)}"))
        setups.append(runner.setup_time())

    repeat(step, seconds)
    record["cases"] = {case.name: [p[i]["wall"] for p in passes]
                       for i, case in enumerate(runner.cases)}
    per_case = list(zip(*passes))  # per_case[i] = case i's records, one per pass
    samples = {
        "wall_s": [sum(r["wall"] for r in p) for p in passes],
        "cpu_s": [sum(r["cpu"] for r in p) for p in passes],
        "peak_rss_mb": [max(r["rss_mb"] for r in p) for p in passes],
        "setup_s": setups,
    }
    # Each case's median over passes, then summed (largest for RSS), so a slow
    # spell during one process does not move the figure.
    values = {
        "wall_s": sum(statistics.median(r["wall"] for r in c) for c in per_case),
        "cpu_s": sum(statistics.median(r["cpu"] for r in c) for c in per_case),
        "peak_rss_mb": max(statistics.median(r["rss_mb"] for r in c) for c in per_case),
        "setup_s": statistics.median(setups),
    }
    return samples, values


def per_layer(runner: Runner, seconds: float, record: dict) -> tuple:
    samples: dict = {name: [] for name in PER_LAYER}
    untraced_walls = []

    def step():
        k = len(untraced_walls)
        untraced_walls.append(sum(r["wall"] for r in runner.run_pass(f"plain{k}")))
        recs = runner.run_pass(f"traced{k}", traced=True)
        docs = [r["spans"] for r in recs if "spans" in r]
        s = summarize(docs)
        wall = sum(r["wall"] for r in recs)
        s["trace.wall_s"] = wall
        s["trace.overhead_s"] = wall - untraced_walls[-1]
        s["trace.outside_s"] = wall - s["trace.import_s"] - s["trace.main_s"]
        s["cli.write_bytes"] = sum(r["write_bytes"] for r in recs)
        s["cli.run.concurrency"] = (s["cli.run.child_s"] / s["cli.run.span_s"]
                                    if s["cli.run.span_s"] else 0.0)
        s["sim.lane_steps_per_s"] = s["sim.lane_steps"] / s["sim.span_s"] if s["sim.span_s"] else 0.0
        accounted = sum(s[f"{layer}.self_s"] for layer in LAYERS) - s["trace.overlap_s"]
        if len(docs) == len(recs) and abs(accounted - s["trace.main_s"]) > 1e-6:
            runner.fail(f"traced{k}", [f"layer self times sum to {accounted!r}, "
                                        f"traced span time is {s['trace.main_s']!r}"])
        for name in PER_LAYER:
            samples[name].append(float(s.get(_WORK_NAMES.get(name, name), 0.0)))

    repeat(step, seconds)
    record["untraced_wall_s"] = untraced_walls
    return samples, {name: statistics.median(v) for name, v in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps the CLI process it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "wavechain" / "cli.py").is_file():
        print("perfbench: src/wavechain/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2

    runner = Runner(args.workload, WORKLOADS[args.workload](args.seed), load_references())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "loadavg_before": os.getloadavg()}
    try:
        runner.warm_up()
        measure = per_layer if args.trace else end_to_end
        samples, values = measure(runner, args.seconds, record)
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()
    units = PER_LAYER if args.trace else END_TO_END_UNITS
    record["metrics"] = {name: {"value": values[name], **describe(v), "unit": units[name],
                                "samples": v} for name, v in samples.items()}
    record["problems"] = runner.problems
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"environment: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']!r} loadavg "
          f"{record['loadavg_before'][0]:.2f} -> {record['loadavg_after'][0]:.2f}")
    for name, m in record["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']} (per sample: median {m['median']:.6g}, "
              f"q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

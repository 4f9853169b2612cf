"""Command-line front end: it parses, dispatches and writes.

Builds a system through the model registry `models.MODELS`, or from a
kernel JSON file with the identity map; runs each requested analysis
through one library call; and writes machine-readable outputs into the
chosen directory: report.json plus trace.csv / profile.csv / scan.csv as
the analyses call for them.  This module is the package's one writer: the
library returns values, and only the runners here turn them into report
entries and CSV text (`_csv_text`).  Integer parameters and flag values
must be integral: 5.0 reads as 5, 5.5 is an input error; a boolean is an input
error wherever a number is read, and so is a number quoted as a string
in a JSON document; flag text is read by `_coerce`.  Every subcommand writes
through `_emit`, once its results are complete, so a failing command
leaves nothing behind.  Reports are byte-stable for a fixed config: BLAS
runs on one thread (threaded LAPACK rounds differently), JSON is dumped
with sorted keys, CSV rows follow state or step order, and no timestamps
or environment data are recorded.  The JSON files are written in one
pass, byte for byte as `json.dumps(..., sort_keys=True, indent=2)`
writes them, with non-finite floats as the strings "inf", "-inf", "nan".

Exit status: 0 on success, 1 on input errors (bad config, unknown model,
malformed kernel file), 2 when a quantitative bound the library asserts
fails numerically; in that case report.json names the violated inequality.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import gc
import glob
import io
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from types import MappingProxyType
from typing import Optional, Union

import numpy as np

from .core import (
    Distribution,
    Permutation,
    WaveSystem,
    _densifiable,
    _record,
    _reports_eigenvalues,
    evolve,
    make_permutation,
    make_wave_system,
)
from .errors import (
    ConfigInvalid,
    ModelUnknown,
    WavechainError,
)
from .interchange import _integer, _number, load_kernel
from .merging import (
    _METRICS,
    bound_dominance,
    certify_stability,
    merging_time,
    tv_distance,
)
from .models import MODELS, build_model, scaling_study, scan_permutations
from .sim import empirical_distribution, empirical_wave_profile
from .spectral import _period_or_none, _singular_values, eigenvalues

# keys of the parameter document consumed by the runner, not by model builders
_RUN_KEYS = frozenset(
    {
        "horizon",
        "metric",
        "trials",
        "steps",
        "start",
        "burn_in",
        "stride",
        "samples",
        "bound_scale",
        "count",
        "family",
        "n_list",
    }
)

@_record
class ExperimentConfig:
    """One run's settings: a config document with the flags applied."""

    model: str
    model_params: dict = MappingProxyType({})
    bijection: Union[str, list, None] = None
    analyses: tuple = ("spectral", "merging")
    output: str = "."
    seed: int = 0
    epsilon_threshold: float = 0.01

    def validate(self) -> None:
        if not self.model:
            raise ConfigInvalid("a model name or kernel file is required")
        if self.model not in MODELS and not os.path.exists(self.model):
            raise ModelUnknown(
                f"model {self.model!r} is not in the registry and is not a file; "
                f"known models: {', '.join(sorted(MODELS))}"
            )
        bad = [a for a in self.analyses if a not in ANALYSES]
        if bad:
            raise ConfigInvalid(f"unknown analyses {bad}; choose from {list(ANALYSES)}")
        if not float(self.epsilon_threshold) > 0.0:
            raise ConfigInvalid("epsilon_threshold must be positive")
        int(self.seed)


def _coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _images(values) -> list[int]:
    return [_integer(v, "bijection image") for v in values]


def _parse_bijection(raw, space, seed: int) -> Permutation:
    size = space.size
    if isinstance(raw, (list, tuple)):
        return make_permutation(space, _images(raw))
    if not isinstance(raw, str):
        raise ConfigInvalid(f"cannot read a bijection from {raw!r}")
    text = raw.strip()
    if text == "identity":
        return make_permutation(space, np.arange(size))
    if text.startswith("shift:"):
        s = _integer(_coerce(text.split(":", 1)[1]), "bijection shift") % size
        return make_permutation(space, (np.arange(size) + s) % size)
    if text == "random" or text.startswith("random:"):
        key = seed if text == "random" else _integer(_coerce(text.split(":", 1)[1]), "bijection random key")
        return make_permutation(space, np.random.default_rng(key).permutation(size))
    if "," in text:
        return make_permutation(space, _images(map(_coerce, text.split(","))))
    raise ConfigInvalid(
        f"bijection {raw!r} not understood; use identity, shift:s, random[:key], "
        "or an explicit comma-separated image list"
    )


def _split_params(config: ExperimentConfig) -> tuple[dict, dict]:
    model, knobs = {}, {}
    for k, v in config.model_params.items():
        (knobs if k in _RUN_KEYS else model)[k] = v
    return model, knobs


def build_system(config: ExperimentConfig) -> WaveSystem:
    """The configured model with its default bijection, or a kernel file with
    the identity; a configured bijection replaces either."""
    model_params, _ = _split_params(config)
    if config.model in MODELS:
        system = build_model(config.model, model_params)
        if config.bijection is None:
            return system
        kernel = system.base
    else:
        kernel = load_kernel(config.model)
        if model_params:
            raise ConfigInvalid(
                f"model {config.model!r} does not take parameters {sorted(model_params)}"
            )
    raw = config.bijection if config.bijection is not None else "identity"
    return make_wave_system(kernel, _parse_bijection(raw, kernel.space, config.seed))


@_record
class _AnalysisOut:
    """What one analysis adds to a run's report, files and summary lines."""

    doc: Optional[dict] = None  # report.json entry under the analysis name
    files: dict = MappingProxyType({})
    violations: tuple = ()
    lines: tuple = ()


def _csv_text(header, rows) -> str:
    """Header row, then one line per row, `\\n` line ends.  csv writes a float
    (numpy float64 too) as its shortest round-trip repr, infinity as `inf`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _mass_csv(dist: Distribution) -> str:
    labels = [dist.space.label(i) for i in range(dist.space.size)]
    return _csv_text(["state", "mass"], zip(labels, dist.weights))


def _spectral_document(kernel, singular_values, eigen, stationary) -> dict:
    """The report entry of the spectral analysis.  "sigma" lists
    `singular_values` as given: `_run_spectral` passes the values of
    `_singular_values`, all of them up to DENSE_LIMIT states, from the
    values-only SVD, and the top two above it, from the Lanczos path
    (sticky n=6 lists 720, n=7 lists two)."""
    per = _period_or_none(kernel)
    doc = {
        "sigma": [float(s) for s in singular_values],
        "eigenvalues": (
            [[float(v.real), float(v.imag)] for v in eigen.eigenvalues] if eigen else None
        ),
        "stationary": [float(x) for x in stationary.weights] if stationary else None,
        "flags": {
            "irreducible": per is not None,
            "diagonalizable": eigen.flag if eigen else None,
        },
    }
    if per is not None:
        doc["flags"]["period"] = per
    return doc


def _run_spectral(system, config, knobs) -> _AnalysisOut:
    shifted = system.shifted
    pi = system.wave_measure_or_none()
    mu = pi if pi is not None else Distribution.uniform(system.space)
    sigma = _singular_values(shifted, mu, mu)
    eig = eigenvalues(shifted) if _reports_eigenvalues(shifted) else None
    doc = _spectral_document(shifted, sigma, eig, pi)
    lines = (f"spectral: second singular value {float(sigma[1]):.8f}",) if len(sigma) > 1 else ()
    return _AnalysisOut(doc=doc, lines=lines)


def _run_merging(system, config, knobs) -> _AnalysisOut:
    metric = str(knobs.get("metric", "relative_sup"))
    horizon = _integer(knobs.get("horizon", 200), "horizon")
    rep = merging_time(system, config.epsilon_threshold, horizon, metric)
    if rep.merging_time is None:
        tail = f" ({rep.reason})" if rep.reason else ""
        line = f"merging: unbounded within {horizon} steps{tail}"
    else:
        line = f"merging: time {rep.merging_time} to reach {metric} < {config.epsilon_threshold}"
    doc = {
        "metric": rep.metric,
        "epsilon": rep.epsilon,
        "trace": rep.values,
        "merging_time": rep.merging_time if rep.merging_time is not None else "unbounded",
    }
    if rep.reason is not None:
        doc["reason"] = rep.reason
    files = {"trace.csv": _csv_text(["n", "distance"], rep.values)}
    return _AnalysisOut(doc=doc, files=files, lines=(line,))


def _run_stability(system, config, knobs) -> _AnalysisOut:
    cert = certify_stability(system, system.wave_measure)
    doc = {
        "c": float(cert.c),
        "horizon": int(cert.horizon),
        "periodic": bool(cert.periodic),
        "witness": {
            "state": int(cert.witness[0]),
            "label": system.space.label(cert.witness[0]),
            "steps": int(cert.witness[1]),
        },
    }
    return _AnalysisOut(doc=doc, lines=(f"stability: c = {float(cert.c):.12g}",))


def _run_bounds(system, config, knobs) -> _AnalysisOut:
    # dominance of the spectral merging bound over the exact relative error
    horizon = _integer(knobs.get("horizon", 30), "horizon")
    scale = _number(knobs.get("bound_scale", 1.0), "bound_scale")
    excess, step, sigma = bound_dominance(system, horizon, scale)
    doc = {
        "horizon": horizon,
        "sigma_tilde": sigma,
        "bound_scale": scale,
        "max_excess": excess,
        "dominates": excess <= 1e-12,
    }
    if doc["dominates"]:
        line = f"bounds: merging bound dominates exact error up to n={horizon}"
        return _AnalysisOut(doc=doc, lines=(line,))
    violation = {
        "inequality": "spectral merging bound dominates exact relative error",
        "detail": f"exceeded by {excess:.3e} at n={step}",
    }
    line = f"bounds: VIOLATION, bound exceeded by {excess:.3e} at n={step}"
    return _AnalysisOut(doc=doc, violations=(violation,), lines=(line,))


def _run_simulate(system, config, knobs) -> _AnalysisOut:
    steps = _integer(knobs.get("steps", 20), "steps")
    trials = _integer(knobs.get("trials", 10000), "trials")
    start = _integer(knobs.get("start", 0), "start")
    emp = empirical_distribution(system, start, steps, trials, config.seed)
    exact = evolve(Distribution.point_mass(system.space, start), system, steps)
    tv = tv_distance(emp, exact)
    gate = 3.0 * math.sqrt(system.space.size / trials)
    line = (
        f"simulate: endpoint TV vs exact {tv:.6f} after {steps} steps "
        f"({trials} trials, sanity gate {gate:.4f})"
    )
    return _AnalysisOut(files={"profile.csv": _mass_csv(emp)}, lines=(line,))


def _run_scan(system, config, knobs) -> _AnalysisOut:
    model_params, _ = _split_params(config)
    doc = scan_permutations(config.model, model_params, knobs.get("count", 50), config.seed)
    rows = [(row["map"], row["ratio"], row["status"]) for row in doc["rows"]]
    lines = (f"scan: worst max/min ratio {doc['worst']:.8f} over {len(doc['rows'])} maps",)
    if doc["note"]:
        lines += (f"scan: {doc['note']}",)
    violations = tuple(
        {
            "inequality": "circle invariant-measure max/min stability",
            "detail": f"map {row['map']} ratio {row['ratio']!r} exceeds {doc['proven_bound']!r}",
        }
        for row in doc["rows"]
        if row["status"] == "proven" and row["ratio"] > doc["proven_bound"] + 1e-9
    )
    files = {"scan.csv": _csv_text(["map", "ratio", "status"], rows)}
    return _AnalysisOut(files=files, violations=violations, lines=lines)


_ANALYSIS_RUNNERS = {
    "spectral": _run_spectral,
    "merging": _run_merging,
    "stability": _run_stability,
    "bounds": _run_bounds,
    "simulate": _run_simulate,
    "scan-permutations": _run_scan,
}
ANALYSES = tuple(_ANALYSIS_RUNNERS)


def _config_document(config: ExperimentConfig) -> dict:
    return {
        "model": config.model,
        "model_params": dict(config.model_params),
        "bijection": config.bijection,
        "analyses": list(config.analyses),
        "seed": int(config.seed),
        "epsilon_threshold": float(config.epsilon_threshold),
    }


def _float_text(x: float) -> str:
    # a non-finite value is written as the string "inf", "-inf" or "nan"
    text = float.__repr__(x)
    return text if math.isfinite(x) else f'"{text}"'


_SCALAR_TEXT = {
    float: _float_text,
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _scalar_rows(rows, newline: str) -> list:
    """Each row of rows, a list or tuple of plain scalars, as `_json_value`
    writes it at the indent that `newline` opens, in one join per row;
    KeyError for any other row."""
    inner = newline + "  "
    head, sep, tail = "[" + inner, "," + inner, newline + "]"
    parts = []
    for row in rows:
        if not isinstance(row, (list, tuple)):
            raise KeyError(type(row))
        parts.append(head + sep.join([_SCALAR_TEXT[type(v)](v) for v in row]) + tail if row else "[]")
    return parts


def _json_value(obj, newline: str) -> str:
    """obj as `json.dumps(..., sort_keys=True, indent=2)` writes it at the
    indent that `newline` opens, with numpy scalars read as Python ones,
    keys read through str, tuples written as lists and non-finite floats
    as strings.  A list of plain scalars is written with one join, and so
    is each row of a list of such lists (a merging trace)."""
    text = _SCALAR_TEXT.get(type(obj))
    if text is not None:
        return text(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted({str(k): v for k, v in obj.items()}.items())
        body = ("," + inner).join(
            f"{encode_basestring_ascii(k)}: {_json_value(v, inner)}" for k, v in items
        )
        return "{" + inner + body + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:
            parts = [_SCALAR_TEXT[type(v)](v) for v in obj]
        except KeyError:
            try:
                parts = _scalar_rows(obj, inner)
            except KeyError:
                parts = [_json_value(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if isinstance(obj, np.generic):
        return _json_value(obj.item(), newline)
    for kind, write in _SCALAR_TEXT.items():  # subclasses of the plain scalars
        if isinstance(obj, kind):
            return write(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(doc: dict) -> str:
    return _json_value(doc, "\n") + "\n"


def _emit(output: str, files: dict, lines: list) -> None:
    """The one output path of every subcommand: create the directory, write
    the files in name order, then print the summary lines."""
    os.makedirs(output, exist_ok=True)
    for fname, text in sorted(files.items()):
        with open(os.path.join(output, fname), "w") as fh:
            fh.write(text)
    for line in lines:
        print(line)


def run(config: ExperimentConfig) -> tuple[int, dict]:
    """Execute the configured analyses and write the report files.

    Analyses run one after another in the configured order and share the
    system's cached wave measure; the report is assembled in that order.
    Nothing is written when an analysis raises.
    """
    config.validate()
    _, knobs = _split_params(config)
    system = build_system(config)
    report: dict = {"config": _config_document(config), "results": {}, "violations": []}
    files: dict[str, str] = {}
    lines: list[str] = []
    for name in config.analyses:
        out = _ANALYSIS_RUNNERS[name](system, config, knobs)
        if out.doc is not None:
            report["results"][name] = out.doc
        report["violations"].extend(out.violations)
        files.update(out.files)
        lines.extend(out.lines)
    files["report.json"] = _json_text(report)
    _emit(config.output, files, lines)
    return (2 if report["violations"] else 0), report


def _parse_int_list(text: str) -> list[int]:
    bounds = text.strip().split(":")
    if len(bounds) == 1:
        return [_integer(_coerce(v), "--n-list size") for v in bounds[0].split(",")]
    if len(bounds) == 2:
        bounds.append("1")
    if len(bounds) != 3:
        raise ConfigInvalid(f"--n-list {text!r} is not a,b,c or start:stop[:step]")
    start, stop, step = [_integer(_coerce(v), "--n-list bound") for v in bounds]
    if step == 0:
        raise ConfigInvalid(f"--n-list {text!r} has step 0")
    # stop is inclusive in either direction
    return list(range(start, stop + (1 if step > 0 else -1), step))


def _add_common(sp: argparse.ArgumentParser, with_analyses: bool = False) -> None:
    sp.add_argument("--config", help="JSON config document; flags below override its fields")
    sp.add_argument("--model", help="zoo model name or kernel JSON file")
    sp.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="K=V",
        help="model or runner parameter, repeatable",
    )
    sp.add_argument("--bijection", help="identity, shift:s, random[:key], or image list")
    sp.add_argument("--seed", type=int, help="seed for sampling and random bijections")
    sp.add_argument("--out", help="output directory (default: current directory)")
    sp.add_argument("--epsilon", type=float, help="merging threshold (must be > 0)")
    if with_analyses:
        sp.add_argument("--analyses", help="comma-separated subset of " + ",".join(ANALYSES))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavechain",
        description="Exact analysis of inhomogeneous chains driven by a bijection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("analyze", help="run a set of analyses"), with_analyses=True)
    mt = sub.add_parser("merge-time", help="distance trace and first passage below epsilon")
    _add_common(mt)
    mt.add_argument("--metric", choices=_METRICS)
    _add_common(sub.add_parser("wave-profile", help="occupation estimate of the invariant measure"))
    _add_common(sub.add_parser("simulate", help="endpoint histogram over seeded replicas"))
    sc = sub.add_parser("scan", help="stability ratios over random bijections")
    _add_common(sc)
    sc.add_argument("--count", type=int, help="number of random permutations")
    sg = sub.add_parser("scaling", help="merging-time growth across sizes")
    _add_common(sg)
    sg.add_argument("--family", help="circle or sticky")
    sg.add_argument("--n-list", help="sizes, as a,b,c or start:stop[:step]")
    return parser


# Subcommands that run a fixed set of analyses (wave-profile runs none of
# them); `analyze` takes its set from the config.
_COMMAND_ANALYSES = {
    "wave-profile": (),
    "merge-time": ("merging",),
    "simulate": ("simulate",),
    "scan": ("scan-permutations",),
}


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The command's config, built once: the config document, then the
    flags over it, then the command's own analyses and flag parameters."""
    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigInvalid(f"cannot read config file: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
            raise ConfigInvalid(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigInvalid("config document must be a JSON object")
    params = doc.get("model_params", {})
    if not isinstance(params, dict):
        raise ConfigInvalid(f"model_params {params!r} is not an object")
    params = dict(params)
    for item in args.param:
        if "=" not in item:
            raise ConfigInvalid(f"--param needs K=V, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = _coerce(value.strip())
    analyses = doc.get("analyses", ["spectral", "merging"])
    if getattr(args, "analyses", None):
        analyses = [a.strip() for a in args.analyses.split(",") if a.strip()]
    if not isinstance(analyses, list) or not all(isinstance(a, str) for a in analyses):
        raise ConfigInvalid(f"analyses {analyses!r} is not a list of names")
    if not analyses and args.command == "analyze":
        raise ConfigInvalid(f"analyze needs an analysis; choose from {list(ANALYSES)}")
    model = args.model if args.model is not None else doc.get("model", "")
    output = args.out if args.out is not None else doc.get("output", ".")
    for what, value in (("model", model), ("output", output)):
        if not isinstance(value, str):
            raise ConfigInvalid(f"{what} {value!r} is not a string")
    bijection = args.bijection if args.bijection is not None else doc.get("bijection")
    seed = _integer(args.seed if args.seed is not None else doc.get("seed", 0), "seed")
    # a scaling study measures merging at 1/e unless a threshold is given
    epsilon = 1.0 / math.e if args.command == "scaling" else 0.01
    epsilon = _number(
        args.epsilon if args.epsilon is not None else doc.get("epsilon_threshold", epsilon),
        "epsilon_threshold",
    )
    if getattr(args, "metric", None):
        params["metric"] = args.metric
    if getattr(args, "count", None) is not None:
        params["count"] = args.count
    if getattr(args, "family", None):
        params["family"] = args.family
    if getattr(args, "n_list", None):
        params["n_list"] = _parse_int_list(args.n_list)
    if args.command == "scan" and bijection is not None:
        raise ConfigInvalid("scan draws its own maps; it takes no bijection")
    analyses = _COMMAND_ANALYSES.get(args.command, tuple(analyses))
    return ExperimentConfig(model, params, bijection, analyses, output, seed, epsilon)


def _cmd_wave_profile(config: ExperimentConfig) -> int:
    config.validate()
    _, knobs = _split_params(config)
    system = build_system(config)
    stride = _integer(knobs.get("stride", system.order), "stride")
    default_burn = max(1000, min(200 * system.space.size, 50_000))
    burn_in = _integer(knobs.get("burn_in", default_burn), "burn_in")
    samples = _integer(knobs.get("samples", 100_000), "samples")
    profile = empirical_wave_profile(system, burn_in, stride, samples, config.seed)
    lines = [f"wave-profile: {samples} samples, burn-in {burn_in}, stride {stride}"]
    if _densifiable(system.base):
        tv = tv_distance(profile, system.wave_measure)
        lines.append(f"wave-profile: TV against exact invariant measure {tv:.6f}")
    _emit(config.output, {"profile.csv": _mass_csv(profile)}, lines)
    return 0


def _cmd_scaling(config: ExperimentConfig) -> int:
    if config.model or config.bijection is not None:
        raise ConfigInvalid("scaling studies its --family; it takes no model or bijection")
    model_params, knobs = _split_params(config)
    family = str(knobs.get("family", "circle"))
    doc = scaling_study(family, knobs.get("n_list"), config.epsilon_threshold, model_params)
    files = {
        "scaling.csv": _csv_text(["n", "time"], doc["points"]),
        "scaling.json": _json_text(doc),
    }
    lines = [
        f"scaling: slope {doc['slope']:.4f} over n in {[p[0] for p in doc['points']]}",
        f"scaling: max |residual| {max(abs(r) for r in doc['residuals']):.4f}",
    ]
    _emit(config.output, files, lines)
    return 0


def _one_blas_thread():
    """Set numpy's bundled OpenBLAS, if any, to one thread; return the call
    that restores its count, so an in-process caller keeps its own."""
    found = glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas64_-*.so")
    if not found:
        return lambda: None
    lib = ctypes.CDLL(found[0])
    threads = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    return lambda: lib.scipy_openblas_set_num_threads64_(threads)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # keep exit 2 reserved for violated bounds; usage errors are
        # ordinary config errors (--help still exits 0)
        return 1 if exc.code else 0
    restore_blas = _one_blas_thread()
    try:
        config = _config_from_args(args)
        if args.command == "wave-profile":
            return _cmd_wave_profile(config)
        if args.command == "scaling":
            return _cmd_scaling(config)
        code, _ = run(config)
        return code
    except (WavechainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        restore_blas()


def _entry() -> None:
    """The program entry of the `wavechain` script and `python -m
    wavechain.cli`: collect the import's garbage, freeze what is left so
    that no collection during the run or at exit walks numpy's and the
    package's import heap, then exit with main's status.  `main` itself
    leaves the collector alone, for in-process callers."""
    gc.collect()
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    _entry()

"""Command-line front end.

Builds a system from the model zoo (or a kernel JSON file), runs the
requested analyses, and writes machine-readable outputs into the chosen
directory: report.json plus trace.csv / profile.csv / scan.csv as the
analyses call for them.  Every subcommand writes through `_emit`, once its
results are complete, so a failing command leaves nothing behind.  Reports
are byte-stable for a fixed config: JSON is dumped with sorted keys, CSV rows
follow state or step order, and no timestamps or environment data are recorded.

Exit status: 0 on success, 1 on input errors (bad config, unknown model,
malformed kernel file), 2 when a quantitative bound the library asserts
fails numerically; in that case report.json names the violated inequality.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .core import (
    DENSE_LIMIT,
    Distribution,
    MarkovKernel,
    Permutation,
    WaveSystem,
    evolve,
    make_permutation,
    make_wave_system,
    power_blocks,
)
from .errors import (
    BoundViolated,
    ConfigInvalid,
    ModelUnknown,
    WavechainError,
)
from .interchange import _csv_text, load_kernel
from .merging import (
    _sigma_tilde,
    certify_stability,
    merging_time,
    tv_distance,
)
from .models import (
    binary_cycling_system,
    circle_kernel,
    circle_shift,
    cyclic_to_random_system,
    deck_reversal_system,
    four_point_example,
    lazy_circle_kernel,
    periodic_class_example,
    random_regular_graph_walk,
    sticky_permutation_system,
)
from .sim import empirical_distribution, empirical_wave_profile
from .spectral import (
    eigenvalues,
    spectral_report_document,
    weighted_singular_values,
)

ANALYSES = ("spectral", "merging", "stability", "bounds", "simulate", "scan-permutations")

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

_EIG_LIMIT = 512  # full eigendecompositions in reports only below this size


@dataclass
class ExperimentConfig:
    model: str
    model_params: dict = field(default_factory=dict)
    bijection: Union[str, list, None] = None
    analyses: tuple = ("spectral", "merging")
    output: str = "."
    seed: int = 0
    epsilon_threshold: float = 0.01

    def validate(self) -> None:
        if not self.model:
            raise ConfigInvalid("a model name or kernel file is required")
        if self.model not in _MODEL_BUILDERS and not os.path.exists(self.model):
            raise ModelUnknown(
                f"model {self.model!r} is not in the registry and is not a file; "
                f"known models: {', '.join(sorted(_MODEL_BUILDERS))}"
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


def _parse_bijection(raw, space, seed: int) -> Permutation:
    size = space.size
    if isinstance(raw, (list, tuple)):
        return make_permutation(space, [int(v) for v in raw])
    if not isinstance(raw, str):
        raise ConfigInvalid(f"cannot read a bijection from {raw!r}")
    text = raw.strip()
    if text == "identity":
        return make_permutation(space, np.arange(size))
    if text.startswith("shift:"):
        s = int(text.split(":", 1)[1])
        return make_permutation(space, (np.arange(size) + s) % size)
    if text == "random" or text.startswith("random:"):
        key = seed if text == "random" else int(text.split(":", 1)[1])
        return make_permutation(space, np.random.default_rng(key).permutation(size))
    if "," in text:
        return make_permutation(space, [int(v) for v in text.split(",")])
    raise ConfigInvalid(
        f"bijection {raw!r} not understood; use identity, shift:s, random[:key], "
        "or an explicit comma-separated image list"
    )


# Builders return either a complete WaveSystem (models that carry their own
# bijection) or a (kernel, default-bijection) pair.  Each pops the parameters
# it knows; leftovers are reported as configuration errors.


def _circle_params(p) -> tuple[int, float]:
    # point count and heavy-edge excess, shared by both circle models
    return int(p.pop("n", 5)), float(p.pop("eps", 1.0))


def _sticky_builder(p):
    n = int(p.pop("n", 4))
    rho = p.pop("rho", None)
    rho = tuple(range(n)) if rho is None else int(rho)
    return sticky_permutation_system(n, rho, float(p.pop("delta", 0.05)))


def _regular_builder(p):
    n = int(p.pop("n", 8))
    degree = p.pop("degree", p.pop("r", 3))
    return random_regular_graph_walk(n, int(degree), int(p.pop("graph_seed", 0))), "identity"


_MODEL_BUILDERS: dict[str, Callable] = {
    "circle": lambda p: (circle_kernel(*_circle_params(p))[0], "shift:-1"),
    "lazy-circle": lambda p: (lazy_circle_kernel(*_circle_params(p)), "shift:-1"),
    "binary-cycling": lambda p: binary_cycling_system(int(p.pop("bits", 3))),
    "four-point": lambda p: four_point_example(),
    "deck-reversal": lambda p: deck_reversal_system(int(p.pop("n", 4))),
    "cyclic-to-random": lambda p: cyclic_to_random_system(int(p.pop("n", 4))),
    "sticky": _sticky_builder,
    "periodic-classes": lambda p: periodic_class_example(
        int(p.pop("k", 3)), int(p.pop("class_size", 2))
    ),
    "random-regular": _regular_builder,
}


def _split_params(config: ExperimentConfig) -> tuple[dict, dict]:
    model, knobs = {}, {}
    for k, v in config.model_params.items():
        (knobs if k in _RUN_KEYS else model)[k] = v
    return model, knobs


def build_system(config: ExperimentConfig) -> WaveSystem:
    model_params, _ = _split_params(config)
    params = dict(model_params)
    if config.model in _MODEL_BUILDERS:
        built = _MODEL_BUILDERS[config.model](params)
    else:
        built = load_kernel(config.model), "identity"
    if params:
        raise ConfigInvalid(
            f"model {config.model!r} does not take parameters {sorted(params)}"
        )
    if isinstance(built, WaveSystem):
        if config.bijection is None:
            return built
        g = _parse_bijection(config.bijection, built.space, config.seed)
        return make_wave_system(built.base, g)
    kernel, default = built
    raw = config.bijection if config.bijection is not None else default
    g = _parse_bijection(raw, kernel.space, config.seed)
    return make_wave_system(kernel, g)


@dataclass
class _AnalysisOut:
    doc: Optional[dict] = None  # report.json entry under the analysis name
    files: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    lines: list = field(default_factory=list)


def _mass_csv(dist: Distribution) -> str:
    labels = [dist.space.label(i) for i in range(dist.space.size)]
    return _csv_text(["state", "mass"], zip(labels, dist.weights))


def _run_spectral(system, config, knobs) -> _AnalysisOut:
    shifted = system.shifted
    pi = system.wave_measure_or_none()
    mu = pi if pi is not None else Distribution.uniform(system.space)
    dec = weighted_singular_values(shifted, mu, mu)
    eig = eigenvalues(shifted) if system.space.size <= _EIG_LIMIT else None
    doc = spectral_report_document(shifted, dec, eig, pi)
    out = _AnalysisOut(doc=doc)
    if len(dec.singular_values) > 1:
        out.lines.append(f"spectral: second singular value {float(dec.singular_values[1]):.8f}")
    return out


def _run_merging(system, config, knobs) -> _AnalysisOut:
    metric = str(knobs.get("metric", "relative_sup"))
    horizon = int(knobs.get("horizon", 200))
    rep = merging_time(system, config.epsilon_threshold, horizon, metric)
    out = _AnalysisOut(doc=rep.to_document(), files={"trace.csv": rep.to_csv()})
    if rep.merging_time is None:
        tail = f" ({rep.reason})" if rep.reason else ""
        out.lines.append(f"merging: unbounded within {horizon} steps{tail}")
    else:
        out.lines.append(
            f"merging: time {rep.merging_time} to reach {metric} < {config.epsilon_threshold}"
        )
    return out


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
    return _AnalysisOut(doc=doc, lines=[f"stability: c = {float(cert.c):.12g}"])


def _run_bounds(system, config, knobs) -> _AnalysisOut:
    # Dominance of the spectral merging bound over the exact relative error.
    # bound_scale rescales the bound before comparison; values below 1 exist
    # to let callers watch the violation path fire on a healthy instance.
    horizon = int(knobs.get("horizon", 30))
    scale = float(knobs.get("bound_scale", 1.0))
    pi, sigma = _sigma_tilde(system)
    w = pi.weights
    front = np.sqrt(1.0 / w - 1.0)
    outer = np.outer(front, front)
    worst = (0.0, 0)
    for first, block in power_blocks(system.shifted, horizon):
        # one power at a time: N x N temporaries stay in cache, which
        # measured faster than block-wide arrays at N = 81
        for n, power in enumerate(block.transpose(1, 0, 2), first):
            excess = power / w
            excess -= 1.0
            np.abs(excess, out=excess)
            excess -= scale * sigma**n * outer
            e = float(excess.max())
            if e > worst[0]:
                worst = (e, n)
    doc = {
        "horizon": horizon,
        "sigma_tilde": sigma,
        "bound_scale": scale,
        "max_excess": worst[0],
        "dominates": worst[0] <= 1e-12,
    }
    out = _AnalysisOut(doc=doc)
    if doc["dominates"]:
        out.lines.append(f"bounds: merging bound dominates exact error up to n={horizon}")
    else:
        out.violations.append(
            {
                "inequality": "spectral merging bound dominates exact relative error",
                "detail": f"exceeded by {worst[0]:.3e} at n={worst[1]}",
            }
        )
        out.lines.append(f"bounds: VIOLATION, bound exceeded by {worst[0]:.3e} at n={worst[1]}")
    return out


def _run_simulate(system, config, knobs) -> _AnalysisOut:
    steps = int(knobs.get("steps", 20))
    trials = int(knobs.get("trials", 10000))
    start = int(knobs.get("start", 0))
    emp = empirical_distribution(system, start, steps, trials, config.seed)
    out = _AnalysisOut(files={"profile.csv": _mass_csv(emp)})
    if system.space.size <= DENSE_LIMIT:
        one_hot = np.zeros(system.space.size)
        one_hot[start] = 1.0
        exact = evolve(Distribution(system.space, one_hot), system, steps)
        tv = tv_distance(emp, exact)
        gate = 3.0 * math.sqrt(system.space.size / trials)
        out.lines.append(
            f"simulate: endpoint TV vs exact {tv:.6f} after {steps} steps "
            f"({trials} trials, sanity gate {gate:.4f})"
        )
    else:
        out.lines.append(f"simulate: wrote endpoint histogram ({trials} trials)")
    return out


def _run_scan(system, config, knobs) -> _AnalysisOut:
    if config.model not in ("circle", "lazy-circle"):
        raise ConfigInvalid("scan-permutations applies to the circle models only")
    model_params, _ = _split_params(config)
    _, eps = _circle_params(model_params)
    doc = scan_permutations(
        system.base,
        eps=eps,
        count=int(knobs.get("count", 50)),
        seed=config.seed,
        lazy=config.model == "lazy-circle",
    )
    rows = [(row["map"], row["ratio"], row["status"]) for row in doc["rows"]]
    out = _AnalysisOut(files={"scan.csv": _csv_text(["map", "ratio", "status"], rows)})
    out.lines.append(
        f"scan: worst max/min ratio {doc['worst']:.8f} over {len(doc['rows'])} maps"
    )
    if doc["note"]:
        out.lines.append(f"scan: {doc['note']}")
    for row in doc["rows"]:
        if row["status"] == "proven" and isinstance(row["ratio"], float):
            if row["ratio"] > doc["proven_bound"] + 1e-9:
                out.violations.append(
                    {
                        "inequality": "circle invariant-measure max/min stability",
                        "detail": f"map {row['map']} ratio {row['ratio']!r} "
                        f"exceeds {doc['proven_bound']!r}",
                    }
                )
    return out


_ANALYSIS_RUNNERS = {
    "spectral": _run_spectral,
    "merging": _run_merging,
    "stability": _run_stability,
    "bounds": _run_bounds,
    "simulate": _run_simulate,
    "scan-permutations": _run_scan,
}


def scan_permutations(kernel: MarkovKernel, eps: float, count: int, seed: int, lazy: bool) -> dict:
    """Stability ratios max/min of the invariant measure over a family of maps.

    `kernel` is the heavy-edge circle walk with excess `eps`, lazy or not.
    The first rows are the shifts by ±1 and ±2, followed by `count` seeded
    random permutations.  For the lazy kernel every map carries the proven
    bound 1+eps; for the nonlazy kernel only the four shifts do, and any
    other map is labeled empirical: no bound is known, the value is
    informational only.
    """
    n_points = kernel.size
    rng = np.random.default_rng(seed)
    maps: list[tuple[str, np.ndarray]] = []
    for s in (1, -1, 2, -2):
        maps.append((f"shift:{s:+d}", (np.arange(n_points) + s) % n_points))
    for j in range(count):
        maps.append((f"random:{j}", rng.permutation(n_points)))
    rows = []
    worst = 1.0
    for name, fwd in maps:
        system = make_wave_system(kernel, make_permutation(kernel.space, fwd))
        pi = system.wave_measure_or_none()
        if pi is None:
            rows.append({"map": name, "ratio": "inf", "status": "reducible"})
            continue
        ratio = float(np.max(pi.weights) / np.min(pi.weights))
        proven = lazy or name.startswith("shift:")
        rows.append(
            {"map": name, "ratio": ratio, "status": "proven" if proven else "empirical"}
        )
        worst = max(worst, ratio)
    note = (
        None
        if lazy
        else "maps beyond shifts by 1 and 2 are empirical only; no proven bound"
    )
    return {
        "model": "lazy-circle" if lazy else "circle",
        "n_points": n_points,
        "eps": eps,
        "proven_bound": 1.0 + eps,
        "rows": rows,
        "worst": worst,
        "note": note,
    }


def _scaling_family(family: str, p: dict) -> Callable:
    """Per-size builder n -> (system, step cap) of a scaling family; pops its
    parameters from p."""
    if family == "circle":
        eps = float(p.pop("eps", 1.0))
        return lambda n: (
            make_wave_system(circle_kernel(n, eps)[0], circle_shift(n, -1)),
            100 + 10 * n * n,
        )
    if family == "sticky":
        delta = float(p.pop("delta", 0.05))

        def build(n):
            system = sticky_permutation_system(int(n), tuple(range(int(n))), delta)
            size = system.space.size
            return system, int(200 + 40 * size * math.log(size))

        return build
    raise ConfigInvalid(f"unknown scaling family {family!r}; use circle or sticky")


def scaling_study(family: str, n_list, eta: float, params: Optional[dict] = None) -> dict:
    """Exact merging times across a model family with a log-log fit.

    Returns the fitted slope of log T against log n together with the
    per-point residuals, so callers can judge both the growth exponent and
    the fit quality.  The family, its parameters and the sizes (at least
    two distinct, each one the family can build) are checked before any
    merging time is computed.
    """
    params = dict(params or {})
    build = _scaling_family(family, params)
    if params:
        raise ConfigInvalid(f"family {family!r} does not take parameters {sorted(params)}")
    if len({int(n) for n in n_list}) < 2:
        raise ConfigInvalid("a scaling study needs at least two distinct sizes")
    systems = [(int(n), *build(n)) for n in n_list]
    points = []
    for n, system, cap in systems:
        rep = merging_time(system, eta, cap, "relative_sup")
        if rep.merging_time is None:
            raise ConfigInvalid(f"no merging within {cap} steps at n={n}")
        points.append((n, int(rep.merging_time)))
    logs_n = np.log([p[0] for p in points])
    logs_t = np.log([p[1] for p in points])
    slope, intercept = np.polyfit(logs_n, logs_t, 1)
    residuals = logs_t - (slope * logs_n + intercept)
    return {
        "family": family,
        "eta": float(eta),
        "points": [[n, t] for n, t in points],
        "slope": float(slope),
        "intercept": float(intercept),
        "residuals": [float(r) for r in residuals],
    }


def _config_document(config: ExperimentConfig) -> dict:
    return {
        "model": config.model,
        "model_params": dict(config.model_params),
        "bijection": config.bijection,
        "analyses": list(config.analyses),
        "seed": int(config.seed),
        "epsilon_threshold": float(config.epsilon_threshold),
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _json_text(doc: dict) -> str:
    return json.dumps(_jsonable(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


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
    text = text.strip()
    if ":" in text:
        parts = [int(v) for v in text.split(":")]
        if len(parts) == 2:
            parts.append(1)
        start, stop, step = parts
        return list(range(start, stop + 1, step))
    return [int(v) for v in text.split(",")]


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
    mt.add_argument("--metric", choices=("total_variation", "relative_sup", "chi_square"))
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


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigInvalid(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigInvalid("config document must be a JSON object")
    params = dict(doc.get("model_params", {}))
    for item in args.param:
        if "=" not in item:
            raise ConfigInvalid(f"--param needs K=V, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = _coerce(value.strip())
    analyses = doc.get("analyses", ["spectral", "merging"])
    if getattr(args, "analyses", None):
        analyses = [a.strip() for a in args.analyses.split(",") if a.strip()]
    config = ExperimentConfig(
        model=args.model if args.model is not None else doc.get("model", ""),
        model_params=params,
        bijection=args.bijection if args.bijection is not None else doc.get("bijection"),
        analyses=tuple(analyses),
        output=args.out if args.out is not None else doc.get("output", "."),
        seed=int(args.seed if args.seed is not None else doc.get("seed", 0)),
        epsilon_threshold=float(
            args.epsilon if args.epsilon is not None else doc.get("epsilon_threshold", 0.01)
        ),
    )
    if getattr(args, "metric", None):
        config.model_params["metric"] = args.metric
    if getattr(args, "count", None) is not None:
        config.model_params["count"] = args.count
    if getattr(args, "family", None):
        config.model_params["family"] = args.family
    if getattr(args, "n_list", None):
        config.model_params["n_list"] = _parse_int_list(args.n_list)
    return config


def _cmd_wave_profile(config: ExperimentConfig) -> int:
    _, knobs = _split_params(config)
    system = build_system(config)
    stride = int(knobs.get("stride", system.order))
    default_burn = max(1000, min(200 * system.space.size, 50_000))
    burn_in = int(knobs.get("burn_in", default_burn))
    samples = int(knobs.get("samples", 100_000))
    profile = empirical_wave_profile(system, burn_in, stride, samples, config.seed)
    lines = [f"wave-profile: {samples} samples, burn-in {burn_in}, stride {stride}"]
    if system.space.size <= DENSE_LIMIT:
        tv = tv_distance(profile, system.wave_measure)
        lines.append(f"wave-profile: TV against exact invariant measure {tv:.6f}")
    _emit(config.output, {"profile.csv": _mass_csv(profile)}, lines)
    return 0


def _cmd_scaling(config: ExperimentConfig, eta_given: bool) -> int:
    model_params, knobs = _split_params(config)
    family = str(knobs.get("family", "circle"))
    n_list = knobs.get("n_list")
    if n_list is None:
        n_list = list(range(5, 42, 4)) if family == "circle" else [4, 5]
    eta = config.epsilon_threshold if eta_given else 1.0 / math.e
    doc = scaling_study(family, n_list, eta, model_params)
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


# Subcommands that run a fixed set of analyses; `analyze` takes its set
# from the config.
_COMMAND_ANALYSES = {
    "merge-time": ("merging",),
    "simulate": ("simulate",),
    "scan": ("scan-permutations",),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # keep exit 2 reserved for violated bounds; usage errors are
        # ordinary config errors (--help still exits 0)
        return 1 if exc.code else 0
    try:
        config = _config_from_args(args)
        if args.command == "wave-profile":
            return _cmd_wave_profile(config)
        if args.command == "scaling":
            return _cmd_scaling(config, eta_given=args.epsilon is not None)
        if args.command == "scan" and config.bijection is not None:
            raise ConfigInvalid("scan draws its own maps; it takes no bijection")
        config.analyses = _COMMAND_ANALYSES.get(args.command, config.analyses)
        code, _ = run(config)
        return code
    except BoundViolated as exc:
        print(f"bound violated: {exc}", file=sys.stderr)
        return 2
    except (WavechainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

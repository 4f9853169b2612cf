"""The model registry `models.MODELS` against the CLI builders it replaced.

The reference below is the CLI's model table as it stood before the
registry moved into `models`: builders returning either a system or a
(kernel, default bijection) pair, and a `build_system` that branched on
which one it got.  The registry must build the same systems from the same
configs, and the scaling study the same systems as `build_model`.
"""
import math

import numpy as np
import pytest

import wavechain as w
from wavechain import cli, errors, models
from wavechain.interchange import _integer


def _ref_circle_params(p):
    return _integer(p.pop("n", 5), "n"), float(p.pop("eps", 1.0))


def _ref_sticky_builder(p):
    n = _integer(p.pop("n", 4), "n")
    rho = _integer(p.pop("rho", 0), "rho")
    return w.sticky_permutation_system(n, rho, float(p.pop("delta", 0.05)))


def _ref_regular_builder(p):
    n = _integer(p.pop("n", 8), "n")
    if "degree" in p and "r" in p:
        raise errors.ConfigInvalid("random-regular takes degree or its alias r, not both")
    degree = _integer(p.pop("degree", p.pop("r", 3)), "degree")
    graph_seed = _integer(p.pop("graph_seed", 0), "graph_seed")
    return w.random_regular_graph_walk(n, degree, graph_seed), "identity"


REF_BUILDERS = {
    "circle": lambda p: (w.circle_kernel(*_ref_circle_params(p))[0], "shift:-1"),
    "lazy-circle": lambda p: (w.lazy_circle_kernel(*_ref_circle_params(p)), "shift:-1"),
    "binary-cycling": lambda p: w.binary_cycling_system(_integer(p.pop("bits", 3), "bits")),
    "four-point": lambda p: w.four_point_example(),
    "deck-reversal": lambda p: w.deck_reversal_system(_integer(p.pop("n", 4), "n")),
    "cyclic-to-random": lambda p: w.cyclic_to_random_system(_integer(p.pop("n", 4), "n")),
    "sticky": _ref_sticky_builder,
    "periodic-classes": lambda p: w.periodic_class_example(
        _integer(p.pop("k", 3), "k"), _integer(p.pop("class_size", 2), "class_size")
    ),
    "random-regular": _ref_regular_builder,
}


def ref_build_system(config):
    model_params, _ = cli._split_params(config)
    params = dict(model_params)
    if config.model in REF_BUILDERS:
        built = REF_BUILDERS[config.model](params)
    else:
        built = w.load_kernel(config.model), "identity"
    if params:
        raise errors.ConfigInvalid(
            f"model {config.model!r} does not take parameters {sorted(params)}"
        )
    if isinstance(built, w.WaveSystem):
        if config.bijection is None:
            return built
        g = cli._parse_bijection(config.bijection, built.space, config.seed)
        return w.make_wave_system(built.base, g)
    kernel, default = built
    raw = config.bijection if config.bijection is not None else default
    g = cli._parse_bijection(raw, kernel.space, config.seed)
    return w.make_wave_system(kernel, g)


# one non-default parameter per model (four-point reads none)
NON_DEFAULT = {
    "circle": {"n": 7},
    "lazy-circle": {"eps": 0.5},
    "binary-cycling": {"bits": 4},
    "four-point": {},
    "deck-reversal": {"n": 5},
    "cyclic-to-random": {"n": 3},
    "sticky": {"rho": 3},
    "periodic-classes": {"class_size": 3},
    "random-regular": {"degree": 4},
}


def test_the_registry_names_the_reference_models():
    assert sorted(models.MODELS) == sorted(REF_BUILDERS) == sorted(NON_DEFAULT)


@pytest.mark.parametrize("bijection", [None, "shift:2", "random:3"])
@pytest.mark.parametrize("defaults", [True, False], ids=["defaults", "non-default"])
@pytest.mark.parametrize("model", sorted(NON_DEFAULT))
def test_build_system_matches_the_reference(model, defaults, bijection):
    params = {} if defaults else dict(NON_DEFAULT[model])
    config = cli.ExperimentConfig(model=model, model_params=params, bijection=bijection, seed=4)
    got = cli.build_system(config)
    want = ref_build_system(config)
    assert got.space == want.space
    assert np.array_equal(got.base.dense(), want.base.dense())
    assert got.map.forward.tolist() == want.map.forward.tolist()
    assert params == ({} if defaults else NON_DEFAULT[model])  # the config is not consumed


@pytest.mark.parametrize("model", sorted(NON_DEFAULT))
def test_build_model_rejects_a_parameter_the_model_does_not_read(model):
    with pytest.raises(errors.ConfigInvalid, match=f"model '{model}' does not take parameters"):
        models.build_model(model, {**NON_DEFAULT[model], "bogus": 1})


def test_registry_builds_through_the_module_names(monkeypatch):
    # a wrapper installed on the module sees the build, as a tracer's does
    calls = []
    original = models.circle_kernel

    def wrapped(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(models, "circle_kernel", wrapped)
    models.build_model("circle", {"n": 7})
    assert calls == [(7, 1.0)]


def _ref_scaling_system(family, n, value):
    if family == "circle":
        return w.make_wave_system(w.circle_kernel(n, value)[0], w.circle_shift(n, -1))
    return w.sticky_permutation_system(n, tuple(range(n)), value)


# (family, sizes, parameters, the family parameter's value they stand for)
@pytest.mark.parametrize(
    "family, sizes, params, value",
    [
        ("circle", [5, 7, 9], {}, 1.0),
        ("circle", [5, 9], {"eps": 2.0}, 2.0),
        ("sticky", [3, 4], {}, 0.05),
        ("sticky", [3, 4], {"delta": 0.1}, 0.1),
    ],
)
def test_scaling_families_build_what_build_model_builds(monkeypatch, family, sizes, params, value):
    seen = []

    def record(system, eta, steps, metric):
        seen.append(system)
        return type("Report", (), {"merging_time": 10 + len(seen)})()

    monkeypatch.setattr(models, "merging_time", record)
    models.scaling_study(family, sizes, 1 / math.e, params)
    assert len(seen) == len(sizes)
    for n, system in zip(sizes, seen):
        for want in (models.build_model(family, {**params, "n": n}),
                     _ref_scaling_system(family, n, value)):
            assert system.space == want.space
            assert np.array_equal(system.base.dense(), want.base.dense())
            assert system.map.forward.tolist() == want.map.forward.tolist()

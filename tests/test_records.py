"""The package's record classes behave as the dataclasses they replace.

Each record class is built by `core._record`, which writes no code at
import and builds frozen records only.  Each one is checked against a
frozen `@dataclass` twin written out here with the same fields,
annotations and defaults: the constructor signature, a sample repr,
equality and hashing, and the refusal to assign or delete a field.  A
default is one immutable value that every instance shares.  An ast check
keeps `dataclass`, `exec` and `eval` out of `src/`.
"""
from __future__ import annotations

import ast
import dataclasses
import inspect
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Literal, Optional, Union

import numpy as np
import pytest

import wavechain as w
from wavechain import cli, core, merging, models, sim, spectral

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wavechain"
CSR = core.CSR
Metric = merging.Metric


# The twins.  Annotations are copied as written in `src/`, which compiles
# them as strings, as this module does.

@dataclass(frozen=True)
class StateSpace:
    size: int
    labels: Optional[tuple[str, ...]] = None


@dataclass(frozen=True)
class Distribution:
    space: StateSpace
    weights: np.ndarray


@dataclass(frozen=True)
class Permutation:
    space: StateSpace
    forward: np.ndarray
    inverse: np.ndarray = field(default=None)  # type: ignore[assignment]


@dataclass(frozen=True)
class MarkovKernel:
    space: StateSpace
    entries: CSR


@dataclass(frozen=True)
class WaveSystem:
    base: MarkovKernel
    map: Permutation
    order: int
    shifted: MarkovKernel


@dataclass(frozen=True)
class WaveIdentityReport:
    max_discrepancy: float
    n: int
    x: int
    y: int


@dataclass(frozen=True)
class MergingReport:
    metric: Metric
    epsilon: float
    values: tuple[tuple[int, float], ...]
    merging_time: Optional[int]
    max_steps: int
    reason: Optional[str] = None


@dataclass(frozen=True)
class StabilityCertificate:
    c: float
    mu0: Distribution
    horizon: int
    periodic: bool
    witness: tuple[int, int]


@dataclass(frozen=True)
class NashParams:
    C1: float
    D: float
    c: float
    c1: float
    T: float
    eps: float


@dataclass(frozen=True)
class BoundaryAnalysis:
    a_plus: tuple[int, ...]
    a_minus: tuple[int, ...]
    boundary: tuple[int, ...]
    argmax: int
    argmin: int


@dataclass(frozen=True)
class SpectralDecomposition:
    singular_values: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray
    mu_in: Distribution
    mu_out: Distribution


@dataclass(frozen=True)
class EigenDecomposition:
    eigenvalues: np.ndarray
    flag: Literal["diagonalizable", "defective", "undetermined"]
    condition_number: float


@dataclass(frozen=True)
class DirichletForm:
    kernel: MarkovKernel
    measure: Distribution


@dataclass(frozen=True)
class PerturbationSpec:
    base: MarkovKernel
    support: tuple[int, ...]
    delta_matrix: np.ndarray
    epsilon: float
    delta: Optional[float] = None


@dataclass(frozen=True)
class GroupWalkSpec:
    n: int
    generator_weights: dict


@dataclass(frozen=True)
class PathSample:
    start: int
    steps: tuple[int, ...]
    seed: int


# A dataclass refuses an unhashable default, a read-only mapping too, so
# these twins build theirs with a factory; the records hold the value
# itself, and their signatures show it where a twin's show `<factory>`.
def read_only():
    return field(default_factory=lambda: MappingProxyType({}))


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    model_params: dict = read_only()
    bijection: Union[str, list, None] = None
    analyses: tuple = ("spectral", "merging")
    output: str = "."
    seed: int = 0
    epsilon_threshold: float = 0.01


@dataclass(frozen=True)
class _AnalysisOut:
    doc: Optional[dict] = None
    files: dict = read_only()
    violations: tuple = ()
    lines: tuple = ()


RECORDS = {
    "StateSpace": core, "Distribution": core, "Permutation": core, "MarkovKernel": core,
    "WaveSystem": core, "WaveIdentityReport": core,
    "MergingReport": merging, "StabilityCertificate": merging, "NashParams": merging,
    "BoundaryAnalysis": merging,
    "SpectralDecomposition": spectral, "EigenDecomposition": spectral, "DirichletForm": spectral,
    "PerturbationSpec": models, "GroupWalkSpec": models,
    "PathSample": sim,
    "ExperimentConfig": cli, "_AnalysisOut": cli,
}


def record(name):
    return getattr(RECORDS[name], name)


def samples():
    """Two distinct valid argument tuples for each record class."""
    space = w.StateSpace(3, ("a", "b", "c"))
    kernel, _ = w.circle_kernel(5, 1.0)
    system = w.make_wave_system(kernel, w.circle_shift(5, -1))
    mu = w.Distribution.uniform(kernel.space)
    nu = w.Distribution.point_mass(kernel.space, 0)
    pert = w.circle_perturbation_spec(5, 1.0)
    sw = {(1, 0, 2): 0.5, (0, 1, 2): 0.5}
    return {
        "StateSpace": ((3, ("a", "b", "c")), (3,)),
        "Distribution": ((space, [0.5, 0.25, 0.25]), (space, [1.0, 0.0, 0.0])),
        "Permutation": ((space, [1, 2, 0]), (space, [0, 2, 1])),
        "MarkovKernel": ((kernel.space, kernel.entries), (system.shifted.space, system.shifted.entries)),
        "WaveSystem": ((kernel, system.map, system.order, system.shifted),
                       (kernel, system.map, 7, system.shifted)),
        "WaveIdentityReport": ((1e-16, 4, 1, 2), (0.0, 4, 1, 2)),
        "MergingReport": (("relative_sup", 0.1, ((0, 2.0), (1, 0.05)), 1, 10),
                          ("chi_square", 0.1, ((0, 2.0),), None, 0, "shifted kernel periodic")),
        "StabilityCertificate": ((2.0, mu, 5, False, (1, 3)), (2.0, nu, 5, True, (1, 3))),
        "NashParams": ((1.0, 2.0, 1.5, 0.1, 4.0, 0.2), (1.0, 2.0, 1.5, 0.1, 4.0, 0.3)),
        "BoundaryAnalysis": (((1,), (2,), (1, 2, 3), 1, 2), ((), (), (0,), 0, 0)),
        "SpectralDecomposition": ((np.ones(2), np.eye(2), np.eye(2), mu, mu),
                                  (np.zeros(2), np.eye(2), np.eye(2), mu, nu)),
        "EigenDecomposition": ((np.ones(2), "defective", 1e10), (np.ones(2), "undetermined", 1e8)),
        "DirichletForm": ((kernel, mu), (kernel, nu)),
        "PerturbationSpec": ((pert.base, pert.support, pert.delta_matrix, pert.epsilon),
                             (pert.base, pert.support, pert.delta_matrix, pert.epsilon, 0.25)),
        "GroupWalkSpec": ((3, sw), (3, {(0, 1, 2): 1.0})),
        "PathSample": ((0, (0, 1, 1), 7), (0, (0, 1, 2), 7)),
        "ExperimentConfig": (("circle",), ("circle", {"n": 5}, "shift:1", ("merging",), "out", 3, 0.1)),
        "_AnalysisOut": ((), ({"a": 1}, {"f.csv": "x\n"}, ({"i": 1},), ("line",))),
    }


SAMPLES = samples()
NAMES = sorted(RECORDS)


def test_every_record_class_has_a_twin_and_samples():
    assert len(RECORDS) == 18 and set(SAMPLES) == set(RECORDS)
    for name in NAMES:
        assert dataclasses.is_dataclass(globals()[name])


@pytest.mark.parametrize("name", NAMES)
def test_the_signature_is_the_dataclass_signature(name):
    twin = str(inspect.signature(globals()[name])).replace("<factory>", "mappingproxy({})")
    assert str(inspect.signature(record(name))) == twin


@pytest.mark.parametrize("name", NAMES)
def test_the_repr_is_the_dataclass_repr(name):
    for args in SAMPLES[name]:
        ours = record(name)(*args)
        twin = globals()[name](*(getattr(ours, f.name) for f in dataclasses.fields(globals()[name])))
        assert repr(ours) == repr(twin)


@pytest.mark.parametrize("name", NAMES)
def test_eq_and_hash_are_the_dataclass_ones(name):
    cls, twin_cls = record(name), globals()[name]
    fields = [f.name for f in dataclasses.fields(twin_cls)]

    def outcome(f):
        try:
            return "value", f()
        except Exception as exc:  # an array field can make == ambiguous
            return "raises", type(exc)

    # two samples, and a rebuild of each from its own field values; each
    # twin holds the very field objects of its record, so both compare the
    # same values
    ours = [cls(*args) for args in SAMPLES[name]]
    ours += [cls(*(getattr(r, n) for n in fields)) for r in ours]
    twins = [twin_cls(*(getattr(r, n) for n in fields)) for r in ours]
    for a, b in [(a, b) for a in range(4) for b in range(4)]:
        assert outcome(lambda: ours[a] == ours[b]) == outcome(lambda: twins[a] == twins[b])
        assert outcome(lambda: ours[a] != ours[b]) == outcome(lambda: twins[a] != twins[b])
    for r, twin in zip(ours, twins):
        assert (r == twin) is False and (twin == r) is False  # another class
        assert outcome(lambda: hash(r)) == outcome(lambda: hash(twin))
    assert (cls.__hash__ is None) == (twin_cls.__hash__ is None)


@pytest.mark.parametrize("name", NAMES)
def test_a_frozen_record_refuses_assignment_and_deletion(name):
    ours = record(name)(*SAMPLES[name][0])
    first = dataclasses.fields(globals()[name])[0].name
    for attr in (first, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{attr}'"):
            setattr(ours, attr, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{attr}'"):
            delattr(ours, attr)


@pytest.mark.parametrize("name", NAMES)
def test_every_default_is_immutable(name):
    # a default is shared by every instance, so none can be changed in place
    for param in inspect.signature(record(name)).parameters.values():
        default = param.default
        if isinstance(default, MappingProxyType):
            with pytest.raises(TypeError):
                default["key"] = 1  # type: ignore[index]
            assert not default
        elif default is not param.empty:
            assert default is None or isinstance(default, (int, float, str, tuple)), (name, param)


def test_arguments_bind_as_the_dataclass_constructor_binds():
    assert w.StateSpace(size=2) == w.StateSpace(2, None) == w.StateSpace(2, labels=None)
    for bad in [(), (1, None, 2)]:
        with pytest.raises(TypeError):
            w.StateSpace(*bad)
    with pytest.raises(TypeError):
        w.StateSpace(2, size=2)
    with pytest.raises(TypeError):
        w.StateSpace(2, colour=1)
    # __post_init__ runs on the bound fields
    with pytest.raises(ValueError, match="at least one state"):
        w.StateSpace(size=0)


def test_a_frozen_record_still_caches_through_object_setattr():
    base, _ = w.circle_kernel(5, 1.0)
    system = w.make_wave_system(base, w.circle_shift(5, -1))
    assert "_wave_measure" not in vars(system)
    assert system.wave_measure_or_none() is system.wave_measure_or_none()
    assert vars(system)["_wave_measure"] is system.wave_measure


def src_modules():
    return sorted(PACKAGE.glob("*.py"))


def test_no_module_uses_dataclass_exec_or_eval():
    for path in src_modules():
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert all(a.name != "dataclasses" for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                # only the refusal's error class, imported when it is raised
                assert [a.name for a in node.names] == ["FrozenInstanceError"], path.name
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("exec", "eval", "compile"), (path.name, node.lineno)
            elif isinstance(node, ast.Name):
                assert node.id not in ("dataclass", "exec", "eval"), (path.name, node.lineno)


def undeclared_setattrs(source: str):
    """(class, name) for each `object.__setattr__(target, name, ...)` in the
    source that does not name a declared field of the class around it; the
    class is None outside any class, and the name None unless a literal."""

    def visit(node, cls, fields):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                declared = {t.target.id for t in child.body if isinstance(t, ast.AnnAssign)}
                yield from visit(child, child.name, declared)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__setattr__"
                    and isinstance(child.func.value, ast.Name) and child.func.value.id == "object"):
                name = child.args[1].value if isinstance(child.args[1], ast.Constant) else None
                if name not in fields:
                    yield cls, name
            yield from visit(child, cls, fields)

    return list(visit(ast.parse(source), None, set()))


def test_a_record_caches_nothing_but_the_wave_measure():
    # a frozen record assigns only its own fields, in __post_init__; the
    # one cache is WaveSystem's wave measure, so no kernel holds a view
    found = [hit for path in src_modules() for hit in undeclared_setattrs(path.read_text())]
    assert found == [("WaveSystem", "_wave_measure")]


def test_the_setattr_check_sees_a_planted_cache():
    source = (
        "class MarkovKernel:\n    space: int\n"
        "    def dense(self):\n        object.__setattr__(self, 'space', 1)\n"
        "        object.__setattr__(self, '_dense', 2)\n"
        "def helper(k, name):\n    object.__setattr__(k, name, 3)\n"
    )
    assert undeclared_setattrs(source) == [("MarkovKernel", "_dense"), (None, None)]


def test_gc_freeze_is_called_only_by_the_program_entry():
    callers = []
    for path in src_modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for inner in ast.walk(node):
                    if (isinstance(inner, ast.Attribute) and inner.attr == "freeze"
                            and isinstance(inner.value, ast.Name) and inner.value.id == "gc"):
                        callers.append((path.name, node.name))
    assert callers == [("cli.py", "_entry")]

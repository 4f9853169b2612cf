"""State spaces, distributions, bijections, kernels and the wave calculus.

A time-inhomogeneous chain is driven here by a single base kernel K and a
bijection g of the state space: step i uses the transported kernel

    K_i(x, y) = K(g^{i-1} x, g^{i-1} y),

and the whole family collapses onto the homogeneous shifted kernel

    shifted(x, y) = K(x, g^{-1} y),

through the identity  K_{0,n}(x, y) = shifted^n(x, g^n y).  Everything in
this module is exact index bookkeeping on top of that identity; spectral and
merging analysis live in their own modules.

Every record of the package, the command line's config included, is a
frozen `_record` with immutable defaults and read-only numpy arrays; no
function mutates its arguments.  A kernel is stored one way at every size
and from every input: a read-only CSR triple (indptr, indices, data) of its
positive entries, built here alone (see `MarkovKernel`).  `dense()` is a
fresh read-only scatter of it on every call, nothing cached, up to
DENSE_LIMIT states, and the one refusal of a kernel for its size;
`_densifiable`, the one reader of that limit, makes every choice between
the view and the triple, and `_reports_eigenvalues` the one other size
choice, whether a report lists eigenvalues.  A law times a kernel, x K,
is `_vec_mat` at every size, and K x above the limit `_mat_vec`: one
`np.bincount` over the triple that sums each entry's terms in a fixed
order, the one scipy's CSR product uses, so the result has scipy's bits
whatever BLAS kernel the CPU loads.

The package runs in numpy alone at every size: building, relabeling,
saving, searching, sampling and multiplying a kernel import no scipy.  A
scipy sparse input is told apart without importing scipy, since no sparse
object can exist before `scipy.sparse` is loaded.
"""
from __future__ import annotations

import math
import sys
from inspect import Parameter, Signature
from itertools import islice
from operator import attrgetter, index
from typing import Iterator, Optional

import numpy as np

from .errors import (
    NegativeEntry,
    NotBijective,
    NotIrreducible,
    RowSumViolation,
    SpaceMismatch,
    TooLarge,
    WaveMeasureMissing,
    WindowInverted,
)

DENSE_LIMIT = 4096
# reports carry a full eigendecomposition only up to this many states
_EIGEN_REPORT_LIMIT = 512
ROW_SUM_TOL = 1e-12
# Entries of one block of matrix powers in `power_blocks`, which sets how
# many powers a reducer sees at once: small kernels get many powers per
# block, kernels of 182 states or more one.
POWER_BLOCK_ENTRIES = 1 << 16
# `power_blocks` steps a kernel of N states and widest row support d by row
# gathers when N >= GATHER_MIN_STATES and N >= GATHER_ROW_RATIO * d, and by
# one dense product a power otherwise.  The crossover, measured per power on
# one core with one BLAS thread: random kernels with d = 2 broke even near
# N = 65, with d = 6 near N = 95 and with d = 12 near N = 190.  Circle-41
# stays dense (5.9 us a power, against 7.4 us by gathers); circle-101 takes
# 21 us against 58 us, and sticky-6 (N = 720, d = 6) 2.0 ms against 14 ms.
GATHER_MIN_STATES = 80
GATHER_ROW_RATIO = 20
# a CSR matrix as numpy arrays: (indptr, indices, data)
CSR = tuple[np.ndarray, np.ndarray, np.ndarray]

_MISSING = object()


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _frozen_error(verb: str, name: str) -> Exception:
    from dataclasses import FrozenInstanceError  # imported by a refusal alone

    return FrozenInstanceError(f"cannot {verb} field {name!r}")


def _record(cls):
    """Class decorator: the methods a frozen `dataclasses.dataclass` gives
    a class with these annotated fields, as closures over the field
    names, so no code is compiled at import.

    A field's value in the class body is its default, shared by every
    instance, so a default is an immutable value: None, a number, a string,
    a tuple or a read-only mapping.  `__init__` takes the fields by position
    or name, then calls `__post_init__` if the class has one.  Two instances
    of one class are equal when their field tuples are; a record hashes its
    field tuple and refuses assignment and deletion of any attribute with
    dataclasses.FrozenInstanceError.  Every record has two or more fields,
    so `attrgetter` gives the field tuple.
    """
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(annotations)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    qualname = cls.__qualname__
    post_init = hasattr(cls, "__post_init__")
    values = attrgetter(*names)  # the field tuple that eq and hash compare

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{qualname}() takes {len(names)} arguments but {len(args)} were given")
        state = self.__dict__
        state.update(zip(names, args))
        for name in names[len(args) :]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in defaults:
                state[name] = defaults[name]
            else:
                raise TypeError(f"{qualname}() missing required argument {name!r}")
        if kwargs:
            extra = next(iter(kwargs))
            raise TypeError(f"{qualname}() got an unexpected or repeated argument {extra!r}")
        if post_init:
            self.__post_init__()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise _frozen_error("assign to", name)

    def __delattr__(self, name):
        raise _frozen_error("delete", name)

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{qualname}.{method.__name__}"
        setattr(cls, method.__name__, method)
    kind, empty = Parameter.POSITIONAL_OR_KEYWORD, Parameter.empty
    params = [Parameter(n, kind, default=defaults.get(n, empty), annotation=annotations[n]) for n in names]
    cls.__signature__ = Signature(params, return_annotation=None)
    return cls


@_record
class StateSpace:
    """A finite set {0, ..., size-1} with optional display labels."""

    size: int
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("state space must contain at least one state")
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise ValueError("label count must equal size")
            if len(set(self.labels)) != self.size:
                raise ValueError("labels must be distinct")

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)


def _state_index(space: StateSpace, x, what: str = "start state") -> int:
    """x as an int: TypeError unless it is an integer, ValueError unless
    0 <= x < size.  Every state argument's check."""
    x = index(x)
    if not 0 <= x < space.size:
        raise ValueError(f"{what} {x} is outside 0..{space.size - 1}")
    return x


@_record
class Distribution:
    """A probability vector over a state space."""

    space: StateSpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)  # a copy: the caller's stays writable
        if w.shape != (self.space.size,):
            raise SpaceMismatch(
                f"weight vector of length {w.shape} on a space of size {self.space.size}"
            )
        if np.any(w < 0.0):
            raise NegativeEntry(f"negative mass at state {int(np.argmin(w))}")
        total = float(w.sum())
        if not abs(total - 1.0) <= ROW_SUM_TOL:  # NaN fails too
            raise RowSumViolation(0, total)
        object.__setattr__(self, "weights", _frozen(w))

    @classmethod
    def point_mass(cls, space: StateSpace, x: int) -> "Distribution":
        w = np.zeros(space.size)
        w[_state_index(space, x)] = 1.0
        return cls(space, w)

    @classmethod
    def uniform(cls, space: StateSpace) -> "Distribution":
        return cls(space, np.full(space.size, 1.0 / space.size))


@_record
class Permutation:
    """A bijection of a state space, stored as forward and inverse index maps."""

    space: StateSpace
    forward: np.ndarray
    inverse: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        raw = np.asarray(self.forward)
        n = self.space.size
        if raw.shape != (n,):
            raise SpaceMismatch("forward map length differs from space size")
        if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
            raise NotBijective("forward map has an image that is not an integer")
        if np.any(raw < 0) or np.any(raw >= n):
            raise NotBijective("forward map is not a bijection of 0..size-1")
        fwd = raw.astype(np.int64)  # a copy: the caller's stays writable
        # every state is hit exactly once iff the inverse fill leaves no hole
        inv = np.full(n, -1, dtype=np.int64)
        inv[fwd] = np.arange(n, dtype=np.int64)
        if np.any(inv < 0):
            raise NotBijective("forward map is not a bijection of 0..size-1")
        object.__setattr__(self, "forward", _frozen(fwd))
        object.__setattr__(self, "inverse", _frozen(inv))

    def power_map(self, k: int) -> np.ndarray:
        """Forward index array of the k-th power (k may be negative)."""
        n = self.space.size
        base = self.forward if k >= 0 else self.inverse
        k = abs(k)
        result = np.arange(n, dtype=np.int64)
        while k:
            if k & 1:
                result = base[result]
            base = base[base]
            k >>= 1
        return result


def make_permutation(space: StateSpace, forward) -> Permutation:
    """Validate a forward map as a bijection of the space."""
    return Permutation(space, np.asarray(forward))


def _cycles(g: Permutation) -> Iterator[list[int]]:
    """Yield the cycles of g by least state, each walked forward from it."""
    fwd = g.forward.tolist()
    seen = [False] * len(fwd)
    for start in range(len(fwd)):
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = fwd[x]
        if cycle:
            yield cycle


def permutation_order(g: Permutation) -> int:
    """Least k >= 1 with g^k = identity: the lcm of the cycle lengths."""
    return math.lcm(*(len(cycle) for cycle in _cycles(g)))


@_record
class MarkovKernel:
    """A row-stochastic matrix over a state space.

    `entries` is a read-only CSR triple (indptr, indices, data) of the
    positive entries, `np.intp` indices, columns strictly ascending in each
    row, at every size.  `dense()` is a fresh read-only ndarray scattered
    from it on every call, nothing cached; TooLarge unless `_densifiable`.
    """

    space: StateSpace
    entries: CSR

    @property
    def size(self) -> int:
        return self.space.size

    def dense(self) -> np.ndarray:
        if not _densifiable(self):
            raise TooLarge(f"refusing to densify a {self.size}-state kernel")
        rows, cols, data = _triplets(self)
        m = np.zeros((self.size, self.size))
        m[rows, cols] = data
        return _frozen(m)


def _densifiable(kernel: MarkovKernel) -> bool:
    """At most DENSE_LIMIT states: the one test behind every view-or-triple choice."""
    return kernel.size <= DENSE_LIMIT


def _reports_eigenvalues(kernel: MarkovKernel) -> bool:
    """At most _EIGEN_REPORT_LIMIT states: whether a report lists eigenvalues."""
    return kernel.size <= _EIGEN_REPORT_LIMIT


def _issparse(m) -> bool:
    # a scipy sparse object can only exist once scipy.sparse is imported
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(m)


def _triplets(kernel: MarkovKernel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, columns, values) of the kernel's entries, in storage order."""
    indptr, indices, data = kernel.entries
    return np.repeat(np.arange(kernel.size), np.diff(indptr)), indices, data


def _vec_mat(x: np.ndarray, kernel: MarkovKernel) -> np.ndarray:
    """x K from the CSR triple.  Each column adds up its terms in row
    order, starting from zero, as scipy's CSR product does: same bits."""
    indptr, indices, data = kernel.entries
    # np.repeat is x[row of each entry], twice as fast
    terms = data * np.repeat(x, np.diff(indptr))
    return np.bincount(indices, weights=terms, minlength=kernel.size)


def _mat_vec(kernel: MarkovKernel, x: np.ndarray) -> np.ndarray:
    """K x from the CSR triple, each row summed in column order as scipy
    sums it."""
    rows, indices, data = _triplets(kernel)
    return np.bincount(rows, weights=data * x[indices], minlength=kernel.size)


def _indptr(counts: np.ndarray) -> np.ndarray:
    """Row pointers of rows holding counts[x] entries each."""
    indptr = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _csr(indptr, indices, data) -> CSR:
    # the callers pass freshly built arrays, which are frozen in place
    return (
        _frozen(indptr.astype(np.intp, copy=False)),
        _frozen(indices.astype(np.intp, copy=False)),
        _frozen(data.astype(np.float64, copy=False)),
    )


def _csr_from_triplets(n: int, rows, cols, vals) -> CSR:
    """CSR triple of the n x n matrix summing vals[k] into (rows[k], cols[k]).

    Columns come out strictly ascending in each row.  Duplicates add up in
    input order, as `np.add.at` adds them into a dense matrix, and an entry
    whose sum is zero is not stored, so a triple that passes validation
    holds only positive entries.
    """
    r, c = (np.asarray(a).astype(np.intp, copy=False) for a in (rows, cols))
    vals = np.asarray(vals, dtype=np.float64)
    if r.size and (min(r.min(), c.min()) < 0 or max(r.max(), c.max()) >= n):
        raise SpaceMismatch(f"triplet index outside 0..{n - 1}")
    key = r * n + c
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    data = vals[order[first]]
    later = ~first
    np.add.at(data, np.cumsum(first)[later] - 1, vals[order[later]])
    kept = data != 0.0
    rows_out, cols_out = np.divmod(key[first][kept], n)
    return _csr(_indptr(np.bincount(rows_out, minlength=n)), cols_out, data[kept])


def _validate_csr(csr: CSR) -> None:
    indptr, _, data = csr
    if np.any(data < 0.0):
        # entries run row by row: the row of the first most negative entry
        row = int(np.searchsorted(indptr, np.argmin(data), "right")) - 1
        raise NegativeEntry(f"negative entry in row {row}")
    # scipy's row sums of a CSR matrix: one reduceat over the nonempty rows
    sums = np.zeros(indptr.size - 1)
    nonempty = np.flatnonzero(np.diff(indptr))
    sums[nonempty] = np.add.reduceat(data, indptr[nonempty])
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= ROW_SUM_TOL))  # NaN fails too
    if bad.size:
        raise RowSumViolation(int(bad[0]), float(sums[bad[0]]))


def make_kernel(space: StateSpace, entries) -> MarkovKernel:
    """Validate entries as a row-stochastic kernel over the space.

    The input may be nested lists, an ndarray, or any scipy sparse matrix
    or array; the kernel stores the same read-only CSR triple of its
    positive entries whatever the form and the size.  A sparse input sums
    duplicates in input order and drops its explicit zeros.  Every
    constructor in the package goes through here or through
    `_kernel_from_triplets`.
    """
    # copies throughout: the caller's arrays stay writable and unshared
    sparse = _issparse(entries)
    m = entries.tocoo() if sparse else np.array(entries, dtype=np.float64)
    if m.shape != (space.size, space.size):
        raise SpaceMismatch(f"matrix shape {m.shape} on a space of size {space.size}")
    if sparse:
        return _kernel_from_triplets(space, m.row, m.col, m.data)
    kernel = _wrap(space, m)
    _validate_csr(kernel.entries)
    return kernel


def _kernel_from_triplets(space: StateSpace, rows, cols, vals) -> MarkovKernel:
    """`make_kernel` of the matrix summing vals[k] into (rows[k], cols[k])."""
    csr = _csr_from_triplets(space.size, rows, cols, vals)
    _validate_csr(csr)
    return MarkovKernel(space, csr)


def _wrap(space: StateSpace, m: np.ndarray) -> MarkovKernel:
    # the nonzero entries of a dense matrix, whose triple `make_kernel`
    # then validates, or of a product of validated kernels, which is
    # row-stochastic up to rounding; numpy finds the nonzeros of a boolean
    # array many times faster
    n = space.size
    rows, cols = np.divmod(np.flatnonzero(m != 0), n)
    data = m[rows, cols]
    return MarkovKernel(space, _csr(_indptr(np.bincount(rows, minlength=n)), cols, data))


def _same_space(a: StateSpace, b: StateSpace) -> None:
    if a != b:
        raise SpaceMismatch("objects live on different state spaces")


def _relabeled(
    kernel: MarkovKernel, rows_to: Optional[np.ndarray], cols_to: np.ndarray
) -> MarkovKernel:
    """The kernel whose entry (rows_to[r], cols_to[c]) is kernel(r, c), for
    permutations rows_to and cols_to of the states; rows_to=None keeps
    every row in place."""
    r, indices, data = _triplets(kernel)
    r = r if rows_to is None else rows_to[r]
    csr = _csr_from_triplets(kernel.size, r, cols_to[indices], data)
    return MarkovKernel(kernel.space, csr)


def transport_kernel(base: MarkovKernel, g: Permutation, i: int) -> MarkovKernel:
    """Step-i kernel K_i(x, y) = base(g^{i-1} x, g^{i-1} y); needs i >= 1."""
    _same_space(base.space, g.space)
    if i < 1:
        raise ValueError("transport index starts at 1")
    back = g.power_map(1 - i)  # g^{-(i-1)}
    return _relabeled(base, back, back)


def shift_kernel(base: MarkovKernel, g: Permutation) -> MarkovKernel:
    """Homogeneous reduction shifted(x, y) = base(x, g^{-1} y)."""
    _same_space(base.space, g.space)
    return _relabeled(base, None, g.forward)


@_record
class WaveSystem:
    """A base kernel, a driving bijection, and derived wave data.

    `order` is the least k with g^k = id, `shifted` the homogeneous
    reduction.  The invariant measure of `shifted` is computed on first use
    and cached (None when `shifted` is reducible).
    """

    base: MarkovKernel
    map: Permutation
    order: int
    shifted: MarkovKernel

    @property
    def space(self) -> StateSpace:
        return self.base.space

    def wave_measure_or_none(self) -> Optional[Distribution]:
        cached = self.__dict__.get("_wave_measure", _MISSING)
        if cached is _MISSING:
            from .spectral import stationary_distribution

            try:
                cached = stationary_distribution(self.shifted)
            except NotIrreducible:
                cached = None
            object.__setattr__(self, "_wave_measure", cached)
        return cached

    @property
    def wave_measure(self) -> Distribution:
        pi = self.wave_measure_or_none()
        if pi is None:
            raise WaveMeasureMissing(
                "shifted kernel is reducible; no unique invariant measure"
            )
        return pi


def make_wave_system(base: MarkovKernel, g: Permutation) -> WaveSystem:
    _same_space(base.space, g.space)
    return WaveSystem(
        base=base,
        map=g,
        order=permutation_order(g),
        shifted=shift_kernel(base, g),
    )


def kernel_at(system: WaveSystem, i: int) -> MarkovKernel:
    """The kernel used for step i of the chain."""
    return transport_kernel(system.base, system.map, i)


def _windows(system: WaveSystem, n: int) -> Iterator[np.ndarray]:
    """Yield the dense window products K_{n,m} for m = n, n+1, ..., in one pass."""
    base = system.base.dense()
    fwd = system.map.forward
    gp = system.map.power_map(n)  # g^{i-1} for the next step i = m+1
    out = np.eye(system.space.size)
    while True:
        yield out
        out = out @ base[np.ix_(gp, gp)]
        gp = fwd[gp]


def compose_window(system: WaveSystem, n: int, m: int) -> MarkovKernel:
    """The window product K_{n,m} = K_{n+1} K_{n+2} ... K_m.

    K_{n,n} is the identity.  TooLarge where `dense()` refuses the base;
    use `evolve` to push distributions instead.
    """
    if n > m:
        raise WindowInverted(f"window ({n}, {m}) has n > m")
    return _wrap(system.space, next(islice(_windows(system, n), m - n, None)))


def _shifted_laws(mu0: Distribution, system: WaveSystem) -> Iterator[np.ndarray]:
    """Yield mu0 shifted^n for n = 0, 1, ...: the one loop that steps a law."""
    v = mu0.weights
    while True:
        yield v
        v = _vec_mat(v, system.shifted)


def _laws(mu0: Distribution, system: WaveSystem) -> Iterator[np.ndarray]:
    """Yield evolve(mu0, system, n).weights for n = 0, 1, ..., in one pass."""
    fwd = system.map.forward
    gn = np.arange(system.space.size, dtype=np.int64)  # g^n
    for v in _shifted_laws(mu0, system):
        yield _renormalize(v[gn])
        gn = fwd[gn]


def evolve(mu0: Distribution, system: WaveSystem, n: int) -> Distribution:
    """Distribution after n steps from mu0, i.e. mu0 K_{0,n}.

    Steps the shifted kernel n times and relabels once, by the identity
    K_{0,n}(x, y) = shifted^n(x, g^n y); no window product is formed.
    """
    _same_space(mu0.space, system.space)
    if n < 0:
        raise ValueError("step count must be nonnegative")
    v = next(islice(_shifted_laws(mu0, system), n, None))
    return Distribution(system.space, _renormalize(v[system.map.power_map(n)]))


def _renormalize(w: np.ndarray) -> np.ndarray:
    # guard against accumulated rounding of order machine epsilon per step
    w = np.where(w < 0.0, 0.0, w)
    return w / w.sum()


def wave_measures(system: WaveSystem, i: int) -> Distribution:
    """The i-th wave measure mu_i(x) = pi(g^i x), pi invariant for `shifted`.

    With mu_0 = pi these satisfy mu_{i-1} K_i = mu_i for every i >= 1.
    """
    gi = system.map.power_map(i % system.order)
    return Distribution(system.space, system.wave_measure.weights[gi])


@_record
class WaveIdentityReport:
    """Worst deviation between window products and shifted-kernel powers."""

    max_discrepancy: float
    n: int
    x: int
    y: int


def power_blocks(kernel: MarkovKernel, n_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """The powers kernel^1 .. kernel^n_max in order, a block at a time;
    TooLarge, where `dense()` refuses the kernel, comes from the call.

    Each item is (first, block) with block[:, j, :] = kernel^(first + j); a
    block holds at most b = POWER_BLOCK_ENTRIES // size^2 powers (at least
    one), and blocks are read-only.  Each power is one product with the
    last, by one of two stepping rules chosen by the state count N and the
    widest row support d (see GATHER_MIN_STATES for the crossover):

    - a dense product, for small or dense kernels: P^(n+1) = P^n P, O(N^3)
      per power, with the bits of the step-by-step product;
    - row gathers, for sparse kernels: P^(n+1) = P P^n, row x being the
      weighted sum of the d rows of P^n that row x of P reaches, O(N^2 d)
      per power.  The rows come from a padded (N, d) table of indices and
      weights (0 on the padding), and are taken in chunks whose gathered
      rows hold at most POWER_BLOCK_ENTRIES entries (or one row).  These
      may differ from P^n P in the last bits (relative 1e-12 is the tested
      contract), and P itself is not kept past the first block.

    The same call gives the same bits every time.
    """
    if n_max < 1:
        return iter(())
    size = kernel.size
    b = max(1, min(n_max, POWER_BLOCK_ENTRIES // (size * size)))
    support = int(np.diff(kernel.entries[0]).max())
    p = kernel.dense()
    if size >= max(GATHER_MIN_STATES, GATHER_ROW_RATIO * support):
        step = _gather_step(*_row_table(kernel, support))
    else:
        def step(src: np.ndarray, out: np.ndarray) -> None:
            np.matmul(src, p, out=out[:, 0])  # out[:, 0] = src P
    return _stepped_blocks(p, step, b, n_max)


def _row_table(kernel: MarkovKernel, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, width) column indices and (N, 1, width) weights of each row's
    entries, padded with the row's last column and weight 0."""
    indptr = kernel.entries[0]
    rows, indices, data = _triplets(kernel)
    slot = np.arange(rows.size) - indptr[rows]
    idx = np.repeat(indices[indptr[1:] - 1, None], width, axis=1)
    weights = np.zeros((kernel.size, 1, width))
    idx[rows, slot] = indices
    weights[rows, 0, slot] = data
    return idx, weights


def _gather_step(idx: np.ndarray, weights: np.ndarray):
    """The gather rule of `power_blocks`: out[x, 0] = sum_k weights[x, 0, k]
    src[idx[x, k]], that is out[:, 0] = P src."""
    size, width = idx.shape
    # chunks of at most POWER_BLOCK_ENTRIES gathered entries stay in cache:
    # at sticky-6 a power took 2.5 ms so, against 3.6 ms in chunks of N^2
    chunk = max(1, min(size, POWER_BLOCK_ENTRIES // (width * size)))
    gathered = np.empty((chunk, width, size))
    chunks = [
        (slice(lo, lo + chunk), idx[lo : lo + chunk], weights[lo : lo + chunk],
         gathered[: min(chunk, size - lo)])
        for lo in range(0, size, chunk)
    ]

    def step(src: np.ndarray, out: np.ndarray) -> None:
        for rows, chunk_idx, chunk_weights, buffer in chunks:
            # mode="clip" takes straight into `buffer` (every index is in
            # range); the default "raise" would buffer a copy
            src.take(chunk_idx, axis=0, out=buffer, mode="clip")
            np.matmul(chunk_weights, buffer, out=out[rows])

    return step


def _stepped_blocks(p: np.ndarray, step, b: int, n_max: int):
    """The block loop of `power_blocks`: P^1 is a copy of p, and each later
    power is step(last power, (N, 1, N) slot of the next)."""
    size = p.shape[0]
    last = None
    for first in range(1, n_max + 1, b):
        block = np.empty((size, min(b, n_max + 1 - first), size))
        for j in range(block.shape[1]):
            if last is None:
                block[:, 0] = p
                p = None  # only a step that needs P keeps it
            else:
                step(last, block[:, j : j + 1])
            last = block[:, j]
        block.setflags(write=False)
        yield first, block


def verify_wave_identity(system: WaveSystem, n_max: int) -> WaveIdentityReport:
    """Check K_{0,n}(x, y) = shifted^n(x, g^n y) for all n <= n_max.

    The window side is built one step at a time, the power side by
    `power_blocks`; returns the largest absolute discrepancy and where it
    occurs.
    """
    windows = _windows(system, 0)
    next(windows)  # K_{0,0} = I; TooLarge where `dense()` refuses the base
    worst = (0.0, 0, 0, 0)
    for first, block in power_blocks(system.shifted, n_max):
        for j in range(block.shape[1]):
            gn = system.map.power_map(first + j)
            diff = np.abs(next(windows) - block[:, j][:, gn])
            k = int(np.argmax(diff))
            x, y = np.unravel_index(k, diff.shape)
            if diff[x, y] > worst[0]:
                worst = (float(diff[x, y]), first + j, int(x), int(y))
    return WaveIdentityReport(*worst)

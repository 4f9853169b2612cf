"""Model zoo: every concrete kernel and wave system used by the test suites.

Circle kernels come from one list of nonzeros whose two heavy-edge
weights are rounded once from exact rationals; every other entry is
exact in binary, so detailed balance and row sums hold to the last bit.
Every walk on S_n (at most 7! states) comes from one builder,
`_group_walk`, which ranks all products x * s of the index table
`groups.sn_table` at once; the sticky model only rewrites one weight
row.  The single-point shape behind the
sticky bound is checked in one place, `_single_point_spec`, shared by
`single_point_perturbation` and `sticky_stability_check`.  `MODELS` is
the one registry of named models: it alone knows each model's parameters,
their defaults and its default bijection.  `build_model` builds through it,
and so do the CLI, `scan_permutations` and `scaling_study`, whose table
`_SCALING_FAMILIES` keeps only each family's parameter, step cap and
default sizes.  Every size is read through `interchange._integer`, so a
non-integral one is ConfigInvalid, never truncated.  Every model but the
four-point example is built from its nonzero entries; a circle, periodic
or random regular model of more than 2^15 entries is TooLarge at once.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .core import (
    Distribution,
    MarkovKernel,
    Permutation,
    StateSpace,
    WaveSystem,
    _kernel_from_triplets,
    _record,
    make_kernel,
    make_permutation,
    make_wave_system,
)
from .errors import (
    BoundViolated,
    ConditionViolated,
    ConfigInvalid,
    DegreeInfeasible,
    DeltaOutOfRange,
    EvenN,
    NotSymmetric,
    PerturbationShapeViolated,
    TooLarge,
)
from .groups import (
    Perm,
    from_cycles,
    identity_perm,
    inverse,
    one_line_label,
    sn_elements,
    sn_rank,
    sn_table,
    transposition,
)
from .interchange import _integer, _number
from .merging import NashParams, merging_time
from .spectral import _shifted_stationary_weights

_GROUP_CAP = 5040  # 7!, the largest symmetric group walked on
_ENTRY_CAP = 1 << 15  # stored entries of a model: the circle up to 16 383 points


def _check_entries(size: int, entries: int) -> None:
    """Refuse more than _ENTRY_CAP entries before allocating any."""
    if entries > _ENTRY_CAP:
        raise TooLarge(f"{size} states would store {entries} entries, over the cap of {_ENTRY_CAP}")


# ---------------------------------------------------------------------------
# circle kernels


def _circle_args(n_points, eps) -> tuple[int, Fraction]:
    """The point count and the heavy-edge excess of a circle, checked in
    that order: an odd integer of at least 3 points, and an eps that is
    finite and positive, returned as an exact Fraction: an int or Fraction
    as given, any other read by `interchange._number`."""
    n = _integer(n_points, "n")
    if n < 3:
        raise ValueError("circle needs at least 3 points")
    if n % 2 == 0:
        raise EvenN(f"point count {n} is even; the unperturbed walk would be periodic")
    eps = eps if type(eps) in (int, Fraction) else _number(eps, "eps")
    if not eps > 0:
        raise ValueError("eps must be positive")
    if eps == math.inf:
        raise ValueError("eps must be finite")
    return n, Fraction(eps)


def _circle_triplets(n: int, e=Fraction(0)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triplets of the circle walk moving 1/2 to each neighbour, except
    that the edge (0, 1) weighs 1 + e: rows 0 and 1 move (1 + e)/(2 + e)
    along it and 1/(2 + e) away from it.  Those two weights are rounded
    once from exact rationals; every other value, 1/2, is exact in binary."""
    _check_entries(n, 2 * n)
    x = np.arange(n)
    cols = np.column_stack([(x + 1) % n, (x - 1) % n]).ravel()
    vals = np.full(2 * n, 0.5)
    heavy, light = float((1 + e) / (2 + e)), float(1 / (2 + e))
    vals[:4] = heavy, light, light, heavy  # (0, 1), (0, n-1), (1, 2), (1, 0)
    return np.repeat(x, 2), cols, vals


def circle_kernel(n_points, eps: float) -> tuple[MarkovKernel, Distribution]:
    """Nearest-neighbour circle walk with one heavy edge between 0 and 1.

    The edge (0, 1) carries weight 1 + eps, every other edge weight 1; the
    returned reversible measure gives the two heavy endpoints mass
    (1 + eps/2)/(n + eps) and everyone else 1/(n + eps).
    """
    n, e = _circle_args(n_points, eps)
    kernel = _kernel_from_triplets(StateSpace(n), *_circle_triplets(n, e))
    heavy = (1 + e / 2) / (n + e)
    light = 1 / (n + e)
    weights = np.full(n, float(light))
    weights[0] = weights[1] = float(heavy)
    pi = Distribution(kernel.space, weights / weights.sum())
    return kernel, pi


def lazy_circle_kernel(n_points, eps: float) -> MarkovKernel:
    """Half-lazy version of the heavy-edge circle walk: P = I/2 + K/2."""
    n, e = _circle_args(n_points, eps)
    _check_entries(n, 3 * n)
    rows, cols, vals = _circle_triplets(n, e)
    x = np.arange(n)
    # halving and holding 1/2 on the empty diagonal are exact
    vals = np.append(0.5 * vals, np.full(n, 0.5))
    return _kernel_from_triplets(StateSpace(n), np.append(rows, x), np.append(cols, x), vals)


def circle_shift(n_points: int, s: int) -> Permutation:
    """The rotation x -> x + s mod n_points."""
    n = _integer(n_points, "n")
    if n < 1:
        raise ValueError("empty circle")
    space = StateSpace(n)
    fwd = (np.arange(n, dtype=np.int64) + s) % n
    return make_permutation(space, fwd)


def tilde_pi_closed_form_shift_minus1(n_points, eps: float) -> Distribution:
    """Invariant measure of the shifted kernel for the rotation x -> x - 1.

    Closed form: with d = eps^2 + 2 n eps + 2 n, mass (1+eps)(2+eps)/d at
    0, (2+eps)/d at 1 and 2(1+eps)/d elsewhere.
    """
    n, e = _circle_args(n_points, eps)
    d = e * e + 2 * n * e + 2 * n
    weights = np.full(n, float(2 * (1 + e) / d))
    weights[0] = float((e + 1) * (e + 2) / d)
    weights[1] = float((e + 2) / d)
    return Distribution(StateSpace(n), weights / weights.sum())


def circle_perturbation_spec(n_points, eps: float) -> "PerturbationSpec":
    """The heavy-edge circle kernel written as unperturbed walk plus edits.

    The support is {0, 1}; mass eps/(4 + 2 eps) moves from the light
    neighbour to the heavy one in each of the two rows, which makes the
    minimal strength eps/(2 + eps).
    """
    n, e = _circle_args(n_points, eps)
    q = _kernel_from_triplets(StateSpace(n), *_circle_triplets(n))
    shift = float(e / (4 + 2 * e))
    delta = np.zeros_like(q.dense())  # TooLarge above DENSE_LIMIT
    delta[0, 1] = shift
    delta[0, n - 1] = -shift
    delta[1, 0] = shift
    delta[1, 2 % n] = -shift
    return PerturbationSpec(
        base=q, support=(0, 1), delta_matrix=delta, epsilon=float(e / (2 + e))
    )


def circle_nash_params(n_points, eps: float) -> NashParams:
    """Nash-bound constants for the heavy-edge circle at the given strength.

    T = 4(n+1)^2 is the square-diameter scale, D = 1/4 the dimension
    exponent, C1 matches the walk's Nash inequality, c1 = T(1 - cos(pi/n))
    realizes the singular-value hypothesis with equality, c = 1 + eps is
    the stability constant, and the perturbation strength is eps/(2+eps).
    """
    n, e = _circle_args(n_points, eps)
    t = 4.0 * (n + 1) ** 2
    eps = float(e)
    return NashParams(
        C1=(2.0**7) * n * n / t,
        D=0.25,
        c=1.0 + eps,
        c1=t * (1.0 - math.cos(math.pi / n)),
        T=t,
        eps=eps / (2.0 + eps),
    )


def scan_permutations(model: str, params: dict, count: int, seed: int) -> dict:
    """Stability ratios max/min of the invariant measure over a family of maps.

    `model` is circle or lazy-circle, built from `params` through `MODELS`.
    The first rows are the shifts by ±1 and ±2, followed by `count` seeded
    random permutations.  For the lazy kernel every map carries the proven
    bound 1+eps; for the nonlazy kernel only the four shifts do, and any
    other map is labeled empirical: no bound is known, the value is
    informational only.  The maps are solved in batches, with the bits the
    wave measure of each map's own `make_wave_system` would have.
    """
    if model not in ("circle", "lazy-circle"):
        raise ConfigInvalid("scan-permutations applies to the circle models only")
    kernel = build_model(model, params).base
    _, eps = _circle_params(dict(params))
    count = _integer(count, "count")
    if count < 0:
        raise ConfigInvalid(f"count {count} is negative")
    lazy = model == "lazy-circle"
    n_points = kernel.size
    rng = np.random.default_rng(seed)
    maps: list[tuple[str, np.ndarray]] = []
    for s in (1, -1, 2, -2):
        maps.append((f"shift:{s:+d}", (np.arange(n_points) + s) % n_points))
    for j in range(count):
        maps.append((f"random:{j}", rng.permutation(n_points)))
    rows = []
    worst = 1.0
    # Every pi is found: the base's support is a connected, non-bipartite,
    # regular graph (an odd cycle, with loops when lazy).  A closed set C of
    # base(x, g^{-1} y) needs N(C) in g^{-1}(C), so |N(C)| <= |C|, which its
    # bipartite double cover, connected and regular, allows only for C
    # empty or the whole space.
    weights = _shifted_stationary_weights(kernel, [fwd for _, fwd in maps])
    for (name, _), pi in zip(maps, weights):
        ratio = float(np.max(pi) / np.min(pi))
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
        "model": model,
        "n_points": n_points,
        "eps": eps,
        "proven_bound": 1.0 + eps,
        "rows": rows,
        "worst": worst,
        "note": note,
    }


# ---------------------------------------------------------------------------
# perturbation framework


@_record
class PerturbationSpec:
    """A kernel written as symmetric base Q plus a signed edit matrix.

    The edits must keep rows balanced (each row of delta_matrix sums to
    zero), stay above -epsilon * Q entrywise, and vanish outside the
    support rows.  `delta` is only set for single-point edits: the holding
    surplus bound that epsilon was taken from.
    """

    base: MarkovKernel
    support: tuple[int, ...]
    delta_matrix: np.ndarray
    epsilon: float
    delta: Optional[float] = None

    def __post_init__(self):
        q = self.base.dense()
        d = np.asarray(self.delta_matrix, dtype=float)
        if d.shape != q.shape:
            raise ConditionViolated("a", "edit matrix shape differs from the base")
        if float(np.max(np.abs(q - q.T))) > 1e-12:
            raise NotSymmetric("perturbation base must be symmetric")
        if not 0.0 <= self.epsilon < 1.0:
            raise ConditionViolated("b", f"strength {self.epsilon} outside [0, 1)")
        rowsums = np.abs(d.sum(axis=1))
        if float(rowsums.max(initial=0.0)) > 1e-12:
            raise ConditionViolated("a", "edit rows must sum to zero")
        if np.any(d < -self.epsilon * q - 1e-12):
            raise ConditionViolated("b", "edit removes more than epsilon of the base")
        support = np.asarray(self.support, dtype=int)
        outside = np.ones(q.shape[0], dtype=bool)  # support points off the space are ignored
        outside[support[(support >= 0) & (support < q.shape[0])]] = False
        if np.any(outside) and float(np.max(np.abs(d[outside]))) > 0.0:
            raise ConditionViolated("c", "edits outside the declared support")
        object.__setattr__(self, "delta_matrix", d)

    def kernel(self) -> MarkovKernel:
        return make_kernel(self.base.space, self.base.dense() + self.delta_matrix)


def _single_point_spec(q: MarkovKernel, o: int, row: np.ndarray, delta: float) -> PerturbationSpec:
    """The spec of q with row o edited by `row`, in the single-point shape.

    The shape is the one of the sticky bound: a holding surplus row[o] in
    (0, delta], paid for by losing mass wherever q(o, .) is positive off o
    and nowhere else.  The spec's own conditions add the rest: the row sums
    to zero, and with eps = delta / (1 - q(o, o)) it stays above -eps q and
    eps < 1.
    """
    base_row = q.dense()[o]
    if not 0.0 < row[o] <= delta + 1e-12 or not delta > 0.0:
        raise PerturbationShapeViolated(f"holding surplus {row[o]!r} outside (0, delta={delta}]")
    off = np.arange(q.size) != o
    if not np.all(np.where(base_row > 0.0, row < 0.0, row == 0.0)[off]):
        raise ConditionViolated(
            "vertex-prime", "row must lose mass exactly where the base row is positive"
        )
    edits = np.zeros((q.size, q.size))
    edits[o] = row
    eps = delta / (1.0 - base_row[o])
    return PerturbationSpec(base=q, support=(o,), delta_matrix=edits, epsilon=eps, delta=delta)


def single_point_perturbation(q: MarkovKernel, o: int, delta_row: np.ndarray) -> PerturbationSpec:
    """Validated one-row perturbation of a symmetric kernel.

    The row must add holding mass delta at (o, o) and remove mass everywhere
    the base row is positive, within the floor -delta q(o, y)/(1 - q(o, o));
    the returned spec carries delta and the strength
    epsilon = delta/(1 - q(o, o)).
    """
    o = int(o)
    row = np.asarray(delta_row, dtype=float)
    if row.shape != (q.size,):
        raise ConditionViolated("a", "edit row has the wrong length")
    return _single_point_spec(q, o, row, float(row[o]))


def _single_row_asymmetry(k: np.ndarray):
    """Index of the one row whose edits explain all asymmetry of k, if any."""
    asym = np.abs(k - k.T)
    rows = [int(r) for r in np.flatnonzero(asym.max(axis=1) > 1e-14)]
    if not rows:
        return None
    n = k.shape[0]
    for cand in rows:
        others = [r for r in rows if r != cand]
        cols = [c for c in range(n) if c != cand]
        if all(np.all(asym[r, cols] <= 1e-14) for r in others):
            return cand
    raise PerturbationShapeViolated("kernel is not symmetric off a single row")


def sticky_stability_check(system: WaveSystem, delta: float) -> tuple[float, float]:
    """Measured max/min ratio of the wave measure against the sticky bound.

    The base kernel must be a symmetric kernel Q perturbed on a single row
    o in the shape of `single_point_perturbation`, with a holding surplus
    of at most delta.  Returns (measured ratio, 1/(1 - eps)) with
    eps = delta / (1 - Q(o, o)) and checks measured <= bound; also checks
    that the wave measure peaks at the image of o one map step ahead, where
    the surplus column of the shifted kernel sits.
    """
    k = system.base.dense()
    o = _single_row_asymmetry(k)
    if o is None:
        return 1.0, 1.0
    # rows other than o are untouched, so column o of k is row o of the
    # symmetric base; its diagonal entry follows from stochasticity
    q = k.copy()
    q[o] = k[:, o]
    q[o, o] = 1.0 - (k[:, o].sum() - k[o, o])
    eps = _single_point_spec(make_kernel(system.space, q), o, k[o] - q[o], delta).epsilon
    pi = system.wave_measure
    measured = float(np.max(pi.weights) / np.min(pi.weights))
    bound = 1.0 / (1.0 - eps)
    peak = int(np.argmax(pi.weights))
    expected = int(system.map.forward[o])
    if peak != expected:
        raise BoundViolated(
            f"wave measure peaks at {peak}, not at the image {expected} of the sticky row"
        )
    if measured > bound + 1e-10:
        raise BoundViolated(
            f"sticky ratio {measured} exceeds the certified bound {bound}"
        )
    return measured, bound


# ---------------------------------------------------------------------------
# symmetric-group walks


@_record
class GroupWalkSpec:
    """Right-multiplication random walk on the symmetric group.

    generator_weights maps one-line permutation tuples to step
    probabilities; the state enumeration is the shared lexicographic one.
    """

    n: int
    generator_weights: dict

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("deck size must be positive")
        if self.n > _GROUP_CAP or math.factorial(self.n) > _GROUP_CAP:  # n! >= n
            raise TooLarge(f"{self.n}! exceeds the configured cap {_GROUP_CAP}")
        total = 0.0
        for g, w in self.generator_weights.items():
            if len(g) != self.n or sorted(g) != list(range(self.n)):
                raise ValueError(f"{g!r} is not a permutation of 0..{self.n - 1}")
            if w < 0:
                raise ValueError("negative generator weight")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"generator weights sum to {total!r}, not 1")


@lru_cache(maxsize=8)
def sn_space(n: int) -> StateSpace:
    # cached: the kernel and the map of a group system share one frozen space
    elements = sn_elements(n)
    return StateSpace(len(elements), tuple(one_line_label(p) for p in elements))


def _group_walk(n: int, generators, weights) -> MarkovKernel:
    """Kernel with K(x, x s_j) = weights[x, j] for ascending generators s_j;
    `weights` broadcasts to (n!, len(generators))."""
    table = sn_table(n)
    size = table.shape[0]
    # products[x, j] = x * generators[j], as rows of one-line arrays
    products = np.asarray(generators, dtype=np.int64)[:, table].transpose(1, 0, 2)
    cols = sn_rank(products.reshape(-1, n))
    rows = np.repeat(np.arange(size, dtype=np.int64), len(generators))
    vals = np.broadcast_to(np.asarray(weights, dtype=np.float64), (size, len(generators)))
    return _kernel_from_triplets(sn_space(n), rows, cols, vals.ravel())


def group_walk_kernel(spec: GroupWalkSpec) -> MarkovKernel:
    """Kernel K(x, y) = sum of weights w(s) over generators with y = x s."""
    pairs = sorted(spec.generator_weights.items())
    return _group_walk(spec.n, [s for s, _ in pairs], [w for _, w in pairs])


def conjugation_map(n: int, a: Perm) -> Permutation:
    """The bijection x -> a^{-1} o x o a of the lexicographic enumeration."""
    inv_a = np.asarray(inverse(a), dtype=np.int64)
    images = inv_a[sn_table(n)[:, np.asarray(a, dtype=np.int64)]]
    return make_permutation(sn_space(n), sn_rank(images))


def _check_group_size(n: int) -> int:
    n = _integer(n, "n")
    if n < 3:
        raise ValueError("deck size must be at least 3")
    states = 1
    for k in range(2, n + 1):  # n! is not carried past the cap
        if (states := states * k) > _GROUP_CAP:
            more = "" if k == n else "more than "
            raise TooLarge(f"deck size {n} puts {more}{states} states out of range")
    return n


def deck_reversal_system(n: int) -> WaveSystem:
    """Walk stepping by top-to-bottom or top-to-second-to-last, with a
    deck-reversal relabeling as the driving bijection."""
    n = _check_group_size(n)
    to_bottom = tuple([n - 1] + [i - 1 for i in range(1, n)])
    to_second_last = tuple([n - 2] + [i - 1 for i in range(1, n - 1)] + [n - 1])
    spec = GroupWalkSpec(n, {to_bottom: 0.5, to_second_last: 0.5})
    kernel = group_walk_kernel(spec)
    reversal = tuple(n - 1 - i for i in range(n))
    return make_wave_system(kernel, conjugation_map(n, reversal))


def cyclic_to_random_system(n: int) -> WaveSystem:
    """Transpose-top-with-random walk conjugated along the full rotation,
    so step i transposes position i with a uniform position."""
    n = _check_group_size(n)
    weights = {identity_perm(n): 1.0 / n}
    for j in range(1, n):
        weights[transposition(n, 0, j)] = 1.0 / n
    kernel = group_walk_kernel(GroupWalkSpec(n, weights))
    return make_wave_system(kernel, conjugation_map(n, from_cycles(n, [range(n)])))


def _element_rank(n: int, rho: Union[Perm, int]) -> int:
    size = math.factorial(n)
    if isinstance(rho, (int, np.integer)):
        if not 0 <= rho < size:
            raise ValueError(f"rho {int(rho)} outside 0..{size - 1}, the ranks of S_{n}")
        return int(rho)
    rho = tuple(int(v) for v in rho)
    if sorted(rho) != list(range(n)):
        raise ValueError(f"{rho!r} is not a permutation of 0..{n - 1}")
    return int(sn_rank([rho])[0])


def sticky_permutation_system(n: int, rho, delta: float) -> WaveSystem:
    """Lazy transpose-top walk with extra holding probability at rho.

    The base kernel holds with probability (n+1)/(2n) and transposes the
    top with a random other position with probability 1/(2n) each; the
    sticky row gains delta of holding and loses delta/(n-1) along each
    transposition move.  rho is a one-line tuple or its lexicographic rank
    in 0..n!-1.  The driving bijection matches the cyclic-to-random one, so
    the sticky spot moves backwards along the rotation as the steps advance.
    """
    n = _check_group_size(n)
    if not 0.0 < delta < (n - 1) / (2.0 * n):
        raise DeltaOutOfRange(
            f"delta {delta} outside (0, {(n - 1) / (2.0 * n)}) for n={n}"
        )
    r = _element_rank(n, rho)
    hold = (n + 1) / (2.0 * n)
    move = 1.0 / (2.0 * n)
    # generators in ascending order: the identity, then the top transpositions
    generators = [identity_perm(n)] + [transposition(n, 0, j) for j in range(1, n)]
    weights = np.full((math.factorial(n), n), move)
    weights[:, 0] = hold
    weights[r, 0] = hold + delta
    weights[r, 1:] = move - delta / (n - 1)
    sticky = _group_walk(n, generators, weights)
    return make_wave_system(sticky, conjugation_map(n, from_cycles(n, [range(n)])))


# ---------------------------------------------------------------------------
# other wave systems


def four_point_example() -> WaveSystem:
    """Path-like four-state kernel whose shifted version absorbs at 4."""
    space = StateSpace(4, ("1", "2", "3", "4"))
    mat = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.0, 0.5, 0.0],
            [0.0, 0.5, 0.0, 0.5],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    kernel = make_kernel(space, mat)
    swap_last_two = make_permutation(space, np.array([0, 1, 3, 2]))
    return make_wave_system(kernel, swap_last_two)


def binary_cycling_system(n_bits: int) -> WaveSystem:
    """Randomize the first bit while the bijection rotates bits left.

    States are integers whose i-th coordinate is bit i (labels print
    coordinate 1 first); step kernel i then randomizes coordinate i, and
    the window of length n_bits lands exactly on the uniform measure.
    """
    n = _integer(n_bits, "bits")
    if n < 2:
        raise ValueError("need at least 2 bits")
    if n > 16:
        raise TooLarge(f"2^{n} states exceed the supported range")
    size = 1 << n
    labels = tuple(
        "".join(str((x >> i) & 1) for i in range(n)) for x in range(size)
    )
    space = StateSpace(size, labels)
    xs = np.arange(size, dtype=np.int64)
    # row x splits evenly between x with bit 0 cleared and x with bit 0 set
    cols = np.column_stack([xs & ~1, xs | 1]).ravel()
    kernel = _kernel_from_triplets(space, np.repeat(xs, 2), cols, np.full(2 * size, 0.5))
    # rotating coordinates left means bit i of g(x) is bit i+1 of x
    fwd = (xs >> 1) | ((xs & 1) << (n - 1))
    return make_wave_system(kernel, make_permutation(space, fwd))


def periodic_class_example(k: int, class_size: int) -> WaveSystem:
    """Blocks C_0..C_{k-1}; the kernel spreads uniformly over the next
    block while the bijection rotates blocks one step back."""
    k = _integer(k, "k")
    cs = _integer(class_size, "class_size")
    if k < 2:
        raise ValueError("need at least two classes")
    if cs < 1:
        raise ValueError("classes must be nonempty")
    size = k * cs
    _check_entries(size, size * cs)
    labels = tuple(f"c{j}s{i}" for j in range(k) for i in range(cs))
    space = StateSpace(size, labels)
    rows = np.repeat(np.arange(size), cs)
    cols = (rows // cs + 1) % k * cs + np.tile(np.arange(cs), size)
    kernel = _kernel_from_triplets(space, rows, cols, np.full(size * cs, 1.0 / cs))
    fwd = (np.arange(size, dtype=np.int64) - cs) % size
    return make_wave_system(kernel, make_permutation(space, fwd))


def random_regular_graph_walk(n_vertices: int, degree: int, seed: int) -> MarkovKernel:
    """Walk on a random regular graph with a self-loop at every vertex.

    `degree` counts the loop, so the simple part is (degree-1)-regular,
    drawn from the pairing model with rejection of loops and multi-edges.
    degree == n_vertices forces the complete graph.
    """
    n = _integer(n_vertices, "n")
    r = _integer(degree, "degree")
    if r < 3:
        raise DegreeInfeasible("degree must be at least 3")
    if r > n:
        raise DegreeInfeasible(f"degree {r} exceeds {n} vertices")
    d = r - 1  # simple-neighbour count
    if (n * d) % 2 != 0:
        raise DegreeInfeasible(f"{d}-regular graph on {n} vertices has odd degree sum")
    _check_entries(n, n * r)
    if n == r:
        rows, cols = np.divmod(np.arange(n * n), n)
        return _kernel_from_triplets(StateSpace(n), rows, cols, np.full(n * n, 1.0 / r))
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(10_000):
        rng.shuffle(stubs)
        a = stubs[0::2]
        b = stubs[1::2]
        if np.any(a == b):
            continue
        keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
        if np.any(keys[1:] == keys[:-1]):  # a multi-edge
            continue
        # each edge both ways, then the loops
        rows = np.concatenate([a, b, np.arange(n)])
        cols = np.concatenate([b, a, np.arange(n)])
        return _kernel_from_triplets(StateSpace(n), rows, cols, np.full(n * r, 1.0 / r))
    raise DegreeInfeasible(
        f"no simple {d}-regular pairing found for n={n} after many attempts"
    )


# ---------------------------------------------------------------------------
# the model registry


def _circle_params(p: dict) -> tuple[int, float]:
    # point count and heavy-edge excess, shared by both circle models
    return _integer(p.pop("n", 5), "n"), _number(p.pop("eps", 1.0), "eps")


def _circle_system(kernel: MarkovKernel) -> WaveSystem:
    return make_wave_system(kernel, circle_shift(kernel.size, -1))


def _sticky(p: dict) -> WaveSystem:
    n = _integer(p.pop("n", 4), "n")
    rho = _integer(p.pop("rho", 0), "rho")
    return sticky_permutation_system(n, rho, _number(p.pop("delta", 0.05), "delta"))


def _random_regular(p: dict) -> WaveSystem:
    n = _integer(p.pop("n", 8), "n")
    if "degree" in p and "r" in p:
        raise ConfigInvalid("random-regular takes degree or its alias r, not both")
    degree = _integer(p.pop("degree", p.pop("r", 3)), "degree")
    kernel = random_regular_graph_walk(n, degree, _integer(p.pop("graph_seed", 0), "graph_seed"))
    return make_wave_system(kernel, make_permutation(kernel.space, np.arange(n)))


# Model name -> builder.  A builder pops the parameters it reads from a dict
# and returns the system with the model's default bijection.  Builders call
# the model functions by their module names, never through stored
# references, so a wrapper installed on the module sees every build.
MODELS = {
    "circle": lambda p: _circle_system(circle_kernel(*_circle_params(p))[0]),
    "lazy-circle": lambda p: _circle_system(lazy_circle_kernel(*_circle_params(p))),
    "binary-cycling": lambda p: binary_cycling_system(p.pop("bits", 3)),
    "four-point": lambda p: four_point_example(),
    "deck-reversal": lambda p: deck_reversal_system(p.pop("n", 4)),
    "cyclic-to-random": lambda p: cyclic_to_random_system(p.pop("n", 4)),
    "sticky": _sticky,
    "periodic-classes": lambda p: periodic_class_example(p.pop("k", 3), p.pop("class_size", 2)),
    "random-regular": _random_regular,
}


def build_model(name: str, params: dict) -> WaveSystem:
    """The named model of `MODELS`, built from a copy of `params`; a
    parameter the model does not read is ConfigInvalid."""
    params = dict(params)
    system = MODELS[name](params)
    if params:
        raise ConfigInvalid(f"model {name!r} does not take parameters {sorted(params)}")
    return system


# ---------------------------------------------------------------------------
# merging-time scaling across a family


# family -> (its one parameter, step cap from the state count, default
# sizes); the systems, and the parameter's default, come from MODELS
_SCALING_FAMILIES = {
    "circle": ("eps", lambda size: 100 + 10 * size * size, tuple(range(5, 42, 4))),
    "sticky": ("delta", lambda size: int(200 + 40 * size * math.log(size)), (4, 5)),
}


def scaling_study(family: str, n_list, eta: float, params: Optional[dict] = None) -> dict:
    """Exact merging times across a model family with a log-log fit.

    Returns the fitted slope of log T against log n together with the
    per-point residuals, so callers can judge both the growth exponent and
    the fit quality.  The family, its parameters and the sizes (a list of
    integers, at least two distinct, each one the family can build; the
    family's default sizes when None) are checked before any merging time
    is computed.
    """
    params = params or {}
    if family not in _SCALING_FAMILIES:
        raise ConfigInvalid(f"unknown scaling family {family!r}; use circle or sticky")
    parameter, cap, default_sizes = _SCALING_FAMILIES[family]
    foreign = sorted(set(params) - {parameter})
    if foreign:
        raise ConfigInvalid(f"family {family!r} does not take parameters {foreign}")
    if n_list is None:
        n_list = default_sizes
    if not isinstance(n_list, (list, tuple)):
        raise ConfigInvalid(f"scaling sizes {n_list!r} are not a list of integers")
    sizes = [_integer(n, "scaling size") for n in n_list]
    if len(set(sizes)) < 2:
        raise ConfigInvalid("a scaling study needs at least two distinct sizes")
    systems = [(n, build_model(family, {**params, "n": n})) for n in sizes]
    points = []
    for n, system in systems:
        steps = cap(system.space.size)
        rep = merging_time(system, eta, steps, "relative_sup")
        if rep.merging_time is None:
            raise ConfigInvalid(f"no merging within {steps} steps at n={n}")
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

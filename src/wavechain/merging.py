"""Merging distances, merging times, stability certificates and bounds.

Merging compares the rows of the window product K_{0,n} to each other; the
chain forgets its starting point when every pairwise distance goes to zero.
The relative-sup distance

    d(mu, nu) = max_x |mu(x) / nu(x) - 1|

is the strictest of the three metrics here and is infinite whenever nu has a
zero where mu does not; infinity is a legitimate value, reported as
math.inf, never an overflow.  The sticky-point check of the single-point
stability bound lives in `models`, next to the perturbation it checks.
"""
from __future__ import annotations

import math
from itertools import islice
from typing import Callable, Literal, Optional, Union

import numpy as np

from .core import (
    Distribution,
    MarkovKernel,
    WaveSystem,
    _cycles,
    _laws,
    _record,
    _state_index,
    kernel_at,
    power_blocks,
)
from .errors import (
    BoundViolated,
    ConfigInvalid,
    HorizonTooShort,
    InvalidPivot,
    NotIrreducible,
    NotMerging,
    SpaceMismatch,
    TooLarge,
    UniformMeasure,
    WindowInverted,
    ZeroWeight,
)
from .interchange import _csv_text
from .spectral import (
    _check_positive,
    _merging_obstruction,
    _singular_values,
    is_irreducible,
)

Metric = Literal["total_variation", "relative_sup", "chi_square"]


def _paired(mu: Distribution, nu: Distribution) -> tuple[np.ndarray, np.ndarray]:
    if mu.space != nu.space:
        raise SpaceMismatch("distances need distributions on one space")
    return mu.weights, nu.weights


def tv_distance(mu: Distribution, nu: Distribution) -> float:
    a, b = _paired(mu, nu)
    return 0.5 * float(np.abs(a - b).sum())


def relative_sup_distance(mu: Distribution, nu: Distribution) -> float:
    """max_x |mu(x)/nu(x) - 1|, infinite when nu(x) = 0 < mu(x)."""
    a, b = _paired(mu, nu)
    if np.any((b == 0.0) & (a > 0.0)):
        return math.inf
    mask = b > 0.0  # a Distribution has positive mass somewhere
    return float(np.max(np.abs(a[mask] / b[mask] - 1.0)))


def chi_square_distance(mu: Distribution, nu: Distribution) -> float:
    """sum_x (mu(x) - nu(x))^2 / nu(x), infinite when nu vanishes off mu."""
    a, b = _paired(mu, nu)
    if np.any((b == 0.0) & (a > 0.0)):
        return math.inf
    mask = b > 0.0
    return float(np.sum((a[mask] - b[mask]) ** 2 / b[mask]))


def _total_variation_block(block: np.ndarray) -> list:
    """Worst TV distance of each stochastic matrix block[:, j, :], over the
    row pairs x < y only: |a - b| = |b - a|, and each pair's sum is one
    contiguous reduction of N entries.  The largest temporary is (N - 1, b, N)."""
    worst = np.zeros(block.shape[1])
    for x in range(block.shape[0] - 1):
        diff = block[x + 1 :] - block[x]
        np.abs(diff, out=diff)
        worst = np.maximum(worst, diff.sum(axis=2).max(axis=0))
    return (0.5 * worst).tolist()


def _relative_sup_block(block: np.ndarray) -> list:
    """Worst relative-sup distance of each stochastic matrix block[:, j, :]."""
    # max over ordered row pairs equals max over columns of colmax/colmin - 1
    top = block.max(axis=0)
    bot = block.min(axis=0)
    live = top > 0.0  # nonempty: every row carries mass
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(live, top / bot - 1.0, -np.inf)
    worst = ratio.max(axis=1)
    worst[((bot == 0.0) & live).any(axis=1)] = math.inf
    return worst.tolist()


def _chi_square_block(block: np.ndarray) -> list:
    """Worst chi-square distance of each stochastic matrix block[:, j, :]."""
    worst = []
    for m in block.transpose(1, 0, 2):
        # chi(x, y) = sum_z m[x, z]^2 / m[y, z] - 1 once every column is
        # either all zero or all positive; a column with both is an ordered
        # pair with nu(z) = 0 < mu(z)
        zero = m == 0.0
        live = ~zero.all(axis=0)
        if np.any(zero[:, live]):
            worst.append(math.inf)
            continue
        sub = m[:, live]
        chi = (sub * sub) @ (1.0 / sub).T - 1.0
        worst.append(max(0.0, float(chi.max())))
    return worst


# Each metric's block reducer: a read-only block (N, b, N) of stochastic
# matrices in, the b worst pairwise distances out.
_BLOCK_MEASURES: dict[str, Callable[[np.ndarray], list]] = {
    "total_variation": _total_variation_block,
    "relative_sup": _relative_sup_block,
    "chi_square": _chi_square_block,
}
_METRICS = tuple(_BLOCK_MEASURES)
# Each metric's exact worst distance at every power of a kernel whose rows
# cannot merge under it (`spectral._merging_obstruction`).  TV is 1: two
# rows in different closed classes, or in different cyclic subclasses of a
# periodic class, have disjoint supports at every power.  The ratio metrics
# are infinite: some column of every power has a zero and a positive entry.
# So it is also every metric's value, bit for bit, at the power n = 0, the
# identity, on two or more states; on one state, which no obstruction has,
# that value is 0.0.
_UNMERGED = {"total_variation": 1.0, "relative_sup": math.inf, "chi_square": math.inf}


def _check_metric(metric: Metric) -> None:
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS}")


def _pairwise_measure_matrix(m: np.ndarray, metric: Metric) -> float:
    """Worst distance between ordered pairs of rows of a stochastic matrix."""
    return _BLOCK_MEASURES[metric](m[:, None, :])[0]


def _distance_trace(kernel: MarkovKernel, metric: Metric, max_steps: int):
    """Yield (n, worst pairwise distance of kernel^n) for n = 0 .. max_steps."""
    yield 0, _UNMERGED[metric] if kernel.size > 1 else 0.0
    for first, block in power_blocks(kernel, max_steps):
        yield from enumerate(_BLOCK_MEASURES[metric](block), first)


def pairwise_merging_measure(system: WaveSystem, n: int, metric: Metric) -> float:
    """Worst pairwise distance between rows of K_{0,n}: the rows of shifted^n
    under one column relabeling, which no metric sees, so this reduces the
    power `merging_time`'s trace reduces at n and gives its value bit for
    bit, and from no power at n = 0 or where the metric cannot merge.  Any
    other n raises TooLarge where `dense()` refuses the shifted kernel."""
    _check_metric(metric)
    if n < 0:
        raise WindowInverted(f"window (0, {n}) has n > m")
    if n == 0 or _merging_obstruction(system.shifted, metric) is not None:
        return _UNMERGED[metric] if system.space.size > 1 else 0.0
    for _, block in power_blocks(system.shifted, n):
        power = block[:, -1]
    return _pairwise_measure_matrix(power, metric)


@_record
class MergingReport:
    """Distance trace and first-passage time below a threshold.

    merging_time is None when the threshold was not reached within
    max_steps; `reason` explains structural obstructions when one is known.
    """

    metric: Metric
    epsilon: float
    values: tuple[tuple[int, float], ...]
    merging_time: Optional[int]
    max_steps: int
    reason: Optional[str] = None

    def to_document(self) -> dict:
        doc = {
            "metric": self.metric,
            "epsilon": self.epsilon,
            "trace": [[n, v if math.isfinite(v) else "inf"] for n, v in self.values],
            "merging_time": self.merging_time if self.merging_time is not None else "unbounded",
        }
        if self.reason is not None:
            doc["reason"] = self.reason
        return doc

    def to_csv(self) -> str:
        return _csv_text(["n", "distance"], self.values)


def merging_time(
    system: WaveSystem,
    epsilon: float,
    max_steps: int,
    metric: Metric = "relative_sup",
) -> MergingReport:
    """First n with the pairwise merging measure below epsilon.

    The trace is produced with powers of the shifted kernel: the rows of
    K_{0,n} are the rows of shifted^n up to one common column relabeling,
    which none of the three metrics can see.  The powers come from
    `core.power_blocks`, one product a power: P^n P for small or dense
    kernels, and row gathers P P^n, O(N^2 d) per power, once the state
    count N reaches max(GATHER_MIN_STATES, GATHER_ROW_RATIO d) for the
    widest row support d.  The gathers may round a traced distance
    differently from the step-by-step product in the last bits (relative
    1e-12 is the tested contract); the same call gives the same trace
    every time.  Every metric reduces a whole block of powers at once, TV
    over the unordered row pairs only.

    The verdict of `spectral._merging_obstruction` comes first.  Where a
    metric cannot merge, the trace is `_UNMERGED[metric]` at every n and
    is written from no power, at every size; `reason` names the
    obstruction whenever the threshold is not reached.  Otherwise the
    first power raises TooLarge where `dense()` refuses the shifted kernel.
    """
    _check_metric(metric)
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    obstruction = _merging_obstruction(system.shifted, metric)
    if obstruction is not None:
        trace = ((n, _UNMERGED[metric]) for n in range(max_steps + 1))
    else:
        trace = _distance_trace(system.shifted, metric, max_steps)
    values = []
    hit: Optional[int] = None
    for n, d in trace:
        values.append((n, d))
        if d < epsilon:
            hit = n
            break
    reason = None
    if hit is None and obstruction is not None:
        reason = f"shifted kernel {obstruction}; pairwise merging cannot occur"
    return MergingReport(
        metric=metric,
        epsilon=epsilon,
        values=tuple(values),
        merging_time=hit,
        max_steps=max_steps,
        reason=reason,
    )


@_record
class StabilityCertificate:
    """A constant c with c^{-1} mu_0(x) <= mu_n(x) <= c mu_0(x) for all n, x.

    `periodic` marks certificates derived from the wave structure, which
    cover every n at once; scanned certificates only cover n <= horizon.
    The witness is a pair (state, step) where the ratio c is attained.
    """

    c: float
    mu0: Distribution
    horizon: int
    periodic: bool
    witness: tuple[int, int]


def _wave_start(system: WaveSystem, mu0: Distribution) -> Optional[np.ndarray]:
    """The wave measure's weights when mu0 is within 1e-10 of it in every
    state, None otherwise: the one test of whether a chain starts at pi."""
    pi = system.wave_measure_or_none()
    if pi is not None and float(np.max(np.abs(mu0.weights - pi.weights))) <= 1e-10:
        return pi.weights
    return None


def certify_stability(
    system: WaveSystem,
    mu0: Distribution,
    horizon: Optional[int] = None,
) -> StabilityCertificate:
    """Exact stability constant for the chain started at mu0.

    When mu0 is the invariant measure of the shifted kernel, the law at
    time n is that measure composed with g^n, so the constant is the worst
    ratio along the orbits of g and certifies every n.  Any other start
    requires an explicit horizon and is certified by direct evolution.

    Where c is attained more than once, the witness is the first attainer:
    on the periodic path, the first orbit by least state, walked forward
    from that state to its first least and first greatest value; on the
    horizon path, the first step, and within a step the state with the
    largest ratio before the state with the smallest.  With c = 1 the
    witness is (0, 0).
    """
    if mu0.space != system.space:
        raise SpaceMismatch("mu0 lives on a different space")
    if horizon is not None and horizon < 0:
        raise ValueError("horizon must be nonnegative")
    w = _wave_start(system, mu0)
    if w is None and horizon is None:
        raise ValueError("a horizon is required when mu0 is not the wave measure")
    if np.any(mu0.weights <= 0.0):
        raise ZeroWeight("stability ratios need a positive start")
    if w is not None:
        best = (1.0, 0, 0)
        for orbit in _cycles(system.map):
            values = w[orbit]
            hi = int(np.argmax(values))
            lo = int(np.argmin(values))
            ratio = float(values[hi] / values[lo])
            if ratio > best[0]:
                # walking lo -> hi along the orbit realizes the worst ratio
                steps = (hi - lo) % len(orbit)
                best = (ratio, orbit[lo], steps)
        return StabilityCertificate(
            c=best[0], mu0=mu0, horizon=system.order, periodic=True, witness=(best[1], best[2])
        )
    worst = (1.0, 0, 0)
    for n, law in enumerate(islice(_laws(mu0, system), 1, horizon + 1), 1):
        ratios = law / mu0.weights
        hi = int(np.argmax(ratios))
        lo = int(np.argmin(ratios))
        for idx in (hi, lo):
            r = float(ratios[idx])
            r = max(r, 1.0 / r) if r > 0 else math.inf
            if r > worst[0]:
                worst = (r, idx, n)
    return StabilityCertificate(
        c=worst[0], mu0=mu0, horizon=horizon, periodic=False, witness=(worst[1], worst[2])
    )


def _bound_factors(system: WaveSystem) -> tuple[np.ndarray, np.ndarray, float]:
    """pi, sqrt(1/pi - 1) and the report's sigma1_tilde: every wave bound's factors."""
    pi = system.wave_measure
    sigma = float(_singular_values(system.shifted, pi, pi)[1])  # ZeroWeight unless pi > 0
    return pi.weights, np.sqrt(1.0 / pi.weights - 1.0), sigma


def _merging_bound_factors(system: WaveSystem, n: int) -> tuple[np.ndarray, float]:
    """The wave bound's factors for steps up to n, checked before pi is solved."""
    if n < 0:
        raise ValueError("step count must be nonnegative")
    obstruction = _merging_obstruction(system.shifted)
    if obstruction is not None:
        raise NotMerging(f"shifted kernel {obstruction}; the wave bound does not apply")
    _, front, sigma = _bound_factors(system)
    return front, sigma


def wave_bound(system: WaveSystem, x: int, z: int, n: int) -> float:
    """Wave-measure bound on |K_{0,n}(x, z) / mu_n(z) - 1|.

    Equals (1/pi(x) - 1)^(1/2) (1/pi(g^n z) - 1)^(1/2) sigma1_tilde^n where
    pi is the wave measure; requires the shifted kernel irreducible and
    aperiodic.
    """
    x, z = _state_index(system.space, x), _state_index(system.space, z, "end state")
    front, sigma = _merging_bound_factors(system, n)
    gnz = int(system.map.power_map(n)[z])
    return float(front[x] * front[gnz] * sigma**n)


def wave_bound_grid(system: WaveSystem, n_max: int) -> np.ndarray:
    """Array b[n, x, z] of wave bounds for all 0 <= n <= n_max.

    Refuses, in this order and before anything is solved: a negative n_max
    (which makes no cells), a grid of more than 50 000 000 cells, and a
    shifted kernel that cannot merge."""
    size = system.space.size
    if (n_max + 1) * size * size > 50_000_000:
        raise TooLarge("bound grid would not fit; query wave_bound pointwise")
    front, sigma = _merging_bound_factors(system, n_max)
    out = np.empty((n_max + 1, size, size))
    gn = np.arange(size, dtype=np.int64)
    for n in range(n_max + 1):
        back = front[gn]
        out[n] = sigma**n * front[:, None] * back[None, :]
        gn = system.map.forward[gn]
    return out


# float64 unit roundoff, for the rounding allowance of `bound_dominance`
_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2


def bound_dominance(
    system: WaveSystem, horizon: int, scale: float = 1.0
) -> tuple[float, int, float]:
    """(max_excess, step, sigma1_tilde): the worst excess, floored at 0, of
    the exact relative error |K~^n(x, y) / pi(y) - 1| over scale times
    `wave_bound` for n = 1 .. horizon, and the first step attaining it.

    Streams the powers of the shifted kernel; any system with a wave
    measure is accepted, periodic ones included, and from horizon 1 a
    shifted kernel that `dense()` refuses raises TooLarge before pi or
    sigma1_tilde is solved for.  Each block of powers is
    first screened column by column: the worst error c_n(y) of column y,
    read from its extreme entries, against the smallest bound in that
    column.  Rounding is monotone, so a power whose every column passes
    has no positive excess; only the others are scanned entry by entry, in
    order, and the first step attaining the excess is unchanged.

    The loop stops once its proof closes.  Each row of K~^(n+1) is a convex
    combination of rows of K~^n, so c_n(y) never increases, while for
    scale >= 0 the column floor scale sigma1_tilde^n min_x f(x) f(y) only
    falls.  A computed power of a nonnegative matrix is within a relative
    H N u of the exact one (Higham 2002, section 3.5; H the horizon, N the
    state count, u the unit roundoff), so once every column of the last
    power of a block has c_n(y) + 2 H N u (1 + c_n(y)) at most the floor
    at the horizon, no later power can fail the screen and the rest are
    not computed.  The argument holds for any stochastic kernel, periodic
    ones included.  A negative scale makes every floor at most 0 while
    c_n(y) >= 0: a column clears only where its error and bounds are all
    0, and the proof never closes.
    """
    if not math.isfinite(scale):
        raise ConfigInvalid(f"bound_scale must be finite, got {scale}")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    blocks = power_blocks(system.shifted, horizon)  # TooLarge before pi and sigma
    w, front, sigma = _bound_factors(system)
    outer = np.outer(front, front)
    # the smallest bound of column y is in the row of the smallest factor,
    # or of the largest when scale < 0
    screen = outer[int(np.argmin(front) if scale >= 0.0 else np.argmax(front))]
    last_floor = scale * sigma**horizon * screen
    slack = 2.0 * horizon * w.size * _UNIT_ROUNDOFF
    worst = (0.0, 0)
    for first, block in blocks:
        steps = range(first, first + block.shape[1])
        high = block.max(axis=0) / w - 1.0
        low = 1.0 - block.min(axis=0) / w
        floor = np.array([scale * sigma**n for n in steps])[:, None] * screen
        cleared = ((high <= floor) & (low <= floor)).all(axis=1).tolist()
        steps = [n for n, ok in zip(steps, cleared) if not ok]
        error = np.maximum(high[-1], low[-1])
        proven = bool(np.all(error + slack * (1.0 + error) <= last_floor))
        # the powers left go one at a time: N x N temporaries stay in
        # cache, which measured faster than block-wide arrays at N = 81
        for n in steps:
            excess = block[:, n - first] / w
            excess -= 1.0
            np.abs(excess, out=excess)
            excess -= scale * sigma**n * outer
            e = float(excess.max())
            if e > worst[0]:
                worst = (e, n)
        if proven:
            break
    return worst[0], worst[1], sigma


def sv_product_bound(
    system: WaveSystem,
    mu0: Distribution,
    x: int,
    z: int,
    n: int,
) -> float:
    """Bound via the product of per-step second singular values.

    (1/mu_0(x) - 1)^(1/2) (1/mu_n(z) - 1)^(1/2) prod_i sigma_1(K_i), with
    K_i read as an operator from l2(mu_i) to l2(mu_{i-1}).  For n >= 1 the
    mu_i must all be positive.  At the wave measure every K_i is the shifted
    kernel relabeled, so this is `wave_bound`, bit for bit, periodic or not.
    """
    if mu0.space != system.space:
        raise SpaceMismatch("mu0 lives on a different space")
    if n < 0:
        raise ValueError("step count must be nonnegative")
    x, z = _state_index(system.space, x), _state_index(system.space, z, "end state")
    w = _wave_start(system, mu0)
    if w is not None:
        w0, wn = w, w[system.map.power_map(n)]
        product = _bound_factors(system)[2] ** n if n else 1.0  # sigma1_tilde^n
    else:
        laws = islice(_laws(mu0, system), 1, n + 1)
        mus = [mu0] + [Distribution(system.space, law) for law in laws]
        for i, mu in enumerate(mus if n else ()):  # the measures the steps weigh
            _check_positive(mu, f"step law mu_{i}")
        product = 1.0
        for i in range(1, n + 1):
            product *= float(_singular_values(kernel_at(system, i), mus[i], mus[i - 1])[1])
        w0, wn = mus[0].weights, mus[n].weights
    if w0[x] <= 0.0 or wn[z] <= 0.0:
        raise ZeroWeight("bound endpoints need positive mass")
    return float(
        math.sqrt(1.0 / w0[x] - 1.0) * math.sqrt(1.0 / wn[z] - 1.0) * product
    )


@_record
class NashParams:
    """Constants entering the Nash-based merging bound."""

    C1: float
    D: float
    c: float
    c1: float
    T: float
    eps: float


def nash_bound(params: NashParams, n: int) -> float:
    """Nash-based bound on the worst relative error at time n > 2T."""
    if n <= 2 * params.T:
        raise HorizonTooShort(f"bound needs n > 2T = {2 * params.T}")
    d = params.D
    pref = (
        16.0
        * (1.0 + 4.0 * d)
        * params.C1
        * params.c ** (2.0 + 3.0 / (2.0 * d))
        / (1.0 - params.eps) ** 2
    ) ** (2.0 * d)
    rate = 2.0 * params.c1 * (1.0 - params.eps) ** 2 / (params.c**2 * params.T)
    return pref * math.exp(-rate * (n - 2.0 * params.T))


_COLSUM_TOL = 1e-12


@_record
class BoundaryAnalysis:
    """Where column sums of the shifted kernel exceed or fall short of one.

    a_plus collects the states with column sum above one, a_minus below;
    `boundary` is the set reachable in one shifted step from the
    perturbation support.  The extreme values of the invariant measure
    are always attained inside a_plus / a_minus; argmax and argmin are
    the lowest-indexed attainers within those sets (ties elsewhere in
    the state space are allowed and common under symmetry).
    """

    a_plus: tuple[int, ...]
    a_minus: tuple[int, ...]
    boundary: tuple[int, ...]
    argmax: int
    argmin: int

    def __post_init__(self):
        if not (set(self.a_plus) | set(self.a_minus)) <= set(self.boundary):
            raise BoundViolated("imbalanced columns outside the support boundary")


def _imbalance_and_reach(m: np.ndarray, support):
    """Surplus and deficit columns of m, and the one-step reach of support."""
    colsums = m.sum(axis=0)
    a_plus = tuple(int(i) for i in np.flatnonzero(colsums > 1.0 + _COLSUM_TOL))
    a_minus = tuple(int(i) for i in np.flatnonzero(colsums < 1.0 - _COLSUM_TOL))
    reach = (m[sorted(int(s) for s in support)] > 0.0).any(axis=0)
    return a_plus, a_minus, reach, colsums


def boundary_analysis(
    shifted: MarkovKernel,
    pi: Distribution,
    support,
) -> BoundaryAnalysis:
    """Locate the extremes of the invariant measure on the column boundary.

    `support` is the set of rows where the underlying kernel was perturbed;
    everything reachable from it in one shifted step is the boundary, and
    the imbalanced columns never leave it.
    """
    if not is_irreducible(shifted):
        raise NotIrreducible("boundary analysis needs an irreducible shifted kernel")
    w = pi.weights
    if float(np.max(w) - np.min(w)) <= _COLSUM_TOL:
        raise UniformMeasure("invariant measure is uniform; no extremes to locate")
    a_plus, a_minus, reach, _ = _imbalance_and_reach(shifted.dense(), support)
    boundary = tuple(int(i) for i in np.flatnonzero(reach))
    # the extreme values must be attained inside the imbalanced sets, but
    # other states may tie them exactly (e.g. under a symmetry of pi), so
    # the arg-picks go to the lowest-indexed attainer within each set
    top, bot = float(np.max(w)), float(np.min(w))
    tol = 1e-10 * top
    plus_hits = [i for i in a_plus if w[i] >= top - tol]
    minus_hits = [i for i in a_minus if w[i] <= bot + tol]
    if not plus_hits:
        raise BoundViolated("maximum of the invariant measure escaped a_plus")
    if not minus_hits:
        raise BoundViolated("minimum of the invariant measure escaped a_minus")
    return BoundaryAnalysis(a_plus, a_minus, boundary, plus_hits[0], minus_hits[0])


PivotChoice = Union[Callable[[int, int], int], dict]


def minmax_ratio_bound(
    shifted: MarkovKernel,
    pi: Distribution,
    support,
    pivot: Optional[PivotChoice] = None,
) -> float:
    """Ratio bound max pi <= C min pi from one-step column comparisons.

    For a surplus column x, a deficit column y and a pivot state b with
    shifted(b, x) > 0, shifted(b, y) > 0 and positive leftovers
    1 - sum_{z != b} shifted(z, .), the invariant measure satisfies
    pi(x) <= ratio(x, y; b) pi(y).  C is the worst ratio over all such
    pairs; passing no pivot selects the best valid pivot for each pair.
    Uniform pi is vacuous and certifies C = 1.
    """
    w = pi.weights
    if float(np.max(w) - np.min(w)) <= _COLSUM_TOL:
        return 1.0
    m = shifted.dense()
    a_plus, a_minus, reach, colsums = _imbalance_and_reach(m, support)
    if not all(reach[i] for i in (*a_plus, *a_minus)):
        raise ValueError("support does not cover the imbalanced columns")
    worst = 1.0
    for x in a_plus:
        for y in a_minus:
            if pivot is None:
                best = math.inf
                for b in range(shifted.size):
                    r = _pivot_ratio(m, colsums, b, x, y)
                    if r is not None:
                        best = min(best, r)
                if math.isinf(best):
                    raise InvalidPivot(f"no valid pivot for the pair ({x}, {y})")
                ratio = best
            else:
                b = pivot[(x, y)] if isinstance(pivot, dict) else pivot(x, y)
                r = _pivot_ratio(m, colsums, int(b), x, y)
                if r is None:
                    raise InvalidPivot(
                        f"pivot {b} fails the positivity conditions for ({x}, {y})"
                    )
                ratio = r
            worst = max(worst, ratio)
    if float(np.max(w)) > worst * float(np.min(w)) + 1e-10:
        raise BoundViolated("measured max/min ratio exceeds the pivot bound")
    return worst


def _pivot_ratio(m, colsums, b, x, y) -> Optional[float]:
    kbx = m[b, x]
    kby = m[b, y]
    leftover_x = 1.0 - (colsums[x] - kbx)
    leftover_y = 1.0 - (colsums[y] - kby)
    if kbx <= 0.0 or kby <= 0.0 or leftover_x <= 0.0 or leftover_y <= 0.0:
        return None
    return float((kbx * leftover_y) / (kby * leftover_x))

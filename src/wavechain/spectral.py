"""Spectral analysis: stationarity, weighted singular values, Dirichlet forms.

A kernel K acting between weighted spaces l2(mu_in) -> l2(mu_out) has the
Euclidean avatar  B = D_out^{1/2} K D_in^{-1/2}; the weighted singular
triples are read off the SVD of B, and the values alone, every sigma the
package consumes, off its values-only SVD (`_singular_values`).
When mu_out K = mu_in the top triple is exactly (1, const, const); above
DENSE_LIMIT states the path deflates that pair analytically and finds the
next one by thick-restart Lanczos in numpy (Wu and Simon, SIAM J. Matrix
Anal. Appl. 22, 2000), on products taken straight from the kernel's CSR
triple.  No scipy is needed at any size.

There is one graph search, `_search_levels`, a breadth-first search in
numpy over the kernel's CSR triple, which holds its positive entries only.
`_period_or_none` gives irreducibility and the period as one value; on a
reducible kernel `_closed_class` descends to a closed class, and the two
give every merging verdict (`_merging_obstruction`).  `core._densifiable`
picks the SVD path and the stationary solve's start; this module reads no
limit.  Invariant measures have one solver, `_shifted_stationary_weights`,
which only solves: it takes shifted kernels of one base that its caller
knows to be irreducible, a batch at a time, with one stacked direct solve
up to DENSE_LIMIT states (a uniform start above it) and a damped
refinement of each on CSR products (`core._vec_mat`).
`stationary_distribution` checks irreducibility and is its batch of one.
"""
from __future__ import annotations

from typing import Callable, Literal, Optional, Sequence

import numpy as np

from .core import (
    Distribution,
    MarkovKernel,
    _densifiable,
    _mat_vec,
    _record,
    _renormalize,
    _triplets,
    _vec_mat,
    make_kernel,
)
from .errors import (
    FlowMismatch,
    NotConverged,
    NotIrreducible,
    NotSelfAdjoint,
    NotSymmetric,
    SpaceMismatch,
    StabilityNotCertified,
    ZeroWeight,
)

_STATIONARY_TOL = 1e-12
_STATIONARY_MAX_STEPS = 100_000


def _edges(kernel: MarkovKernel) -> tuple[np.ndarray, np.ndarray]:
    """(tails, heads) of the kernel's entries, all of them positive."""
    return _triplets(kernel)[:2]


def _search_levels(n: int, tails: np.ndarray, heads: np.ndarray, start: int) -> np.ndarray:
    """Breadth-first levels from state `start` along the edges
    tails[k] -> heads[k], -1 at the states it never reaches.  Each level is
    one numpy pass over the whole edge list: fewer calls per level than
    gathering the frontier's rows, which is what the many searches on small
    kernels pay for."""
    level = np.full(n, -1, dtype=np.int64)
    level[start] = 0
    frontier = level == 0
    depth = 0
    while True:
        reached = heads[frontier[tails]]
        reached = reached[level[reached] < 0]
        if not reached.size:
            return level
        depth += 1
        level[reached] = depth
        frontier = level == depth


def _period_or_none(kernel: MarkovKernel) -> Optional[int]:
    """The period, or None when the support graph is not strongly connected:
    some state is unreached from state 0, forward or along the reversed
    edges.  Each edge (u, v) closes a cycle of length level(u) + 1 - level(v)
    modulo the period, for the forward breadth-first levels."""
    tails, heads = _edges(kernel)
    level = _search_levels(kernel.size, tails, heads, 0)
    if level.min() < 0 or _search_levels(kernel.size, heads, tails, 0).min() < 0:
        return None
    # the edge into state 0 adds level(u) + 1 >= 1 to the gcd
    return int(np.gcd.reduce(level[tails] + 1 - level[heads]))


def is_irreducible(kernel: MarkovKernel) -> bool:
    """True when the support graph is strongly connected (`_period_or_none`)."""
    return _period_or_none(kernel) is not None


def period(kernel: MarkovKernel) -> int:
    """Period of an irreducible kernel: gcd of cycle lengths through state 0
    (`_period_or_none`); NotIrreducible on a reducible one."""
    per = _period_or_none(kernel)
    if per is None:
        raise NotIrreducible("period is only defined per communicating class")
    return per


def _closed_class(kernel: MarkovKernel) -> tuple[bool, int, bool]:
    """(sole, period, rest_acyclic) of a closed class of a reducible kernel:
    whether every state reaches it, so that it is the only closed class;
    its period, by the gcd rule of `_period_or_none` on its own edges; and
    whether the states outside it span no cycle.

    The descent starts at state 0.  While some state the start reaches
    cannot reach back, the start moves to such a state at the largest
    forward level, the lowest index on ties.  Each move goes strictly down
    the graph of communicating classes, so the descent ends, at a start
    whose reached set is its own class, closed."""
    n = kernel.size
    tails, heads = _edges(kernel)
    start = 0
    while True:
        level = _search_levels(n, tails, heads, start)
        back = _search_levels(n, heads, tails, start)
        escapes = np.flatnonzero((level >= 0) & (back < 0))
        if not escapes.size:
            break
        start = int(escapes[np.argmax(level[escapes])])
    inside = level >= 0
    own = inside[tails]
    per = int(np.gcd.reduce(level[tails[own]] + 1 - level[heads[own]]))
    # peel off the outside states that no other outside state enters; a
    # cycle keeps its states
    rest = ~inside
    while True:
        entered = np.bincount(heads[rest[tails] & rest[heads]], minlength=n) > 0
        sources = rest & ~entered
        if not sources.any():
            return bool(back.min() >= 0), per, not rest.any()
        rest &= ~sources


def _merging_obstruction(kernel: MarkovKernel, metric: Optional[str] = None) -> Optional[str]:
    """Why the powers of kernel cannot merge under `metric` (any, when None):
    "periodic", "reducible" or None.  On a reducible kernel total variation
    merges exactly when there is one closed class and it is aperiodic
    (`_closed_class`).  Relative-sup and chi-square also need the states
    outside it to span no cycle: a walk around one keeps a column of every
    power positive in some row, and the closed class's rows are zero there."""
    per = _period_or_none(kernel)
    if per is not None:
        return None if per == 1 else "periodic"
    if metric is None:
        return "reducible"
    sole, class_period, rest_acyclic = _closed_class(kernel)
    merges = sole and class_period == 1 and (rest_acyclic or metric == "total_variation")
    return None if merges else "reducible"


def _bordered_solves(base: MarkovKernel, fwd: np.ndarray) -> np.ndarray:
    """Row k solves pi (M_k - I) = 0 with its last equation replaced by
    sum(pi) = 1, M_k being base shifted by the forward map fwd[k]: one
    stacked LAPACK solve, each system as the lone one would be."""
    rows, cols, data = _triplets(base)
    k, n = fwd.shape
    a = np.zeros((k, n, n))
    a[np.arange(k)[:, None], fwd[:, cols], rows] = data  # a[k] = M_k^T
    diagonal = np.arange(n)
    a[:, diagonal, diagonal] -= 1.0
    a[:, -1, :] = 1.0
    b = np.zeros((k, n, 1))
    b[:, -1] = 1.0
    return np.linalg.solve(a, b)[..., 0]


def _refined(pi: np.ndarray, vec_mat: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """A start vector refined by damped steps pi <- (pi + pi K) / 2, with
    pi K = vec_mat(pi), until the residual max_x |(pi K - pi)(x)| is at
    most 1e-12; NotConverged if _STATIONARY_MAX_STEPS steps do not get
    there."""
    pi = _renormalize(pi)
    for _ in range(_STATIONARY_MAX_STEPS):
        step = vec_mat(pi)
        if float(np.max(np.abs(step - pi))) <= _STATIONARY_TOL:
            break
        # lazy damping keeps the iteration convergent for periodic kernels
        pi = 0.5 * (pi + step)
        pi = pi / pi.sum()
    else:
        raise NotConverged("damped refinement failed to reach the residual target")
    return pi / pi.sum()


def stationary_distribution(kernel: MarkovKernel) -> Distribution:
    """Invariant probability vector of an irreducible kernel.

    NotIrreducible is raised when its support graph is not strongly
    connected (`_period_or_none`); otherwise it is the batch of one of
    `_shifted_stationary_weights`, the kernel shifted by the identity map,
    and NotConverged is raised when the refinement does not reach its
    residual target.
    """
    if _period_or_none(kernel) is None:
        raise NotIrreducible("stationary distribution needs an irreducible kernel")
    pi = _shifted_stationary_weights(kernel, [np.arange(kernel.size)])[0]
    return Distribution(kernel.space, pi)


# Entries of one stack of shifted kernels in `_shifted_stationary_weights`.
_STACK_ENTRIES = 1 << 17


def _shifted_stationary_weights(
    base: MarkovKernel, forwards: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """For each forward map g, the invariant weights of the shifted kernel
    base(x, g^{-1} y), which the caller knows to be irreducible.

    The maps go in batches of at most _STACK_ENTRIES kernel entries, each
    one stacked direct solve up to DENSE_LIMIT states (a start from the
    uniform vector above it).  `_refined` then refines each solution
    against its own shifted kernel with the base's CSR product
    `core._vec_mat`.  `stationary_distribution` is the batch of one, the
    identity map.
    """
    n = base.size
    per_batch = max(1, _STACK_ENTRIES // (n * n))
    out = []
    for lo in range(0, len(forwards), per_batch):
        fwd = np.asarray(forwards[lo : lo + per_batch], dtype=np.int64)
        inv = np.argsort(fwd, axis=1)
        if _densifiable(base):
            pis = _bordered_solves(base, fwd)
        else:
            pis = np.full((len(inv), n), 1.0 / n)
        # x K[:, cols] is (x K)[cols]
        out += [_refined(pi, lambda x: _vec_mat(x, base)[cols]) for pi, cols in zip(pis, inv)]
    return out


@_record
class SpectralDecomposition:
    """Weighted singular triples of a kernel between two weighted spaces.

    Column j of `right_basis` (phi_j) and `left_basis` (psi_j) satisfy
    K phi_j = sigma_j psi_j; each basis is orthonormal in its own weighted
    inner product.  The bases may hold fewer columns than states when only
    the leading triples were computed.
    """

    singular_values: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray
    mu_in: Distribution
    mu_out: Distribution


def _check_positive(mu: Distribution, name: str) -> np.ndarray:
    w = mu.weights
    if np.any(w <= 0.0):
        raise ZeroWeight(f"{name} must be strictly positive everywhere")
    return w


def _avatar(
    kernel: MarkovKernel, mu_in: Distribution, mu_out: Distribution
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(sqrt(mu_in), sqrt(mu_out), B) after checking both measures: the
    Euclidean avatar B = D_out^{1/2} K D_in^{-1/2} where
    `core._densifiable` admits the kernel, None otherwise."""
    win = _check_positive(mu_in, "mu_in")
    wout = _check_positive(mu_out, "mu_out")
    if mu_in.space != kernel.space or mu_out.space != kernel.space:
        raise SpaceMismatch("measures live on a different space than the kernel")
    sin = np.sqrt(win)
    sout = np.sqrt(wout)
    if not _densifiable(kernel):
        return sin, sout, None
    rows, cols, data = _triplets(kernel)
    b = np.zeros((kernel.size, kernel.size))
    b[rows, cols] = sout[rows] * data / sin[cols]
    return sin, sout, b


def weighted_singular_values(
    kernel: MarkovKernel,
    mu_in: Distribution,
    mu_out: Distribution,
) -> SpectralDecomposition:
    """Singular value decomposition of K: l2(mu_in) -> l2(mu_out).

    `_avatar` picks the method.  Up to DENSE_LIMIT states the
    decomposition is full.  Above it only the leading two triples are
    computed: the known (1, const, const) triple is deflated
    analytically and the next one is the top eigenpair of the deflated Gram
    operator B^T B of the Euclidean avatar, found by thick-restart Lanczos
    (`_top_eigenvector`) from a fixed start vector, with numpy products on
    the CSR triple.  That shortcut requires mu_out K = mu_in, which is
    checked (FlowMismatch otherwise); NotConverged is raised if the Lanczos
    product budget runs out before the residual reaches machine precision.
    """
    sin, sout, b = _avatar(kernel, mu_in, mu_out)
    if b is None:
        return _top_two_decomposition(kernel, mu_in, mu_out, sin, sout)
    u, s, vt = np.linalg.svd(b)
    v = vt.T
    # fix an overall sign per triple: make the heaviest entry of phi positive
    flip = v[np.argmax(np.abs(v), axis=0), np.arange(kernel.size)] < 0
    v[:, flip] = -v[:, flip]
    u[:, flip] = -u[:, flip]
    left = u / sout[:, None]
    right = v / sin[:, None]
    return SpectralDecomposition(s, left, right, mu_in, mu_out)


def _singular_values(
    kernel: MarkovKernel, mu_in: Distribution, mu_out: Distribution
) -> np.ndarray:
    """The singular values of `weighted_singular_values`, without the bases:
    all of them from LAPACK's values-only SVD up to DENSE_LIMIT states,
    which holds no N x N basis, and above it the top two of the same
    Lanczos path, bit for bit."""
    sin, sout, b = _avatar(kernel, mu_in, mu_out)
    if b is None:
        return _top_two_decomposition(kernel, mu_in, mu_out, sin, sout).singular_values
    return np.linalg.svd(b, compute_uv=False)


def _top_two_decomposition(kernel, mu_in, mu_out, sin, sout) -> SpectralDecomposition:
    flow = _vec_mat(mu_out.weights, kernel)
    if float(np.max(np.abs(flow - mu_in.weights))) > 1e-10:
        raise FlowMismatch(
            "large-space singular values need mu_out K = mu_in for the analytic top triple"
        )
    v0 = sin  # unit top right singular vector of the avatar

    def avatar(w):
        return sout * _mat_vec(kernel, w / sin)

    def deflated_gram(w):
        # P B^T B P w with P = I - v0 v0^T; projecting on both sides keeps
        # the computed operator symmetric to rounding
        w = w - (v0 @ w) * v0
        btbw = _vec_mat(avatar(w) * sout, kernel) / sin
        return btbw - (v0 @ btbw) * v0

    rng = np.random.default_rng(0x5EED)
    start = rng.standard_normal(kernel.size)
    start -= (v0 @ start) * v0
    if not np.any(deflated_gram(start)):
        # the deflated operator vanishes: the top triple is the only one
        w = np.zeros(kernel.size)
    else:
        # on a numerically zero operator the Ritz vector may leave the
        # deflated subspace, so project it back before reading sigma_1
        w = _top_eigenvector(deflated_gram, start, kernel.size - 1)
        w = w - (v0 @ w) * v0
        w /= np.linalg.norm(w)
        # fix the overall sign as the dense path does: heaviest entry positive
        if w[int(np.argmax(np.abs(w)))] < 0:
            w = -w
    bw = avatar(w)
    sigma1 = float(np.linalg.norm(bw))
    u1 = bw / sigma1 if sigma1 > 0 else np.zeros_like(bw)
    values = np.array([1.0, sigma1])
    left = np.column_stack([sout / sout, u1 / sout])  # first column is constant 1
    right = np.column_stack([sin / sin, w / sin])
    return SpectralDecomposition(values, left, right, mu_in, mu_out)


# Thick-restart Lanczos in `_top_eigenvector`: basis size, Ritz vectors
# kept at each restart, and the budget of operator products.  Sticky-7
# stops within the first basis (32-38 products), cyclic-to-random n=7
# after 7; the lazy cycle on 4500 states, whose top eigenvalue is double
# and 2.9e-6 from the next, takes about 5100 (2.5 s on one core).
_LANCZOS_BASIS = 40
_LANCZOS_KEEP = 12
_LANCZOS_MAX_PRODUCTS = 20_000
_EPS = float(np.finfo(np.float64).eps)


def _top_eigenvector(
    op: Callable[[np.ndarray], np.ndarray], start: np.ndarray, rank: int
) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue of the symmetric positive
    semidefinite operator `op`, whose range has dimension at most `rank`.

    Thick-restart Lanczos (Wu and Simon 2000) from `start`: a basis of
    _LANCZOS_BASIS vectors, each orthogonalized twice against all earlier
    ones, is reduced by Rayleigh-Ritz; the top _LANCZOS_KEEP Ritz vectors
    and the residual direction start the next basis.  After each product
    it stops when the top Ritz pair's residual norm is at most machine
    epsilon times its Ritz value, which a basis spanning an invariant
    subspace passes at once, or when the basis holds `rank` vectors;
    NotConverged once _LANCZOS_MAX_PRODUCTS products do not get there.
    """
    m = min(_LANCZOS_BASIS, rank)  # a restart comes only after a full basis
    k = _LANCZOS_KEEP
    basis = np.empty((m + 1, start.size))
    basis[0] = start / np.linalg.norm(start)
    h = np.zeros((m, m))  # the operator projected on the basis
    first = products = 0
    while True:
        for j in range(first, m):
            if products == _LANCZOS_MAX_PRODUCTS:
                raise NotConverged(
                    f"Lanczos found no second singular triple in {products} products"
                )
            r = op(basis[j])
            products += 1
            q = basis[: j + 1]
            c = q @ r
            r -= c @ q
            again = q @ r
            r -= again @ q
            h[j, : j + 1] = h[: j + 1, j] = c + again
            beta = np.linalg.norm(r)
            theta, y = np.linalg.eigh(h[: j + 1, : j + 1])
            # beta |y[-1, -1]| is the residual norm of the top Ritz pair;
            # a basis of `rank` vectors spans the whole range
            if beta * abs(y[-1, -1]) <= _EPS * theta[-1] or j + 1 == rank:
                return y[:, -1] @ basis[: j + 1]
            basis[j + 1] = r / beta
        # restart from the top Ritz vectors and the residual direction,
        # with the projected operator diagonal on them
        basis[:k] = y[:, -k:].T @ basis[:m]
        basis[k] = basis[m]
        h[:] = 0.0
        h[np.arange(k), np.arange(k)] = theta[-k:]
        first = k


@_record
class EigenDecomposition:
    """Eigenvalues of a kernel with a diagonalizability verdict.

    `flag` is "diagonalizable", "defective" or "undetermined"; the verdict
    comes from the condition number of the eigenvector matrix with the
    undetermined band spanning a factor of ten around the 1e8 cutoff.
    """

    eigenvalues: np.ndarray
    flag: Literal["diagonalizable", "defective", "undetermined"]
    condition_number: float


def eigenvalues(kernel: MarkovKernel) -> EigenDecomposition:
    """Full eigenvalue list of a kernel `dense()` admits, by decreasing modulus."""
    vals, vecs = np.linalg.eig(kernel.dense())
    order = np.argsort(-np.abs(vals), kind="stable")
    vals = vals[order]
    if float(np.max(np.abs(vals))) > 1.0 + 1e-10:
        raise ValueError("stochastic matrix produced an eigenvalue above modulus 1")
    if float(np.min(np.abs(vals - 1.0))) > 1e-8:
        raise ValueError("stochastic matrix lost the eigenvalue 1")
    cond = float(np.linalg.cond(vecs))
    if cond < 1e7:
        flag = "diagonalizable"
    elif cond <= 1e9:
        flag = "undetermined"
    else:
        flag = "defective"
    return EigenDecomposition(vals, flag, cond)


def adjoint_kernel(kernel: MarkovKernel, mu_in: Distribution, mu_out: Distribution) -> np.ndarray:
    """Matrix of the adjoint K*(y, x) = mu_out(x) K(x, y) / mu_in(y)."""
    win = _check_positive(mu_in, "mu_in")
    wout = _check_positive(mu_out, "mu_out")
    m = kernel.dense()
    return (m * wout[:, None]).T / win[:, None]


@_record
class DirichletForm:
    """A self-adjoint stochastic generator M with its base measure.

    The associated energy is E(f, f) = <(I - M) f, f>_mu.
    """

    kernel: MarkovKernel
    measure: Distribution


def composite_form(kernel: MarkovKernel, mu: Distribution) -> DirichletForm:
    """Dirichlet form of K*K on l2(mu); needs mu invariant for K."""
    adj = adjoint_kernel(kernel, mu, mu)
    m = adj @ kernel.dense()
    return DirichletForm(make_kernel(kernel.space, m), mu)


def dirichlet_energy(form: DirichletForm, f: np.ndarray) -> float:
    """Energy <(I - M) f, f>_mu of a function against a self-adjoint form."""
    f = np.asarray(f, dtype=np.float64)
    mu = form.measure.weights
    m = form.kernel.dense()
    balance = mu[:, None] * m
    gap = float(np.max(np.abs(balance - balance.T)))
    if gap > 1e-10:
        raise NotSelfAdjoint(f"kernel is not mu-self-adjoint (gap {gap:.3e})")
    return float(mu @ ((f - m @ f) * f))


def check_nash_inequality(
    q: MarkovKernel,
    t_horizon: float,
    c1: float,
    d_exponent: float,
    trial_count: int = 1000,
    seed: int = 0,
) -> float:
    """Largest observed ratio of the two sides of a Nash inequality.

    The inequality under test, with norms in l2 of the uniform measure, is

        ||f||_2^(2 + 1/D) <= C1 T (E_{Q*Q}(f, f) + ||f||_2^2 / T) ||f||_1^(1/D)

    over random heavy-tailed functions, all indicators and all eigenvectors
    of Q*Q.  A return value <= 1 means no violation was found.
    """
    m = q.dense()
    if float(np.max(np.abs(m - m.T))) > 1e-12:
        raise NotSymmetric("Nash check expects a symmetric base kernel")
    n = q.size
    u = np.full(n, 1.0 / n)
    m2 = m @ m  # Q*Q = Q^2 for symmetric Q on the uniform measure
    _, vecs = np.linalg.eigh(m2)
    rng = np.random.default_rng(seed)
    trials = [rng.standard_cauchy(n) for _ in range(trial_count // 2)]
    trials += [rng.standard_normal(n) for _ in range(trial_count - trial_count // 2)]
    trials += [e for e in np.eye(n)]
    trials += [vecs[:, j] for j in range(n)]
    worst = 0.0
    for f in trials:
        norm2sq = float(u @ f**2)
        norm1 = float(u @ np.abs(f))
        energy = float(u @ ((f - m2 @ f) * f))
        lhs = norm2sq ** (1.0 + 0.5 / d_exponent)
        rhs = c1 * t_horizon * (energy + norm2sq / t_horizon) * norm1 ** (1.0 / d_exponent)
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    return worst


def second_singular_value_bound_gap(
    shifted: MarkovKernel,
    pi: Distribution,
    q: MarkovKernel,
    eps: float,
    c: float,
) -> tuple[float, float]:
    """Computed second singular value of the shifted kernel and its bound.

    The bound 1 - (1 - eps)^2 (1 - sigma1(Q)) / c^2 requires the stability
    hypothesis max pi <= c min pi, which is checked first.
    """
    w = _check_positive(pi, "pi")
    if float(np.max(w)) > c * float(np.min(w)) + 1e-10:
        raise StabilityNotCertified(
            f"max/min ratio {float(np.max(w) / np.min(w)):.6f} exceeds c={c}"
        )
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    computed = float(_singular_values(shifted, pi, pi)[1])
    uniform = Distribution.uniform(q.space)
    sigma1 = float(_singular_values(q, uniform, uniform)[1])
    bound = 1.0 - (1.0 - eps) ** 2 * (1.0 - sigma1) / c**2
    return computed, bound


def spectral_report_document(
    kernel: MarkovKernel,
    singular_values: np.ndarray,
    eigen: Optional[EigenDecomposition],
    stationary: Optional[Distribution],
) -> dict:
    """Plain-JSON summary used by the command line reports.

    "sigma" lists `singular_values` as given.  The command line passes the
    values of `_singular_values`: all of them up to DENSE_LIMIT states, from
    the values-only SVD, and the top two above it, from the Lanczos path
    (sticky n=6 lists 720, n=7 lists two).
    """
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

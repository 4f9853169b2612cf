"""One forward pass per walk of the chain: laws, windows and orbits.

`evolve`, `compose_window`, `verify_wave_identity`, `certify_stability`,
`sv_product_bound` and `permutation_order` each walk the chain through one
shared loop in `core`.  Each is checked for exact equality against the plain
loop it replaced, kept here as the reference: laws stepped on the base
kernel with a scatter and a gather per step, windows multiplied out per
call, `evolve` re-run from scratch for every n, and the `seen`-array cycle
walk.  `sv_product_bound` at the wave measure is the wave-bound formula
instead, and the per-step product only to rounding.
"""
import math

import numpy as np
import pytest
import scipy.sparse as sp

import wavechain as w
import wavechain.core as core
from wavechain import errors, spectral

STEPS = (0, 1, 2, 7, 50)
WINDOWS = ((0, 0), (0, 1), (0, 5), (3, 9), (2, 2))


# ------------------------------------------------------------ references

def reference_renormalize(v):
    v = np.where(v < 0.0, 0.0, v)
    return v / v.sum()


def scipy_csr(kernel):
    """The matrix the products ran on before numpy took them over: a scipy
    `csr_array`, whose vector product `_vec_mat` matches bit for bit."""
    indptr, indices, data = kernel.entries
    return sp.csr_array((data, indices, indptr), shape=(kernel.size, kernel.size))


def reference_evolve(mu0, system, n):
    mu = np.array(mu0.weights)
    gp = np.arange(system.space.size, dtype=np.int64)  # g^{i-1} for i = 1
    fwd = system.map.forward
    mat = scipy_csr(system.base)
    for _ in range(n):
        v = np.empty_like(mu)
        v[gp] = mu
        mu = (v @ mat)[gp]
        gp = fwd[gp]
    return reference_renormalize(mu)


def reference_window(system, n, m):
    size = system.space.size
    if size > w.DENSE_LIMIT:
        raise errors.TooLarge("window products are dense")
    out = np.eye(size)
    gp = system.map.power_map(n)
    base = system.base.dense()
    fwd = system.map.forward
    for _ in range(n + 1, m + 1):
        out = out @ base[np.ix_(gp, gp)]
        gp = fwd[gp]
    return out


def reference_identity(system, n_max):
    size = system.space.size
    if size > w.DENSE_LIMIT:
        raise errors.TooLarge("identity check is dense")
    base = system.base.dense()
    fwd = system.map.forward
    window = np.eye(size)
    gp = np.arange(size, dtype=np.int64)
    gn = np.arange(size, dtype=np.int64)
    worst = (0.0, 0, 0, 0)
    for first, block in core.power_blocks(system.shifted, n_max):
        for j in range(block.shape[1]):
            window = window @ base[np.ix_(gp, gp)]
            gp = fwd[gp]
            gn = fwd[gn]
            diff = np.abs(window - block[:, j][:, gn])
            x, y = np.unravel_index(int(np.argmax(diff)), diff.shape)
            if diff[x, y] > worst[0]:
                worst = (float(diff[x, y]), first + j, int(x), int(y))
    return worst


def reference_order(g):
    fwd = g.forward
    seen = np.zeros(g.space.size, dtype=bool)
    order = 1
    for start in range(g.space.size):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = fwd[x]
            length += 1
        order = math.lcm(order, length)
    return order


def reference_certify(system, mu0, horizon=None):
    pi = system.wave_measure_or_none()
    if pi is not None and float(np.max(np.abs(mu0.weights - pi.weights))) <= 1e-10:
        if np.any(mu0.weights <= 0.0):
            raise errors.ZeroWeight("positive start")
        wts = pi.weights
        fwd = system.map.forward
        best = (1.0, 0, 0)
        seen = np.zeros(system.space.size, dtype=bool)
        for start in range(system.space.size):
            if seen[start]:
                continue
            orbit = [start]
            seen[start] = True
            x = int(fwd[start])
            while x != start:
                seen[x] = True
                orbit.append(x)
                x = int(fwd[x])
            values = wts[orbit]
            hi = int(np.argmax(values))
            lo = int(np.argmin(values))
            ratio = float(values[hi] / values[lo])
            if ratio > best[0]:
                best = (ratio, orbit[lo], (hi - lo) % len(orbit))
        return best[0], (best[1], best[2]), True, system.order
    if horizon is None:
        raise ValueError("a horizon is required")
    if np.any(mu0.weights <= 0.0):
        raise errors.ZeroWeight("positive start")
    worst = (1.0, 0, 0)
    for n in range(1, horizon + 1):
        ratios = reference_evolve(mu0, system, n) / mu0.weights
        for idx in (int(np.argmax(ratios)), int(np.argmin(ratios))):
            r = float(ratios[idx])
            r = max(r, 1.0 / r) if r > 0 else math.inf
            if r > worst[0]:
                worst = (r, idx, n)
    return worst[0], (worst[1], worst[2]), False, horizon


def at_the_wave_measure(system, mu0):
    pi = system.wave_measure_or_none()
    return pi is not None and float(np.max(np.abs(mu0.weights - pi.weights))) <= 1e-12


def reference_sv_product(system, mu0, x, z, n):
    # the per-step product, each sigma_1 from the values path
    if at_the_wave_measure(system, mu0):
        mus = [w.wave_measures(system, i) for i in range(n + 1)]
    else:
        mus = [mu0] + [
            w.Distribution(system.space, reference_evolve(mu0, system, i))
            for i in range(1, n + 1)
        ]
    product = 1.0
    for i in range(1, n + 1):
        if np.any(mus[i].weights <= 0.0) or np.any(mus[i - 1].weights <= 0.0):
            raise errors.ZeroWeight("positive step measures")
        sigmas = spectral._singular_values(w.kernel_at(system, i), mus[i], mus[i - 1])
        product *= float(sigmas[1])
    w0, wn = mus[0].weights, mus[n].weights
    if w0[x] <= 0.0 or wn[z] <= 0.0:
        raise errors.ZeroWeight("positive endpoints")
    return float(math.sqrt(1.0 / w0[x] - 1.0) * math.sqrt(1.0 / wn[z] - 1.0) * product)


def reference_wave_bound(system, x, z, n):
    """The wave-bound formula from pi, g^n and the shifted kernel's sigma_1."""
    pi = system.wave_measure
    sigma = float(spectral._singular_values(system.shifted, pi, pi)[1])
    gnz = int(system.map.power_map(n)[z])
    wts = pi.weights
    return float(math.sqrt(1.0 / wts[x] - 1.0) * math.sqrt(1.0 / wts[gnz] - 1.0) * sigma**n)


# ------------------------------------------------------------ systems

def circle_system(n):
    base, _ = w.circle_kernel(n, 1.0)
    return w.make_wave_system(base, w.circle_shift(n, -1))


@pytest.fixture(scope="module")
def zoo():
    return zoo_systems()


def zoo_systems():
    systems = {f"circle-{n}": circle_system(n) for n in (5, 9, 41, 101)}
    systems.update(
        {
            "deck-reversal-5": w.deck_reversal_system(5),
            "sticky-6": w.sticky_permutation_system(6, tuple(range(6)), 0.1),
            "sticky-7": w.sticky_permutation_system(7, tuple(range(7)), 0.3),
            "binary-cycling-4": w.binary_cycling_system(4),
            "four-point": w.four_point_example(),
            "periodic-classes": w.periodic_class_example(3, 2),
            "cyclic-to-random-5": w.cyclic_to_random_system(5),
        }
    )
    assert systems["sticky-7"].space.size > w.DENSE_LIMIT
    return systems


def starts(system):
    """Uniform, a point mass and a random positive start."""
    size = system.space.size
    rng = np.random.default_rng(size)
    return [
        w.Distribution.uniform(system.space),
        w.Distribution.point_mass(system.space, size - 1),
        w.Distribution(system.space, (v := rng.random(size) + 0.1) / v.sum()),
    ]


def outcome(fn, *args):
    """A call's value, or the type of the error it raised."""
    try:
        return fn(*args)
    except (errors.WavechainError, ValueError) as exc:
        return type(exc)


def assert_same(got, want):
    if isinstance(want, type):
        assert got is want
    else:
        assert np.array_equal(got, want)


# ------------------------------------------------------------ equivalence

def test_evolve_matches_the_base_kernel_loop(corpus, zoo):
    for s in [*corpus, *zoo.values()]:
        for mu0 in starts(s):
            for n in STEPS:
                assert np.array_equal(w.evolve(mu0, s, n).weights, reference_evolve(mu0, s, n))


def test_compose_window_matches_the_product_loop(corpus, zoo):
    for s in [*corpus, *zoo.values()]:
        for n, m in WINDOWS:
            got = outcome(lambda: w.compose_window(s, n, m).dense())
            assert_same(got, outcome(reference_window, s, n, m))


def test_verify_wave_identity_matches_the_inline_loop(corpus, zoo):
    for s in [*corpus, *zoo.values()]:
        n_max = 3 if s.space.size > 200 else 12
        got = outcome(lambda: tuple(vars(w.verify_wave_identity(s, n_max)).values()))
        assert_same(got, outcome(reference_identity, s, n_max))


def test_permutation_order_matches_the_seen_array_walk(corpus, zoo):
    for s in [*corpus, *zoo.values()]:
        assert w.permutation_order(s.map) == reference_order(s.map) == s.order


def certificate(system, mu0, horizon=None):
    cert = w.certify_stability(system, mu0, horizon)
    return cert.c, cert.witness, cert.periodic, cert.horizon


def test_certify_stability_matches_both_reference_paths(corpus, zoo):
    periodic = horizon = 0
    for s in [*corpus, *zoo.values()]:
        pi = s.wave_measure_or_none()
        if pi is not None:
            got = outcome(certificate, s, pi)
            assert got == outcome(reference_certify, s, pi)
            periodic += not isinstance(got, type)
        for mu0 in starts(s):
            got = outcome(certificate, s, mu0, 30)
            assert got == outcome(reference_certify, s, mu0, 30)
            horizon += not isinstance(got, type) and not got[2]
    assert periodic > 150 and horizon > 300  # both paths are exercised


def check_sv_product_bound(s, mu0, x, z, n):
    """Off the wave measure the bound is the per-step product bit for bit.
    At it, the step kernels are row and column permutations of the shifted
    kernel, which LAPACK rounds differently, so the bound is the wave-bound
    formula bit for bit and the per-step product to relative 1e-13."""
    got = outcome(w.sv_product_bound, s, mu0, x, z, n)
    product = outcome(reference_sv_product, s, mu0, x, z, n)
    if not at_the_wave_measure(s, mu0) or isinstance(product, type):
        assert_same(got, product)
        return
    assert_same(got, outcome(reference_wave_bound, s, x, z, n))
    assert got == pytest.approx(product, rel=1e-13, abs=0.0)


def test_sv_product_bound_matches_the_reference(corpus, zoo):
    systems = [*corpus, *(s for s in zoo.values() if s.space.size <= 200)]
    at_wave = 0
    for s in systems:
        pi = s.wave_measure_or_none()
        mus = starts(s) + ([pi] if pi is not None else [])
        for mu0 in mus:
            at_wave += at_the_wave_measure(s, mu0)
            for n in (0, 1, 4):
                check_sv_product_bound(s, mu0, 0, s.space.size - 1, n)
    assert at_wave > 150  # both paths are exercised


def test_sv_product_bound_on_the_sparse_sticky_seven(zoo):
    s = zoo["sticky-7"]
    for mu0 in (s.wave_measure, starts(s)[2]):
        for n in (0, 2):
            check_sv_product_bound(s, mu0, 0, 1, n)


# ------------------------------------------------------------ one pass

@pytest.mark.parametrize("horizon", [10, 40])
def test_certify_stability_takes_one_kernel_step_per_horizon_step(horizon, monkeypatch):
    s = circle_system(41)
    s.wave_measure  # a warm cache keeps the stationary solve out of the count
    mu0 = w.Distribution.uniform(s.space)
    stepped = []
    vec_mat = core._vec_mat
    monkeypatch.setattr(core, "_vec_mat", lambda x, k: stepped.append(k) or vec_mat(x, k))
    cert = w.certify_stability(s, mu0, horizon=horizon)
    assert len(stepped) == horizon  # not horizon (horizon + 1) / 2
    assert all(k is s.shifted for k in stepped)
    assert (cert.c, cert.witness) == reference_certify(s, mu0, horizon)[:2]

import numpy as np
import pytest

import wavechain as w
import wavechain.cli as cli
import wavechain.models as models
import wavechain.spectral as spectral
from wavechain import errors
from wavechain.groups import transposition

from peak_memory import traced_peak


def circle_system(n=9, eps=1.0, shift=-1):
    base, _ = w.circle_kernel(n, eps)
    return w.make_wave_system(base, w.circle_shift(n, shift))


def test_uniform_weighted_svd_matches_plain_svd():
    rng = np.random.default_rng(2)
    m = rng.random((6, 6)) + 0.05
    m /= m.sum(axis=1, keepdims=True)
    k = w.make_kernel(w.StateSpace(6), m)
    u = w.Distribution(k.space, np.full(6, 1 / 6))
    dec = w.weighted_singular_values(k, u, u)
    plain = np.linalg.svd(m, compute_uv=False)
    assert np.max(np.abs(np.sort(dec.singular_values) - np.sort(plain))) < 1e-12


def test_top_singular_value_is_one():
    s = circle_system()
    pi = s.wave_measure
    dec = w.weighted_singular_values(s.shifted, pi, pi)
    assert float(np.max(dec.singular_values)) == pytest.approx(1.0, abs=1e-12)


def test_singular_values_transport_along_the_wave(merging_corpus):
    """Every step kernel has the spectrum of the shifted kernel."""
    s = merging_corpus[0]
    pi = s.wave_measure
    ref = np.sort(
        w.weighted_singular_values(s.shifted, pi, pi).singular_values
    )
    for i in range(1, s.order + 1):
        # K_i averages functions on the i-th measure into functions on
        # the (i-1)-th, so the domain measure is the later one
        mu_in = w.wave_measures(s, i)
        mu_out = w.wave_measures(s, i - 1)
        got = np.sort(
            w.weighted_singular_values(
                w.kernel_at(s, i), mu_in, mu_out
            ).singular_values
        )
        assert np.max(np.abs(got - ref)) < 1e-10


def test_top_two_sparse_path_agrees_with_dense(dense_limit):
    s = circle_system()
    pi = s.wave_measure
    with dense_limit(0):
        # the top-two path and the CSR products above the limit
        top = w.weighted_singular_values(s.shifted, pi, pi).singular_values
    full = np.sort(
        w.weighted_singular_values(s.shifted, pi, pi).singular_values
    )[::-1]
    assert np.max(np.abs(top - full[:2])) < 1e-9


def test_transpose_top_second_singular_value():
    # second singular value 1 - 1/n for the cyclic-to-random chain
    for n in (4, 5):
        s = w.cyclic_to_random_system(n)
        pi = s.wave_measure
        sv = np.sort(
            w.weighted_singular_values(s.shifted, pi, pi).singular_values
        )[::-1]
        assert sv[1] == pytest.approx(1 - 1 / n, abs=1e-8)
        assert np.max(np.abs(pi.weights - 1 / s.space.size)) < 1e-12


def test_lazy_transpose_top_second_singular_value():
    n = 4
    weights = {transposition(n, 0, j): 1 / (2 * n) for j in range(1, n)}
    weights[tuple(range(n))] = (n + 1) / (2 * n)
    k = w.group_walk_kernel(w.GroupWalkSpec(n, weights))
    u = w.Distribution(k.space, np.full(k.size, 1 / k.size))
    sv = np.sort(w.weighted_singular_values(k, u, u).singular_values)[::-1]
    assert sv[1] == pytest.approx(1 - 1 / (2 * n), abs=1e-8)


def test_zero_mass_states_are_rejected():
    s = circle_system(5)
    bad = w.Distribution(s.space, np.array([0.0, 0.5, 0.5, 0.0, 0.0]))
    with pytest.raises(errors.ZeroWeight):
        w.weighted_singular_values(s.shifted, bad, bad)


def test_adjoint_kernel_pairing_identity():
    s = circle_system(7)
    pi = s.wave_measure
    adj = w.adjoint_kernel(s.shifted, pi, pi)
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = rng.standard_normal(7)
        g = rng.standard_normal(7)
        lhs = np.sum(pi.weights * (s.shifted.dense() @ f) * g)
        rhs = np.sum(pi.weights * f * (adj @ g))
        assert abs(lhs - rhs) < 1e-12


def test_dirichlet_energy_vanishes_on_constants():
    s = circle_system(9)
    form = w.composite_form(s.shifted, s.wave_measure)
    assert w.dirichlet_energy(form, np.ones(9)) < 1e-14
    assert w.dirichlet_energy(form, np.arange(9.0)) > 0.1


def test_dirichlet_energy_refuses_a_kernel_that_is_not_self_adjoint():
    # the directed 3-cycle keeps the uniform measure but is not reversible
    space = w.StateSpace(3)
    cycle = w.make_kernel(space, np.roll(np.eye(3), 1, axis=1))
    form = w.DirichletForm(cycle, w.Distribution(space, np.full(3, 1 / 3)))
    with pytest.raises(errors.NotSelfAdjoint):
        w.dirichlet_energy(form, np.arange(3.0))


def test_nash_check_requires_symmetry():
    base, _ = w.circle_kernel(5, 1.0)  # heavy edge is symmetric in
    # conductances but the kernel itself is not a symmetric matrix
    with pytest.raises(errors.NotSymmetric):
        w.check_nash_inequality(base, 100.0, 10.0, 0.25, trial_count=10)


def test_nash_check_on_simple_circle_walk():
    n = 7
    q = w.circle_perturbation_spec(n, 1.0).base
    t = 4.0 * (n + 1) ** 2
    ratio = w.check_nash_inequality(q, t, 2**7 * n**2 / t, 0.25,
                                    trial_count=200, seed=1)
    assert ratio <= 1.0


def test_gap_bound_hypothesis_guard():
    s = circle_system(9)
    pi = s.wave_measure
    spec = w.circle_perturbation_spec(9, 1.0)
    with pytest.raises(errors.StabilityNotCertified):
        w.second_singular_value_bound_gap(
            s.shifted, pi, spec.base, spec.epsilon, 0.5
        )


def test_gap_bound_on_the_circle():
    s = circle_system(9)
    pi = s.wave_measure
    spec = w.circle_perturbation_spec(9, 1.0)
    computed, bound = w.second_singular_value_bound_gap(
        s.shifted, pi, spec.base, spec.epsilon, 2.0
    )
    assert computed <= bound + 1e-10
    assert 0.9 < computed < 1.0


def test_eigen_containment_in_the_closed_window():
    s = circle_system(7)
    k = s.order
    alpha = w.eigenvalues(s.shifted).eigenvalues
    window_eigs = np.linalg.eigvals(w.compose_window(s, 0, k).dense())
    for a in alpha:
        assert np.min(np.abs(window_eigs - a**k)) < 1e-8


def test_spectral_report_document_shape():
    # the report entry the command line writes for `analyze spectral`
    s = circle_system(5)
    pi = s.wave_measure
    sigma = spectral._singular_values(s.shifted, pi, pi)
    doc = cli._spectral_document(s.shifted, sigma, w.eigenvalues(s.shifted), pi)
    assert set(doc) >= {"sigma", "eigenvalues", "stationary", "flags"}
    assert doc["flags"]["irreducible"] is True
    assert all(len(pair) == 2 for pair in doc["eigenvalues"])
    assert doc["sigma"][0] == pytest.approx(1.0)


@pytest.mark.xfail(strict=True, reason="a stationary mass below the solve's residual reads as 0")
def test_a_tiny_stationary_mass_keeps_its_relative_accuracy():
    # pi(0) = 2e-17 pi(2) by the first column's balance, and pi(1) likewise;
    # the bordered solve and its refinement stop at a 1e-12 absolute
    # residual, and give pi(0) = 0.0, so `wave_bound` raises ZeroWeight
    kernel = w.make_kernel(
        w.StateSpace(3), np.array([[0.5, 0.0, 0.5], [0.0, 0.5, 0.5], [1e-17, 1e-17, 1.0]])
    )
    want = np.array([2e-17, 2e-17, 1.0]) / (1.0 + 4e-17)
    got = w.stationary_distribution(kernel).weights
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_stationary_solve_is_direct_on_dense_slow_mixers(monkeypatch):
    # the heavy-edge circle walk of circle_kernel(2001, 1.0), built with numpy:
    # from the uniform start its damped iteration needs far more than the
    # step cap below, so only the direct solve gets there
    n = 2001
    m = np.zeros((n, n))
    x = np.arange(n)
    m[x, (x + 1) % n] = m[x, (x - 1) % n] = 0.5
    m[0, 1] = m[1, 0] = 2.0 / 3.0
    m[0, n - 1] = m[1, 2] = 1.0 / 3.0
    s = w.make_wave_system(w.make_kernel(w.StateSpace(n), m), w.circle_shift(n, -1))
    assert s.space.size <= w.DENSE_LIMIT
    monkeypatch.setattr(spectral, "_STATIONARY_MAX_STEPS", 100)
    pi = w.stationary_distribution(s.shifted)
    closed = w.tilde_pi_closed_form_shift_minus1(n, 1.0)
    assert np.max(np.abs(pi.weights - closed.weights)) < 1e-12


# ------------------------------------------------------------ values only

def assert_values_only_svd_matches(system, tol, ulps=2):
    pi = system.wave_measure
    got = spectral._singular_values(system.shifted, pi, pi)
    want = w.weighted_singular_values(system.shifted, pi, pi).singular_values
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol
    assert abs(got[0] - 1.0) <= ulps * np.spacing(1.0)


def test_values_only_svd_matches_the_full_decomposition_on_the_corpus(merging_corpus):
    # sigma_0 is 1 up to the SVD's backward error, a small multiple of N u
    # (LAPACK Users' Guide, section 4.9): N spacings of 1.0, that is 2 N u
    for system in merging_corpus:
        assert_values_only_svd_matches(system, 1e-13, ulps=system.space.size)


# sticky-6 reads sigma_0 = 1 + 3 ulps from the values-only SVD; the full
# SVD reads 1 + 4 ulps with one BLAS thread and 1 - 1.3e-15 with two
@pytest.mark.parametrize("build, ulps", [
    (lambda: circle_system(81), 2),
    (lambda: models.build_model("sticky", {"n": 6}), 4),
], ids=["circle-81", "sticky-6"])
def test_values_only_svd_matches_the_full_decomposition(build, ulps):
    assert_values_only_svd_matches(build(), 1e-13, ulps)


def test_values_only_svd_is_the_top_two_path_above_the_dense_limit():
    s = w.sticky_permutation_system(7, 0, 0.3)
    assert s.space.size > w.DENSE_LIMIT
    assert_values_only_svd_matches(s, 0.0)


def test_the_spectral_stage_holds_no_singular_bases():
    # the full SVD held U, V^T and the scaled bases at once, about 5 N^2
    # doubles at sticky-6; the values-only SVD holds the avatar alone
    s = models.build_model("sticky", {"n": 6})
    n = s.space.size
    s.wave_measure  # solved once and cached on the system
    assert traced_peak(lambda: cli._run_spectral(s, None, {})) < 2 * n * n * 8


@pytest.mark.parametrize("model, param, n", [
    ("sticky", "n=6", 720), ("binary-cycling", "bits=10", 1024),
], ids=["sticky-6", "binary-cycling-10"])
def test_an_analysis_keeps_no_dense_view_alive(model, param, n, tmp_path, capsys):
    # each dense operand is written from the CSR triple where it is used
    # and dropped after it, so no kernel's N x N view outlives its stage
    args = ["analyze", "--model", model, "--param", param,
            "--analyses", "spectral,stability,merging", "--out", str(tmp_path)]
    assert traced_peak(lambda: cli.main(args)) < 2.5 * n * n * 8
    assert capsys.readouterr().out.startswith("spectral: second singular value ")

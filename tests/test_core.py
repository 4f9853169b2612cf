import numpy as np
import pytest

import wavechain as w
from wavechain import core, errors
from conftest import random_system


def small_system(seed, size=5):
    rng = np.random.default_rng(seed)
    m = rng.random((size, size)) + 0.05
    m /= m.sum(axis=1, keepdims=True)
    g = [int(v) for v in rng.permutation(size)]
    space = w.StateSpace(size)
    return w.make_wave_system(
        w.make_kernel(space, m), w.make_permutation(space, g)
    )


def test_make_kernel_rejects_negative_entries():
    space = w.StateSpace(2)
    with pytest.raises(errors.NegativeEntry):
        w.make_kernel(space, [[1.2, -0.2], [0.5, 0.5]])


def test_make_kernel_reports_offending_row():
    space = w.StateSpace(3)
    bad = [[0.5, 0.5, 0.0], [0.2, 0.2, 0.2], [0.0, 0.0, 1.0]]
    with pytest.raises(errors.RowSumViolation) as exc:
        w.make_kernel(space, bad)
    assert "row 1" in str(exc.value)


@pytest.mark.parametrize("limit", [0, 4096])
def test_make_kernel_rejects_nan_entries(limit, dense_limit):
    # every comparison with NaN is False, so the row-sum test must be
    # written to fail on it, on a dense and on a sparse input, whichever
    # side of DENSE_LIMIT the kernel falls on
    import scipy.sparse as sp

    with dense_limit(limit):
        space = w.StateSpace(2)
        m = [[np.nan, 0.0], [0.0, 1.0]]
        for entries in (m, sp.csr_array(m)):
            with pytest.raises(errors.RowSumViolation):
                w.make_kernel(space, entries)


def test_distribution_rejects_nan_mass():
    with pytest.raises(errors.RowSumViolation):
        w.Distribution(w.StateSpace(2), np.array([np.nan, 1.0]))


@pytest.mark.parametrize("x", [-1, 5, 9])
def test_point_mass_refuses_a_state_off_the_space(x):
    # -1 once put the mass on the last state, and 5 raised a bare IndexError
    with pytest.raises(ValueError, match=f"^start state {x} is outside 0..4$"):
        w.Distribution.point_mass(w.StateSpace(5), x)
    assert w.Distribution.point_mass(w.StateSpace(5), 4).weights.tolist() == [0, 0, 0, 0, 1]
    with pytest.raises(TypeError):
        w.Distribution.point_mass(w.StateSpace(5), 1.5)  # never truncated to 1


def test_make_permutation_rejects_repeats():
    space = w.StateSpace(3)
    with pytest.raises(errors.NotBijective):
        w.make_permutation(space, [0, 0, 2])


@pytest.mark.parametrize("forward", [[0.5, 1.5, 2.5], [0.0, 1.0, 2.5], [np.nan, 1.0, 2.0]])
def test_make_permutation_rejects_images_that_are_not_integers(forward):
    with pytest.raises(errors.NotBijective):
        w.make_permutation(w.StateSpace(3), forward)


def test_make_permutation_accepts_integral_floats():
    g = w.make_permutation(w.StateSpace(3), [2.0, 0.0, 1.0])
    assert g.forward.tolist() == [2, 0, 1] and g.inverse.tolist() == [1, 2, 0]


def test_wave_system_requires_matching_spaces():
    k, _ = w.circle_kernel(5, 1.0)
    g = w.circle_shift(7, -1)
    with pytest.raises(errors.SpaceMismatch):
        w.make_wave_system(k, g)


def test_permutation_order_is_cycle_lcm():
    space = w.StateSpace(5)
    g = w.make_permutation(space, [1, 0, 3, 4, 2])  # 2-cycle and 3-cycle
    assert w.permutation_order(g) == 6


def test_shifted_kernel_composes_base_with_inverse_map():
    s = small_system(3)
    k = s.base.dense()
    ginv = s.map.inverse
    expected = k[:, ginv]  # column y pulls from g^-1(y)
    assert np.array_equal(s.shifted.dense(), expected)


def test_transport_kernel_conjugates_both_arguments():
    s = small_system(4)
    k = s.base.dense()
    for i in (1, 2, 5):
        gi = s.map.power_map(i - 1)
        expected = k[np.ix_(gi, gi)]
        assert np.array_equal(
            w.transport_kernel(s.base, s.map, i).dense(), expected
        )
        assert np.array_equal(w.kernel_at(s, i).dense(), expected)


def test_kernel_at_is_periodic_in_the_map_order():
    s = small_system(5)
    k = s.order
    for i in (1, 2, 3):
        assert np.array_equal(
            w.kernel_at(s, i).dense(), w.kernel_at(s, i + k).dense()
        )


def test_compose_window_multiplies_step_kernels():
    s = small_system(6)
    prod = w.kernel_at(s, 1).dense() @ w.kernel_at(s, 2).dense()
    assert np.allclose(w.compose_window(s, 0, 2).dense(), prod, atol=1e-14)


def test_compose_window_rejects_inverted_bounds():
    s = small_system(7)
    with pytest.raises(errors.WindowInverted):
        w.compose_window(s, 3, 1)


def test_window_product_reduces_to_shifted_powers():
    """K_{0,n}(x, y) equals the n-th shifted power at (x, g^n y)."""
    s = small_system(8)
    kt = s.shifted.dense()
    power = np.eye(s.space.size)
    for n in range(1, 11):
        power = power @ kt
        gn = s.map.power_map(n)
        window = w.compose_window(s, 0, n).dense()
        assert np.max(np.abs(window - power[:, gn])) < 1e-12


def test_verify_wave_identity_report():
    s = small_system(9)
    rep = w.verify_wave_identity(s, 12)
    assert rep.max_discrepancy < 1e-12
    assert 0 <= rep.x < s.space.size and 0 <= rep.y < s.space.size


def test_wave_measures_flow_through_the_step_kernels():
    s = small_system(10)
    pi = s.wave_measure.weights
    for i in range(1, s.order + 1):
        mu_prev = w.wave_measures(s, i - 1).weights
        mu_i = w.wave_measures(s, i).weights
        assert np.max(np.abs(mu_prev @ w.kernel_at(s, i).dense() - mu_i)) < 1e-12
        assert np.allclose(mu_i, pi[s.map.power_map(i)])
    assert np.array_equal(w.wave_measures(s, s.order).weights, pi)


def test_evolve_matches_window_product():
    s = small_system(11)
    mu0 = s.wave_measure
    out = w.evolve(mu0, s, 4).weights
    window = w.compose_window(s, 0, 4).dense()
    assert np.max(np.abs(mu0.weights @ window - out)) < 1e-13


def test_stationary_distribution_is_invariant():
    s = small_system(12)
    pi = w.stationary_distribution(s.shifted)
    assert abs(pi.weights.sum() - 1.0) < 1e-12
    assert np.max(np.abs(pi.weights @ s.shifted.dense() - pi.weights)) < 1e-12


def test_stationary_distribution_needs_irreducibility():
    space = w.StateSpace(4)
    m = np.eye(4)
    with pytest.raises(errors.NotIrreducible):
        w.stationary_distribution(w.make_kernel(space, m))


def test_period_of_directed_cycle():
    space = w.StateSpace(6)
    m = np.zeros((6, 6))
    m[np.arange(6), (np.arange(6) + 1) % 6] = 1.0
    k = w.make_kernel(space, m)
    assert w.is_irreducible(k)
    assert w.period(k) == 6


def assert_csr_triple(kernel):
    """`entries` is a read-only (indptr, indices, data) triple, columns
    ascending in each row."""
    indptr, indices, data = kernel.entries
    assert indptr.shape == (kernel.size + 1,) and indptr[0] == 0
    assert indices.shape == data.shape == (indptr[-1],)
    assert indices.dtype.kind == indptr.dtype.kind == "i" and data.dtype == np.float64
    assert not any(a.flags.writeable for a in kernel.entries)
    rows = np.repeat(np.arange(kernel.size), np.diff(indptr))
    assert np.all(np.diff(rows * kernel.size + indices) > 0)


def test_dense_limit_switches_the_matrix_view(dense_calls):
    import scipy.sparse as sp

    small = w.make_kernel(w.StateSpace(3), np.full((3, 3), 1 / 3))
    n = w.DENSE_LIMIT + 1
    large = w.make_kernel(w.StateSpace(n), sp.identity(n, format="csr"))
    for kernel in (small, large, w.binary_cycling_system(4).shifted,
                   w.binary_cycling_system(13).shifted):
        assert_csr_triple(kernel)
    # products run on the CSR triple at every size and build no dense view;
    # the view is built on request up to the limit, and refused above it
    x = np.arange(3.0)
    assert np.allclose(core._vec_mat(x, small), x @ np.full((3, 3), 1 / 3), rtol=1e-15)
    assert not dense_calls
    view = small.dense()
    assert len(dense_calls) == 1 and dense_calls[0] is view
    assert view.tobytes() == small.dense().tobytes() == np.full((3, 3), 1 / 3).tobytes()
    assert not view.flags.writeable
    x = np.arange(float(n))
    assert np.array_equal(core._vec_mat(x, large), x)
    with pytest.raises(errors.TooLarge, match=f"^refusing to densify a {n}-state kernel$"):
        large.dense()
    assert len(dense_calls) == 3 and dense_calls[2] is None  # the refusal built none


def test_the_dense_view_is_a_fresh_read_only_scatter(corpus):
    for kernel in [s.shifted for s in corpus[:20]] + [w.four_point_example().base]:
        dense = kernel.dense()
        # nothing is cached: each call scatters the triple again
        again = kernel.dense()
        assert not np.shares_memory(again, dense)
        assert again.tobytes() == dense.tobytes()
        assert not dense.flags.writeable and not again.flags.writeable
        assert set(vars(kernel)) == {"space", "entries"}
        indptr, indices, data = kernel.entries
        want = np.zeros((kernel.size, kernel.size))
        want[np.repeat(np.arange(kernel.size), np.diff(indptr)), indices] = data
        assert dense.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            dense[0, 0] = 1.0


def test_densify_guard_on_huge_sparse_kernels():
    import scipy.sparse as sp

    n = w.DENSE_LIMIT + 1
    k = w.make_kernel(w.StateSpace(n), sp.identity(n, format="csr"))
    for _ in range(2):  # a refusal caches nothing
        with pytest.raises(errors.TooLarge):
            k.dense()


def test_corpus_recipe_is_reproducible():
    rng1 = np.random.default_rng(20260816)
    rng2 = np.random.default_rng(20260816)
    a = random_system(rng1)
    b = random_system(rng2)
    assert np.array_equal(a.base.dense(), b.base.dense())
    assert np.array_equal(a.map.forward, b.map.forward)


def test_public_names_resolve_exactly_once():
    names = w.__all__
    assert sorted(set(names)) == sorted(names)  # no name listed twice
    missing = [name for name in names if not hasattr(w, name)]
    assert missing == []
    namespace = {}
    exec("from wavechain import *", namespace)
    assert set(names) <= set(namespace)

import itertools
import math
import pickle
import re
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

import wavechain as w
from wavechain import errors, models
from wavechain.groups import (
    from_cycles,
    multiply,
    sn_elements,
    transposition,
)
from wavechain.spectral import _shifted_stationary_weights

from group_reference import sn_index
from peak_memory import traced_peak


# ---------------------------------------------------------------- circle

def test_circle_needs_odd_size_and_positive_eps():
    with pytest.raises(errors.EvenN):
        w.circle_kernel(6, 1.0)
    with pytest.raises(ValueError):
        w.circle_kernel(5, 0.0)


CIRCLE_BUILDERS = [
    w.circle_kernel,
    w.lazy_circle_kernel,
    w.circle_perturbation_spec,
    w.tilde_pi_closed_form_shift_minus1,
    w.circle_nash_params,
]


@pytest.mark.parametrize("eps", [math.inf, 1e400, -1.0, 0.0, math.nan, -math.inf])
@pytest.mark.parametrize("build", CIRCLE_BUILDERS)
def test_every_circle_builder_checks_eps_once(build, eps):
    message = "eps must be finite" if eps == math.inf else "eps must be positive"
    with pytest.raises(ValueError, match=message):
        build(5, eps)


@pytest.mark.parametrize("kind", [np.float16, np.float32, np.float64, np.int64])
@pytest.mark.parametrize("build", CIRCLE_BUILDERS)
def test_a_numpy_eps_builds_what_the_python_number_builds(build, kind):
    eps = kind(0.3) if kind is not np.int64 else kind(2)
    assert pickle.dumps(build(5, eps)) == pickle.dumps(build(5, float(eps)))


def test_a_fraction_eps_keeps_its_exact_value():
    kernel, _ = w.circle_kernel(5, Fraction(1, 3))
    assert kernel.dense()[0, 1] == float(Fraction(4, 7))  # (1 + eps)/(2 + eps)
    assert w.circle_nash_params(5, 2).c == 3.0


@pytest.mark.parametrize("eps", ["0.5", None, [0.5], True])
@pytest.mark.parametrize("build", CIRCLE_BUILDERS)
def test_a_circle_eps_that_is_not_a_number_is_config_invalid(build, eps):
    with pytest.raises(errors.ConfigInvalid, match=re.escape(f"eps {eps!r} is not a number")):
        build(5, eps)


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: w.circle_kernel(5.5, 1.0), "n 5.5"),
        (lambda: w.lazy_circle_kernel(5.5, 1.0), "n 5.5"),
        (lambda: w.circle_shift(5.5, -1), "n 5.5"),
        (lambda: w.binary_cycling_system(3.7), "bits 3.7"),
        (lambda: w.periodic_class_example(2.5, 3), "k 2.5"),
        (lambda: w.periodic_class_example(2, 3.9), "class_size 3.9"),
        (lambda: w.deck_reversal_system(4.5), "n 4.5"),
        (lambda: w.cyclic_to_random_system(4.5), "n 4.5"),
        (lambda: w.sticky_permutation_system(4.2, 0, 0.05), "n 4.2"),
        (lambda: w.random_regular_graph_walk(10.7, 4, 0), "n 10.7"),
        (lambda: w.random_regular_graph_walk(10, 4.2, 0), "degree 4.2"),
    ],
    ids=["circle", "lazy-circle", "shift", "bits", "k", "class-size", "deck", "cyclic",
         "sticky", "regular-n", "regular-degree"],
)
def test_library_builders_reject_fractional_sizes(build, what):
    with pytest.raises(errors.ConfigInvalid, match=f"^{what} is not an integer$"):
        build()


def test_library_builders_take_integral_floats():
    assert w.circle_kernel(5.0, 1.0)[0].size == 5
    assert w.binary_cycling_system(3.0).space.size == 8
    assert w.periodic_class_example(2.0, 3.0).space.size == 6
    assert w.deck_reversal_system(4.0).space.size == 24


def test_circle_kernel_edge_weights():
    k, pi = w.circle_kernel(5, 1.0)
    m = k.dense()
    # one heavy edge between 0 and 1, conductance-weighted rows
    assert m[0, 1] == pytest.approx(2 / 3)
    assert m[0, 4] == pytest.approx(1 / 3)
    assert m[2, 1] == pytest.approx(0.5)
    assert np.allclose(m.sum(axis=1), 1.0)
    assert pi.weights[0] == pytest.approx(pi.weights[1])


def test_circle_closed_form_small_case():
    # N=5, eps=1: the invariant measure of the shifted chain is
    # proportional to (6, 3, 4, 4, 4)
    pi = w.tilde_pi_closed_form_shift_minus1(5, 1.0)
    assert np.max(np.abs(pi.weights * 21 - np.array([6, 3, 4, 4, 4]))) < 1e-12
    base, _ = w.circle_kernel(5, 1.0)
    s = w.make_wave_system(base, w.circle_shift(5, -1))
    assert np.max(np.abs(s.wave_measure.weights - pi.weights)) < 1e-14


def test_lazy_circle_holds_half():
    k = w.lazy_circle_kernel(7, 1.0)
    base, _ = w.circle_kernel(7, 1.0)
    assert np.allclose(k.dense(), 0.5 * np.eye(7) + 0.5 * base.dense())


def test_circle_shift_wraps():
    g = w.circle_shift(5, -1)
    assert list(g.forward) == [4, 0, 1, 2, 3]
    assert w.permutation_order(g) == 5


def test_circle_perturbation_spec_recomposes():
    for n, eps in [(5, 1 / 3), (9, 2.0)]:
        spec = w.circle_perturbation_spec(n, eps)
        kern, _ = w.circle_kernel(n, eps)
        assert spec.support == (0, 1)
        assert np.max(np.abs(spec.base.dense() + spec.delta_matrix
                             - kern.dense())) < 1e-15
        # strength of the edits relative to the unperturbed walk
        assert spec.epsilon == pytest.approx(eps / (2 + eps))


@pytest.mark.parametrize("model", ["circle", "lazy-circle"])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_no_map_leaves_a_scanned_circle_reducible(model, n):
    # the scan's argument, checked over every map: an odd cycle (with loops
    # when lazy) has |N(C)| > |C| for each proper nonempty C, so no closed
    # class exists in base(x, g^-1 y) for any bijection g
    base = models.build_model(model, {"n": n, "eps": 0.5}).base
    maps = [np.array(m) for m in itertools.permutations(range(n))]
    assert len(maps) == math.factorial(n)
    for fwd in maps:
        assert w.is_irreducible(w.shift_kernel(base, w.make_permutation(base.space, fwd)))
    weights = _shifted_stationary_weights(base, maps)
    assert len(weights) == len(maps)
    assert all(np.all(pi > 0) for pi in weights)


# ------------------------------------------------------- binary cycling

def test_binary_cycling_window_is_uniform():
    s = w.binary_cycling_system(3)
    window = w.compose_window(s, 0, 3).dense()
    assert np.max(np.abs(window - 0.125)) == 0.0


def test_binary_cycling_nilpotent_fluctuation():
    s = w.binary_cycling_system(4)
    kt = s.shifted.dense()
    pi = s.wave_measure.weights
    dev = kt - np.outer(np.ones(16), pi)
    acc = np.linalg.matrix_power(dev, 4)
    assert np.max(np.abs(acc)) < 1e-12
    assert w.eigenvalues(s.shifted).flag == "defective"


def test_binary_cycling_singular_values_split_evenly():
    s = w.binary_cycling_system(3)
    pi = s.wave_measure
    dec = w.weighted_singular_values(s.shifted, pi, pi)
    sv = np.sort(dec.singular_values)[::-1]
    assert np.max(np.abs(sv[:4] - 1.0)) < 1e-12
    assert np.max(np.abs(sv[4:])) < 1e-12


# ----------------------------------------------------------- four point

def test_four_point_windows_alternate_deterministically():
    s = w.four_point_example()
    for n in (2, 4, 10):
        assert w.compose_window(s, 0, n).dense()[3, 3] == 1.0
    for n in (3, 5, 11):
        assert w.compose_window(s, 0, n).dense()[3, 2] == 1.0


def test_four_point_shifted_kernel_is_reducible():
    s = w.four_point_example()
    assert not w.is_irreducible(s.shifted)
    with pytest.raises(errors.WaveMeasureMissing):
        s.wave_measure


# -------------------------------------------------------- card shuffles

def test_deck_reversal_two_step_support():
    for n in (4, 5):
        s = w.deck_reversal_system(n)
        index = sn_index(n)
        start = index[tuple(range(n))]
        row = w.compose_window(s, 0, 2).dense()[start]
        expected = {
            index[tuple(range(n))]: 0.25,
            index[transposition(n, 0, 1)]: 0.25,
            index[transposition(n, 0, n - 1)]: 0.25,
            index[from_cycles(n, [(0, n - 1, 1)])]: 0.25,
        }
        for j, v in enumerate(row):
            assert v == pytest.approx(expected.get(j, 0.0), abs=1e-15)


def test_cyclic_to_random_steps_transpose_fixed_positions():
    """Step i transposes position i-1 with a uniform position."""
    n = 4
    s = w.cyclic_to_random_system(n)
    elems = sn_elements(n)
    index = sn_index(n)
    for i in range(1, n + 1):
        expected = np.zeros((len(elems), len(elems)))
        for ix, x in enumerate(elems):
            for j in range(n):
                t = transposition(n, i - 1, j)
                expected[ix, index[multiply(x, t)]] += 1 / n
        assert np.max(np.abs(w.kernel_at(s, i).dense() - expected)) < 1e-15


def test_cyclic_to_random_map_order():
    s = w.cyclic_to_random_system(4)
    assert s.order == 4
    s5 = w.cyclic_to_random_system(5)
    assert s5.order == 5


def test_sticky_base_holds_extra_mass_at_one_permutation():
    s = w.sticky_permutation_system(4, (0, 1, 2, 3), 0.1)
    m = s.base.dense()
    # lazy transpose-top holds (n+1)/2n; the sticky row adds delta on top
    assert m[0, 0] == pytest.approx(5 / 8 + 0.1)
    assert np.allclose(m.sum(axis=1), 1.0)
    off = m[0, 1:]
    assert np.all(off[off > 0] < 1 / 8)


def test_sticky_delta_range():
    with pytest.raises(errors.DeltaOutOfRange):
        w.sticky_permutation_system(4, (0, 1, 2, 3), 0.0)
    with pytest.raises(errors.DeltaOutOfRange):
        w.sticky_permutation_system(4, (0, 1, 2, 3), 3 / 8)


def test_sticky_large_space_stays_sparse():
    s = w.sticky_permutation_system(5, (0, 1, 2, 3, 4), 0.05)
    assert s.space.size == 120
    # the kernel stores its nonzero entries only
    assert s.base.entries[2].size == np.count_nonzero(s.base.dense()) < s.space.size ** 2 / 10


def zoo_systems():
    circle, _ = w.circle_kernel(7, 1.0)
    lazy = w.lazy_circle_kernel(7, 0.5)
    regular = w.random_regular_graph_walk(8, 3, 0)
    return [
        w.make_wave_system(circle, w.circle_shift(7, -1)),
        w.make_wave_system(lazy, w.circle_shift(7, 2)),
        w.make_wave_system(regular, w.make_permutation(regular.space, range(8))),
        w.make_wave_system(
            w.circle_perturbation_spec(7, 1.0).kernel(), w.circle_shift(7, -1)
        ),
        w.binary_cycling_system(3),
        w.four_point_example(),
        w.deck_reversal_system(4),
        w.cyclic_to_random_system(4),
        w.sticky_permutation_system(4, (0, 1, 2, 3), 0.1),
        w.sticky_permutation_system(5, 7, 0.05),
        w.periodic_class_example(3, 2),
    ]


def test_zoo_kernels_are_read_only():
    for s in zoo_systems():
        for kernel in (s.base, s.shifted):
            assert not any(a.flags.writeable for a in kernel.entries)
            assert not kernel.dense().flags.writeable
            with pytest.raises(ValueError):
                kernel.dense()[0, 0] = 5.0


def test_zoo_kernels_above_the_dense_limit_are_csr_arrays():
    # above the limit a kernel is its CSR triple alone: the dense view is
    # refused, and scipy reads the triple as a canonical csr_array
    s = w.binary_cycling_system(13)
    assert s.space.size > w.DENSE_LIMIT
    for kernel in (s.base, s.shifted):
        with pytest.raises(errors.TooLarge):
            kernel.dense()
        indptr, indices, data = kernel.entries
        assert sp.csr_array((data, indices, indptr), shape=(kernel.size,) * 2).has_canonical_format


# ------------------------------------------------- other model builders

def test_periodic_class_example_is_reducible():
    s = w.periodic_class_example(3, 2)
    assert s.space.size == 6
    assert s.order == 3
    assert not w.is_irreducible(s.shifted)


def test_group_walk_kernel_sums_generator_weights():
    n = 4
    weights = {transposition(n, 0, j): 1 / n for j in range(1, n)}
    weights[tuple(range(n))] = 1 / n
    k = w.group_walk_kernel(w.GroupWalkSpec(n, weights))
    m = k.dense()
    assert np.allclose(m.sum(axis=1), 1.0)
    index = sn_index(n)
    assert m[0, index[transposition(n, 0, 2)]] == pytest.approx(1 / n)


@pytest.mark.parametrize("n, weights, error, message", [
    (3, {(0, 1): 1.0}, ValueError, r"^\(0, 1\) is not a permutation of 0..2$"),
    (3, {(0, 1, 2): 1.5, (1, 0, 2): -0.5}, ValueError, "^negative generator weight$"),
    (3, {(0, 1, 2): 0.5, (1, 0, 2): 0.25}, ValueError, "^generator weights sum to 0.75, not 1$"),
    (8, {tuple(range(8)): 1.0}, errors.TooLarge, "^8! exceeds the configured cap 5040$"),
    (10**6, {}, errors.TooLarge, "^1000000! exceeds the configured cap 5040$"),
], ids=["wrong-length", "negative-weight", "weights-not-one", "8-cards", "a-million-cards"])
def test_group_walk_spec_refuses_a_malformed_walk(n, weights, error, message):
    start = time.perf_counter()
    with pytest.raises(error, match=message):
        w.GroupWalkSpec(n, weights)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n, error, message", [
    (2, ValueError, "^deck size must be at least 3$"),
    (8, errors.TooLarge, "^deck size 8 puts 40320 states out of range$"),
    # n! is not carried past the cap: 2000! has 5736 digits, too many to
    # print, and 1000000! took seconds to compute
    (2000, errors.TooLarge, "^deck size 2000 puts more than 40320 states out of range$"),
    (10**6, errors.TooLarge, "^deck size 1000000 puts more than 40320 states out of range$"),
])
def test_group_models_refuse_a_deck_outside_the_cap(n, error, message):
    for model in ("deck-reversal", "cyclic-to-random", "sticky"):
        start = time.perf_counter()
        with pytest.raises(error, match=message):
            models.build_model(model, {"n": n})
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n, rho", [(4, -1), (4, 24), (7, 5040)])
def test_sticky_rejects_an_out_of_range_rank(n, rho):
    last = math.factorial(n) - 1
    with pytest.raises(ValueError, match=f"rho {rho} outside 0..{last},"):
        w.sticky_permutation_system(n, rho, 0.05)


def test_conjugation_map_order_divides_group_order():
    g = w.conjugation_map(4, from_cycles(4, [(0, 1, 2, 3)]))
    assert w.permutation_order(g) == 4


def test_random_regular_walk_is_deterministic_per_seed():
    a = w.random_regular_graph_walk(8, 4, seed=3)
    b = w.random_regular_graph_walk(8, 4, seed=3)
    assert np.array_equal(a.dense(), b.dense())
    rows = a.dense()
    assert np.allclose(rows.sum(axis=1), 1.0)
    assert np.all(np.diag(rows) > 0)  # every vertex carries its loop


def test_random_regular_walk_parity_guard():
    # degree counts the loop, so the simple part is 3-regular on 5
    # vertices: odd degree sum, impossible
    with pytest.raises(errors.DegreeInfeasible):
        w.random_regular_graph_walk(5, 4, seed=0)


def test_random_regular_walk_complete_case():
    k = w.random_regular_graph_walk(4, 4, seed=0)
    assert np.max(np.abs(k.dense() - 0.25)) < 1e-15


def test_single_point_perturbation_strict_shape_strength():
    s = w.sticky_permutation_system(4, (0, 1, 2, 3), 0.1)
    dense = s.base.dense()
    col = dense[:, 0].copy()
    q_oo = 1.0 - (col.sum() - col[0])
    col[0] = q_oo
    q_mat = dense.copy()
    q_mat[0] = col
    spec = w.single_point_perturbation(w.make_kernel(s.base.space, q_mat), 0, dense[0] - col)
    assert spec.epsilon == pytest.approx(0.1 / (1 - q_oo))
    assert spec.support == (0,)


def test_sn_space_labels_are_one_line_words():
    space = w.sn_space(3)
    assert space.size == 6
    assert space.labels[0] == "123"
    assert len(set(space.labels)) == 6


# ------------------------------------------------------ stored-entry cap

ENTRY_CAP = 1 << 15


@pytest.mark.parametrize("build, size", [
    (lambda: w.circle_kernel(ENTRY_CAP // 2 + 1, 1.0), ENTRY_CAP // 2 + 1),
    (lambda: w.lazy_circle_kernel(ENTRY_CAP // 2 + 1, 1.0), ENTRY_CAP // 2 + 1),
    (lambda: w.circle_perturbation_spec(ENTRY_CAP // 2 + 1, 1.0), ENTRY_CAP // 2 + 1),
    (lambda: w.periodic_class_example(2, ENTRY_CAP // 4 + 1), ENTRY_CAP // 2 + 2),
    (lambda: w.random_regular_graph_walk(ENTRY_CAP // 2 + 2, 3, 0), ENTRY_CAP // 2 + 2),
    (lambda: w.random_regular_graph_walk(ENTRY_CAP // 2 + 1, ENTRY_CAP // 2 + 1, 0),
     ENTRY_CAP // 2 + 1),
], ids=["circle", "lazy-circle", "circle-spec", "periodic-classes", "random-regular",
        "complete-graph"])
def test_dense_builders_refuse_sizes_above_the_cap_before_allocating(build, size):
    def refused():
        with pytest.raises(errors.TooLarge, match=(
            f"^{size} states would store \\d+ entries, over the cap of {ENTRY_CAP}$"
        )):
            build()

    assert traced_peak(refused) < 1 << 20  # one n x n float array would take 2 GiB


def test_a_model_above_the_dense_cap_is_one_error_line(tmp_path, capsys):
    from wavechain.cli import main

    argv = ["merge-time", "--model", "circle", "--param", f"n={ENTRY_CAP // 2 + 1}",
            "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {ENTRY_CAP // 2 + 1} states would store {ENTRY_CAP + 2} entries, "
                   f"over the cap of {ENTRY_CAP}"]


def test_the_entry_cap_admits_the_largest_circle():
    kernel, _ = w.circle_kernel(ENTRY_CAP // 2 - 1, 1.0)
    assert kernel.entries[2].size == ENTRY_CAP - 2


@pytest.mark.parametrize("build", [
    lambda: w.circle_kernel(8193, 1.0),
    lambda: w.lazy_circle_kernel(8193, 1.0),
    lambda: w.random_regular_graph_walk(8192, 3, 0),
], ids=["circle", "lazy-circle", "random-regular"])
def test_sparse_models_build_without_an_n_by_n_array(build):
    assert traced_peak(build) < 4 << 20  # an 8192 x 8192 float array takes 512 MiB


@pytest.mark.parametrize("n", [4097, 8193])
def test_circle_perturbation_spec_refuses_its_edit_matrix_above_the_dense_limit(n):
    def refused():
        with pytest.raises(errors.TooLarge, match=f"^refusing to densify a {n}-state kernel$"):
            w.circle_perturbation_spec(n, 1.0)

    # the base's triplet build peaks near 1.4 MB at n = 8193; the n x n
    # edit matrix would take 134 MB at n = 4097
    assert traced_peak(refused) < 2 << 20


# ----------------------------------------- builders against their old code

def _reference_circle_rows(n, eps):
    from fractions import Fraction

    e = Fraction(eps)
    half = Fraction(1, 2)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for x in range(n):
        rows[x][(x + 1) % n] = half
        rows[x][(x - 1) % n] = half
    rows[0][1] = (1 + e) / (2 + e)
    rows[0][n - 1] = 1 / (2 + e)
    rows[1][0] = (1 + e) / (2 + e)
    rows[1][2 % n] = 1 / (2 + e)
    return rows


def _reference_lazy_rows(n, eps):
    from fractions import Fraction

    half = Fraction(1, 2)
    rows = _reference_circle_rows(n, eps)
    for x in range(n):
        rows[x] = [half * v for v in rows[x]]
        rows[x][x] += half
    return rows


def _reference_random_regular(n, r, seed):
    # the pairing model with a set of seen edges, as first written
    d = r - 1
    if r < 3 or r > n or (n * d) % 2 != 0:
        return None
    if n == r:
        return np.full((n, n), 1.0 / r)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(10_000):
        rng.shuffle(stubs)
        a = stubs[0::2]
        b = stubs[1::2]
        if np.any(a == b):
            continue
        seen = set()
        ok = True
        for u, v in zip(a, b):
            key = (min(int(u), int(v)), max(int(u), int(v)))
            if key in seen:
                ok = False
                break
            seen.add(key)
        if ok:
            mat = np.zeros((n, n))
            for u, v in zip(a, b):
                mat[u, v] = mat[v, u] = 1.0 / r
            np.fill_diagonal(mat, 1.0 / r)
            return mat
    return None


@pytest.mark.parametrize("n", [3, 5, 7, 17, 41, 101])
@pytest.mark.parametrize("eps", [1, 0.3, 2, 1 / 3])
def test_circle_builders_match_the_rational_tables(n, eps):
    def as_floats(rows):
        return np.array([[float(v) for v in row] for row in rows])

    k, _ = w.circle_kernel(n, eps)
    assert k.dense().tobytes() == as_floats(_reference_circle_rows(n, eps)).tobytes()
    lazy = w.lazy_circle_kernel(n, eps)
    assert lazy.dense().tobytes() == as_floats(_reference_lazy_rows(n, eps)).tobytes()
    base = w.circle_perturbation_spec(n, eps).base
    walk = np.zeros((n, n))
    walk[np.arange(n), (np.arange(n) + 1) % n] = 0.5
    walk[np.arange(n), (np.arange(n) - 1) % n] = 0.5
    assert base.dense().tobytes() == walk.tobytes()


def _dense_circle(n, eps=0):
    # the n x n array every circle builder filled before building from triplets
    from fractions import Fraction

    e = Fraction(eps)
    x = np.arange(n)
    m = np.zeros((n, n))
    m[x, (x + 1) % n] = 0.5
    m[x, (x - 1) % n] = 0.5
    m[[0, 1], [1, 0]] = float((1 + e) / (2 + e))
    m[[0, 1], [n - 1, 2 % n]] = float(1 / (2 + e))
    return m


def _dense_periodic(k, cs):
    size = k * cs
    m = np.zeros((size, size))
    for j in range(k):
        nxt = ((j + 1) % k) * cs
        m[j * cs:(j + 1) * cs, nxt:nxt + cs] = 1.0 / cs
    return m


def _stored(kernel):
    return [(a.dtype, a.shape, a.tobytes()) for a in kernel.entries]


def _dense_route(m):
    return _stored(w.make_kernel(w.StateSpace(m.shape[0]), m))


@pytest.mark.parametrize("n", [3, 5, 7, 17, 41, 101, 1023, 4095])
@pytest.mark.parametrize("eps", [1, 0.3, 2, 1 / 3])
def test_circle_builders_store_the_entries_of_the_dense_route(n, eps):
    assert _stored(w.circle_kernel(n, eps)[0]) == _dense_route(_dense_circle(n, eps))
    assert _stored(w.lazy_circle_kernel(n, eps)) == _dense_route(
        0.5 * (_dense_circle(n, eps) + np.eye(n))
    )
    assert _stored(w.circle_perturbation_spec(n, eps).base) == _dense_route(_dense_circle(n))


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("cs", [1, 2, 3])
def test_periodic_classes_store_the_entries_of_the_dense_route(k, cs):
    assert _stored(w.periodic_class_example(k, cs).base) == _dense_route(_dense_periodic(k, cs))


def test_random_regular_walk_matches_the_set_search():
    cases = 0
    for n in (4, 5, 6, 7, 8, 10, 13, 16):
        for r in (2, 3, 4, 5, 6, 8):
            for seed in (0, 1, 7):
                expected = _reference_random_regular(n, r, seed)
                if expected is None:
                    with pytest.raises(errors.DegreeInfeasible):
                        w.random_regular_graph_walk(n, r, seed)
                    continue
                got = w.random_regular_graph_walk(n, r, seed)
                assert got.dense().tobytes() == expected.tobytes()
                assert _stored(got) == _dense_route(expected)
                cases += 1
    assert cases > 50


def test_perturbation_support_ignores_points_off_the_space_as_before():
    # the rows outside the support, as np.setdiff1d found them
    def reference_ok(support, d):
        outside = np.setdiff1d(np.arange(d.shape[0]), np.asarray(support, dtype=int))
        return not (outside.size and float(np.max(np.abs(d[outside]))) > 0.0)

    q = w.circle_perturbation_spec(5, 1.0).base  # the symmetric walk
    checked = 0
    for edited in ((0,), (4,), (0, 4), ()):
        d = np.zeros((5, 5))
        for r in edited:
            d[r, r], d[r, (r + 1) % 5] = 0.01, -0.01
        for support in ((0,), (4,), (0, 4), (-1,), (0, -1), (4, 5), (7, 0), (), (0, 0, 4)):
            try:
                w.PerturbationSpec(base=q, support=support, delta_matrix=d, epsilon=0.5)
                ok = True
            except errors.ConditionViolated as exc:
                assert exc.condition == "c"
                ok = False
            assert ok == reference_ok(support, d), (edited, support)
            checked += 1
    assert checked == 36

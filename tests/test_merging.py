import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wavechain as w
from wavechain import errors, merging, models, spectral


def circle_system(n=5, eps=1.0, shift=-1, lazy=False):
    base = (
        w.lazy_circle_kernel(n, eps)
        if lazy
        else w.circle_kernel(n, eps)[0]
    )
    return w.make_wave_system(base, w.circle_shift(n, shift))


def dist(space, weights):
    return w.Distribution(space, np.asarray(weights, dtype=float))


# ------------------------------------------------------------- distances

def test_tv_is_symmetric_and_bounded():
    space = w.StateSpace(3)
    mu = dist(space, [0.5, 0.3, 0.2])
    nu = dist(space, [0.2, 0.3, 0.5])
    assert w.tv_distance(mu, nu) == pytest.approx(0.3)
    assert w.tv_distance(mu, nu) == w.tv_distance(nu, mu)
    assert w.tv_distance(mu, mu) == 0.0


def test_relative_sup_is_asymmetric():
    space = w.StateSpace(2)
    mu = dist(space, [0.9, 0.1])
    nu = dist(space, [0.5, 0.5])
    assert w.relative_sup_distance(mu, nu) == pytest.approx(0.8)
    assert w.relative_sup_distance(nu, mu) == pytest.approx(4.0)


def test_relative_sup_with_zero_denominator_is_infinite():
    space = w.StateSpace(3)
    mu = dist(space, [0.5, 0.5, 0.0])
    nu = dist(space, [0.5, 0.0, 0.5])
    assert math.isinf(w.relative_sup_distance(mu, nu))


def test_tv_dominated_by_half_relative_sup(merging_corpus):
    for s in merging_corpus[:20]:
        pi = s.wave_measure
        mu = w.evolve(pi, s, 3)
        nu = w.wave_measures(s, 3)
        rs = w.relative_sup_distance(mu, nu)
        if math.isfinite(rs):
            assert w.tv_distance(mu, nu) <= 0.5 * rs + 1e-12


def test_chi_square_distance_zero_iff_equal():
    space = w.StateSpace(3)
    mu = dist(space, [0.5, 0.25, 0.25])
    assert w.chi_square_distance(mu, mu) == 0.0
    nu = dist(space, [0.25, 0.5, 0.25])
    assert w.chi_square_distance(mu, nu) > 0.0


# --------------------------------------------------------- merging times

def test_metric_names_are_validated():
    s = circle_system()
    with pytest.raises(ValueError):
        w.merging_time(s, 0.01, 10, metric="tv")


@pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan])
def test_merging_threshold_must_be_positive(epsilon):
    # a NaN threshold would trace the whole horizon and report no reason
    with pytest.raises(ValueError, match="epsilon must be positive"):
        w.merging_time(circle_system(), epsilon, 50)


def test_bound_dominance_needs_a_nonnegative_horizon():
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        w.bound_dominance(circle_system(), -5)
    assert w.bound_dominance(circle_system(), 0)[:2] == (0.0, 0)


def test_certify_stability_needs_a_nonnegative_horizon():
    s = circle_system()
    with pytest.raises(ValueError, match="^horizon must be nonnegative$"):
        w.certify_stability(s, w.Distribution.uniform(s.space), horizon=-3)
    assert w.certify_stability(s, w.Distribution.uniform(s.space), horizon=0).c == 1.0


@pytest.mark.parametrize("x, z, bad", [(-1, 0, "start state -1"), (0, 5, "end state 5"),
                                       (7, 0, "start state 7"), (0, -2, "end state -2")])
def test_the_bounds_refuse_a_state_off_the_space(x, z, bad):
    # a negative index once wrapped to the last state, and one past the end
    # raised a bare IndexError
    s = circle_system()
    off_wave = w.Distribution.uniform(s.space)
    for bound in (lambda: w.wave_bound(s, x, z, 2),
                  lambda: w.sv_product_bound(s, s.wave_measure, x, z, 2),
                  lambda: w.sv_product_bound(s, off_wave, x, z, 2)):
        with pytest.raises(ValueError, match=f"^{bad} is outside 0..4$"):
            bound()


def test_four_point_merges_in_tv_but_not_relative_sup():
    s = w.four_point_example()
    tv = w.merging_time(s, 0.01, 100, metric="total_variation")
    assert tv.merging_time == 23
    rs = w.merging_time(s, 0.01, 100)
    assert rs.merging_time is None
    assert rs.reason == "shifted kernel reducible; pairwise merging cannot occur"
    assert all(math.isinf(v) for _, v in rs.values)


REDUCIBLE_TEXT = "shifted kernel reducible; pairwise merging cannot occur"


@pytest.mark.parametrize("member, horizon", [(None, 5), (8, 3)], ids=["four-point", "corpus-8"])
def test_tv_gives_no_reason_on_a_reducible_kernel(corpus, member, horizon):
    # a reducible shifted kernel with one closed aperiodic class merges in TV
    s = w.four_point_example() if member is None else corpus[member]
    assert spectral._merging_obstruction(s.shifted) == "reducible"
    tv = w.merging_time(s, 0.01, horizon, metric="total_variation")
    assert tv.merging_time is None and tv.reason is None
    assert "reason" not in tv.to_document()
    assert w.merging_time(s, 0.01, 100, metric="total_variation").merging_time is not None
    for metric in ("relative_sup", "chi_square"):
        assert w.merging_time(s, 0.01, horizon, metric).reason == REDUCIBLE_TEXT


def test_every_metric_gives_the_periodic_reason():
    space = w.StateSpace(2)
    flip = w.make_kernel(space, np.array([[0.0, 1.0], [1.0, 0.0]]))
    s = w.make_wave_system(flip, w.make_permutation(space, [0, 1]))
    for metric in ("total_variation", "relative_sup", "chi_square"):
        rep = w.merging_time(s, 0.01, 5, metric)
        assert rep.reason == "shifted kernel periodic; pairwise merging cannot occur"


def test_one_merging_verdict_per_metric():
    # periodic is a verdict for every metric; reducible for all but TV
    space = w.StateSpace(2)
    flip = w.make_kernel(space, np.array([[0.0, 1.0], [1.0, 0.0]]))
    reducible = w.four_point_example().shifted
    merging = circle_system().shifted
    for metric in (None, "total_variation", "relative_sup", "chi_square"):
        assert spectral._merging_obstruction(flip, metric) == "periodic"
        assert spectral._merging_obstruction(merging, metric) is None
        expected = None if metric == "total_variation" else "reducible"
        assert spectral._merging_obstruction(reducible, metric) == expected


METRICS = ("total_variation", "relative_sup", "chi_square")


def test_a_reducible_corpus_member_does_not_merge_by_underflow(corpus):
    # member 8: state 2 absorbs and the other states have loops, so every
    # power keeps a column positive in their rows and zero in state 2's;
    # the transient columns underflowed to a relative-sup "merge" at 1981
    s = corpus[8]
    for metric in ("relative_sup", "chi_square"):
        rep = w.merging_time(s, 1 / math.e, 2500, metric)
        assert rep.merging_time is None and rep.reason == REDUCIBLE_TEXT
        assert all(math.isinf(d) for _, d in rep.values) and len(rep.values) == 2501
        assert w.pairwise_merging_measure(s, 1981, metric) == math.inf
    tv = w.merging_time(s, 1 / math.e, 2500, "total_variation")
    assert tv.merging_time == 4 and tv.reason is None


def test_an_absorbing_state_reached_in_one_step_merges_at_once():
    # K = [[0, 1], [0, 1]]: state 1 is the one closed class, aperiodic, and
    # state 0 is on no cycle, so the rows of K^1 are equal
    space = w.StateSpace(2)
    kernel = w.make_kernel(space, np.array([[0.0, 1.0], [0.0, 1.0]]))
    s = w.make_wave_system(kernel, w.make_permutation(space, [0, 1]))
    for metric in METRICS:
        assert w.merging_time(s, 0.01, 0, metric).reason is None
        assert w.merging_time(s, 0.01, 5, metric).merging_time == 1


def test_tv_gives_the_reason_where_several_classes_are_closed():
    rep = w.merging_time(w.periodic_class_example(3, 2), 0.01, 300, "total_variation")
    assert rep.merging_time is None and rep.reason == REDUCIBLE_TEXT
    assert all(d == 1.0 for _, d in rep.values)


TV_BLOCKED = {
    "three-closed-classes": lambda: w.periodic_class_example(3, 40),
    "two-closed-classes": lambda: w.periodic_class_example(2, 5),
    "deck-reversal": lambda: models.build_model("deck-reversal", {"n": 4}),
    "random-regular": lambda: models.build_model("random-regular", {}),
    "flip": lambda: w.make_wave_system(
        w.make_kernel(w.StateSpace(2), np.array([[0.0, 1.0], [1.0, 0.0]])),
        w.make_permutation(w.StateSpace(2), [0, 1])),
}


@pytest.mark.parametrize("build", TV_BLOCKED.values(), ids=TV_BLOCKED)
def test_tv_is_exactly_one_where_it_cannot_merge(monkeypatch, build):
    # two rows in different closed classes, or in different cyclic
    # subclasses of a periodic class, have disjoint supports at every power
    s = build()
    verdict = spectral._merging_obstruction(s.shifted, "total_variation")
    assert verdict is not None
    traced = list(merging._distance_trace(s.shifted, "total_variation", 300))
    assert max(abs(d - 1.0) for _, d in traced) < 1e-12  # 1 up to rounding
    monkeypatch.setattr(merging, "power_blocks", None)  # no power is computed
    rep = w.merging_time(s, 0.01, 2000, "total_variation")
    assert rep.values == tuple((n, 1.0) for n in range(2001)) and rep.merging_time is None
    assert rep.reason == f"shifted kernel {verdict}; pairwise merging cannot occur"
    assert w.pairwise_merging_measure(s, 1000, "total_variation") == 1.0
    # a threshold above one is met at once, as by the traced identity
    assert w.merging_time(s, 1.5, 2000, "total_variation").values == ((0, 1.0),)


def support_powers(kernel):
    """The zero patterns of kernel^0, kernel^1, ... up to the first repeat,
    and the index where their cycle starts: boolean products are exact."""
    edges = (kernel.dense() > 0).astype(np.int64)
    power = np.eye(kernel.size, dtype=np.int64)
    seen, patterns = {}, []
    while power.tobytes() not in seen:
        seen[power.tobytes()] = len(patterns)
        patterns.append(power > 0)
        power = ((power @ edges) > 0).astype(np.int64)
    return patterns, seen[power.tobytes()]


def assert_the_verdict_is_the_support_oracle(kernel):
    patterns, cycle = support_powers(kernel)
    mixed = [bool((p.any(axis=0) & ~p.all(axis=0)).any()) for p in patterns]
    # TV merges exactly when the limit rows agree: a column positive in
    # every row of each recurring pattern (one closed aperiodic class)
    tv = all(p.all(axis=0).any() for p in patterns[cycle:])
    assert (spectral._merging_obstruction(kernel, "total_variation") is None) == tv
    # a ratio metric is finite exactly where no column is mixed
    ratio = not any(mixed[cycle:])
    for metric in ("relative_sup", "chi_square"):
        assert (spectral._merging_obstruction(kernel, metric) is None) == ratio
    if not ratio:
        assert all(mixed)  # the trace is infinite at every n


def test_the_merging_verdict_is_the_support_oracle_on_the_corpus(corpus):
    reducible = [s.shifted for s in corpus if not w.is_irreducible(s.shifted)]
    assert len(reducible) == 16  # frozen at the corpus seed
    for kernel in reducible:
        assert_the_verdict_is_the_support_oracle(kernel)


@st.composite
def reducible_kernels(draw):
    n = draw(st.integers(2, 6))
    support = np.array(draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                     min_size=n, max_size=n)))
    support[np.arange(n), draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))] = True
    m = support * np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n * n,
                                         max_size=n * n))).reshape(n, n)
    kernel = w.make_kernel(w.StateSpace(n), m / m.sum(axis=1, keepdims=True))
    assume(not w.is_irreducible(kernel))
    return kernel


@settings(max_examples=300, deadline=None)
@given(reducible_kernels())
def test_the_merging_verdict_is_the_support_oracle_on_small_kernels(kernel):
    assert_the_verdict_is_the_support_oracle(kernel)


def test_bound_dominance_refuses_a_large_kernel_before_solving(monkeypatch):
    s = models.build_model("circle", {"n": 4097})

    def no_solve(*args):
        raise AssertionError("solved for sigma before refusing")

    monkeypatch.setattr(merging, "_singular_values", no_solve)
    start = time.perf_counter()
    with pytest.raises(errors.TooLarge):
        w.bound_dominance(s, 30)
    assert time.perf_counter() - start < 1.0


def test_four_point_tv_measure_small_by_sixty():
    s = w.four_point_example()
    assert w.pairwise_merging_measure(s, 60, "total_variation") < 0.01


def test_binary_cycling_merges_exactly_at_the_bit_count():
    for n_bits in (3, 4, 5):
        s = w.binary_cycling_system(n_bits)
        rep = w.merging_time(s, 0.01, n_bits + 3)
        assert rep.merging_time == n_bits
        trace = dict(rep.values)
        assert all(math.isinf(trace[i]) for i in range(n_bits))
        assert trace[n_bits] == 0.0


def test_circle_merging_time_frozen_value():
    assert w.merging_time(circle_system(), 0.01, 400).merging_time == 27


def test_report_document_schema():
    s = w.four_point_example()
    doc = w.merging_time(s, 0.01, 5).to_document()
    assert doc["metric"] == "relative_sup"
    assert doc["epsilon"] == 0.01
    assert doc["merging_time"] == "unbounded"
    assert doc["trace"][0] == [0, "inf"]
    assert "reason" in doc
    csv = w.merging_time(s, 0.01, 5, metric="total_variation").to_csv()
    assert csv.splitlines()[0] == "n,distance"


# ------------------------------------------------------------- stability

def test_circle_stability_constant_is_one_plus_eps():
    for eps in (0.5, 1.0, 2.0):
        s = circle_system(eps=eps)
        cert = w.certify_stability(s, s.wave_measure)
        assert cert.c == pytest.approx(1 + eps, abs=1e-10)
        assert cert.periodic
        assert cert.horizon == s.order


def test_certificate_matches_direct_evolution(merging_corpus):
    s = merging_corpus[1]
    pi = s.wave_measure
    cert = w.certify_stability(s, pi)
    mu = pi
    for n in range(1, 3 * s.order + 1):
        mu = w.evolve(pi, s, n)
        ratio = mu.weights / pi.weights
        assert np.max(ratio) <= cert.c + 1e-10
        assert np.min(ratio) >= 1 / cert.c - 1e-10


def test_stability_with_foreign_start_needs_horizon():
    s = w.four_point_example()
    u = dist(s.space, [0.25] * 4)
    with pytest.raises(ValueError):
        w.certify_stability(s, u)
    cert = w.certify_stability(s, u, horizon=12)
    assert cert.c >= 1.0
    assert not cert.periodic
    state, steps = cert.witness
    assert steps <= 12


def test_a_zero_in_a_wave_measure_start_is_zero_weight():
    # pi = (1e-12, 1) / (1 + 1e-12): the point mass at 1 is within 1e-10 of it
    space = w.StateSpace(2)
    kernel = w.make_kernel(space, np.array([[0.0, 1.0], [1e-12, 1.0 - 1e-12]]))
    s = w.make_wave_system(kernel, w.make_permutation(space, [0, 1]))
    start = w.Distribution.point_mass(space, 1)
    with pytest.raises(errors.ZeroWeight, match="positive start"):
        w.certify_stability(s, start)
    off = w.Distribution.point_mass(space, 0)
    with pytest.raises(ValueError, match="horizon is required"):
        w.certify_stability(s, off)  # no horizon is checked before positivity
    with pytest.raises(errors.ZeroWeight, match="positive start"):
        w.certify_stability(s, off, horizon=3)


def test_a_start_within_1e_10_of_the_wave_measure_is_the_wave_start():
    # certify_stability and sv_product_bound share one tolerance: both treat
    # this start as the wave measure, so the product bound is wave_bound
    s = circle_system(n=17)
    weights = s.wave_measure.weights.copy()
    weights[0] += 5e-11
    weights[1] -= 5e-11
    mu0 = w.Distribution(s.space, weights)
    assert w.certify_stability(s, mu0).periodic
    for x, z, n in ((0, 0, 1), (3, 8, 1), (5, 2, 4)):
        assert w.sv_product_bound(s, mu0, x, z, n) == w.wave_bound(s, x, z, n)


def test_wave_measures_of_a_reducible_system_are_missing():
    with pytest.raises(errors.WaveMeasureMissing):
        w.wave_measures(w.four_point_example(), 1)


# ---------------------------------------------------------------- bounds

def test_wave_bound_rejects_reducible_systems():
    with pytest.raises(errors.NotMerging):
        w.wave_bound(w.four_point_example(), 0, 0, 5)


def test_wave_bound_saturates_at_time_zero_on_uniform_measure():
    s = w.binary_cycling_system(3)
    m = s.space.size
    assert w.wave_bound(s, 2, 2, 0) == pytest.approx(m - 1, abs=1e-10)


def test_wave_bound_dominates_exact_error_on_circle():
    """Relative error of the window against the wave measure, all n <= 100."""
    s = circle_system(7)
    pi = s.wave_measure.weights
    kt = s.shifted.dense()
    power = np.eye(7)
    for n in range(1, 101):
        power = power @ kt
        gn = s.map.power_map(n)
        window = power[:, gn]
        mu_n = pi[gn]
        for x in range(7):
            actual = np.max(np.abs(window[x] / mu_n - 1.0))
            bounds = [w.wave_bound(s, x, z, n) for z in range(7)]
            assert actual <= max(bounds) + 1e-10
            for z in range(7):
                got = abs(window[x, z] / mu_n[z] - 1.0)
                assert got <= bounds[z] + 1e-10


def test_wave_bound_refuses_a_negative_step_count_before_solving():
    # n = -1 once read g^-1 and sigma^-1: 4.59 on circle-5, above n = 1's 2.75
    s = circle_system(5)
    with pytest.raises(ValueError, match="^step count must be nonnegative$"):
        w.wave_bound(s, 0, 0, -1)
    assert "_wave_measure" not in s.__dict__


@pytest.mark.parametrize("n_max", [-1, -2])
def test_wave_bound_grid_refuses_a_negative_step_count_before_solving(n_max):
    # -1 once gave an empty grid and -2 numpy's "negative dimensions"
    s = circle_system(5)
    with pytest.raises(ValueError, match="^step count must be nonnegative$"):
        w.wave_bound_grid(s, n_max)
    assert "_wave_measure" not in s.__dict__


def test_wave_bound_grid_matches_pointwise_calls():
    s = circle_system(5)
    grid = w.wave_bound_grid(s, 6)
    for n in (1, 3, 6):
        for x in range(5):
            for z in range(5):
                assert grid[n, x, z] == pytest.approx(
                    w.wave_bound(s, x, z, n), abs=1e-12
                )


def _separate_wave_bound(s, x, z, n):
    # the pointwise formula before the bound's factors had one home
    pi = s.wave_measure
    sigma = float(spectral._singular_values(s.shifted, pi, pi)[1])
    wts = pi.weights
    gnz = int(s.map.power_map(n)[z])
    return float(math.sqrt(1.0 / wts[x] - 1.0) * math.sqrt(1.0 / wts[gnz] - 1.0) * sigma**n)


def _separate_wave_bound_grid(s, n_max):
    pi = s.wave_measure
    sigma = float(spectral._singular_values(s.shifted, pi, pi)[1])
    size = s.space.size
    front = np.sqrt(1.0 / pi.weights - 1.0)
    out = np.empty((n_max + 1, size, size))
    gn = np.arange(size, dtype=np.int64)
    for n in range(n_max + 1):
        back = front[gn]
        out[n] = sigma**n * front[:, None] * back[None, :]
        gn = s.map.forward[gn]
    return out


@pytest.mark.parametrize("member", [None, 5])
def test_wave_bounds_are_bit_equal_to_the_separate_formulas(merging_corpus, member):
    s = circle_system(7) if member is None else merging_corpus[member]
    size = s.space.size
    for n in (0, 1, 3, 8, 40):
        for x in range(size):
            for z in range(size):
                assert w.wave_bound(s, x, z, n) == _separate_wave_bound(s, x, z, n)
    grid = w.wave_bound_grid(s, 12)
    assert grid.tobytes() == _separate_wave_bound_grid(s, 12).tobytes()


def test_sv_product_bound_collapses_at_the_wave_measure(merging_corpus):
    for s in merging_corpus:
        pi = s.wave_measure
        ends = (0, s.space.size - 1)
        for n in (0, 1, 4, 9):
            for x in ends:
                for z in ends:
                    assert w.sv_product_bound(s, pi, x, z, n) == w.wave_bound(s, x, z, n)


def test_sv_product_bound_at_the_wave_measure_of_a_periodic_system():
    # wave_bound refuses a periodic shifted kernel; the product bound holds
    space = w.StateSpace(4)
    bipartite = np.array([
        [0.0, 0.3, 0.0, 0.7], [0.5, 0.0, 0.5, 0.0],
        [0.0, 1.0, 0.0, 0.0], [0.4, 0.0, 0.6, 0.0],
    ])
    s = w.make_wave_system(w.make_kernel(space, bipartite), w.make_permutation(space, [2, 1, 0, 3]))
    assert spectral._merging_obstruction(s.shifted) == "periodic"
    with pytest.raises(errors.NotMerging):
        w.wave_bound(s, 0, 1, 2)
    pi = s.wave_measure
    sigma = float(spectral._singular_values(s.shifted, pi, pi)[1])
    front = np.sqrt(1.0 / pi.weights - 1.0)
    for n in (0, 1, 2, 5):
        gz = int(s.map.power_map(n)[1])
        assert w.sv_product_bound(s, pi, 0, 1, n) == float(front[0] * front[gz] * sigma**n)


def test_sv_product_bound_refuses_a_negative_step_count(sticky4):
    for mu0 in (sticky4.wave_measure, w.Distribution.uniform(sticky4.space)):
        with pytest.raises(ValueError, match="nonnegative"):
            w.sv_product_bound(sticky4, mu0, 0, 0, -1)


def test_sv_product_bound_names_the_step_law_with_a_zero(monkeypatch):
    s = w.sticky_permutation_system(3, 0, 0.05)
    start = w.Distribution.point_mass(s.space, 0)
    assert w.sv_product_bound(s, start, 0, 0, 0) == 0.0  # no step, no law checked

    def no_svd(*args):
        raise AssertionError("a step SVD ran before the positivity check")

    monkeypatch.setattr("wavechain.merging._singular_values", no_svd)
    with pytest.raises(errors.ZeroWeight, match="^step law mu_0 must be strictly positive"):
        w.sv_product_bound(s, start, 0, 0, 2)


def test_nash_bound_guard_and_monotonicity():
    params = w.circle_nash_params(11, 1.0)
    two_t = int(2 * params.T)
    with pytest.raises(errors.HorizonTooShort):
        w.nash_bound(params, two_t)
    at = w.nash_bound(params, 2 * two_t)
    assert 0.0 < w.nash_bound(params, 2 * two_t + 1) < at


def test_nash_bound_dominates_exact_error_at_four_t():
    n = 11
    params = w.circle_nash_params(n, 1.0)
    s = circle_system(n)
    horizon = int(4 * params.T)
    pi = s.wave_measure.weights
    power = np.linalg.matrix_power(s.shifted.dense(), horizon)
    actual = np.max(np.abs(power / pi[None, :] - 1.0))
    assert w.nash_bound(params, horizon) >= actual


# ------------------------------------------------------ boundary machinery

def test_boundary_analysis_on_the_circle():
    s = circle_system(5)
    ba = w.boundary_analysis(s.shifted, s.wave_measure, support=(0, 1))
    g = s.map.forward
    assert set(ba.a_plus) == {g[0], g[1]}
    assert set(ba.a_minus) == {g[2], g[-1 % 5]}
    assert ba.argmax == g[1]
    assert ba.argmin == g[2]


def test_boundary_analysis_rejects_uniform_measures():
    s = w.cyclic_to_random_system(4)
    with pytest.raises(errors.UniformMeasure):
        w.boundary_analysis(s.shifted, s.wave_measure, support=(0,))


def test_boundary_analysis_needs_irreducibility():
    s = w.four_point_example()
    u = dist(s.space, [0.25] * 4)
    with pytest.raises(errors.NotIrreducible):
        w.boundary_analysis(s.shifted, u, support=(0,))


def test_boundary_analysis_on_sticky_peaks_at_the_sticky_point(sticky4):
    ba = w.boundary_analysis(
        sticky4.shifted, sticky4.wave_measure, support=(0,)
    )
    assert ba.argmax == 0  # the held permutation, fixed by the map


def test_minmax_bound_certifies_lazy_circle_with_proof_pivots():
    # comparing each extreme column through states 0 and 1 gives the
    # sharp constant 1 + eps
    for n, seed in [(7, None), (9, 7)]:
        eps = 1.0
        base = w.lazy_circle_kernel(n, eps)
        if seed is None:
            g = w.circle_shift(n, -1)
        else:
            rng = np.random.default_rng(seed)
            g = w.make_permutation(
                base.space, [int(v) for v in rng.permutation(n)]
            )
        s = w.make_wave_system(base, g)
        pi = w.stationary_distribution(s.shifted)
        f = list(g.forward)
        pivots = {
            (f[0], f[-1]): 0,
            (f[1], f[-1]): 0,
            (f[0], f[2]): 1,
            (f[1], f[2]): 1,
        }
        c = w.minmax_ratio_bound(s.shifted, pi, (0, 1), pivot=pivots)
        assert c == pytest.approx(1 + eps, abs=1e-12)
        auto = w.minmax_ratio_bound(s.shifted, pi, (0, 1))
        assert auto <= c + 1e-12
        assert np.max(pi.weights) <= (1 + eps) * np.min(pi.weights) + 1e-12


def test_minmax_bound_has_no_pivot_on_the_nonlazy_circle():
    # without holding mass the two comparison columns have disjoint
    # supports, so no single-state pivot exists
    s = circle_system(5)
    pi = s.wave_measure
    with pytest.raises(errors.InvalidPivot):
        w.minmax_ratio_bound(s.shifted, pi, (0, 1))


def test_minmax_bound_rejects_a_bad_explicit_pivot():
    s = circle_system(7, lazy=True)
    pi = w.stationary_distribution(s.shifted)
    with pytest.raises(errors.InvalidPivot):
        w.minmax_ratio_bound(s.shifted, pi, (0, 1), pivot=lambda x, y: 4)


def test_minmax_bound_is_vacuous_on_uniform_measures():
    s = w.cyclic_to_random_system(4)
    assert w.minmax_ratio_bound(s.shifted, s.wave_measure, (0,)) == 1.0


def test_minmax_bound_on_sticky(sticky4):
    c = w.minmax_ratio_bound(sticky4.shifted, sticky4.wave_measure, (0,))
    measured = float(
        np.max(sticky4.wave_measure.weights)
        / np.min(sticky4.wave_measure.weights)
    )
    assert measured <= c + 1e-10
    assert c == pytest.approx(87 / 55, abs=1e-12)


# -------------------------------------------------------- sticky systems

STICKY_RATIOS = {
    # commuting hold permutation: the measured ratio meets the bound
    (4, 0.05): 15 / 13,
    (4, 0.10): 15 / 11,
    (5, 0.05): 8 / 7,
    (5, 0.10): 4 / 3,
}


def test_sticky_ratio_meets_the_bound_for_commuting_holds():
    for (n, delta), expected in STICKY_RATIOS.items():
        s = w.sticky_permutation_system(n, tuple(range(n)), delta)
        measured, bound = w.sticky_stability_check(s, delta)
        assert measured == pytest.approx(expected, abs=1e-10)
        assert bound == pytest.approx(expected, abs=1e-10)
        assert measured <= bound + 1e-10


def test_sticky_ratio_strict_for_noncommuting_hold():
    rho = (1, 0, 2, 3)  # does not commute with the cycling map
    s = w.sticky_permutation_system(4, rho, 0.05)
    measured, bound = w.sticky_stability_check(s, 0.05)
    assert bound == pytest.approx(15 / 13, abs=1e-10)
    assert measured < bound - 1e-3


def test_sticky_check_validates_the_perturbation_shape(sticky4):
    # claiming a smaller delta than the kernel actually carries
    with pytest.raises(errors.PerturbationShapeViolated):
        w.sticky_stability_check(sticky4, 0.01)

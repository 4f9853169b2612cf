"""The blocked power-trace engine, the matrix metrics, Lanczos top-two and period.

Each fast path is checked against a plain sequential reference kept here:
the step-by-step matrix-power loop, the per-pair chi-square double loop,
the full N^3 pairwise TV and the edge-by-edge breadth-first period.  The
engine's two stepping rules, dense products and row gathers, are each
forced in turn by moving the crossover.
"""
import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wavechain as w
import wavechain.core as core
import wavechain.merging as merging
import wavechain.spectral as spectral
from wavechain import errors

from peak_memory import traced_peak

METRICS = ("total_variation", "relative_sup", "chi_square")
TRACE_RTOL = 1e-12


# ------------------------------------------------------------ references

def reference_measure(m, metric):
    if metric == "relative_sup":
        top, bot = m.max(axis=0), m.min(axis=0)
        live = top > 0.0
        if np.any((bot == 0.0) & live):
            return math.inf
        return float(np.max(top[live] / bot[live] - 1.0)) if live.any() else 0.0
    if metric == "total_variation":
        return 0.5 * float(np.abs(m[:, None, :] - m[None, :, :]).sum(axis=2).max())
    worst = 0.0
    for y in range(m.shape[0]):
        zero = m[y] == 0.0
        for x in range(m.shape[0]):
            if np.any(zero & (m[x] > 0.0)):
                return math.inf
            b = m[y][~zero]
            worst = max(worst, float(np.sum((m[x][~zero] - b) ** 2 / b)))
    return worst


def reference_merging(system, epsilon, max_steps, metric):
    tilde = system.shifted.dense()
    power = np.eye(system.space.size)
    values, hit = [], None
    for n in range(max_steps + 1):
        if n > 0:
            power = power @ tilde
        d = reference_measure(power, metric)
        values.append((n, d))
        if d < epsilon:
            hit = n
            break
    return values, hit


def reference_bounds(system, horizon, scale):
    pi = system.wave_measure
    wts = pi.weights
    sigma = float(w.weighted_singular_values(system.shifted, pi, pi).singular_values[1])
    front = np.sqrt(1.0 / wts - 1.0)
    tilde = system.shifted.dense()
    power = np.eye(system.space.size)
    worst = (0.0, 0)
    for n in range(1, horizon + 1):
        power = power @ tilde
        actual = np.abs(power / wts[None, :] - 1.0)
        excess = float(np.max(actual - scale * sigma**n * np.outer(front, front)))
        if excess > worst[0]:
            worst = (excess, n)
    return worst


def reference_period(kernel):
    graph = sp.csr_array(kernel.dense() > 0, dtype=np.int8)
    indptr, indices = graph.indptr, graph.indices
    level = np.full(kernel.size, -1, dtype=np.int64)
    level[0] = 0
    frontier, g = [0], 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in indices[indptr[u] : indptr[u + 1]]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    for u in range(kernel.size):
        for v in indices[indptr[u] : indptr[u + 1]]:
            g = math.gcd(g, int(level[u] + 1 - level[v]))
    return g if g else 1


def assert_same_trace(got, want):
    assert len(got) == len(want)
    for (n, a), (m, b) in zip(got, want):
        assert n == m
        if math.isinf(b) or b == 0.0:
            assert a == b, (n, a, b)
        else:
            assert abs(a - b) <= TRACE_RTOL * abs(b), (n, a, b)


def circle_system(n):
    base, _ = w.circle_kernel(n, 1.0)
    return w.make_wave_system(base, w.circle_shift(n, -1))


def stochastic(rng, n, zeros=0.0):
    m = rng.random((n, n)) * (rng.random((n, n)) >= zeros)
    m[np.arange(n), (np.arange(n) + 1) % n] += 0.25
    return m / m.sum(axis=1, keepdims=True)


# -------------------------------------------------------- power engine

def test_single_power_blocks_are_the_sequential_products(monkeypatch, dense_calls):
    monkeypatch.setattr(core, "POWER_BLOCK_ENTRIES", 1)
    kernel = circle_system(7).shifted
    blocks = list(core.power_blocks(kernel, 30))
    assert [first for first, _ in blocks] == list(range(1, 31))
    assert len(dense_calls) == 1  # the one view power_blocks stepped with
    power = np.eye(7)
    for _, block in blocks:
        assert block.shape == (7, 1, 7)
        power = power @ kernel.dense()
        assert np.array_equal(block[:, 0], power)


def test_multi_power_blocks_cover_every_power_once(monkeypatch):
    kernel = circle_system(9).shifted
    p = kernel.dense()
    n_max = 1000
    for entries in (core.POWER_BLOCK_ENTRIES, 40 * 81, 1):
        monkeypatch.setattr(core, "POWER_BLOCK_ENTRIES", entries)
        b = max(1, entries // 81)
        seen = []
        power = np.eye(9)
        for first, block in core.power_blocks(kernel, n_max):
            assert block.shape[1] <= b
            for j in range(block.shape[1]):
                power = power @ p
                seen.append(first + j)
                assert np.array_equal(block[:, j], power), entries  # one product a power
        assert seen == list(range(1, n_max + 1))
    assert list(core.power_blocks(kernel, 0)) == []


# the default block size, and one that splits even the corpus traces into
# several blocks of 6 to 55 powers
BLOCK_ENTRIES = pytest.mark.parametrize("entries", [core.POWER_BLOCK_ENTRIES, 500])


@BLOCK_ENTRIES
@pytest.mark.parametrize("epsilon", [1 / math.e, 0.1, 0.01])
def test_corpus_merging_times_match_the_sequential_loop(corpus, epsilon, entries, monkeypatch):
    monkeypatch.setattr(core, "POWER_BLOCK_ENTRIES", entries)
    for s in corpus:
        for metric in METRICS:
            rep = w.merging_time(s, epsilon, 200, metric)
            values, hit = reference_merging(s, epsilon, 200, metric)
            assert rep.merging_time == hit
            assert_same_trace(rep.values, values)


@BLOCK_ENTRIES
def test_scaling_families_merge_at_the_same_times(entries, monkeypatch):
    monkeypatch.setattr(core, "POWER_BLOCK_ENTRIES", entries)
    eta = 1 / math.e
    systems = [(circle_system(n), 100 + 10 * n * n) for n in range(5, 42, 4)]
    for n in (3, 4, 5):
        s = w.sticky_permutation_system(n, tuple(range(n)), 0.05)
        size = s.space.size
        systems.append((s, int(200 + 40 * size * math.log(size))))
    for s, cap in systems:
        rep = w.merging_time(s, eta, cap, "relative_sup")
        values, hit = reference_merging(s, eta, cap, "relative_sup")
        assert hit is not None and rep.merging_time == hit
        assert_same_trace(rep.values, values)


def test_repeat_merging_traces_are_bit_identical():
    s = circle_system(41)
    for metric in METRICS:
        first = w.merging_time(s, 1 / math.e, 2000, metric)
        assert w.merging_time(s, 1 / math.e, 2000, metric).values == first.values


def test_never_merging_trace_runs_to_the_horizon():
    s = w.periodic_class_example(3, 2)
    rep = w.merging_time(s, 1 / math.e, 3000)
    values, hit = reference_merging(s, 1 / math.e, 3000, "relative_sup")
    assert rep.merging_time is hit is None
    assert_same_trace(rep.values, values)


def rotation_system(n):
    # identity base kernel: the shifted kernel is the rotation itself, so the
    # relative error is n - 1 at every step and the first worst step is n = 1
    space = w.StateSpace(n)
    return w.make_wave_system(w.make_kernel(space, np.eye(n)), w.circle_shift(n, 1))


@pytest.mark.parametrize("system, horizon, scale", [
    (circle_system(9), 300, 1.0), (circle_system(21), 400, 1.0), (circle_system(9), 300, 0.3),
    (circle_system(41), 200, 0.5), (rotation_system(5), 50, 0.0),
])
def test_bound_verdicts_match_the_sequential_loop(system, horizon, scale):
    excess, step, _ = merging.bound_dominance(system, horizon, scale)
    want_excess, want_step = reference_bounds(system, horizon, scale)
    assert (excess <= 1e-12) == (want_excess <= 1e-12) == (scale == 1.0)
    assert excess == pytest.approx(want_excess, rel=1e-9, abs=1e-15)
    if scale < 1.0:
        assert step == want_step


def test_wave_identity_holds_across_blocks(monkeypatch):
    monkeypatch.setattr(core, "POWER_BLOCK_ENTRIES", 8 * 36)  # 8 powers per block
    s = w.sticky_permutation_system(3, (0, 1, 2), 0.1)
    assert w.verify_wave_identity(s, 60).max_discrepancy < 1e-12


# ------------------------------------------------------ stepping rules

def stepping(rule, entries=core.POWER_BLOCK_ENTRIES):
    """A context forcing `power_blocks` onto one stepping rule, "gather" or
    "dense", with the given block size."""
    crossover = 0 if rule == "gather" else math.inf
    return mock.patch.multiple(
        core, GATHER_MIN_STATES=crossover, GATHER_ROW_RATIO=crossover,
        POWER_BLOCK_ENTRIES=entries,
    )


def band_kernel(n, width):
    """n states, each row spread evenly over the next `width` states."""
    m = np.zeros((n, n))
    for k in range(width):
        m[np.arange(n), (np.arange(n) + k) % n] = 1.0 / width
    return w.make_kernel(w.StateSpace(n), m)


def test_the_rule_reads_the_state_count_and_the_widest_row(monkeypatch):
    chosen = []
    real = core._gather_step
    monkeypatch.setattr(core, "_gather_step", lambda *a: chosen.append(True) or real(*a))
    cases = [
        (w.periodic_class_example(3, 2).shifted, False),
        (circle_system(41).shifted, False),
        (circle_system(79).shifted, False),  # below GATHER_MIN_STATES
        (circle_system(81).shifted, True),
        (circle_system(101).shifted, True),
        (w.sticky_permutation_system(6, tuple(range(6)), 0.05).shifted, True),
        (band_kernel(100, 5), True),  # 100 = GATHER_ROW_RATIO * 5
        (band_kernel(100, 6), False),
        (band_kernel(100, 100), False),
    ]
    for kernel, gathers in cases:
        chosen.clear()
        next(core.power_blocks(kernel, 3))
        assert chosen == ([True] if gathers else []), kernel.size


@pytest.mark.parametrize("entries", [core.POWER_BLOCK_ENTRIES, 1])
@pytest.mark.parametrize("epsilon", [1 / math.e, 0.1, 0.01])
def test_gathered_corpus_merging_times_match_the_sequential_loop(
    merging_corpus, epsilon, entries
):
    # entries = 1: one power per block and one row per chunk
    with stepping("gather", entries):
        for s in merging_corpus:
            for metric in METRICS:
                rep = w.merging_time(s, epsilon, 200, metric)
                values, hit = reference_merging(s, epsilon, 200, metric)
                assert rep.merging_time == hit
                assert_same_trace(rep.values, values)


def test_gathered_scaling_families_merge_at_the_same_times():
    eta = 1 / math.e
    systems = [(circle_system(n), 100 + 10 * n * n) for n in range(5, 42, 4)]
    for n in (3, 4, 5):
        s = w.sticky_permutation_system(n, tuple(range(n)), 0.05)
        size = s.space.size
        systems.append((s, int(200 + 40 * size * math.log(size))))
    with stepping("gather"):
        for s, cap in systems:
            rep = w.merging_time(s, eta, cap, "relative_sup")
            values, hit = reference_merging(s, eta, cap, "relative_sup")
            assert hit is not None and rep.merging_time == hit
            assert_same_trace(rep.values, values)


@pytest.mark.parametrize("system, horizon", [
    (circle_system(81), 4000),
    (circle_system(101), 6000),
    (w.sticky_permutation_system(6, tuple(range(6)), 0.05), 400),
], ids=["circle-81", "circle-101", "sticky-6"])
def test_gathered_traces_of_the_default_rule_match_the_sequential_loop(system, horizon):
    rep = w.merging_time(system, 1 / math.e, horizon, "relative_sup")
    values, hit = reference_merging(system, 1 / math.e, horizon, "relative_sup")
    assert hit is not None and rep.merging_time == hit
    assert_same_trace(rep.values, values)
    assert w.merging_time(system, 1 / math.e, horizon, "relative_sup").values == rep.values


@pytest.mark.parametrize("metric", METRICS)
def test_repeat_gathered_traces_are_bit_identical(metric):
    s = circle_system(81)
    first = w.merging_time(s, 1e-3, 400, metric)
    assert w.merging_time(s, 1e-3, 400, metric).values == first.values


def assert_point_measures_are_the_trace(system, horizon):
    for metric in METRICS:
        # no distance is below this threshold: the trace runs to the horizon
        trace = w.merging_time(system, 1e-300, horizon, metric).values
        for n, d in trace:
            assert w.pairwise_merging_measure(system, n, metric) == d, (n, metric)


@pytest.mark.parametrize("entries", [core.POWER_BLOCK_ENTRIES, 1])
@pytest.mark.parametrize("rule", ["dense", "gather"])
def test_pairwise_merging_measure_is_the_trace_value(corpus, rule, entries):
    # the point measure reduces the very power the trace reduces at n
    with stepping(rule, entries):
        for s in corpus:
            assert_point_measures_are_the_trace(s, 12)


@pytest.mark.parametrize("system", [
    circle_system(101), w.sticky_permutation_system(5, tuple(range(5)), 0.1),
], ids=["circle-101", "sticky-5"])
def test_pairwise_merging_measure_is_the_trace_value_by_the_default_rule(system):
    assert_point_measures_are_the_trace(system, 12)


def test_pairwise_merging_measure_keeps_its_errors(dense_limit):
    s = circle_system(5)
    for metric in METRICS:
        with pytest.raises(errors.WindowInverted):
            w.pairwise_merging_measure(s, -1, metric)
    with pytest.raises(ValueError):
        w.pairwise_merging_measure(s, 3, "hellinger")
    with dense_limit(4):
        # n = 0 is the identity's value, read from no power
        assert w.pairwise_merging_measure(s, 0, "relative_sup") == math.inf
        with pytest.raises(errors.TooLarge, match="^refusing to densify a 5-state kernel$"):
            w.pairwise_merging_measure(s, 3, "relative_sup")


def unshifted(rows):
    space = w.StateSpace(len(rows))
    kernel = w.make_kernel(space, np.asarray(rows, dtype=float))
    return w.make_wave_system(kernel, w.make_permutation(space, list(range(len(rows)))))


def test_the_trace_at_zero_is_the_reduced_identity():
    # the n = 0 value, written from no matrix, has the bits the block
    # reducers give the identity
    for size in range(1, 12):
        s = unshifted(np.full((size, size), 1.0 / size))
        for metric in METRICS:
            want = merging._pairwise_measure_matrix(np.eye(size), metric)
            ((_, got),) = w.merging_time(s, 1e-300, 0, metric).values
            assert got.hex() == want.hex(), (size, metric)


@pytest.mark.parametrize("limit", [w.DENSE_LIMIT, 4])
def test_the_point_measure_at_zero_is_the_traces_first_value(dense_limit, limit):
    systems = [
        unshifted([[1.0]]),
        unshifted([[0.5, 0.5], [0.25, 0.75]]),
        unshifted([[0.0, 1.0], [1.0, 0.0]]),  # periodic: no metric merges
        circle_system(5),
    ]
    with dense_limit(limit):
        for s in systems:
            for metric in METRICS:
                got = w.pairwise_merging_measure(s, 0, metric)
                ((n, first),) = w.merging_time(s, 1e-300, 0, metric).values
                assert n == 0 and got.hex() == first.hex(), (s.space.size, metric)


def test_gathered_wave_identity_and_bound_verdicts():
    s = w.sticky_permutation_system(3, (0, 1, 2), 0.1)
    cases = [(circle_system(9), 300, 1.0), (circle_system(21), 400, 0.3)]
    with stepping("gather"):
        assert w.verify_wave_identity(s, 60).max_discrepancy < 1e-12
        for system, horizon, scale in cases:
            excess, step, _ = merging.bound_dominance(system, horizon, scale)
            want_excess, want_step = reference_bounds(system, horizon, scale)
            assert excess == pytest.approx(want_excess, rel=1e-9, abs=1e-15)
            assert scale == 1.0 or step == want_step


@st.composite
def sparse_kernels(draw):
    """A random kernel from triplets, some of them zero, in dense or CSR
    storage."""
    n = draw(st.integers(1, 10))
    cells = st.one_of(st.none(), st.just(0.0), st.floats(1e-3, 1.0))
    rows, cols, vals = [], [], []
    for x in range(n):
        row = draw(st.lists(cells, min_size=n, max_size=n))
        if not any(v for v in row if v is not None):
            row[draw(st.integers(0, n - 1))] = 1.0
        total = sum(v for v in row if v is not None)
        for y, v in enumerate(row):
            if v is not None:  # None is absent; 0.0 a zero triplet, not stored
                rows.append(x)
                cols.append(y)
                vals.append(v / total)
    return core._kernel_from_triplets(w.StateSpace(n), rows, cols, vals)


@settings(max_examples=150, deadline=None)
@given(sparse_kernels(), st.sampled_from([core.POWER_BLOCK_ENTRIES, 40, 1]))
def test_gathered_powers_match_the_sequential_products(kernel, entries):
    p = kernel.dense()
    with stepping("gather", entries):
        blocks = list(core.power_blocks(kernel, 20))
    power = np.eye(kernel.size)
    n = 0
    for first, block in blocks:
        assert not block.flags.writeable
        for j in range(block.shape[1]):
            n += 1
            power = power @ p
            assert first + j == n
            got = block[:, j]
            assert np.array_equal(got == 0.0, power == 0.0)
            assert np.all(np.abs(got - power) <= TRACE_RTOL * power)
    assert n == 20


@settings(max_examples=100, deadline=None)
@given(sparse_kernels(), st.sampled_from(METRICS), st.sampled_from(["dense", "gather"]))
def test_distance_traces_never_increase(kernel, metric, rule):
    # rows of P^(n+1) = P^n P are rows of P^n pushed through P, and no
    # metric here grows under a Markov kernel; 1e-12 of slack relative to
    # max(d, 1) covers the rounding
    with stepping(rule, 40):
        trace = [d for _, d in merging._distance_trace(kernel, metric, 25)]
    for before, after in zip(trace, trace[1:]):
        assert after <= before + TRACE_RTOL * max(before, 1.0), (before, after)


@st.composite
def wave_systems(draw):
    """A random irreducible kernel and permutation whose shifted kernel has
    a positive wave measure."""
    n = draw(st.integers(2, 8))
    cells = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    m = np.array([draw(st.lists(cells, min_size=n, max_size=n)) for _ in range(n)])
    m[np.arange(n), (np.arange(n) + 1) % n] += 0.25  # a cycle: irreducible
    m /= m.sum(axis=1, keepdims=True)
    g = draw(st.permutations(range(n)))
    space = w.StateSpace(n)
    system = w.make_wave_system(w.make_kernel(space, m), w.make_permutation(space, g))
    pi = system.wave_measure_or_none()
    assume(pi is not None and np.all(pi.weights > 0.0))
    return system


@settings(max_examples=100, deadline=None)
@given(wave_systems(), st.sampled_from(["dense", "gather"]))
def test_column_errors_never_grow_past_the_stop_allowance(system, rule):
    # c_n(y) = max_x |K~^n(x, y) / pi(y) - 1| cannot grow, since each row of
    # K~^(n+1) averages rows of K~^n; the computed errors may, by at most
    # the rounding allowance 2 H N u (1 + c_n(y)) that stops `bound_dominance`
    horizon, n = 40, system.space.size
    slack = 2.0 * horizon * n * np.finfo(np.float64).eps / 2
    wts = system.wave_measure.weights
    errors_by_power = []
    with stepping(rule, 3 * n * n):
        for _, block in core.power_blocks(system.shifted, horizon):
            high = block.max(axis=0) / wts - 1.0
            low = 1.0 - block.min(axis=0) / wts
            errors_by_power.extend(np.maximum(high, low))
    for before, after in zip(errors_by_power, errors_by_power[1:]):
        assert np.all(after <= before + slack * (1.0 + before)), (before, after)


def test_gather_memory_stays_within_a_few_powers():
    s = w.sticky_permutation_system(6, tuple(range(6)), 0.05)
    kernel = s.shifted
    n = kernel.size

    def step_through():
        for _ in core.power_blocks(kernel, 6):
            pass

    peak = traced_peak(step_through)
    # P and its copy in the first block, then two powers and one chunk of
    # gathered rows; one unchunked (N, d, N) gather alone would take d = 6
    # powers
    assert peak < 3 * n * n * 8


def test_dense_memory_stays_within_one_block_and_two_powers():
    n = 79  # below GATHER_MIN_STATES: the dense rule
    kernel = w.make_kernel(w.StateSpace(n), stochastic(np.random.default_rng(6), n))
    b = core.POWER_BLOCK_ENTRIES // (n * n)
    assert b > 1

    def step_through():
        for _ in core.power_blocks(kernel, 300):
            pass

    peak = traced_peak(step_through)
    # past the block the caller still holds while the next one fills: that
    # block, P and one power of slack; a stack of the first b powers kept
    # to multiply with would add a block
    assert peak <= (2 * b + 2) * n * n * 8


# ------------------------------------------------------------- metrics

@st.composite
def stochastic_with_zeros(draw):
    n = draw(st.integers(1, 7))
    cells = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    rows = [draw(st.lists(cells, min_size=n, max_size=n)) for _ in range(n)]
    m = np.array(rows)
    m[m.sum(axis=1) == 0.0, 0] = 1.0
    return m / m.sum(axis=1, keepdims=True)


@settings(max_examples=300, deadline=None)
@given(stochastic_with_zeros())
def test_chi_square_matrix_formula_matches_the_pair_definition(m):
    space = w.StateSpace(m.shape[0])
    rows = [w.Distribution(space, r / r.sum()) for r in m]
    want = max(w.chi_square_distance(a, b) for a in rows for b in rows)
    got = merging._pairwise_measure_matrix(m, "chi_square")
    if math.isinf(want):
        assert math.isinf(got)
    else:
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_tv_row_blocks_equal_the_full_pairwise_sum():
    m = stochastic(np.random.default_rng(3), 40, zeros=0.5)
    want = reference_measure(m, "total_variation")
    assert merging._pairwise_measure_matrix(m, "total_variation") == want


def test_tv_measure_memory_stays_far_below_one_cubic_temporary():
    n = 300  # one n^3 float temporary would take 216 MB
    m = stochastic(np.random.default_rng(5), n)
    assert traced_peak(lambda: merging._pairwise_measure_matrix(m, "total_variation")) < 40e6


def test_relative_sup_block_matches_each_matrix():
    rng = np.random.default_rng(11)
    mats = [stochastic(rng, 6, zeros=z) for z in (0.0, 0.3, 0.7)] + [np.eye(6)]
    block = np.stack(mats, axis=1)
    got = merging._relative_sup_block(block)
    assert got == [reference_measure(m, "relative_sup") for m in mats]


# ---------------------------------------------------------------- period

def cyclic_classes_kernel(rng, k, size):
    """Random kernel moving class i to class i + 1 mod k: period k when irreducible."""
    n = k * size
    m = np.zeros((n, n))
    for x in range(n):
        nxt = ((x // size + 1) % k) * size
        m[x, nxt : nxt + size] = rng.random(size) * (rng.random(size) < 0.7)
        m[x, nxt + x % size] += 0.5
    return w.make_kernel(w.StateSpace(n), m / m.sum(axis=1, keepdims=True))


def test_period_matches_the_breadth_first_loop(corpus):
    rng = np.random.default_rng(17)
    kernels = [s.shifted for s in corpus]
    kernels += [w.periodic_class_example(k, c).shifted for k in (2, 3, 4) for c in (1, 2, 3)]
    kernels += [w.binary_cycling_system(b).shifted for b in (3, 4, 5)]
    kernels += [cyclic_classes_kernel(rng, k, c) for k in (2, 3, 4, 6) for c in (1, 2, 3)]
    kernels = [k for k in kernels if w.is_irreducible(k)]
    assert len(kernels) > 150
    periods = [w.period(k) for k in kernels]
    assert {2, 3, 4, 6} <= set(periods)
    assert periods == [reference_period(k) for k in kernels]


# ------------------------------------------------------------- top two

def test_top_two_on_the_slow_sticky_spectrum():
    s = w.sticky_permutation_system(7, tuple(range(7)), 0.05)
    pi = s.wave_measure
    assert s.space.size > w.DENSE_LIMIT
    dec = w.weighted_singular_values(s.shifted, pi, pi)
    assert dec.singular_values[1] == pytest.approx(0.92862971, abs=1e-8)
    again = w.weighted_singular_values(s.shifted, pi, pi)
    assert np.array_equal(dec.singular_values, again.singular_values)
    assert np.array_equal(dec.right_basis, again.right_basis)
    assert np.array_equal(dec.left_basis, again.left_basis)
    # K phi_1 = sigma_1 psi_1, with the heaviest entry of the avatar vector positive
    phi, psi = dec.right_basis[:, 1], dec.left_basis[:, 1]
    assert np.max(np.abs(core._mat_vec(s.shifted, phi) - dec.singular_values[1] * psi)) < 1e-9
    v = phi * np.sqrt(pi.weights)
    assert v[int(np.argmax(np.abs(v)))] > 0


# sigma_1 as the ARPACK (scipy eigsh) top-two path computed it before the
# Lanczos solver replaced it, on the wave measure where the shifted kernel
# has one and on the uniform measure otherwise
ARPACK_SIGMA1 = {
    "sticky-7": (lambda: w.sticky_permutation_system(7, 0, 0.05), 0.9286297132291346),
    "sticky-7-delta-0.3": (lambda: w.sticky_permutation_system(7, 0, 0.3), 0.9311327587558048),
    "cyclic-to-random-7": (lambda: w.cyclic_to_random_system(7), 0.8571428571428571),
    "deck-reversal-7": (lambda: w.deck_reversal_system(7), 1.0),
    "binary-cycling-13": (lambda: w.binary_cycling_system(13), 1.0),
}


@pytest.mark.parametrize("name", ARPACK_SIGMA1)
def test_top_two_keeps_the_arpack_sigma1(name):
    build, want = ARPACK_SIGMA1[name]
    s = build()
    assert s.space.size > w.DENSE_LIMIT
    mu = s.wave_measure_or_none()
    if mu is None:
        mu = w.Distribution.uniform(s.space)
    got = w.weighted_singular_values(s.shifted, mu, mu).singular_values[1]
    assert abs(got - want) <= 1e-13 * want


def test_top_two_reaches_the_slow_lazy_cycle(monkeypatch):
    # the lazy walk on a 4500-cycle: sigma_1 = 1/2 + cos(2 pi / n) / 2 is a
    # double eigenvalue of the Gram operator, 2.9e-6 from the next one, so it
    # takes thousands of products (2-3 s on one core)
    n = 4500
    x = np.arange(n)
    rows = np.concatenate([x, x, x])
    cols = np.concatenate([x, (x + 1) % n, (x - 1) % n])
    vals = np.repeat([0.5, 0.25, 0.25], n)
    space = w.StateSpace(n)
    kernel = core._kernel_from_triplets(space, rows, cols, vals)
    uniform = w.Distribution.uniform(space)
    products = []
    solve = spectral._top_eigenvector

    def counted(op, start, rank):
        def counting_op(v):
            products.append(1)
            return op(v)

        return solve(counting_op, start, rank)

    monkeypatch.setattr(spectral, "_top_eigenvector", counted)
    sigma = w.weighted_singular_values(kernel, uniform, uniform).singular_values[1]
    assert sigma == pytest.approx(0.5 + 0.5 * math.cos(2 * math.pi / n), rel=1e-13)
    assert len(products) < 6000


def top_two(dense_limit, kernel, mu_in, mu_out):
    """`weighted_singular_values` on the Lanczos top-two path, which the
    state count picks above DENSE_LIMIT, with the kernel's products taken
    from its CSR triple as they are there."""
    with dense_limit(0):
        return w.weighted_singular_values(kernel, mu_in, mu_out)


def test_top_two_matches_dense_singular_values_on_the_corpus(corpus, dense_limit):
    for s in corpus:
        pi = s.wave_measure_or_none()
        if pi is None:
            continue
        top = top_two(dense_limit, s.shifted, pi, pi).singular_values
        full = w.weighted_singular_values(s.shifted, pi, pi).singular_values
        assert abs(top[1] - full[1]) < 1e-9


def test_top_two_of_a_rank_one_kernel_is_zero(dense_limit):
    n = 8
    space = w.StateSpace(n)
    uniform = w.Distribution.uniform(space)
    flat = w.make_kernel(space, np.full((n, n), 1.0 / n))
    dec = top_two(dense_limit, flat, uniform, uniform)
    assert dec.singular_values[1] == 0.0
    pi = np.random.default_rng(2).random(n)
    pi /= pi.sum()
    mu = w.Distribution(space, pi)
    tilted = w.make_kernel(space, np.tile(pi, (n, 1)))
    assert top_two(dense_limit, tilted, mu, mu).singular_values[1] < 1e-12


# ---------------------------------------------------------- typed errors

def test_top_two_flow_mismatch_is_a_value_error(dense_limit):
    s = circle_system(7)
    pi = np.arange(1.0, 8.0)
    mu = w.Distribution(s.space, pi / pi.sum())
    with pytest.raises(errors.FlowMismatch) as info:
        top_two(dense_limit, s.shifted, mu, mu)
    assert isinstance(info.value, ValueError)


def test_lanczos_non_convergence_is_typed(dense_limit, monkeypatch):
    s = circle_system(101)  # clustered spectrum: one basis is not enough
    pi = s.wave_measure
    sigma = w.weighted_singular_values(s.shifted, pi, pi).singular_values[1]
    assert top_two(dense_limit, s.shifted, pi, pi).singular_values[1] == (
        pytest.approx(sigma, abs=1e-10)
    )
    monkeypatch.setattr(spectral, "_LANCZOS_MAX_PRODUCTS", spectral._LANCZOS_BASIS)
    with pytest.raises(errors.NotConverged):
        top_two(dense_limit, s.shifted, pi, pi)


def test_stationary_refinement_failure_is_typed(dense_limit, monkeypatch):
    s = circle_system(9)
    monkeypatch.setattr(spectral, "_STATIONARY_MAX_STEPS", 2)
    with dense_limit(0):  # start from uniform
        with pytest.raises(errors.NotConverged):
            w.stationary_distribution(s.shifted)
        with pytest.raises(errors.NotConverged):
            w.make_wave_system(s.base, s.map).wave_measure_or_none()


def test_wave_measure_checks_irreducibility_once(monkeypatch):
    # one connectivity check is two level searches, forward and reversed;
    # a forward search that misses a state settles it alone
    calls = []
    real = spectral._search_levels

    def counting(n, tails, heads, start):
        calls.append(n)
        return real(n, tails, heads, start)

    monkeypatch.setattr(spectral, "_search_levels", counting)
    fresh = circle_system(9)
    assert fresh.wave_measure_or_none() is not None
    assert len(calls) == 2
    four = w.four_point_example()
    reducible = w.make_wave_system(four.base, four.map)
    assert reducible.wave_measure_or_none() is None
    assert len(calls) == 3
    assert reducible.wave_measure_or_none() is None  # cached
    assert len(calls) == 3

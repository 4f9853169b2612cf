"""The batched and screened fast paths against the code they replaced.

Each reference below is the earlier implementation, kept verbatim in
behaviour: the ordered-pair row-block TV, the per-matrix metrics and
per-power distance trace that the block reducers replaced, the per-power
bound loop, the screened bound loop that ran to the horizon, the per-map
wave system of the circle scan, the single dense stationary solve, the
single-start level search and the `json.dumps` report writer.  Every
comparison is bit for bit.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavechain as w
import wavechain.cli as cli
import wavechain.core as core
import wavechain.errors as errors
import wavechain.merging as merging
import wavechain.models as models
import wavechain.spectral as spectral
from wavechain.core import power_blocks
from peak_memory import traced_peak
from test_power_engine import METRICS, circle_system, stepping, stochastic


# ------------------------------------------------------------ references

def old_tv(m, block_entries=1 << 20):
    """Worst TV over ordered row pairs, in row blocks of |row_x - row_y|."""
    n = m.shape[0]
    rows = max(1, block_entries // (n * n))
    worst = 0.0
    for r in range(0, n, rows):
        diff = np.abs(m[r : r + rows, None, :] - m[None, :, :]).sum(axis=2)
        worst = max(worst, float(diff.max()))
    return 0.5 * worst


def chunked_tv(m, chunk_entries=1 << 20):
    """Worst TV over the pairs x < y of one matrix, in chunks of
    chunk_entries // N pairs, each pair found by searchsorted."""
    n = m.shape[0]
    row_start = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1), out=row_start[1:])
    pairs = n * (n - 1) // 2
    chunk = max(1, chunk_entries // n)
    worst = 0.0
    for lo in range(0, pairs, chunk):
        p = np.arange(lo, min(pairs, lo + chunk))
        x = np.searchsorted(row_start, p, side="right") - 1
        diff = m[x]
        diff -= m[p - row_start[x] + x + 1]
        np.abs(diff, out=diff)
        worst = max(worst, float(diff.sum(axis=1).max()))
    return 0.5 * worst


def matrix_chi_square(m):
    """Worst chi-square of one matrix, by one matrix product."""
    zero = m == 0.0
    live = ~zero.all(axis=0)
    if np.any(zero[:, live]):
        return math.inf
    sub = m[:, live]
    chi = (sub * sub) @ (1.0 / sub).T - 1.0
    return max(0.0, float(chi.max()))


def relative_sup_columns(block):
    """Worst relative-sup of each block[:, j], from column extremes."""
    top = block.max(axis=0)
    bot = block.min(axis=0)
    live = top > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(live, top / bot - 1.0, -np.inf)
    worst = ratio.max(axis=1)
    worst[((bot == 0.0) & live).any(axis=1)] = math.inf
    return worst.tolist()


def matrix_measure(m, metric):
    if metric == "relative_sup":
        return relative_sup_columns(m[:, None, :])[0]
    if metric == "total_variation":
        return chunked_tv(m)
    return matrix_chi_square(m)


def per_power_trace(kernel, metric, max_steps):
    """The distance trace with relative-sup by blocks and the others one
    power at a time."""
    yield 0, matrix_measure(np.eye(kernel.size), metric)
    for first, block in power_blocks(kernel, max_steps):
        if metric == "relative_sup":
            yield from enumerate(relative_sup_columns(block), first)
        else:
            for j in range(block.shape[1]):
                yield first + j, matrix_measure(block[:, j], metric)


def old_bound_dominance(system, horizon, scale=1.0):
    """The per-power loop: every entry of every power against its bound."""
    w_, front, sigma = merging._bound_factors(system)
    outer = np.outer(front, front)
    worst = (0.0, 0)
    for first, block in power_blocks(system.shifted, horizon):
        for n, power in enumerate(block.transpose(1, 0, 2), first):
            excess = power / w_
            excess -= 1.0
            np.abs(excess, out=excess)
            excess -= scale * sigma**n * outer
            e = float(excess.max())
            if e > worst[0]:
                worst = (e, n)
    return worst[0], worst[1], sigma


def screened_bound_dominance(system, horizon, scale=1.0):
    """The screened loop before its early stop: every power to the horizon."""
    w_, front, sigma = merging._bound_factors(system)
    outer = np.outer(front, front)
    screen = outer[int(np.argmin(front))] if scale >= 0.0 else None
    worst = (0.0, 0)
    for first, block in power_blocks(system.shifted, horizon):
        steps = range(first, first + block.shape[1])
        if screen is not None:
            high = block.max(axis=0) / w_ - 1.0
            low = 1.0 - block.min(axis=0) / w_
            floor = np.array([scale * sigma**n for n in steps])[:, None] * screen
            cleared = ((high <= floor) & (low <= floor)).all(axis=1).tolist()
            steps = [n for n, ok in zip(steps, cleared) if not ok]
        for n in steps:
            excess = block[:, n - first] / w_
            excess -= 1.0
            np.abs(excess, out=excess)
            excess -= scale * sigma**n * outer
            e = float(excess.max())
            if e > worst[0]:
                worst = (e, n)
    return worst[0], worst[1], sigma


def old_stationary(kernel):
    """One bordered dense solve, then the damped refinement."""
    n = kernel.size
    a = kernel.dense().T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    pi = np.where(pi < 0.0, 0.0, pi)
    pi = pi / pi.sum()
    mat = kernel.dense()
    for _ in range(100_000):
        step = pi @ mat
        if float(np.max(np.abs(step - pi))) <= 1e-12:
            break
        pi = 0.5 * (pi + step)
        pi = pi / pi.sum()
    return pi / pi.sum()


def old_uniform_stationary(kernel):
    """The uniform vector, then the damped refinement on the CSR product."""
    n = kernel.size
    pi = np.full(n, 1.0 / n)
    pi = pi / pi.sum()
    for _ in range(100_000):
        step = core._vec_mat(pi, kernel)
        if float(np.max(np.abs(step - pi))) <= 1e-12:
            break
        pi = 0.5 * (pi + step)
        pi = pi / pi.sum()
    return pi / pi.sum()


def old_search_levels(n, tails, heads, start):
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


def old_jsonable(obj):
    """The report preparation pass, with NaN written as "nan"."""
    if isinstance(obj, dict):
        return {str(k): old_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    return obj


def old_json_text(doc):
    return json.dumps(old_jsonable(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


# ------------------------------------------------------------ pairwise TV

def test_tv_equals_the_ordered_pair_formula_on_the_corpus_powers(merging_corpus):
    for system in merging_corpus:
        p = system.shifted.dense()
        power = np.eye(system.space.size)
        for _ in range(4):
            assert merging._pairwise_measure_matrix(power, "total_variation") == old_tv(power)
            power = power @ p


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.sampled_from([0.0, 0.3, 0.8]), st.integers(0, 2**32 - 1))
def test_tv_equals_the_ordered_pair_formula_on_random_matrices(n, zeros, seed):
    m = stochastic(np.random.default_rng(seed), n, zeros=zeros)
    assert merging._pairwise_measure_matrix(m, "total_variation") == old_tv(m)


def test_tv_of_one_state_is_zero():
    assert merging._pairwise_measure_matrix(np.ones((1, 1)), "total_variation") == 0.0


@pytest.mark.parametrize("entries", [1, 7, 40, 41 * 3 + 5])
def test_tv_chunks_that_split_rows_give_the_same_value(entries):
    # the pair chunker the block reducer replaced, at chunk sizes that
    # split the pairs of one row across chunks
    m = stochastic(np.random.default_rng(4), 41, zeros=0.5)
    got = merging._pairwise_measure_matrix(m, "total_variation")
    assert got == chunked_tv(m, entries) == old_tv(m)


def test_tv_traces_are_unchanged():
    system = circle_system(41)
    got = w.merging_time(system, 1 / math.e, 1000, "total_variation")
    assert got.merging_time == 418
    for first, block in power_blocks(system.shifted, 60):
        for j in range(block.shape[1]):
            assert got.values[first + j][1] == old_tv(block[:, j])


# ------------------------------------------------------------ block reducers

@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 6),
    st.sampled_from([0.0, 0.3, 0.7, 0.95]),
    st.integers(0, 2**32 - 1),
)
def test_block_reducers_equal_the_per_matrix_metrics(n, b, zeros, seed):
    # heavy zeros leave empty columns and mixed ones (chi-square and
    # relative-sup infinite); an empty row gets one unit entry
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(b):
        m = rng.random((n, n)) * (rng.random((n, n)) >= zeros)
        m[m.sum(axis=1) == 0.0, rng.integers(n)] = 1.0
        mats.append(m / m.sum(axis=1, keepdims=True))
    block = np.stack(mats, axis=1)
    block.flags.writeable = False
    for metric in METRICS:
        want = [matrix_measure(m, metric) for m in mats]
        assert same_bits(merging._BLOCK_MEASURES[metric](block), want), metric
        got = [merging._pairwise_measure_matrix(block[:, j], metric) for j in range(b)]
        assert same_bits(got, want), metric


@pytest.mark.parametrize("rule", ["dense", "gather"])
def test_distance_traces_equal_the_per_power_loop_on_the_corpus(merging_corpus, rule):
    with stepping(rule, 200):  # b = 22 powers a block at N = 3, 2 at N = 9
        for system in merging_corpus:
            for metric in METRICS:
                got = list(merging._distance_trace(system.shifted, metric, 40))
                want = list(per_power_trace(system.shifted, metric, 40))
                assert same_bits(got, want), metric


@pytest.mark.parametrize("metric", METRICS)
def test_distance_traces_equal_the_per_power_loop_on_circle_81(metric):
    kernel = circle_system(81).shifted  # row gathers, b = 9 powers a block
    got = list(merging._distance_trace(kernel, metric, 45))
    want = list(per_power_trace(kernel, metric, 45))
    assert same_bits(got, want)


# ------------------------------------------------------------ bound loop

def periodic_identity(k, class_size):
    # the identity map keeps the period-k base as the shifted kernel, which
    # has a wave measure (the model's own map makes it reducible)
    base = w.periodic_class_example(k, class_size).base
    return w.make_wave_system(base, w.make_permutation(base.space, np.arange(base.size)))


BOUND_SYSTEMS = {
    "circle-5": lambda: circle_system(5),
    "circle-9": lambda: circle_system(9),
    "circle-21": lambda: circle_system(21),
    "circle-41": lambda: circle_system(41),
    "sticky-3": lambda: models.build_model("sticky", {"n": 3}),
    "lazy-circle-9": lambda: models.build_model("lazy-circle", {"n": 9}),
    "periodic-classes-2-2": lambda: periodic_identity(2, 2),
}


@pytest.mark.parametrize("scale", [1.0, 0.5, 0.3, 0.0, -1.0, 1e-6])
@pytest.mark.parametrize("name", BOUND_SYSTEMS)
def test_bound_dominance_equals_the_per_power_loop(name, scale):
    system = BOUND_SYSTEMS[name]()
    got = merging.bound_dominance(system, 300, scale)
    assert got == old_bound_dominance(system, 300, scale)


def test_bound_dominance_equals_the_per_power_loop_on_the_corpus(merging_corpus):
    for system in merging_corpus[::4]:
        for scale in (1.0, 0.3, 0.0, -1.0):
            assert merging.bound_dominance(system, 40, scale) == old_bound_dominance(
                system, 40, scale
            )


@pytest.mark.parametrize("scale", [-1.0, -1e-6, 1.0])
def test_a_column_clears_only_against_its_smallest_bound(scale):
    # column 0 of every power is pi(0) = 1/2, so its error is exactly 0,
    # and every other entry stays a third below its bound: sigma1_tilde is
    # 1/2 and f = [1, sqrt(3), sqrt(3)], positive in exact arithmetic.  With
    # scale < 0 the excess |scale| sigma^n f(x) f(0) of column 0 is
    # positive, so that column may clear only against a floor of at least 0
    half, quarter = 0.5, 0.25
    rows = [[half, quarter, quarter], [half, 0.0, half], [half, half, 0.0]]
    kernel = w.make_kernel(w.StateSpace(3), np.array(rows))
    system = w.make_wave_system(kernel, w.make_permutation(kernel.space, [0, 1, 2]))
    assert system.wave_measure.weights.tolist() == [half, quarter, quarter]
    got = merging.bound_dominance(system, 5, scale)
    assert got == old_bound_dominance(system, 5, scale)
    assert (got[0] > 0.0) == (scale < 0.0)


@pytest.mark.parametrize("scale", [-1.0, -1e-6, 1.0])
def test_a_negative_scale_screens_against_the_largest_factor(scale):
    # the wave measure is [t, 1.0], so f = [sqrt(1/t - 1), 0] and every
    # power has error 0; a screen against the smallest factor's row, whose
    # floors are all -0.0, would clear every column.  The excess
    # |scale| sigma^n f(0)^2 is then lost wherever the computed sigma1_tilde
    # is positive; it is 0 in exact arithmetic, and under some BLAS kernels
    # in floats too, where both screens agree.  No kernel with a
    # certainly positive sigma1_tilde tells the rows apart: a skipped power
    # holds the worst excess only if power 1 is skipped too, so K~ / pi - 1
    # rounds to 0 everywhere and sigma1_tilde is within rounding of 0
    t = 1e-17
    kernel = w.make_kernel(w.StateSpace(2), np.array([[t, 1.0], [t, 1.0]]))
    system = w.make_wave_system(kernel, w.make_permutation(kernel.space, [0, 1]))
    assert system.wave_measure.weights.tolist() == [t, 1.0]
    assert merging.bound_dominance(system, 5, scale) == old_bound_dominance(system, 5, scale)


def test_the_bound_loop_stops_once_its_proof_closes(monkeypatch):
    # circle-81's verdict is fixed near power 1620 of 6000
    drawn = []

    def counting(kernel, n_max):
        for first, block in power_blocks(kernel, n_max):
            drawn.append(block.shape[1])
            yield first, block

    system = circle_system(81)
    want = screened_bound_dominance(system, 6000)
    monkeypatch.setattr(merging, "power_blocks", counting)
    assert merging.bound_dominance(system, 6000) == want
    assert sum(drawn) <= 1700


def test_the_bound_loop_asks_for_one_dense_view(dense_calls):
    # the powers' view is the only one: pi and sigma1_tilde are solved on
    # operands written from the CSR triple, and the refusal check is the
    # powers' own
    merging.bound_dominance(circle_system(81), 6000)
    assert len(dense_calls) == 1


@pytest.mark.parametrize("rule", ["dense", "gather"])
def test_the_early_stop_keeps_every_screened_result(corpus, rule):
    systems = [s for s in corpus if s.wave_measure_or_none() is not None]
    systems += [circle_system(n) for n in (5, 9, 21, 41)]
    with stepping(rule):
        for system in systems:
            for horizon in (30, 300):
                for scale in (0.0, 0.02, 0.3, 1.0):
                    got = merging.bound_dominance(system, horizon, scale)
                    assert got == screened_bound_dominance(system, horizon, scale)


# ------------------------------------------------------------ stationary solves

def test_dense_stationary_solve_is_the_single_solve(corpus):
    for system in corpus:
        if w.is_irreducible(system.shifted):
            got = w.stationary_distribution(system.shifted).weights
            assert same_bits(got, old_stationary(system.shifted))


def reference_weights(base, forwards):
    """For each forward map, the invariant weights of the shifted kernel
    from the reference solve for its size (`old_stationary` up to
    DENSE_LIMIT states, `old_uniform_stationary` above), or None where the
    shifted kernel is reducible."""
    solve = old_stationary if base.size <= core.DENSE_LIMIT else old_uniform_stationary
    out = []
    for fwd in forwards:
        shifted = w.shift_kernel(base, w.make_permutation(base.space, fwd))
        out.append(solve(shifted) if w.is_irreducible(shifted) else None)
    return out


def assert_same_weights(base, forwards, want):
    """The solver, given the maps whose shifted kernel is irreducible,
    returns their reference weights bit for bit; on every other map the
    invariant-measure solve refuses with NotIrreducible."""
    irreducible = [fwd for fwd, pi in zip(forwards, want) if pi is not None]
    got = spectral._shifted_stationary_weights(base, irreducible)
    assert len(got) == len(irreducible)
    for a, b in zip(got, [pi for pi in want if pi is not None]):
        assert same_bits(a, b)
    for fwd, pi in zip(forwards, want):
        if pi is None:
            shifted = w.shift_kernel(base, w.make_permutation(base.space, fwd))
            with pytest.raises(errors.NotIrreducible):
                w.stationary_distribution(shifted)


@pytest.mark.parametrize("stack_entries", [1, 3 * 9 * 9, 1 << 18])
def test_batched_shift_solves_equal_the_wave_systems(corpus, stack_entries, monkeypatch):
    monkeypatch.setattr(spectral, "_STACK_ENTRIES", stack_entries)
    rng = np.random.default_rng(9)
    reducible = 0
    for system in corpus[::5]:
        n = system.space.size
        forwards = [system.map.forward, np.arange(n)] + [rng.permutation(n) for _ in range(5)]
        want = reference_weights(system.base, forwards)
        reducible += sum(pi is None for pi in want)
        assert_same_weights(system.base, forwards, want)
    assert reducible  # the identity map of a base without loops, among others


def test_batched_shift_solves_from_the_uniform_start(corpus, dense_limit):
    # above DENSE_LIMIT states there is no direct solve: each map starts
    # from the uniform vector, and each step is a CSR product, as it is on
    # the shifted kernel itself
    rng = np.random.default_rng(10)
    with dense_limit(0):
        for system in corpus[:20]:
            n = system.space.size
            base = system.base
            forwards = [system.map.forward] + [rng.permutation(n) for _ in range(3)]
            want = reference_weights(base, forwards)
            assert_same_weights(base, forwards, want)


@pytest.mark.parametrize("model", ["circle", "lazy-circle"])
def test_the_scan_solves_above_the_dense_limit(model):
    # at eps = 1e-9 the uniform start of each map is already within the
    # residual target; the scan needs no dense matrix to finish
    params = {"n": core.DENSE_LIMIT + 1, "eps": 1e-9}
    doc = models.scan_permutations(model, params, 2, 1)
    assert doc["rows"] == reference_scan_rows(model, params["n"], 2, 1, params["eps"])


def reference_scan_rows(model, n, count, seed, eps=None):
    params = {"n": n} if eps is None else {"n": n, "eps": eps}
    kernel = models.build_model(model, params).base
    rng = np.random.default_rng(seed)
    maps = [(f"shift:{s:+d}", (np.arange(n) + s) % n) for s in (1, -1, 2, -2)]
    maps += [(f"random:{j}", rng.permutation(n)) for j in range(count)]
    rows = []
    for (name, _), pi in zip(maps, reference_weights(kernel, [fwd for _, fwd in maps])):
        if pi is None:
            rows.append({"map": name, "ratio": "inf", "status": "reducible"})
            continue
        proven = model == "lazy-circle" or name.startswith("shift:")
        status = "proven" if proven else "empirical"
        rows.append({"map": name, "ratio": float(np.max(pi) / np.min(pi)), "status": status})
    return rows


@pytest.mark.parametrize("stack_entries", [5 * 5 * 7, 1 << 18])
@pytest.mark.parametrize("n", [5, 9, 41])
@pytest.mark.parametrize("model", ["circle", "lazy-circle"])
def test_scan_rows_equal_the_per_map_wave_systems(model, n, stack_entries, monkeypatch):
    monkeypatch.setattr(spectral, "_STACK_ENTRIES", stack_entries)
    doc = models.scan_permutations(model, {"n": n}, 60, 3)
    assert doc["rows"] == reference_scan_rows(model, n, 60, 3)


def test_scan_memory_stays_bounded_by_its_batches():
    # batched, the scan peaks near 3.4 MB; one unbatched stack of the 1004
    # shifted kernels peaked near 31 MB
    models.scan_permutations("lazy-circle", {"n": 41}, 10, 1)  # warm caches first
    peak = traced_peak(lambda: models.scan_permutations("lazy-circle", {"n": 41}, 1000, 1))
    assert peak < 8e6


# ------------------------------------------------------------ level search

@st.composite
def disjoint_graphs(draw):
    graphs = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 9))
        edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n))
        graphs.append((n, edges, draw(st.integers(0, n - 1))))
    return graphs


@settings(max_examples=300, deadline=None)
@given(disjoint_graphs())
def test_a_multi_start_search_equals_the_separate_searches(graphs):
    # one start per drawn graph, each searched on its own
    for n, edges, start in graphs:
        t = np.array([a for a, _ in edges], dtype=np.int64)
        h = np.array([b for _, b in edges], dtype=np.int64)
        got = spectral._search_levels(n, t, h, start)
        assert got.tolist() == old_search_levels(n, t, h, start).tolist()


# ------------------------------------------------------------ report encoder

keys = st.one_of(st.text(max_size=6), st.integers(-50, 50), st.booleans(), st.none())
numpy_scalars = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.booleans().map(np.bool_),
    st.floats(width=32).map(np.float32),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.sampled_from(["", "é", " ", "tab\there", 'quote"back\\slash', "\U0001f600", "\ud800"]),
    numpy_scalars,
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(keys, inner, max_size=6),
    ),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(keys, documents, max_size=6))
def test_the_report_encoder_writes_what_json_dumps_writes(doc):
    assert cli._json_text(doc) == old_json_text(doc)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.lists(scalars, max_size=4), st.lists(scalars, max_size=4).map(tuple),
                          documents), max_size=8))
def test_the_report_encoder_writes_rows_of_scalars_as_json_dumps_does(rows):
    # mostly lists of plain-scalar rows, each written in one join, with
    # now and then a row that is not one
    doc = {"trace": rows, "nested": {"trace": rows}}
    assert cli._json_text(doc) == old_json_text(doc)


def test_the_report_encoder_on_a_merging_report():
    rep = w.merging_time(w.periodic_class_example(3, 2), 1 / math.e, 200)
    doc = {"results": {"merging": rep.to_document()}, "violations": [], "n": np.int64(3)}
    assert cli._json_text(doc) == old_json_text(doc)


def test_nan_is_written_as_nan():
    text = cli._json_text({"a": float("nan"), "b": [np.float64("nan"), -math.inf]})
    assert json.loads(text) == {"a": "nan", "b": ["nan", "-inf"]}


def test_the_report_encoder_rejects_what_json_cannot_write():
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._json_text({"a": object()})

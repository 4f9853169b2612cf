"""One lane walk behind every simulation.

`sample_path`, `empirical_distribution` and `empirical_wave_profile` read
their states off `sim._walk`.  Each is checked for exact equality against
the loop it replaced, kept here as the reference: a one-lane path stepped
on replica 0, an endpoint loop over all replicas, and the burn-in and
stride loops of the wave profile with their step counter.

The walk finishes hoisted stream keys block by block and steps with a flat
log-width search.  Below, it is also checked against the padded-row argmax
step it replaced (`ArgmaxTable`) with a fresh `uniforms` call per step, on
lane counts that cross the block boundary.
"""
from itertools import islice

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import wavechain as w
import wavechain.sim as sim
from wavechain.rng import _uniforms_at, uniforms
from wavechain.sim import _MAX_LANES, _RowTable

SEEDS = (0, 1, 7, 123)


def circle(n):
    base, _ = w.circle_kernel(n, 1.0)
    return w.make_wave_system(base, w.circle_shift(n, -1))


SYSTEMS = {
    "circle-5": circle(5),
    "circle-41": circle(41),
    "sticky-4": w.sticky_permutation_system(4, (0, 1, 2, 3), 0.05),
}


# ------------------------------------------------------------ references

def reference_path(system, start, n, seed):
    table = _RowTable(system.shifted)
    ginv = system.map.inverse
    back = np.arange(system.space.size, dtype=np.int64)
    z = np.array([start], dtype=np.int64)
    steps = [start]
    for i in range(1, n + 1):
        z = table.step(z, uniforms(seed, 0, i - 1))
        back = back[ginv]
        steps.append(int(back[z[0]]))
    return tuple(steps)


def reference_distribution(system, start, n, trials, seed):
    table = _RowTable(system.shifted)
    z = np.full(trials, start, dtype=np.int64)
    replicas = np.arange(trials, dtype=np.uint64)
    for i in range(1, n + 1):
        z = table.step(z, uniforms(seed, replicas, i - 1))
    ends = system.map.power_map(-n)[z]
    counts = np.bincount(ends, minlength=system.space.size).astype(float)
    return counts / counts.sum()


def reference_profile(system, burn_in, stride, samples, seed):
    lanes = min(_MAX_LANES, samples)
    per_lane = -(-samples // lanes)
    table = _RowTable(system.shifted)
    z = np.zeros(lanes, dtype=np.int64)
    replicas = np.arange(lanes, dtype=np.uint64)
    counts = np.zeros(system.space.size, dtype=np.int64)
    recorded = 0
    step = 0
    for _ in range(burn_in):
        z = table.step(z, uniforms(seed, replicas, step))
        step += 1
    for _ in range(per_lane):
        take = min(lanes, samples - recorded)
        counts += np.bincount(z[:take], minlength=system.space.size)
        recorded += take
        if recorded >= samples:
            break
        for _ in range(stride):
            z = table.step(z, uniforms(seed, replicas, step))
            step += 1
    weights = counts.astype(float)
    return weights / weights.sum()


# ------------------------------------------------------------ equivalence

@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_sample_path_matches_the_reference_loop(name):
    system = SYSTEMS[name]
    for seed in SEEDS:
        for start, n in ((0, 0), (1, 1), (system.space.size - 1, 37)):
            path = w.sample_path(system, start, n, seed)
            assert path.steps == reference_path(system, start, n, seed)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_empirical_distribution_matches_the_reference_loop(name):
    system = SYSTEMS[name]
    for seed in SEEDS:
        for start, n, trials in ((0, 0, 5), (2, 1, 1), (3, 12, 300), (1, 40, 2000)):
            emp = w.empirical_distribution(system, start, n, trials, seed)
            ref = reference_distribution(system, start, n, trials, seed)
            assert np.array_equal(emp.weights, ref)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_wave_profile_matches_the_reference_loop(name):
    system = SYSTEMS[name]
    # 5000 samples run 4096 lanes and record 904 of them the second time
    cases = ((0, 1, 10), (0, 3, 5000), (25, 1, 5000), (40, 7, 9000), (5, 2, 4096))
    for seed in SEEDS[:2]:
        for burn_in, stride, samples in cases:
            prof = w.empirical_wave_profile(system, burn_in, stride, samples, seed)
            ref = reference_profile(system, burn_in, stride, samples, seed)
            assert np.array_equal(prof.weights, ref)


def test_walks_draw_no_step_past_the_last_state(monkeypatch):
    calls = []

    def counting(keys, step):
        calls.append(int(step))
        return _uniforms_at(keys, step)

    monkeypatch.setattr(sim, "_uniforms_at", counting)
    system = SYSTEMS["circle-5"]
    w.sample_path(system, 0, 9, seed=1)
    assert calls == list(range(9))
    calls.clear()
    w.empirical_distribution(system, 0, 4, trials=50, seed=1)
    assert calls == list(range(4))
    calls.clear()
    # burn-in 6, then two more recordings 3 steps apart
    w.empirical_wave_profile(system, 6, 3, 3 * _MAX_LANES, seed=1)
    assert calls == list(range(12))


# ------------------------------------------------------------ fast walk

class ArgmaxTable:
    """The row table the flat search replaced: rows padded to the widest row
    (cumulatives by 2.0, indices by the last support point), stepped by the
    argmax of the first cumulative that exceeds the draw."""

    def __init__(self, kernel):
        csr = sp.csr_array(kernel.matrix).sorted_indices()
        starts, all_idx, all_val = csr.indptr, csr.indices, csr.data
        width = int(np.max(np.diff(starts)))
        self.indices = np.empty((kernel.size, width), dtype=np.int64)
        self.cums = np.full((kernel.size, width), 2.0)
        for r in range(kernel.size):
            lo, hi = starts[r], starts[r + 1]
            k = hi - lo
            self.indices[r, :k] = all_idx[lo:hi]
            self.indices[r, k:] = all_idx[hi - 1]
            self.cums[r, :k] = np.cumsum(all_val[lo:hi])

    def step(self, states, u):
        pick = (u[:, None] < self.cums[states]).argmax(axis=1)
        return self.indices[states, pick]


def kernel_of_width(size, width, seed):
    # every row has exactly `width` support points at random columns
    rng = np.random.default_rng(seed)
    m = np.zeros((size, size))
    for r in range(size):
        m[r, rng.choice(size, width, replace=False)] = rng.random(width) + 0.05
    m /= m.sum(axis=1, keepdims=True)
    space = w.StateSpace(size)
    g = w.make_permutation(space, [int(v) for v in rng.permutation(size)])
    return w.make_wave_system(w.make_kernel(space, m), g)


def deterministic_cycle(size):
    space = w.StateSpace(size)
    m = np.roll(np.eye(size), 1, axis=1)  # x -> x + 1, one support point a row
    return w.make_wave_system(w.make_kernel(space, m), w.circle_shift(size, 2))


FAST_SYSTEMS = {
    "sticky-7": w.sticky_permutation_system(7, tuple(range(7)), 0.05),
    "deck-5": w.deck_reversal_system(5),
    "width-1": deterministic_cycle(9),
    "width-5": kernel_of_width(40, 5, 11),
    "width-9": kernel_of_width(60, 9, 12),
    "circle-41": SYSTEMS["circle-41"],
}

# one block, one block and 904 lanes, three blocks
BLOCK_LANES = (_MAX_LANES, _MAX_LANES + 904, 3 * _MAX_LANES)


def test_fast_systems_have_the_intended_shapes():
    widths = {name: _RowTable(s.shifted).width for name, s in FAST_SYSTEMS.items()}
    assert widths == {
        "sticky-7": 8, "deck-5": 2, "width-1": 1, "width-5": 8, "width-9": 16, "circle-41": 2
    }
    assert FAST_SYSTEMS["sticky-7"].shifted.is_sparse


@pytest.mark.parametrize("name", sorted(FAST_SYSTEMS))
def test_flat_table_holds_the_per_row_sums(name):
    kernel = FAST_SYSTEMS[name].shifted
    new, old = _RowTable(kernel), ArgmaxTable(kernel)
    cums = new.cums.reshape(kernel.size, new.width)
    indices = new.indices.reshape(kernel.size, new.width)
    k = old.cums.shape[1]
    assert np.array_equal(cums[:, :k], old.cums)
    assert np.all(cums[:, k:] == 2.0)
    assert np.array_equal(indices[:, :k], old.indices)
    assert np.array_equal(indices[:, k:], np.repeat(old.indices[:, -1:], new.width - k, axis=1))


@pytest.mark.parametrize("name", sorted(FAST_SYSTEMS))
@pytest.mark.parametrize("lanes", BLOCK_LANES)
def test_walk_matches_the_argmax_loop_across_lane_blocks(name, lanes):
    system = FAST_SYSTEMS[name]
    old = ArgmaxTable(system.shifted)
    z0 = np.arange(lanes, dtype=np.int64) % system.space.size
    replicas = np.arange(lanes, dtype=np.uint64)
    z_ref = z0
    for n, z in enumerate(islice(sim._walk(system, z0, 5), 12)):
        assert np.array_equal(z, z_ref)
        z_ref = old.step(z_ref, uniforms(5, replicas, n))


@pytest.mark.parametrize("lanes", BLOCK_LANES + (1, 7))
def test_block_draws_equal_the_uniforms_of_all_lanes(monkeypatch, lanes):
    draws = {}

    def recording(keys, step):
        u = _uniforms_at(keys, step)
        draws.setdefault(int(step), []).append(u)
        return u

    monkeypatch.setattr(sim, "_uniforms_at", recording)
    list(islice(sim._walk(SYSTEMS["circle-5"], np.zeros(lanes, dtype=np.int64), 9), 4))
    assert sorted(draws) == [0, 1, 2]
    for n, blocks in draws.items():
        assert len(blocks) == -(-lanes // _MAX_LANES)
        assert np.array_equal(np.concatenate(blocks), uniforms(9, np.arange(lanes), n))


@st.composite
def row_and_draws(draw):
    width = draw(st.integers(1, 20))
    weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=width, max_size=width))
    draws = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=40))
    return np.array(weights) / sum(weights), np.array(draws)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(row_and_draws())
def test_search_equals_the_argmax_rule_below_the_last_cumulative(case):
    row, u = case
    size = row.size + 1
    m = np.eye(size)
    m[0] = np.concatenate(([0.0], row))  # state 0 spreads over 1..width

    kernel = w.make_kernel(w.StateSpace(size), m)
    new, old = _RowTable(kernel), ArgmaxTable(kernel)
    cums = old.cums[0, : row.size]
    u = np.concatenate((u, cums))  # ties with each cumulative too
    u = u[u < cums[-1]]
    states = np.zeros(u.size, dtype=np.int64)
    assert np.array_equal(new.step(states, u), old.step(states, u))


@pytest.mark.parametrize(
    "row",
    [
        [0.1] * 10,  # width 10, searched as 16 with padding
        [v / 1000 for v in (141, 145, 111, 130, 114, 128, 113, 118)],  # fills W = 8
    ],
)
def test_a_draw_above_the_last_rounded_cumulative_takes_the_last_support_point(row):
    m = np.eye(len(row))
    m[0] = row
    table = _RowTable(w.make_kernel(w.StateSpace(len(row)), m))
    last = float(np.cumsum(row)[-1])
    u = 1.0 - 2.0**-53
    assert last <= u  # rounding leaves room for draws at or above it
    assert table.step(np.array([0]), np.array([u])).tolist() == [len(row) - 1]
    assert table.step(np.array([0, 0]), np.array([last, 0.0])).tolist() == [len(row) - 1, 0]

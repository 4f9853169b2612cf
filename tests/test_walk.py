"""One lane walk behind every simulation.

`sample_path`, `empirical_distribution` and `empirical_wave_profile` read
their states off `sim._walk`.  Each is checked for exact equality against
the loop it replaced, kept here as the reference: a one-lane path stepped
on replica 0, an endpoint loop over all replicas, and the burn-in and
stride loops of the wave profile with their step counter.
"""
import numpy as np
import pytest

import wavechain as w
import wavechain.sim as sim
from wavechain.rng import uniforms
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

    def counting(seed, replica, step):
        calls.append(int(step))
        return uniforms(seed, replica, step)

    monkeypatch.setattr(sim, "uniforms", counting)
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

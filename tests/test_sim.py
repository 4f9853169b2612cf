import dataclasses

import numpy as np
import pytest

import wavechain as w
from wavechain import errors, sim
from wavechain.rng import uniforms


def circle_system(n=5, eps=1.0):
    base, _ = w.circle_kernel(n, eps)
    return w.make_wave_system(base, w.circle_shift(n, -1))


def test_uniforms_are_a_pure_function_of_the_triple():
    a = uniforms(11, np.arange(100), 3)
    b = uniforms(11, np.arange(100), 3)
    assert np.array_equal(a, b)
    # slicing replicas never changes values
    c = uniforms(11, np.arange(40, 60), 3)
    assert np.array_equal(a[40:60], c)
    assert np.all((a >= 0.0) & (a < 1.0))


def test_uniforms_differ_across_seeds_and_steps():
    base = uniforms(0, np.arange(50), 0)
    assert not np.array_equal(base, uniforms(1, np.arange(50), 0))
    assert not np.array_equal(base, uniforms(0, np.arange(50), 1))


def test_uniforms_broadcast_over_a_replica_step_grid():
    # a (replica, step) grid holds row r = the path stream of replica r
    grid = uniforms(5, np.arange(8)[:, None], np.arange(6)[None, :])
    assert grid.shape == (8, 6)
    for step in range(6):
        assert np.array_equal(grid[:, step], uniforms(5, np.arange(8), step))
    for r in range(8):
        assert np.array_equal(grid[r], uniforms(5, r, np.arange(6)))


_MASK = (1 << 64) - 1


def _splitmix(z):
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _reference_uniform(seed, replica, step):
    # the stream definition in Python integers: finalizer of key*gamma + step
    key = _splitmix((_splitmix(seed & _MASK) + replica) & _MASK)
    z = _splitmix((key * 0x9E3779B97F4A7C15 + step) & _MASK)
    return (z >> 11) * 2.0**-53


def test_uniforms_match_the_integer_definition():
    for seed in (0, 1, 2**63 + 5, -3):
        got = uniforms(seed, np.arange(20)[:, None], np.arange(0, 700, 37)[None, :])
        for r in range(20):
            for j, step in enumerate(range(0, 700, 37)):
                assert got[r, j] == _reference_uniform(seed, r, step)


def test_sample_path_shape_and_determinism():
    s = circle_system()
    p = w.sample_path(s, 2, 30, seed=9)
    assert p.start == 2 and p.seed == 9
    assert len(p.steps) == 31
    assert p.steps[0] == 2
    assert p.steps == w.sample_path(s, 2, 30, seed=9).steps
    assert p.steps != w.sample_path(s, 2, 30, seed=10).steps
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.start = 0


def test_sample_path_respects_step_kernel_supports():
    """Every transition must be possible under the kernel of its step."""
    s = circle_system(7)
    for seed in range(5):
        p = w.sample_path(s, 0, 40, seed=seed)
        for i in range(1, 41):
            k_i = w.kernel_at(s, i).dense()
            assert k_i[p.steps[i - 1], p.steps[i]] > 0.0


def test_endpoint_statistics_match_replica_zero():
    s = circle_system()
    p = w.sample_path(s, 1, 12, seed=4)
    emp = w.empirical_distribution(s, 1, 12, trials=1, seed=4)
    assert emp.weights[p.steps[-1]] == 1.0


def test_empirical_distribution_prefix_stability():
    # replicas are keyed by index, so a longer run contains the shorter
    # run's endpoints verbatim and per-state counts can only grow
    s = circle_system()
    small = w.empirical_distribution(s, 0, 8, trials=500, seed=3)
    big = w.empirical_distribution(s, 0, 8, trials=2000, seed=3)
    counts_small = np.rint(small.weights * 500)
    counts_big = np.rint(big.weights * 2000)
    assert np.all(counts_big >= counts_small)
    assert counts_small.sum() == 500 and counts_big.sum() == 2000


def test_empirical_distribution_approaches_the_exact_law():
    s = circle_system()
    n, trials = 10, 20000
    emp = w.empirical_distribution(s, 0, n, trials=trials, seed=1)
    delta = w.Distribution(s.space, np.eye(5)[0])
    exact = w.evolve(delta, s, n)
    gate = 3 * np.sqrt(s.space.size / trials)
    assert w.tv_distance(emp, exact) < gate


def test_wave_profile_requires_merging():
    with pytest.raises(errors.NotMerging):
        w.empirical_wave_profile(
            w.four_point_example(), burn_in=10, stride=1, samples=10, seed=0
        )


@pytest.mark.parametrize("burn_in, stride, samples, steps", [
    (10, 3, 1, 10),  # one recording: the burn-in alone
    (10, 3, 4096, 10),  # one recording of every lane
    (10, 3, 4097, 13),  # a second recording of one lane
    (0, 7, 3 * 4096, 14),
])
def test_wave_profile_walks_are_capped_before_any_step(
    monkeypatch, burn_in, stride, samples, steps
):
    # the walk takes burn_in + stride (ceil(samples / lanes) - 1) steps
    s = circle_system()
    monkeypatch.setattr(sim, "_MAX_PROFILE_STEPS", steps - 1)
    monkeypatch.setattr(sim, "_walk", None)  # no step is taken
    message = (
        f"^the profile walk would take {steps} steps, over the cap of {steps - 1};"
        f" lower stride {stride}, burn_in {burn_in} or samples {samples}$"
    )
    with pytest.raises(errors.TooLarge, match=message):
        w.empirical_wave_profile(s, burn_in, stride, samples, seed=0)
    monkeypatch.undo()
    monkeypatch.setattr(sim, "_MAX_PROFILE_STEPS", steps)
    w.empirical_wave_profile(s, burn_in, stride, samples, seed=0)


def test_wave_profile_approximates_the_wave_measure():
    s = circle_system()
    prof = w.empirical_wave_profile(
        s, burn_in=2000, stride=5, samples=40000, seed=2
    )
    assert w.tv_distance(prof, s.wave_measure) < 0.02


@pytest.mark.parametrize("start", [-1, 5, 9])
def test_out_of_range_start_is_rejected(start):
    s = circle_system()
    with pytest.raises(ValueError, match="start state"):
        w.sample_path(s, start, 3, seed=0)
    with pytest.raises(ValueError, match="start state"):
        w.empirical_distribution(s, start, 3, trials=10, seed=0)

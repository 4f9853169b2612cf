import dataclasses

import numpy as np
import pytest

import wavechain as w
from wavechain import errors
from wavechain.rng import replica_uniform_table, uniforms


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


def test_replica_table_matches_elementwise_queries():
    table = replica_uniform_table(5, 8, 6)
    assert table.shape == (8, 6)
    for step in range(6):
        assert np.array_equal(table[:, step], uniforms(5, np.arange(8), step))


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

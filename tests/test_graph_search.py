"""The numpy level search against scipy.sparse.csgraph.

`is_irreducible` and `period` search the positive entries of a kernel
breadth-first in numpy, forward and on the reversed edges.  Each matrix
is given two ways, as its nonzero entries only and as every entry, zeros
too; both must store the same triple, and both kernels are checked
against csgraph computed here and against the plain breadth-first loop
`reference_period`.
"""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components, shortest_path

import wavechain as w
from test_power_engine import reference_period
from wavechain import errors


def csgraph_verdict(m):
    """(irreducible, period or None) of a dense matrix by csgraph alone."""
    graph = sp.csr_array(m > 0, dtype=np.int8)
    n_components, _ = connected_components(graph, directed=True, connection="strong")
    if n_components != 1:
        return False, None
    level = shortest_path(graph, unweighted=True, indices=0).astype(np.int64)
    tails, heads = np.nonzero(m > 0)
    g = int(np.gcd.reduce(level[tails] + 1 - level[heads]))
    return True, g if g else 1


def both_storages(m):
    """The kernel of m given its nonzero entries, and given them all; the
    two store the same triple."""
    n = m.shape[0]
    space = w.StateSpace(n)
    nonzero = w.make_kernel(space, m)
    full = sp.csr_array((m.ravel(), np.tile(np.arange(n), n), np.arange(n + 1) * n), shape=(n, n))
    every = w.make_kernel(space, full)
    assert [(a.dtype, a.tobytes()) for a in every.entries] == [
        (a.dtype, a.tobytes()) for a in nonzero.entries
    ]
    return nonzero, every


def assert_matches_csgraph(m):
    irreducible, per = csgraph_verdict(m)
    for kernel in both_storages(m):
        assert w.is_irreducible(kernel) == irreducible
        if irreducible:
            assert w.period(kernel) == per == reference_period(kernel)
        else:
            with pytest.raises(errors.NotIrreducible):
                w.period(kernel)
    return irreducible, per


def test_the_corpus_agrees_with_csgraph_in_both_storages(corpus):
    base = [assert_matches_csgraph(np.array(s.base.dense())) for s in corpus]
    shifted = [assert_matches_csgraph(np.array(s.shifted.dense())) for s in corpus]
    assert all(irreducible for irreducible, _ in base)  # a cycle is built in
    assert sum(1 for verdict in shifted if verdict == (True, 1)) == 184  # the merging corpus
    assert any(not irreducible for irreducible, _ in shifted)


# ------------------------------------------------------- random supports

def stochastic(rng, support):
    m = support * (0.1 + rng.random(support.shape))
    return m / m.sum(axis=1, keepdims=True)


@st.composite
def supports(draw):
    """(support, kind, k): a boolean support with no empty row, drawn as
    random, reducible, absorbing, periodic with k = 2..5 classes, one
    state, or self-loops only."""
    kind = draw(st.sampled_from(
        ["random", "reducible", "absorbing", "periodic", "one-state", "loops-only"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 14))
    k = None
    if kind == "one-state":
        return np.ones((1, 1), dtype=bool), kind, k
    if kind == "loops-only":
        return np.eye(n, dtype=bool), kind, k
    if kind == "periodic":
        k = draw(st.integers(2, 5))
        size = draw(st.integers(1, 3))
        n = k * size
        cls = np.arange(n) // size
        s = (cls[None, :] == (cls[:, None] + 1) % k) & (rng.random((n, n)) < 0.6)
        s[np.arange(n), ((cls + 1) % k) * size + np.arange(n) % size] = True
        return s, kind, k
    s = rng.random((n, n)) < draw(st.floats(0.05, 0.9))
    empty = ~s.any(axis=1)
    s[empty, rng.integers(0, n, size=int(empty.sum()))] = True
    if kind == "reducible":
        cut = draw(st.integers(1, n - 1))
        s[cut:, :cut] = False  # the last block never returns to the first
        s[np.arange(cut, n), np.arange(cut, n)] = True
    elif kind == "absorbing":
        x = draw(st.integers(0, n - 1))
        s[x] = False
        s[x, x] = True
    return s, kind, k


@settings(max_examples=400, deadline=None)
@given(supports(), st.integers(0, 2**32 - 1))
def test_random_supports_agree_with_csgraph_in_both_storages(drawn, seed):
    support, kind, k = drawn
    irreducible, per = assert_matches_csgraph(stochastic(np.random.default_rng(seed), support))
    if kind in ("reducible", "absorbing", "loops-only"):
        assert not irreducible
    elif kind == "one-state":
        assert (irreducible, per) == (True, 1)
    elif kind == "periodic" and irreducible:
        assert per == k


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_pure_cycles_have_their_length_as_period(k):
    m = np.roll(np.eye(k), 1, axis=1)
    assert assert_matches_csgraph(m) == (True, k)


def test_one_state_and_self_loops():
    assert assert_matches_csgraph(np.ones((1, 1))) == (True, 1)
    assert assert_matches_csgraph(np.eye(4)) == (False, None)


def two_sided_cycle(n):
    x = np.arange(n)
    m = np.zeros((n, n))
    m[x, (x + 1) % n] = 0.5
    m[x, (x - 1) % n] = 0.5
    return m


def test_long_cycles_and_paths():
    assert assert_matches_csgraph(two_sided_cycle(601)) == (True, 1)  # an odd cycle
    assert assert_matches_csgraph(two_sided_cycle(600)) == (True, 2)
    path = two_sided_cycle(600)
    path[0] = path[-1] = 0.0
    path[0, 1] = path[-1, -2] = 1.0
    assert assert_matches_csgraph(path) == (True, 2)
    # forward from 0 reaches everything, but the far end never comes back
    path[-1] = 0.0
    path[-1, -1] = 1.0
    assert assert_matches_csgraph(path) == (False, None)

"""Symmetric-group models built from index arrays.

Every walk on S_n is built by `models._group_walk` from the (n!, n) table
`groups.sn_table` and the vectorised Lehmer rank `groups.sn_rank`.  The
tuple loops it replaced are copied below, unedited, as the reference:
`sn_space`, `group_walk_kernel`, `conjugation_map`,
`_normalize_group_element` and `sticky_permutation_system` at module level
are those loops, and the library is always reached as `models.<name>`.
Each library model must store the same kernel arrays, byte for byte, the
same map and the same labels.
"""
import itertools
import math
from typing import Union

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wavechain import models
from wavechain.core import (
    MarkovKernel,
    Permutation,
    StateSpace,
    WaveSystem,
    make_kernel,
    make_permutation,
    make_wave_system,
)
from wavechain.errors import DeltaOutOfRange, TooLarge
from wavechain.groups import (
    Perm,
    from_cycles,
    multiply,
    one_line_label,
    sn_elements,
    sn_rank,
    sn_table,
    transposition,
)
from wavechain.models import GroupWalkSpec, _check_group_size

from group_reference import conjugate, sn_index

# ------------------------------------------------------------ references


def sn_space(n: int) -> StateSpace:
    elements = sn_elements(n)
    return StateSpace(len(elements), tuple(one_line_label(p) for p in elements))


def group_walk_kernel(spec: GroupWalkSpec) -> MarkovKernel:
    """Kernel K(x, y) = sum of weights w(s) over generators with y = x s."""
    elements = sn_elements(spec.n)
    index = sn_index(spec.n)
    space = sn_space(spec.n)
    size = len(elements)
    pairs = sorted(spec.generator_weights.items())
    rows, cols, vals = [], [], []
    for i, x in enumerate(elements):
        for s, w in pairs:
            rows.append(i)
            cols.append(index[multiply(x, s)])
            vals.append(w)
    return make_kernel(space, sp.coo_array((vals, (rows, cols)), shape=(size, size)))


def conjugation_map(n: int, a: Perm) -> Permutation:
    """The bijection x -> a^{-1} o x o a of the lexicographic enumeration."""
    elements = sn_elements(n)
    index = sn_index(n)
    space = sn_space(n)
    fwd = np.fromiter(
        (index[conjugate(x, a)] for x in elements), dtype=np.int64, count=len(elements)
    )
    return make_permutation(space, fwd)


def _normalize_group_element(n: int, rho: Union[Perm, int]) -> Perm:
    if isinstance(rho, (int, np.integer)):
        return sn_elements(n)[int(rho)]
    rho = tuple(int(v) for v in rho)
    if sorted(rho) != list(range(n)):
        raise ValueError(f"{rho!r} is not a permutation of 0..{n - 1}")
    return rho


def sticky_permutation_system(n: int, rho, delta: float) -> WaveSystem:
    """Lazy transpose-top walk with extra holding probability at rho.

    The base kernel holds with probability (n+1)/(2n) and transposes the
    top with a random other position with probability 1/(2n) each; the
    sticky row gains delta of holding and loses delta/(n-1) along each
    transposition move.  The driving bijection matches the
    cyclic-to-random one, so the sticky spot moves backwards along the
    rotation as the steps advance.
    """
    n = _check_group_size(n)
    if not 0.0 < delta < (n - 1) / (2.0 * n):
        raise DeltaOutOfRange(
            f"delta {delta} outside (0, {(n - 1) / (2.0 * n)}) for n={n}"
        )
    rho = _normalize_group_element(n, rho)
    hold = (n + 1) / (2.0 * n)
    move = 1.0 / (2.0 * n)
    trans = [transposition(n, 0, j) for j in range(1, n)]
    elements = sn_elements(n)
    index = sn_index(n)
    space = sn_space(n)
    size = len(elements)
    r = index[rho]
    rows, cols, vals = [], [], []
    for i, x in enumerate(elements):
        extra = delta if i == r else 0.0
        rows.append(i)
        cols.append(i)
        vals.append(hold + extra)
        for s in trans:
            rows.append(i)
            cols.append(index[multiply(x, s)])
            vals.append(move - extra / (n - 1))
    sticky = make_kernel(space, sp.coo_array((vals, (rows, cols)), shape=(size, size)))
    return make_wave_system(sticky, conjugation_map(n, _rotation_perm(n)))


def _rotation_perm(n: int) -> Perm:
    # the full cycle sending position i to i + 1 mod n
    return tuple((i + 1) % n for i in range(n))


# ------------------------------------------------------------ helpers


def stored(kernel: MarkovKernel) -> tuple:
    """The kernel's stored CSR arrays as (dtype, shape, bytes) triples."""
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in kernel.entries)


def assert_same_kernel(got: MarkovKernel, want: MarkovKernel) -> None:
    assert got.size == want.size
    assert stored(got) == stored(want)
    assert got.space.labels == want.space.labels


def assert_same_map(got: Permutation, want: Permutation) -> None:
    assert got.forward.dtype == want.forward.dtype
    assert got.forward.tobytes() == want.forward.tobytes()
    assert got.space.labels == want.space.labels


def assert_same_system(got: WaveSystem, want: WaveSystem) -> None:
    assert_same_kernel(got.base, want.base)
    assert_same_map(got.map, want.map)


# ------------------------------------------------------------ table and rank


@pytest.mark.parametrize("n", range(1, 8))
def test_rank_inverts_the_table(n):
    table = sn_table(n)
    assert table.shape == (math.factorial(n), n)
    assert table.dtype == np.int64
    assert not table.flags.writeable
    assert [tuple(row) for row in table.tolist()] == list(sn_elements(n))
    assert np.array_equal(sn_rank(table), np.arange(math.factorial(n)))


@settings(max_examples=200)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(st.permutations(range(n)), min_size=1)))
def test_rank_agrees_with_the_index(perms):
    n = len(perms[0])
    index = sn_index(n)
    assert sn_rank(perms).tolist() == [index[tuple(p)] for p in perms]


# ------------------------------------------------------------ models


@pytest.mark.parametrize("n", range(3, 8))
def test_deck_reversal_and_cyclic_to_random_equal_the_loops(n):
    reversal = tuple(n - 1 - i for i in range(n))
    to_bottom = tuple([n - 1] + [i - 1 for i in range(1, n)])
    to_second_last = tuple([n - 2] + [i - 1 for i in range(1, n - 1)] + [n - 1])
    deck = models.deck_reversal_system(n)
    assert_same_kernel(
        deck.base, group_walk_kernel(GroupWalkSpec(n, {to_bottom: 0.5, to_second_last: 0.5}))
    )
    assert_same_map(deck.map, conjugation_map(n, reversal))

    weights = {tuple(range(n)): 1.0 / n}
    for j in range(1, n):
        weights[transposition(n, 0, j)] = 1.0 / n
    cyclic = models.cyclic_to_random_system(n)
    assert_same_kernel(cyclic.base, group_walk_kernel(GroupWalkSpec(n, weights)))
    assert_same_map(cyclic.map, conjugation_map(n, _rotation_perm(n)))


@pytest.mark.parametrize("n", range(3, 8))
def test_sticky_equals_the_loop(n):
    last = math.factorial(n) - 1
    upper = (n - 1) / (2.0 * n)
    rhos = [tuple(range(n)), from_cycles(n, [(0, 2, 1)]), 0, 5, np.int64(last)]
    deltas = [0.05, upper / 3, upper * (1 - 1e-9)]
    for rho, delta in itertools.product(rhos, deltas):
        assert_same_system(
            models.sticky_permutation_system(n, rho, delta),
            sticky_permutation_system(n, rho, delta),
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
def test_group_walk_kernel_equals_the_loop_on_random_generators(n):
    rng = np.random.default_rng(100 + n)
    elements = sn_elements(n)
    for _ in range(3):
        count = int(rng.integers(1, min(len(elements), 6) + 1))
        chosen = rng.choice(len(elements), size=count, replace=False)
        weights = rng.random(count)
        if count > 1:
            weights[0] = 0.0  # an explicit zero triplet, which is not stored
        weights /= weights.sum()
        spec = GroupWalkSpec(n, {elements[int(i)]: float(v) for i, v in zip(chosen, weights)})
        got = models.group_walk_kernel(spec)
        assert_same_kernel(got, group_walk_kernel(spec))
        if n == 7:
            with pytest.raises(TooLarge):
                got.dense()


@pytest.mark.parametrize("n", range(1, 8))
def test_conjugation_map_equals_the_loop(n):
    rng = np.random.default_rng(200 + n)
    randoms = [tuple(int(v) for v in rng.permutation(n)) for _ in range(4)]
    for a in [tuple(range(n)), _rotation_perm(n)] + randoms:
        assert_same_map(models.conjugation_map(n, a), conjugation_map(n, a))


def test_a_group_system_builds_its_labels_once():
    system = models.sticky_permutation_system(5, 3, 0.1)
    assert system.base.space is system.map.space is models.sn_space(5)
    assert models.deck_reversal_system(5).space is models.sn_space(5)

import itertools

import numpy as np

from wavechain.groups import (
    from_cycles,
    inverse,
    multiply,
    one_line_label,
    sn_elements,
    transposition,
)

from group_reference import sn_index

ID4 = (0, 1, 2, 3)


def test_multiply_applies_left_then_right():
    # x sends position i to x[i]; composing runs x first
    x = (1, 2, 0)
    y = (0, 2, 1)
    assert multiply(x, y) == tuple(y[i] for i in x)


def test_inverse_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = tuple(int(v) for v in rng.permutation(5))
        assert multiply(x, inverse(x)) == tuple(range(5))
        assert multiply(inverse(x), x) == tuple(range(5))


def test_from_cycles_zero_based():
    assert from_cycles(4, [(0, 1)]) == (1, 0, 2, 3)
    assert from_cycles(4, [(0, 3, 1)]) == (3, 0, 2, 1)
    assert from_cycles(3, []) == (0, 1, 2)


def test_transposition():
    assert transposition(4, 0, 2) == (2, 1, 0, 3)
    assert transposition(4, 0, 2) == from_cycles(4, [(0, 2)])


def test_sn_elements_lexicographic_and_complete():
    elems = sn_elements(4)
    assert len(elems) == 24
    assert elems == tuple(sorted(elems))
    assert elems == tuple(itertools.permutations(range(4)))


def test_sn_index_inverts_enumeration():
    elems = sn_elements(4)
    index = sn_index(4)
    for i, p in enumerate(elems):
        assert index[p] == i


def test_one_line_label():
    assert one_line_label((2, 0, 1)) == "312"
    assert one_line_label(ID4) == "1234"

"""Tuple references for the symmetric-group tests.

The library ranks permutations with `groups.sn_rank` and conjugates them
through `groups.sn_table`; these dictionary and tuple forms are the plain
definitions the tests check those against.
"""
from functools import lru_cache

from wavechain.groups import Perm, inverse, multiply, sn_elements


def conjugate(x: Perm, a: Perm) -> Perm:
    """a * x * a^{-1} in the fixed product convention."""
    return multiply(multiply(a, x), inverse(a))


@lru_cache(maxsize=8)
def sn_index(n: int) -> dict:
    """Position of each permutation in the lexicographic `sn_elements(n)`."""
    return {p: i for i, p in enumerate(sn_elements(n))}

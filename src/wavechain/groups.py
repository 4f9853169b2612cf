"""Finite symmetric group utilities.

Group elements are one-line tuples p of length n with entries 0..n-1, read as
functions i -> p[i].  The group product is fixed once and for all as

    (x * y)[i] = y[x[i]]        # apply x first, then y

so that right multiplication by a generator acts after the current element.
All constructions in the model zoo rely on this convention; changing it
silently changes every walk on a symmetric group.

The models work on `sn_table(n)`, S_n as an (n!, n) index array in
lexicographic order, and its inverse `sn_rank` (the Lehmer code).  With
table = sn_table(n), x * s for every x is s[table], and a * x * a^{-1} is
inv_a[table[:, a]].  The tuple functions are the reference for both.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def multiply(x: Perm, y: Perm) -> Perm:
    """Group product: apply x, then y."""
    return tuple(y[i] for i in x)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def from_cycles(n: int, cycles) -> Perm:
    """Permutation sending a -> b for consecutive entries a, b of each cycle.

    Cycles use 0-based points; points not mentioned are fixed.
    """
    arr = list(range(n))
    for cyc in cycles:
        m = len(cyc)
        for j, a in enumerate(cyc):
            arr[a] = cyc[(j + 1) % m]
    if sorted(arr) != list(range(n)):
        raise ValueError("cycles overlap or repeat a point")
    return tuple(arr)


def transposition(n: int, a: int, b: int) -> Perm:
    if a == b:
        return identity_perm(n)
    return from_cycles(n, [(a, b)])


@lru_cache(maxsize=8)
def sn_elements(n: int) -> tuple[Perm, ...]:
    """All of S_n in lexicographic one-line order."""
    return tuple(itertools.permutations(range(n)))


@lru_cache(maxsize=8)
def sn_table(n: int) -> np.ndarray:
    """All of S_n as a read-only (n!, n) int64 array; row i is sn_elements(n)[i]."""
    table = np.array(sn_elements(n), dtype=np.int64).reshape(math.factorial(n), n)
    table.setflags(write=False)
    return table


def sn_rank(perms) -> np.ndarray:
    """Lexicographic rank of each row of an (m, n) permutation array: the
    Lehmer code (smaller entries right of position i) times (n - 1 - i)!."""
    perms = np.asarray(perms, dtype=np.int64)
    n = perms.shape[1]
    rank = np.zeros(perms.shape[0], dtype=np.int64)
    for i in range(n - 1):
        smaller_right = np.count_nonzero(perms[:, i + 1 :] < perms[:, i, None], axis=1)
        rank += smaller_right * math.factorial(n - 1 - i)
    return rank


def one_line_label(p: Perm) -> str:
    """Human-readable one-line notation, 1-based to match common usage."""
    if len(p) <= 9:
        return "".join(str(v + 1) for v in p)
    return "(" + ",".join(str(v + 1) for v in p) + ")"

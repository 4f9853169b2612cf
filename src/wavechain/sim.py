"""Seeded Monte Carlo for inhomogeneous chains.

Sampling never touches the step kernels directly: if X follows the
inhomogeneous chain then Z_n = g^n X_n is a homogeneous chain driven by the
shifted kernel, so every simulation below reads Z off one walk, `_walk`,
which steps parallel lanes with one padded row-support table, and maps
back through the inverse bijection at the end.
Randomness is a pure function of (seed, replica, step), which keeps every
replica reproducible when the trial count changes.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice

import numpy as np
import scipy.sparse as sp

from .core import Distribution, WaveSystem
from .errors import NotMerging
from .rng import uniforms
from .spectral import is_irreducible, period

_MAX_LANES = 4096


@dataclass(frozen=True)
class PathSample:
    """One trajectory; steps[0] is the start and steps[i] the state at time i."""

    start: int
    steps: tuple[int, ...]
    seed: int


class _RowTable:
    """Padded sparse rows of a kernel, ready for vectorized inverse transform.

    indices[r] holds the support of row r in increasing column order, padded
    by repeating the last support point; cums[r] holds the running sums,
    padded with 2.0 so a uniform draw never selects padding except when
    rounding pushes it past the final real cumulative, in which case the
    repeated last index gives the correct tail behaviour.
    """

    def __init__(self, kernel):
        size = kernel.size
        csr = sp.csr_array(kernel.matrix).sorted_indices()
        starts, all_idx, all_val = csr.indptr, csr.indices, csr.data
        width = int(np.max(np.diff(starts)))
        self.indices = np.empty((size, width), dtype=np.int64)
        self.cums = np.full((size, width), 2.0)
        for r in range(size):
            lo, hi = starts[r], starts[r + 1]
            k = hi - lo
            self.indices[r, :k] = all_idx[lo:hi]
            self.indices[r, k:] = all_idx[hi - 1]
            self.cums[r, :k] = np.cumsum(all_val[lo:hi])

    def step(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        # first support point whose cumulative exceeds the draw
        pick = (u[:, None] < self.cums[states]).argmax(axis=1)
        return self.indices[states, pick]


def _walk(system: WaveSystem, z0, seed: int):
    """Lane states of Z_n = g^n X_n at times n = 0, 1, ...

    Every simulation reads its states off this one generator.  Lane r starts at
    z0[r] and draws the uniform stream of replica r, (seed, r, n) for the
    step from time n, so a lane is unchanged when lanes are added.
    """
    table = _RowTable(system.shifted)
    z = np.asarray(z0, dtype=np.int64)
    replicas = np.arange(z.size, dtype=np.uint64)
    for n in count():
        yield z
        z = table.step(z, uniforms(seed, replicas, n))


def _start_state(system: WaveSystem, start) -> int:
    start = int(start)
    if not 0 <= start < system.space.size:
        raise ValueError(f"start state {start} is outside 0..{system.space.size - 1}")
    return start


def sample_path(system: WaveSystem, start: int, n: int, seed: int) -> PathSample:
    """One inhomogeneous trajectory of length n from the given start."""
    if n < 0:
        raise ValueError("path length must be nonnegative")
    start = _start_state(system, start)
    ginv = system.map.inverse
    back = np.arange(system.space.size, dtype=np.int64)  # maps through g^{-i}
    steps = []
    for z in islice(_walk(system, [start], seed), n + 1):
        steps.append(int(back[z[0]]))
        back = back[ginv]
    return PathSample(start=start, steps=tuple(steps), seed=int(seed))


def empirical_distribution(
    system: WaveSystem, start: int, n: int, trials: int, seed: int
) -> Distribution:
    """Endpoint histogram over independent replicas of the length-n chain.

    Replica r is unchanged by growing the trial count.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if n < 0:
        raise ValueError("path length must be nonnegative")
    z0 = np.full(int(trials), _start_state(system, start), dtype=np.int64)
    z = next(islice(_walk(system, z0, seed), n, None))
    ends = system.map.power_map(-n)[z]
    counts = np.bincount(ends, minlength=system.space.size).astype(float)
    return Distribution(system.space, counts / counts.sum())


def empirical_wave_profile(
    system: WaveSystem,
    burn_in: int,
    stride: int,
    samples: int,
    seed: int,
) -> Distribution:
    """Occupation histogram of g^n X_n after burn-in, an estimate of the
    invariant measure of the shifted kernel.

    Recording happens every `stride` steps (the natural choice is the order
    of the bijection).  Work is spread over parallel replicas, all started
    at state 0; the lane count depends only on `samples`, so results are
    reproducible for fixed arguments.
    """
    if burn_in < 0 or stride < 1 or samples < 1:
        raise ValueError("burn_in >= 0, stride >= 1, samples >= 1 required")
    if not is_irreducible(system.shifted) or period(system.shifted) != 1:
        raise NotMerging("profile needs an irreducible aperiodic shifted kernel")
    lanes = min(_MAX_LANES, samples)
    walk = _walk(system, np.zeros(lanes, dtype=np.int64), seed)
    counts = np.zeros(system.space.size, dtype=np.int64)
    # range comes first so zip stops before the walk steps past the last
    # recording; that recording takes only the lanes still needed
    for recorded, z in zip(range(0, samples, lanes), islice(walk, burn_in, None, stride)):
        counts += np.bincount(z[: samples - recorded], minlength=system.space.size)
    weights = counts.astype(float)
    return Distribution(system.space, weights / weights.sum())

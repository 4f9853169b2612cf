"""Seeded Monte Carlo for inhomogeneous chains.

Sampling never touches the step kernels directly: if X follows the
inhomogeneous chain then Z_n = g^n X_n is a homogeneous chain driven by the
shifted kernel, so every simulation below reads Z off one walk, `_walk`,
and maps back through the inverse bijection at the end.
Randomness is a pure function of (seed, replica, step), which keeps every
replica reproducible when the trial count changes.

The walk builds each lane's stream key once and finishes one draw per lane
and step.  It steps lanes in fixed blocks through one flat row table, padded
to a power-of-two width, with a branchless search of log2(width) gathers.
"""
from __future__ import annotations

from itertools import count, islice

import numpy as np

from .core import Distribution, WaveSystem, _record, _row_table, _state_index
from .errors import NotMerging, TooLarge
from .rng import _stream_keys, _uniforms_at
from .spectral import _merging_obstruction

# lanes of a wave profile, and the block size in which `_walk` steps lanes
_MAX_LANES = 4096
# steps of one wave-profile walk: 10^6 steps of 4096 lanes take about 84 s on
# circle-41 and 135 s on sticky-6, on one core of a 2-core x86-64 VM
_MAX_PROFILE_STEPS = 10**6


@_record
class PathSample:
    """One trajectory; steps[0] is the start and steps[i] the state at time i."""

    start: int
    steps: tuple[int, ...]
    seed: int


class _RowTable:
    """Flat sorted rows of a kernel, ready for vectorized inverse transform.

    Each row's stored entries, all positive, are padded to a power-of-two
    width W: the row of state r owns entries r*W .. r*W + W - 1 of the flat
    `indices` (its columns in increasing order, then the last one repeated)
    and of `cums` (the running sums, then 2.0).  `step` selects the first
    column whose cumulative exceeds the draw by a branchless search of
    log2(W) gathers.  The search never leaves the row, so a draw at or
    above the final rounded cumulative selects the last entry, also on
    rows that fill all W columns.
    """

    def __init__(self, kernel):
        counts = np.diff(kernel.entries[0])
        width = 1 << (int(np.max(counts)) - 1).bit_length()
        indices, weights = _row_table(kernel, width)
        cums = np.cumsum(weights[:, 0], axis=1)  # the same sums as row by row
        cums[np.arange(width) >= counts[:, None]] = 2.0
        self.width = width
        self.indices = indices.ravel()
        self.cums = cums.ravel()
        # the probe of half-width h = W/2, W/4, ..., 1 reads cums[pos + h - 1],
        # a gather on this view of the table
        halves = [width >> k for k in range(1, width.bit_length())]
        self._probes = [(h, self.cums[h - 1 :]) for h in halves]

    def step(self, states: np.ndarray, u: np.ndarray, out=None) -> np.ndarray:
        """Next state of each lane given its draw; `out` receives them if given."""
        pos = np.multiply(states, self.width, dtype=np.int64)
        for h, probe in self._probes:
            pos += h * (probe[pos] <= u)
        # positions stay inside the table, so "clip" only skips numpy's
        # guard copy of `out`
        return np.take(self.indices, pos, out=out, mode="clip")


def _walk(system: WaveSystem, z0, seed: int):
    """Lane states of Z_n = g^n X_n at times n = 0, 1, ...

    Every simulation reads its states off this one generator.  Lane r starts at
    z0[r] and draws the uniform stream of replica r, (seed, r, n) for the
    step from time n, so a lane is unchanged when lanes are added.  The
    stream keys are built once; each step finishes the draws and steps the
    lanes in blocks of _MAX_LANES, which bounds the temporaries of a wide run.
    """
    table = _RowTable(system.shifted)
    z = np.asarray(z0, dtype=np.int64)
    keys = _stream_keys(seed, np.arange(z.size, dtype=np.uint64))
    for n in count():
        yield z
        nxt = np.empty_like(z)
        for lo in range(0, z.size, _MAX_LANES):
            hi = lo + _MAX_LANES
            table.step(z[lo:hi], _uniforms_at(keys[lo:hi], n), out=nxt[lo:hi])
        z = nxt


def sample_path(system: WaveSystem, start: int, n: int, seed: int) -> PathSample:
    """One inhomogeneous trajectory of length n from the given start."""
    if n < 0:
        raise ValueError("path length must be nonnegative")
    start = _state_index(system.space, start)
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
    z0 = np.full(int(trials), _state_index(system.space, start), dtype=np.int64)
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
    lanes = min(_MAX_LANES, samples)
    steps = burn_in + stride * (-(-samples // lanes) - 1)  # to the last recording
    if steps > _MAX_PROFILE_STEPS:
        raise TooLarge(
            f"the profile walk would take {steps} steps, over the cap of {_MAX_PROFILE_STEPS};"
            f" lower stride {stride}, burn_in {burn_in} or samples {samples}"
        )
    if _merging_obstruction(system.shifted) is not None:
        raise NotMerging("profile needs an irreducible aperiodic shifted kernel")
    walk = _walk(system, np.zeros(lanes, dtype=np.int64), seed)
    counts = np.zeros(system.space.size, dtype=np.int64)
    # range comes first so zip stops before the walk steps past the last
    # recording; that recording takes only the lanes still needed
    for recorded, z in zip(range(0, samples, lanes), islice(walk, burn_in, None, stride)):
        counts += np.bincount(z[: samples - recorded], minlength=system.space.size)
    weights = counts.astype(float)
    return Distribution(system.space, weights / weights.sum())

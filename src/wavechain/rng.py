"""Counter-based random number generation.

Every simulation draw is a pure function of (seed, replica, step), so replica
r of a run is unchanged when the total number of replicas grows, and any
sub-range of a path can be regenerated without replaying the rest.  The
generator is the splitmix64 finalizer applied to a chained key; it is cheap,
stateless and vectorizes over numpy arrays.

A draw is made of two pieces.  `_stream_keys` chains (seed, replica) into
the stream key times the golden gamma, which is fixed for the whole stream;
`_uniforms_at` finishes one step from it, so a walk computes the keys once
and pays one finalizer per step.  `uniforms` is exactly these two composed.
"""
from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_SHIFT53 = np.uint64(11)
_INV53 = float(2.0**-53)


def _mix(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer, in place on a uint64 array the caller owns;
    # uint64 arithmetic wraps mod 2^64 by construction
    z += _GAMMA
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def _stream_keys(seed: int, replica) -> np.ndarray:
    """Chained key of each replica's stream, times gamma (at least 1-d)."""
    s = np.atleast_1d(np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF))
    k = _mix(_mix(s) + np.asarray(replica, dtype=np.uint64))
    k *= _GAMMA
    return k


def _uniforms_at(keys: np.ndarray, step) -> np.ndarray:
    """Uniform [0, 1) variates at `step` of the streams with these keys.

    `keys` come from `_stream_keys` and broadcast against `step`.
    """
    z = _mix(np.add(keys, np.asarray(step, dtype=np.uint64), dtype=np.uint64))
    z >>= _SHIFT53
    return z * _INV53


def uniforms(seed: int, replica, step) -> np.ndarray:
    """Uniform [0, 1) variates indexed by (seed, replica, step).

    `replica` and `step` broadcast against each other, so a single call can
    produce one value, a vector over replicas, or a replica-by-step table.
    """
    return _uniforms_at(_stream_keys(seed, replica), step)

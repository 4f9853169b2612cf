"""The single-point perturbation rule behind the sticky stability bound.

`single_point_perturbation` and `sticky_stability_check` share one shape
check: a holding surplus at (o, o) in (0, delta], paid for by losing mass
wherever the symmetric base row is positive and nowhere else; the floor,
the row sum and the symmetry of the base are `PerturbationSpec`'s own
conditions.  The sticky check is pinned against a copy of its earlier,
separately coded version.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import wavechain as w
from wavechain import errors


def _reference_single_row_asymmetry(k):
    asym = np.abs(k - k.T)
    rows = [int(r) for r in np.flatnonzero(asym.max(axis=1) > 1e-14)]
    if not rows:
        return None
    n = k.shape[0]
    for cand in rows:
        others = [r for r in rows if r != cand]
        cols = [c for c in range(n) if c != cand]
        if all(np.all(asym[r, cols] <= 1e-14) for r in others):
            return cand
    raise errors.PerturbationShapeViolated("kernel is not symmetric off a single row")


_U = Fraction(1, 2**53)  # float64 unit roundoff


def exact_invariant_measure(kernel):
    """The invariant measure of the stored floats, in fractions, by state
    reduction (Grassmann, Taksar and Heyman 1985)."""
    p = [[Fraction(v) for v in row] for row in kernel.dense()]
    for m in range(len(p) - 1, 0, -1):
        total = sum(p[m][:m])
        for i in range(m):
            p[i][m] /= total
            for j in range(m):
                p[i][j] += p[i][m] * p[m][j]
    pi = [Fraction(1)]
    for m in range(1, len(p)):
        pi.append(sum(pi[i] * p[i][m] for i in range(m)))
    return [v / sum(pi) for v in pi]


def certified_l1_error(kernel, weights):
    """A bound on |pi_hat - pi|_1 for the weights pi_hat scaled to sum 1:
    m |r|_1 / (1 - tau(K^m)), with the residual r = pi_hat K - pi_hat
    taken in fractions and tau the Dobrushin coefficient, at the first m
    with tau(K^m) < 1/2 (Seneta 1993; Cho and Meyer 2001).  tau is taken
    in floats, within 1e-12 of the exact one."""
    k = kernel.dense()
    pi_hat = [Fraction(v) for v in weights]
    pi_hat = [v / sum(pi_hat) for v in pi_hat]
    exact = [[Fraction(v) for v in row] for row in k]
    n = len(pi_hat)
    r = [sum(pi_hat[x] * exact[x][y] for x in range(n)) - pi_hat[y] for y in range(n)]
    power = k
    for m in range(1, 100):
        tau = max(0.5 * np.abs(power[i] - power[j]).sum() for i in range(n) for j in range(n))
        if tau < 0.5:
            return m * sum(map(abs, r)) / (Fraction(1, 2) - Fraction(1, 10**12))
        power = power @ k
    raise AssertionError("the kernel does not contract within 100 steps")


def reference_sticky_check(system, delta):
    """The sticky check as it was coded before it shared the single-point rule."""
    k = system.base.dense()
    o = _reference_single_row_asymmetry(k)
    if o is None:
        return 1.0, 1.0
    q_row = k[:, o].copy()
    q_oo = 1.0 - (q_row.sum() - q_row[o])
    q_row[o] = q_oo
    d_row = k[o] - q_row
    if not 0.0 < d_row[o] <= delta + 1e-12:
        raise errors.PerturbationShapeViolated(
            f"holding surplus {d_row[o]!r} outside (0, delta={delta}]"
        )
    if not 0.0 < delta < 1.0 - q_oo:
        raise errors.PerturbationShapeViolated("delta must lie in (0, 1 - Q(o, o))")
    off = np.delete(np.arange(k.shape[0]), o)
    floor = -delta * q_row[off] / (1.0 - q_oo)
    if np.any(d_row[off] > 1e-14) or np.any(d_row[off] < floor - 1e-12):
        raise errors.PerturbationShapeViolated(
            "off-diagonal perturbation outside the single-point shape"
        )
    if np.any((q_row[off] > 0.0) & (d_row[off] > -1e-15)):
        raise errors.PerturbationShapeViolated(
            "perturbation must remove mass everywhere the base row has some"
        )
    eps = delta / (1.0 - q_oo)
    pi = system.wave_measure
    measured = float(np.max(pi.weights) / np.min(pi.weights))
    bound = 1.0 / (1.0 - eps)
    peak = int(np.argmax(pi.weights))
    expected = int(system.map.forward[o])
    if peak != expected:
        raise errors.BoundViolated(
            f"wave measure peaks at {peak}, not at the image {expected} of the sticky row"
        )
    if measured > bound + 1e-10:
        raise errors.BoundViolated(
            f"sticky ratio {measured} exceeds the certified bound {bound}"
        )
    return measured, bound


def _outcome(check, system, delta) -> str:
    try:
        return repr(check(system, delta))
    except errors.WavechainError as exc:
        return repr(exc)


def test_sticky_check_matches_its_earlier_version():
    outcomes = 0
    for n in (3, 4, 5, 6):
        size = math.factorial(n)
        for rho in (0, 1, size // 2, size - 1):
            for delta in (0.01, 0.05, 0.1, 0.2):
                s = w.sticky_permutation_system(n, rho, delta)
                for claimed in (delta, 1.5 * delta, 0.9 * delta):
                    expected = _outcome(reference_sticky_check, s, claimed)
                    assert _outcome(w.sticky_stability_check, s, claimed) == expected
                    outcomes += 1
    assert outcomes == 192


def test_sticky_check_certifies_an_uneven_removal_within_the_claimed_delta():
    # the three moves of row 0 lose (0.03, 0.01, 0.01) instead of 0.05/3 each;
    # 0.03 lies below the floor of the surplus 0.05 but above that of 0.1
    s = w.sticky_permutation_system(4, 0, 0.05)
    k = s.base.dense().copy()
    moves = [c for c in np.flatnonzero(k[0] > 0.0) if c != 0]
    k[0, moves] = 1 / 8 - np.array([0.03, 0.01, 0.01])
    uneven = w.make_wave_system(w.make_kernel(s.space, k), s.map)
    measured, bound = w.sticky_stability_check(uneven, 0.1)
    assert (measured, bound) == reference_sticky_check(uneven, 0.1)
    assert bound == 1.3636363636363635
    # the ratio is the exact one up to the solve's certified error
    pi = exact_invariant_measure(uneven.shifted)
    top, bottom = max(pi), min(pi)
    e = certified_l1_error(uneven.shifted, uneven.wave_measure.weights)
    lo, hi = (top - e) / (bottom + e), (top + e) / (bottom - e)
    assert lo * (1 - _U) <= Fraction(measured) <= hi * (1 + _U)
    assert 1.16 < top / bottom < 1.17 and e < 1e-13
    with pytest.raises(errors.ConditionViolated, match=r"\(b\)"):
        w.sticky_stability_check(uneven, 0.05)


# ------------------------------------------------- one test per condition

def _base():
    """Sticky S_4 system at rank 0 and its symmetric base Q (o = 0)."""
    s = w.sticky_permutation_system(4, 0, 0.1)
    q = s.base.dense().copy()
    q[0] = q[:, 0]
    q[0, 0] = 1.0 - q[1:, 0].sum()
    return s, q


def _row(surplus, moves, extra=None):
    """Edit row for o = 0: `surplus` at (0, 0), `moves` on the three
    transposition columns, and {column: value} edits elsewhere."""
    s, q = _base()
    row = np.zeros(q.shape[0])
    row[0] = surplus
    row[[c for c in np.flatnonzero(q[0] > 0.0) if c != 0]] = moves
    for c, v in (extra or {}).items():
        row[c] = v
    return row


# a column the base row 0 cannot reach in one step
_FAR = 1

SHAPES = {
    # name: (edit row, claimed delta for the sticky check, expected error and match)
    "negative surplus": (
        _row(-0.03, 0.01),
        0.1,
        (errors.PerturbationShapeViolated, "holding surplus"),
    ),
    "gains mass on a move": (
        _row(0.1, [-0.06, -0.06, 0.02]),
        0.1,
        (errors.ConditionViolated, r"\(vertex-prime\)"),
    ),
    "keeps a move": (
        _row(0.1, [-0.05, -0.05, 0.0]),
        0.1,
        (errors.ConditionViolated, r"\(vertex-prime\)"),
    ),
    "adds mass off the base row": (
        _row(0.1, [-0.04, -0.04, -0.04], {_FAR: 0.02}),
        0.1,
        (errors.ConditionViolated, r"\(vertex-prime\)"),
    ),
    "dips below the floor": (
        _row(0.05, [-0.03, -0.01, -0.01]),
        0.05,
        (errors.ConditionViolated, r"\(b\)"),
    ),
    "strength reaches one": (
        _row(0.375, -0.125),
        0.375,
        (errors.ConditionViolated, r"\(b\)"),
    ),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_single_point_perturbation_rejects(name):
    row, _, (error, match) = SHAPES[name]
    _, q = _base()
    with pytest.raises(error, match=match):
        w.single_point_perturbation(w.make_kernel(w.sn_space(4), q), 0, row)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_sticky_check_rejects(name):
    row, claimed, (error, match) = SHAPES[name]
    s, q = _base()
    k = q.copy()
    k[0] += row
    system = w.make_wave_system(w.make_kernel(s.space, k), s.map)
    with pytest.raises(error, match=match):
        w.sticky_stability_check(system, claimed)


def test_sticky_check_rejects_a_surplus_above_the_claimed_delta(sticky4):
    # single_point_perturbation has no claimed delta: its delta is the surplus
    with pytest.raises(errors.PerturbationShapeViolated, match="holding surplus"):
        w.sticky_stability_check(sticky4, 0.05)


def test_sticky_check_rejects_a_claimed_strength_of_one(sticky4):
    # surplus 0.1 is within delta = 0.4, but 0.4 / (1 - 5/8) >= 1
    with pytest.raises(errors.ConditionViolated, match=r"\(b\)"):
        w.sticky_stability_check(sticky4, 0.4)


def test_single_point_perturbation_rejects_a_removal_the_base_cannot_make():
    # in a kernel this edit would be a negative entry, so only the
    # perturbation builder can see it
    _, q = _base()
    row = _row(0.1, [-0.03, -0.03, -0.03], {_FAR: -0.01})
    with pytest.raises(errors.ConditionViolated, match=r"\(vertex-prime\)"):
        w.single_point_perturbation(w.make_kernel(w.sn_space(4), q), 0, row)


def test_single_point_perturbation_rejects_an_unbalanced_row():
    # the sticky check rebuilds Q(o, o) from stochasticity, so its rows
    # always balance
    _, q = _base()
    with pytest.raises(errors.ConditionViolated, match=r"\(a\)"):
        w.single_point_perturbation(w.make_kernel(w.sn_space(4), q), 0, _row(0.1, -0.02))
    with pytest.raises(errors.ConditionViolated, match=r"\(a\)"):
        w.single_point_perturbation(w.make_kernel(w.sn_space(4), q), 0, np.zeros(5))


def test_both_entry_points_reject_an_asymmetric_base():
    s, q = _base()
    # move 0.01 of row 6's holding mass onto one of its moves other than 0
    target = next(c for c in np.flatnonzero(q[6] > 0.0) if c not in (0, 6))
    q[6, 6] -= 0.01
    q[6, target] += 0.01
    with pytest.raises(errors.NotSymmetric):
        w.single_point_perturbation(w.make_kernel(s.space, q), 0, _row(0.1, -0.1 / 3))
    k = q.copy()
    k[0] += _row(0.1, -0.1 / 3)
    system = w.make_wave_system(w.make_kernel(s.space, k), s.map)
    with pytest.raises(errors.PerturbationShapeViolated, match="off a single row"):
        w.sticky_stability_check(system, 0.1)

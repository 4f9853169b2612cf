"""Acceptance gate: one check per numbered criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test also fails loudly on its own assert.
"""

import math
import time

import numpy as np

import wavechain as w
from wavechain import scaling_study
from wavechain.groups import from_cycles, transposition

from group_reference import sn_index


def verdict(num, ok, detail):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {detail}"
    print(line, flush=True)
    assert ok, line


def circle_system(n, eps, shift=-1, lazy=False):
    base = (
        w.lazy_circle_kernel(n, eps) if lazy else w.circle_kernel(n, eps)[0]
    )
    return w.make_wave_system(base, w.circle_shift(n, shift))


CIRCLE_NS = range(5, 42, 4)  # 5, 9, ..., 41
CIRCLE_EPS = (0.5, 1.0, 2.0)


def test_criterion_01_wave_identity(corpus):
    t0 = time.monotonic()
    worst = 0.0
    for s in corpus:
        worst = max(worst, w.verify_wave_identity(s, 20).max_discrepancy)
    elapsed = time.monotonic() - t0
    verdict(
        1,
        worst <= 1e-10 and elapsed < 10,
        f"window vs shifted-power dev {worst:.2e} on 200 systems, n<=20 "
        f"({elapsed:.2f}s)",
    )


def test_criterion_02_circle_closed_form():
    t0 = time.monotonic()
    worst_pi = 0.0
    worst_c = 0.0
    for n in CIRCLE_NS:
        for eps in CIRCLE_EPS:
            s = circle_system(n, eps)
            closed = w.tilde_pi_closed_form_shift_minus1(n, eps)
            worst_pi = max(
                worst_pi,
                float(np.max(np.abs(s.wave_measure.weights - closed.weights))),
            )
            cert = w.certify_stability(s, s.wave_measure)
            worst_c = max(worst_c, abs(cert.c - (1 + eps)))
    elapsed = time.monotonic() - t0
    verdict(
        2,
        worst_pi <= 1e-12 and worst_c <= 1e-10 and elapsed < 5,
        f"closed-form dev {worst_pi:.2e}, |c-(1+eps)| {worst_c:.2e} "
        f"({elapsed:.2f}s)",
    )


def test_criterion_03_stability_bounds():
    t0 = time.monotonic()
    worst_shift2 = -math.inf
    for n in CIRCLE_NS:
        for eps in CIRCLE_EPS:
            pi = circle_system(n, eps, shift=2).wave_measure.weights
            worst_shift2 = max(
                worst_shift2,
                float(np.max(pi) - (1 + eps) * np.min(pi)),
            )
    worst_lazy = -math.inf
    rng = np.random.default_rng(20260816)
    for n in (5, 9, 15):
        for eps in CIRCLE_EPS:
            base = w.lazy_circle_kernel(n, eps)
            for _ in range(100):
                g = w.make_permutation(
                    base.space, [int(v) for v in rng.permutation(n)]
                )
                pi = w.make_wave_system(base, g).wave_measure.weights
                worst_lazy = max(
                    worst_lazy,
                    float(np.max(pi) - (1 + eps) * np.min(pi)),
                )
    elapsed = time.monotonic() - t0
    verdict(
        3,
        worst_shift2 <= 1e-12 and worst_lazy <= 1e-12 and elapsed < 30,
        f"max-(1+eps)min: shift+2 {worst_shift2:.2e}, lazy random maps "
        f"{worst_lazy:.2e} ({elapsed:.2f}s)",
    )


def test_criterion_04_spectral_transport(merging_corpus):
    worst_sv = 0.0
    worst_eig = 0.0
    for s in merging_corpus:
        pi = s.wave_measure
        ref = np.sort(
            w.weighted_singular_values(s.shifted, pi, pi).singular_values
        )
        for i in range(1, s.order + 1):
            got = np.sort(
                w.weighted_singular_values(
                    w.kernel_at(s, i),
                    w.wave_measures(s, i),
                    w.wave_measures(s, i - 1),
                ).singular_values
            )
            worst_sv = max(worst_sv, float(np.max(np.abs(got - ref))))
        alpha = w.eigenvalues(s.shifted).eigenvalues
        window_eigs = np.linalg.eigvals(
            w.compose_window(s, 0, s.order).dense()
        )
        for a in alpha:
            worst_eig = max(
                worst_eig, float(np.min(np.abs(window_eigs - a**s.order)))
            )
    verdict(
        4,
        worst_sv <= 1e-8 and worst_eig <= 1e-8,
        f"singular-value transport dev {worst_sv:.2e}, power-spectrum "
        f"containment dev {worst_eig:.2e} on {len(merging_corpus)} systems",
    )


def test_criterion_05_bound_dominance(merging_corpus):
    violations = 0
    worst_excess = -math.inf
    worst_gap = 0.0
    for s in merging_corpus:
        size = s.space.size
        pi = s.wave_measure.weights
        grid = w.wave_bound_grid(s, 50)
        kt = s.shifted.dense()
        power = np.eye(size)
        for n in range(1, 51):
            power = power @ kt
            gn = s.map.power_map(n)
            actual = np.abs(power[:, gn] / pi[gn][None, :] - 1.0)
            excess = float(np.max(actual - grid[n]))
            worst_excess = max(worst_excess, excess)
            if excess > 1e-10:  # slack for float noise, see ledger
                violations += 1
        mu0 = s.wave_measure
        for n in (1, s.order, 50):
            for x in (0, size - 1):
                worst_gap = max(
                    worst_gap,
                    abs(
                        w.sv_product_bound(s, mu0, x, 0, n)
                        - w.wave_bound(s, x, 0, n)
                    ),
                )
    verdict(
        5,
        violations == 0 and worst_gap <= 1e-10,
        f"dominance violations {violations} (worst excess {worst_excess:.2e}),"
        f" sv-product vs wave bound gap {worst_gap:.2e}",
    )


def test_criterion_06_four_point_counterexample():
    s = w.four_point_example()
    exact = all(
        w.compose_window(s, 0, 2 * m).dense()[3, 3] == 1.0
        for m in range(1, 31)
    )
    tv60 = w.pairwise_merging_measure(s, 60, "total_variation")
    rs_all_inf = all(
        math.isinf(w.pairwise_merging_measure(s, n, "relative_sup"))
        for n in range(1, 61)
    )
    verdict(
        6,
        exact and tv60 < 0.01 and rs_all_inf,
        f"deterministic return exact, tv(60)={tv60:.1e}, relative-sup "
        f"infinite at every n<=60",
    )


def test_criterion_07_binary_cycling():
    worst_uniform = 0.0
    worst_sv = 0.0
    worst_nilpotent = 0.0
    for n_bits in range(3, 11):
        s = w.binary_cycling_system(n_bits)
        size = 2**n_bits
        window = w.compose_window(s, 0, n_bits).dense()
        worst_uniform = max(
            worst_uniform, float(np.max(np.abs(window - 1.0 / size)))
        )
        pi = s.wave_measure
        sv = np.sort(
            w.weighted_singular_values(s.shifted, pi, pi).singular_values
        )[::-1]
        half = size // 2
        worst_sv = max(
            worst_sv,
            float(np.max(np.abs(sv[:half] - 1.0))),
            float(np.max(np.abs(sv[half:]))),
        )
        dev = s.shifted.dense() - np.outer(np.ones(size), pi.weights)
        worst_nilpotent = max(
            worst_nilpotent,
            float(np.max(np.abs(np.linalg.matrix_power(dev, n_bits)))),
        )
    # the singular spectrum splits evenly: 2^(N-1) ones and 2^(N-1)
    # zeros (not 2^N - 1 ones); see the decisions ledger
    verdict(
        7,
        worst_uniform <= 1e-14
        and worst_sv <= 1e-8
        and worst_nilpotent <= 1e-12,
        f"uniform window dev {worst_uniform:.1e}, sv split dev "
        f"{worst_sv:.2e} (2^(N-1) ones + zeros), nilpotency "
        f"{worst_nilpotent:.2e}, N=3..10",
    )


def test_criterion_08_symmetric_group_constants():
    sigma_dev = 0.0
    for n in (4, 5):
        s = w.cyclic_to_random_system(n)
        pi = s.wave_measure
        sv = np.sort(
            w.weighted_singular_values(s.shifted, pi, pi).singular_values
        )[::-1]
        sigma_dev = max(sigma_dev, abs(sv[1] - (1 - 1 / n)))
    n = 4
    weights = {transposition(n, 0, j): 1 / (2 * n) for j in range(1, n)}
    weights[tuple(range(n))] = (n + 1) / (2 * n)
    k = w.group_walk_kernel(w.GroupWalkSpec(n, weights))
    u = w.Distribution(k.space, np.full(k.size, 1 / k.size))
    lazy_sv = np.sort(w.weighted_singular_values(k, u, u).singular_values)[
        ::-1
    ]
    lazy_dev = abs(lazy_sv[1] - (1 - 1 / (2 * n)))

    support_ok = True
    for n in (4, 5):
        s = w.deck_reversal_system(n)
        index = sn_index(n)
        row = w.compose_window(s, 0, 2).dense()[index[tuple(range(n))]]
        expected = {
            index[tuple(range(n))],
            index[transposition(n, 0, 1)],
            index[transposition(n, 0, n - 1)],
            index[from_cycles(n, [(0, n - 1, 1)])],
        }
        support_ok &= set(np.flatnonzero(row)) == expected
        support_ok &= bool(np.all(np.abs(row[list(expected)] - 0.25) < 1e-15))
    verdict(
        8,
        sigma_dev <= 1e-8 and lazy_dev <= 1e-8 and support_ok,
        f"transpose-top sigma dev {sigma_dev:.1e}, lazy sigma dev "
        f"{lazy_dev:.1e}, reversal two-step support exact (n=4,5)",
    )


def test_criterion_09_single_point_stability():
    ok = True
    details = []
    for n in (4, 5):
        for delta in (0.05, 0.1):
            s = w.sticky_permutation_system(n, tuple(range(n)), delta)
            pi = s.wave_measure.weights
            o = 0  # identity, fixed by the conjugation map
            eps = delta / (1 - (n + 1) / (2 * n))
            ok &= int(np.argmax(pi)) == o
            ok &= float(np.min(pi)) >= (1 - eps) * pi[o] - 1e-12
            measured, bound = w.sticky_stability_check(s, delta)
            ok &= measured <= bound + 1e-10
            details.append(f"S{n},d={delta}: ratio {measured:.6f}")
    verdict(9, ok, "; ".join(details))


def test_criterion_10_perturbation_singular_value_bound():
    worst = -math.inf
    for n in (5, 7, 9, 11, 13):
        for eps in CIRCLE_EPS:
            strength = eps / (2 + eps)
            c = 1 + eps
            q = w.circle_perturbation_spec(n, eps).base
            for shift in (-1, 2):
                s = circle_system(n, eps, shift=shift)
                computed, bound = w.second_singular_value_bound_gap(
                    s.shifted, s.wave_measure, q, strength, c
                )
                worst = max(worst, computed - bound)
    rng = np.random.default_rng(5)
    for n in (7, 9):
        for eps in CIRCLE_EPS:
            base = w.lazy_circle_kernel(n, eps)
            simple = w.circle_perturbation_spec(n, eps).base
            q_lazy = w.make_kernel(
                base.space, 0.5 * np.eye(n) + 0.5 * simple.dense()
            )
            for _ in range(5):
                g = w.make_permutation(
                    base.space, [int(v) for v in rng.permutation(n)]
                )
                s = w.make_wave_system(base, g)
                pi = w.stationary_distribution(s.shifted)
                computed, bound = w.second_singular_value_bound_gap(
                    s.shifted, pi, q_lazy, eps / (2 + eps), 1 + eps
                )
                worst = max(worst, computed - bound)
    verdict(
        10,
        worst <= 1e-10,
        f"second singular value minus certified bound at most {worst:.2e} "
        f"(circle shifts -1/+2 and lazy random maps)",
    )


def test_criterion_11_nash_machinery():
    t0 = time.monotonic()
    ratios = {}
    for n in (7, 11, 21):
        params = w.circle_nash_params(n, 1.0)
        q = w.circle_perturbation_spec(n, 1.0).base
        ratios[n] = w.check_nash_inequality(
            q, params.T, params.C1, params.D, trial_count=1000, seed=0
        )
    n = 7
    params = w.circle_nash_params(n, 1.0)
    s = circle_system(n, 1.0)
    pi = s.wave_measure.weights
    kt = s.shifted.dense()
    two_t, eight_t = int(2 * params.T), int(8 * params.T)
    power = np.linalg.matrix_power(kt, two_t)
    min_margin = math.inf
    for m in range(two_t + 1, eight_t + 1):
        power = power @ kt
        actual = float(np.max(np.abs(power / pi[None, :] - 1.0)))
        min_margin = min(min_margin, w.nash_bound(params, m) - actual)
    elapsed = time.monotonic() - t0
    verdict(
        11,
        all(r <= 1.0 for r in ratios.values())
        and min_margin >= 0
        and elapsed < 60,
        f"nash ratios {ratios[7]:.3f}/{ratios[11]:.3f}/{ratios[21]:.3f} "
        f"(N=7/11/21), dominance margin on (2T,8T] {min_margin:.2e} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_12_scaling_law():
    study = scaling_study("circle", list(CIRCLE_NS), 1 / math.e, {"eps": 1.0})
    times = {n: t for n, t in study["points"]}
    expected = {
        5: 12, 9: 40, 13: 85, 17: 145, 21: 223,
        25: 318, 29: 428, 33: 555, 37: 699, 41: 859,
    }
    ratios = [times[n] / n**2 for n in CIRCLE_NS]
    verdict(
        12,
        times == expected
        and study["slope"] <= 2.3
        and max(ratios) <= 0.6,
        f"log-log slope {study['slope']:.4f} <= 2.3, T/N^2 in "
        f"[{min(ratios):.3f}, {max(ratios):.3f}]",
    )


def test_criterion_13_monte_carlo_consistency():
    worst_tv = 0.0
    for n in CIRCLE_NS:
        for eps in CIRCLE_EPS:
            s = circle_system(n, eps)
            emp = w.empirical_distribution(s, 0, 25, trials=200_000, seed=0)
            delta = w.Distribution(s.space, np.eye(n)[0])
            exact = w.evolve(delta, s, 25)
            worst_tv = max(worst_tv, w.tv_distance(emp, exact))
    s41 = circle_system(41, 1.0)
    prof = w.empirical_wave_profile(
        s41, burn_in=20_000, stride=41, samples=1_000_000, seed=7
    )
    tv_prof = w.tv_distance(prof, s41.wave_measure)
    verdict(
        13,
        worst_tv < 0.01 and tv_prof < 0.02,
        f"endpoint tv worst {worst_tv:.4f} over 57 instances at 2e5 "
        f"trials, profile tv {tv_prof:.4f} at N=41",
    )

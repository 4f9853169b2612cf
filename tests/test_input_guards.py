"""Input guards of the public functions that no other test reaches.

Each case calls one function with one bad input and checks the typed
error it raises and the error's text.  A guard that returns instead of
raising is checked for its value.
"""
import re

import numpy as np
import pytest

import wavechain as w
from wavechain import errors, groups, interchange, models, sim, spectral


def circle5():
    return w.make_wave_system(w.circle_kernel(5, 1.0)[0], w.circle_shift(5, -1))


def other_uniform():
    return w.Distribution.uniform(w.StateSpace(4))


def lazy_circle7():
    s = w.make_wave_system(w.lazy_circle_kernel(7, 1.0), w.circle_shift(7, -1))
    return s.shifted, s.wave_measure


CASES = {
    "distribution-length": (
        lambda: w.Distribution(w.StateSpace(3), [0.5, 0.5]),
        errors.SpaceMismatch, "weight vector of length (2,) on a space of size 3",
    ),
    "distribution-negative": (
        lambda: w.Distribution(w.StateSpace(3), [0.5, 0.75, -0.25]),
        errors.NegativeEntry, "negative mass at state 2",
    ),
    "permutation-repeated-image": (
        lambda: w.make_permutation(w.StateSpace(3), [0, 0, 1]),
        errors.NotBijective, "forward map is not a bijection of 0..size-1",
    ),
    "kernel-shape": (
        lambda: w.make_kernel(w.StateSpace(3), np.eye(2)),
        errors.SpaceMismatch, "matrix shape (2, 2) on a space of size 3",
    ),
    "transport-index-0": (
        lambda: w.transport_kernel(circle5().base, circle5().map, 0),
        ValueError, "transport index starts at 1",
    ),
    "evolve-negative-steps": (
        lambda: w.evolve(w.Distribution.uniform(w.StateSpace(5)), circle5(), -1),
        ValueError, "step count must be nonnegative",
    ),
    "cycles-overlap": (
        lambda: groups.from_cycles(4, [(0, 1), (1, 2)]),
        ValueError, "cycles overlap or repeat a point",
    ),
    "permutation-document-empty": (
        lambda: interchange.permutation_from_document({}),
        errors.ConfigInvalid, "permutation document missing size/forward: 'size'",
    ),
    "tv-other-space": (
        lambda: w.tv_distance(w.Distribution.uniform(w.StateSpace(5)), other_uniform()),
        errors.SpaceMismatch, "distances need distributions on one space",
    ),
    "stability-other-space": (
        lambda: w.certify_stability(circle5(), other_uniform(), horizon=3),
        errors.SpaceMismatch, "mu0 lives on a different space",
    ),
    "sv-product-bound-other-space": (
        lambda: w.sv_product_bound(circle5(), other_uniform(), 0, 0, 2),
        errors.SpaceMismatch, "mu0 lives on a different space",
    ),
    "weighted-svd-other-space": (
        lambda: w.weighted_singular_values(circle5().shifted, other_uniform(), other_uniform()),
        errors.SpaceMismatch, "measures live on a different space than the kernel",
    ),
    "minmax-support-misses-a-column": (
        lambda: w.minmax_ratio_bound(*lazy_circle7(), (3,)),
        ValueError, "support does not cover the imbalanced columns",
    ),
    "circle-kernel-2-points": (
        lambda: w.circle_kernel(2, 1),
        ValueError, "circle needs at least 3 points",
    ),
    "circle-shift-0-points": (
        lambda: w.circle_shift(0, 1),
        ValueError, "empty circle",
    ),
    "scan-sticky": (
        lambda: models.scan_permutations("sticky", {}, 3, 0),
        errors.ConfigInvalid, "scan-permutations applies to the circle models only",
    ),
    "group-walk-deck-0": (
        lambda: w.GroupWalkSpec(0, {}),
        ValueError, "deck size must be positive",
    ),
    "sticky-rho-not-a-permutation": (
        lambda: w.sticky_permutation_system(4, (0, 0, 1, 2), 0.1),
        ValueError, "(0, 0, 1, 2) is not a permutation of 0..3",
    ),
    "binary-cycling-1-bit": (
        lambda: w.binary_cycling_system(1),
        ValueError, "need at least 2 bits",
    ),
    "binary-cycling-17-bits": (
        lambda: w.binary_cycling_system(17),
        errors.TooLarge, "2^17 states exceed the supported range",
    ),
    "periodic-class-1-class": (
        lambda: w.periodic_class_example(1, 2),
        ValueError, "need at least two classes",
    ),
    "periodic-class-empty-classes": (
        lambda: w.periodic_class_example(2, 0),
        ValueError, "classes must be nonempty",
    ),
    "scaling-never-merges": (
        # relative sup cannot fall below rounding, let alone 1e-300
        lambda: models.scaling_study("circle", [5, 7], 1e-300),
        errors.ConfigInvalid, "no merging within 350 steps at n=5",
    ),
    "sample-path-negative-length": (
        lambda: sim.sample_path(circle5(), 0, -1, 0),
        ValueError, "path length must be nonnegative",
    ),
    "empirical-distribution-no-trials": (
        lambda: sim.empirical_distribution(circle5(), 0, 3, 0, 0),
        ValueError, "need at least one trial",
    ),
    "empirical-distribution-negative-length": (
        lambda: sim.empirical_distribution(circle5(), 0, -1, 10, 0),
        ValueError, "path length must be nonnegative",
    ),
    "wave-profile-negative-burn-in": (
        lambda: sim.empirical_wave_profile(circle5(), -1, 1, 10, 0),
        ValueError, "burn_in >= 0, stride >= 1, samples >= 1 required",
    ),
    "wave-profile-stride-0": (
        lambda: sim.empirical_wave_profile(circle5(), 0, 0, 10, 0),
        ValueError, "burn_in >= 0, stride >= 1, samples >= 1 required",
    ),
    "wave-profile-no-samples": (
        lambda: sim.empirical_wave_profile(circle5(), 0, 1, 0, 0),
        ValueError, "burn_in >= 0, stride >= 1, samples >= 1 required",
    ),
    "sigma-bound-gap-eps-1": (
        lambda: spectral.second_singular_value_bound_gap(
            circle5().shifted, circle5().wave_measure, circle5().base, 1.0, 2.0
        ),
        ValueError, "eps must lie in [0, 1)",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_bad_input_raises_its_typed_error(case):
    call, error, text = CASES[case]
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call()


def test_one_line_label_brackets_ten_or_more_points():
    assert groups.one_line_label(tuple(range(9))) == "123456789"
    assert groups.one_line_label(tuple(range(10))) == "(1,2,3,4,5,6,7,8,9,10)"


def test_the_sticky_check_is_vacuous_on_a_symmetric_base():
    assert models.sticky_stability_check(w.cyclic_to_random_system(4), 0.1) == (1.0, 1.0)

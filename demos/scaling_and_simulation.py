"""Merging-time growth across circle sizes, cross-checked by simulation.

The exact merging times grow like N^2 (slope ~2 on a log-log plot), and a
seeded Monte Carlo run of the inhomogeneous chain reproduces both the
evolved law at a fixed time and the long-run wave profile.
"""

import math

import numpy as np

import wavechain as w
from wavechain import scaling_study


def main():
    sizes = [5, 9, 13, 17, 21]
    study = scaling_study("circle", sizes, 1 / math.e, {"eps": 1.0})
    print("relative-sup merging times at threshold 1/e:")
    for n, t in study["points"]:
        print(f"  N={n:2d}: {t:4d}  (T/N^2 = {t / n**2:.3f})")
    print(f"log-log slope: {study['slope']:.4f}")
    assert 1.7 < study["slope"] < 2.3

    n = 21
    kernel, _ = w.circle_kernel(n, 1.0)
    s = w.make_wave_system(kernel, w.circle_shift(n, -1))

    emp = w.empirical_distribution(s, start=0, n=25, trials=100_000, seed=0)
    exact = w.evolve(w.Distribution(s.space, np.eye(n)[0]), s, 25)
    tv = w.tv_distance(emp, exact)
    print(f"simulated law at n=25 vs exact transport: TV {tv:.4f} (1e5 paths)")
    assert tv < 0.02

    prof = w.empirical_wave_profile(
        s, burn_in=5_000, stride=n, samples=200_000, seed=1
    )
    tvp = w.tv_distance(prof, s.wave_measure)
    print(f"occupation profile vs wave measure: TV {tvp:.4f}")
    assert tvp < 0.02
    print("ok")


if __name__ == "__main__":
    main()

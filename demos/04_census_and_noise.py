"""Half of SU(2) is chaotic, and phase noise blurs the boundary.

Drawing psi uniformly on [0, 2*pi) and completing the SU(2) pair, the chaotic
condition |cos psi| <= 2^(-1/2) carves out intervals of total measure pi, so
the chaotic fraction is a binomial experiment around 1/2 (``boundary``
draws, within the rounding band of sqrt(2), are not counted).  Uniform phase
noise phi -> phi + lambda, psi -> psi - lambda keeps the pair in SU(2) but
can push it across the boundary when the margin is small.  The walk comes
back in blocks of per-step phases, |tr| and verdict codes, so a summary keeps
only the counts, however long the walk.
"""

import math

import numpy as np

from qchaos import (
    VERDICT_LABELS,
    EigenphasePair,
    monte_carlo_chaotic_fraction,
    noisy_phase_walk,
)

print("census of uniform-psi SU(2) draws (3-sigma binomial bands):")
for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
    res = monte_carlo_chaotic_fraction(n, seed=1)
    inside = "ok" if abs(res.fraction - 0.5) <= res.half_width_3sigma else "OUTSIDE"
    print(f"  N = {n:>8}: fraction = {res.fraction:.5f} "
          f"(+/- {res.half_width_3sigma:.5f})  {inside}")

# Same seed, same answer; that is the whole point of counter-based streams.
again = monte_carlo_chaotic_fraction(10 ** 5, seed=1)
assert again == monte_carlo_chaotic_fraction(10 ** 5, seed=1)


def walk_summary(psi_over_pi, eps, steps=2000, seed=5):
    psi = psi_over_pi * math.pi
    base = EigenphasePair(-psi, psi)  # the SU(2) completion: phi + psi = 0
    counts = sum(np.bincount(block.codes, minlength=len(VERDICT_LABELS))
                 for block in noisy_phase_walk(base, eps, steps, seed))
    return {label: int(n) for label, n in zip(VERDICT_LABELS, counts) if n}


print("\nnoise on a deep-in-the-window unitary (psi = pi/2, margin pi/4):")
for eps in (0.01, 0.1, 0.3):
    print(f"  epsilon = {eps}: {walk_summary(0.5, eps)}")

print("\nnoise exactly on the window edge (psi = 3*pi/4):")
for eps in (0.001, 0.1):
    print(f"  epsilon = {eps}: {walk_summary(0.75, eps)}")

print("\nnoise just outside the window (psi = 0.76*pi, margin 0.01*pi):")
for eps in (0.005, 0.02, 0.1):
    print(f"  epsilon = {eps}: {walk_summary(0.76, eps)}")

# On the edge any epsilon > 0 mixes verdicts (only the sign of each draw
# matters); elsewhere the verdict flips only once epsilon reaches the margin
# between psi and the nearest window edge.

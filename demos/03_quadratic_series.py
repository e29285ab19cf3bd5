"""Non-idempotent unitaries from integer quadratic recurrences.

Roots alpha, beta of x^2 + a x + b (negative integer coefficients, non-square
discriminant) give certified-irrational SU(2) eigenphases via
phi = (alpha^t mod 2) pi, psi = (beta^t mod 2) pi whenever the integer
s_t = alpha^t + beta^t is even.  No power of such a unitary is the identity,
yet every one of them stops being chaotic at some finite order.
"""

import math

from qchaos import (
    QuadraticRecipe,
    TWO_PI,
    VERDICT_LABELS,
    chaotic_order_fraction,
    first_nonchaotic_order,
    order_verdicts,
    quadratic_trace_sequence,
)

# The golden-ratio seed: s_t are the Lucas numbers 2, 1, 3, 4, 7, 11, ...
seq = quadratic_trace_sequence(-1, -1, 12)
print("Lucas numbers:", seq)
print("even at t =", [t for t, s in enumerate(seq) if s % 2 == 0],
      "(only those t give SU(2) pairs)")

lucas = QuadraticRecipe(-1, -1, 3)  # checked and built here; t=4 would raise (s_4 = 7)
pair, v = lucas.pair(), order_verdicts(lucas)
print(f"\nt=3: phi = {pair.phi:.6f}, psi = {pair.psi:.6f}, "
      f"|tr| = {v.trace_mag:.6f} -> {VERDICT_LABELS[v.codes]}")
print("rationality:", lucas.rationality)

# |beta| < 1 here, so beta^t -> 0 and the series drifts toward the identity:
for t in (3, 6, 9, 12):
    print(f"t={t:2d}: |tr| = {order_verdicts(QuadraticRecipe(-1, -1, t)).trace_mag:.6f}")

# A traversing series needs beta < -1.  (|a|, |b|) = (2, 101) is the workhorse:
res = QuadraticRecipe(-2, -101, 8)
print(f"\n(-2,-101) t=8 [{res.classification}]: s_8 = {res.s_t}, "
      f"|cos psi| = {abs(math.cos(res.pair().psi)):.4f} -> "
      f"{VERDICT_LABELS[order_verdicts(res).codes]}")

# Chaotic today, non-chaotic at some finite order -- always:
k = first_nonchaotic_order(res, 10 ** 4)
frac = chaotic_order_fraction(res, 10 ** 5)
print(f"first non-chaotic order: K = {k}")
print(f"fraction of chaotic orders K <= 1e5: {frac:.4f} (equidistributes to 1/2)")

# The residues come from exact integers, so the phases keep full float
# accuracy at any t -- here alpha^80 has about 280 integer bits:
far = QuadraticRecipe(-2, -101, 80).pair()
print(f"\nt=80: phi = {far.phi!r}, psi = {far.psi!r}, "
      f"phi + psi - 2 pi = {far.phi + far.psi - TWO_PI:.1e} (det = 1)")

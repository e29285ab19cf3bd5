"""Chaoticity order by order, and why idempotency caps it.

Measuring only every K-th application of U turns the question "is U chaotic"
into "is U^K chaotic", i.e. |tr(U^K)| <= sqrt(2).  Pauli operators pass at
every odd K and fail at every even K because their square is the identity.
Rational-phase unitaries let us prescribe both the idempotency order and a
chaotic order.  No unitary is chaotic at every order, though: the first
non-chaotic order is always at most 4.
"""

import math

from qchaos import (
    EigenphasePair,
    ExactUnitarySpec,
    RationalPhase,
    VERDICT_LABELS,
    build_chaotic_order,
    chaotic_order_fraction,
    chaoticity_scan,
    first_nonchaotic_order,
    idempotency_order,
    projective_idempotency_order,
)

PI = math.pi


def show(title, scan):
    print(f"\n{title}")
    print("  K  theta/pi      H_K     |tr U^K|  verdict")
    for block in scan:  # a scan comes as consecutive blocks of orders
        for k, theta, h, tm, code in zip(*(column.tolist() for column in block)):
            print(f"{k:3d}  {theta / PI:8.4f}  {h:7.4f}  {tm:8.4f}  {VERDICT_LABELS[code]}")


show("Pauli X (phases 0, pi): chaotic at odd K only",
     chaoticity_scan(EigenphasePair(0.0, PI), 6))

# A unitary that is chaotic exactly when sampled every 5th step: take the
# smallest prime p2 not dividing 5 with |cos(5 pi / p2)| <= 2^(-1/2).
spec, p2 = build_chaotic_order(5)
print(f"\norder-5 construction: psi = pi/{p2}, phi = {spec.phase1}")
show("its scan (note K = 5)", chaoticity_scan(spec, 10))
print("strict idempotency order:", idempotency_order(spec))

# Arbitrary idempotency orders from rational phases.  The global phase matters
# for the strict order: these two are the classic order-4 and order-8 examples.
d4 = ExactUnitarySpec(RationalPhase(1, 4), RationalPhase(5, 4), RationalPhase(1, 4))
d8 = ExactUnitarySpec(RationalPhase(1, 32), RationalPhase(17, 32), RationalPhase(23, 32))
for name, spec in [("D4", d4), ("D8", d8)]:
    order = idempotency_order(spec)
    print(f"\n{name}: strict order {order}, "
          f"projective order {projective_idempotency_order(spec)}, "
          f"lcm of inner denominators {math.lcm(spec.phase1.p, spec.phase2.p)}")
    show(f"{name} scan", chaoticity_scan(spec, order))

# An exact spec's verdict at order K depends only on e = K*A mod 2L, for the
# phase difference A*pi/L, so its chaotic orders are counted by floor sums
# without evaluating any order: here all of them up to K = 10^18, with 2L
# near 1.4 * 10^10.
p = 10 ** 9 + 7
slow = ExactUnitarySpec(RationalPhase(3, p), RationalPhase(1, 7))
print(f"\nphases (3 pi/{p}, pi/7): chaotic at a fraction")
for n in (10 ** 6, 10 ** 18):
    print(f"  {chaotic_order_fraction(slow, n)!r} of orders K = 1..{n}")

# Idempotency of order n forces H_K = 0 at every multiple of n: U^n = I has
# trace magnitude exactly 2, the scans above show it landing on 2.0 exactly.

# The order of chaoticity is bounded.  With theta = phi - psi, order K is
# non-chaotic iff K*theta lands within pi/2 of 0 (mod 2*pi).  If K = 1, 2, 3
# all miss that, theta = pi/2 (mod pi), and then 4*theta = 0: U^4 is
# proportional to the identity.  So the first non-chaotic order is <= 4, and
# first_nonchaotic_order only ever evaluates K = 1..4.
print("\nfirst non-chaotic order (searching up to K = 10^4):")
for label, theta in [("0.3", 0.3), ("3*pi/4", 3 * PI / 4), ("pi/2", PI / 2)]:
    k = first_nonchaotic_order(EigenphasePair(theta, 0.0), 10 ** 4)
    print(f"  theta = {label:7s} -> K = {k}")

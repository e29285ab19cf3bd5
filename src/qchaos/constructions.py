"""Builders for the studied unitary families.

Three kinds of two-level unitaries are constructed here:

* exact rational-phase unitaries e^{i g} Diag(e^{i m1 pi/p1}, e^{i m2 pi/p2}),
  which are idempotent of a computable finite order;
* unitaries chaotic at a prescribed order K, obtained from the smallest prime
  p2 not dividing K with |cos(pi K / p2)| <= 1/sqrt(2), setting psi = pi/p2;
* non-idempotent SU(2) pairs from integer quadratic recurrences: with alpha,
  beta the roots of x^2 + a x + b (a, b negative integers, discriminant
  D = a^2 - 4b not a perfect square), the sums
  s_t = alpha^t + beta^t follow the integer recurrence

      s_0 = 2,  s_1 = -a,  s_{t+1} = -a s_t - b s_{t-1},

  and whenever s_t is even the pair (phi, psi) = ((alpha^t mod 2) pi,
  (beta^t mod 2) pi) is a valid SU(2) eigenphase pair with certified
  irrational phases.  ``QuadraticRecipe(a, b, t)`` is that pair: it checks
  and builds itself when it is made.

Each source class states its own ``kind`` and ``rationality``; the exact
kinds also give ``to_json()``, the form ``source_from_json`` reads back.

The mod-2 reduction is done in exact integers, each phase rounded once to a
float; the tests' TestQuadraticPhasesExact gives the argument.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .chaoticity import CHAOTIC, order_verdicts
from .phases import EigenphasePair, ExactUnitarySpec, RationalPhase, require_count, require_integer

#: Fraction bits of the exact residue: a float significand plus guard bits.
_RESIDUE_BITS = 53 + 64
#: ``build_chaotic_order`` tries the primes below this bound, in increasing order.
_PRIME_CAP = 10_000


def quadratic_trace_sequence(a: int, b: int, t_max: int) -> tuple[int, ...]:
    """s_0..s_t_max by the exact integer recurrence s_{t+1} = -a s_t - b s_{t-1}."""
    a = require_integer("seed coefficient a", a)
    b = require_integer("seed coefficient b", b)
    t_max = require_count("t_max", t_max)
    values = [2, -a]
    for _ in range(t_max - 1):
        values.append(-a * values[-1] - b * values[-2])
    return tuple(values)


def build_chaotic_order(k: int) -> tuple[ExactUnitarySpec, int]:
    """Rational-phase unitary whose k-th power is chaotic, plus the prime used.

    Takes the smallest prime p2 not dividing k with |cos(pi k / p2)| <= 1/sqrt(2)
    and sets psi = pi/p2, phi = (2 p2 - 1) pi / p2 (the SU(2) completion); the
    test is the exact rational verdict at order k.  The result is exactly
    rational, hence idempotent of some finite order.
    """
    k = require_count("order", k)
    for p in range(2, _PRIME_CAP):
        if k % p == 0 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            continue
        spec = ExactUnitarySpec(RationalPhase(2 * p - 1, p), RationalPhase(1, p))
        if order_verdicts(spec, [k]).codes[0] == CHAOTIC:
            return spec, p
    raise ValueError(f"no qualifying prime below {_PRIME_CAP} for order {k}")


@dataclass(frozen=True)
class QuadraticRecipe:
    """SU(2) pair ((alpha^t mod 2) pi, (beta^t mod 2) pi) from x^2 + a x + b.

    The recipe is checked and built when it is made, and raises ValueError
    unless a and b are integers, t >= 1, a, b < 0 (so D = a^2 + 4|b| > 0), D
    is not a perfect square (otherwise the phases are rational and the
    construction loses its point) and s_t is even (otherwise the pair is not
    unimodular).  Only (a, b, t) take part in ==, hash and repr; the build
    keeps s_t, the classification ("converging_to_identity" when |beta| < 1,
    else "traversing") and the pair, read through pair().  sqrt(D) is
    irrational, so both phases are certified irrational for every t >= 1.

    The residue r = beta^t mod 2 is bracketed in exact integers, so psi =
    r pi and phi = (2 - r) pi keep full float accuracy at every t.
    """

    kind, rationality = "quadratic", "irrational_certified"
    a: int
    b: int
    t: int
    s_t: int = field(init=False, repr=False, compare=False)
    classification: str = field(init=False, repr=False, compare=False)
    _pair: EigenphasePair = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = require_integer("seed coefficient a", self.a)
        b = require_integer("seed coefficient b", self.b)
        t = require_count("t", self.t)
        if a >= 0 or b >= 0:
            raise ValueError(f"seed (a={a}, b={b}) is outside the a, b < 0 regime")
        d = a * a - 4 * b
        if math.isqrt(d) ** 2 == d:
            raise ValueError(
                f"discriminant {d} is a perfect square, so the phases "
                "are rational; a non-idempotent construction requires an irrational root")
        s_t = quadratic_trace_sequence(a, b, t)[t]
        if s_t % 2 != 0:
            raise ValueError(f"s_{t} = {s_t} is odd; the pair would not be unimodular")

        big_a, big_b = 1, 0  # 2^t alpha^t = A_t + B_t sqrt(D), 2^t beta^t = A_t - B_t sqrt(D)
        for _ in range(t):
            big_a, big_b = -a * big_a + big_b * d, big_a - a * big_b
        beta = (-a - math.sqrt(d)) / 2.0
        # a tiny |beta^t| needs t log2(1/|beta|) extra bits to keep 53 significant ones
        n = _RESIDUE_BITS + (math.ceil(-t * math.log2(abs(beta))) if abs(beta) < 1.0 else 0)
        # floor(B_t sqrt(D) 2^n), never exact: sqrt(D) is irrational and B_t != 0
        # B_t > 0: B_1 = 1, A_1 = -a > 0, and A' = -aA + BD, B' = A - aB keep both positive
        root = math.isqrt(big_b * big_b * d << 2 * n)
        # floor(beta^t 2^(t+n)), using floor(-x) = -floor(x) - 1 for non-integer x
        k = t + n
        q = ((big_a << n) - root - 1) % (2 << k)  # r lies strictly inside (q, q+1) / 2^k
        # round through the midpoint: with the guard bits, the float rounding
        # boundaries near r are multiples of 2^-k, so the open interval holds none
        den = 1 << (k + 1)
        psi = (2 * q + 1) / den * math.pi
        phi = (2 * den - 2 * q - 1) / den * math.pi
        tag = "converging_to_identity" if abs(beta) < 1.0 else "traversing"
        for name, value in (("a", a), ("b", b), ("t", t), ("s_t", s_t),
                            ("classification", tag), ("_pair", EigenphasePair(phi, psi))):
            object.__setattr__(self, name, value)

    def pair(self) -> EigenphasePair:
        return self._pair

    def to_json(self) -> dict:
        return {"kind": self.kind, "a": self.a, "b": self.b, "t": self.t}


def source_from_json(doc) -> ExactUnitarySpec | QuadraticRecipe:
    """The source of a JSON object (or its text) as its ``to_json()`` writes it;
    the fields read besides "kind" must be integers, and a bool is not one."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError(f"a source must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")

    def integer(name, default=None):
        if name not in doc and default is None:
            raise ValueError(f"{kind} source is missing the field {name!r}")
        value = doc.get(name, default)
        if type(value) is not int:
            raise ValueError(f"{kind} source field {name!r} must be an integer, got {value!r}")
        return value

    if kind == "rational":
        return ExactUnitarySpec(RationalPhase(integer("m1"), integer("p1")),
                                RationalPhase(integer("m2"), integer("p2")),
                                RationalPhase(integer("g_m", 0), integer("g_p", 1)))
    if kind == "quadratic":
        return QuadraticRecipe(integer("a"), integer("b"), integer("t"))
    raise ValueError(f"unknown source kind {kind!r}")

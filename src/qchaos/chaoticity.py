"""Chaoticity verdicts, order-K scans and exact idempotency detection.

A qubit unitary is chaotic (its PVM entropy attains the 1-bit maximum) exactly
when |tr U| <= sqrt(2); chaoticity to order K is the same test on U^K.  Every
verdict comes from one kernel, ``order_verdicts``: rational specs are decided
exactly from integers (``boundary`` only at |tr| = sqrt(2) exactly), float
pairs within ``boundary_half_width(K)`` of sqrt(2) are ``boundary``, and
``boundary`` never counts as chaotic.

Idempotency (U^n = I, strictly, global phase included) is decidable only for
exact rational phases: ``idempotency_order`` returns n as an int, as
``projective_idempotency_order`` does for U^n proportional to I.  Floating
pairs are never declared idempotent.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .entropy import qubit_entropy_of_theta
from .phases import (
    EigenphasePair,
    ExactUnitarySpec,
    RationalPhase,
    TWO_PI,
    rational_phase_order,
    require_count,
    require_integer,
)

SQRT2 = math.sqrt(2.0)
#: Half-width of the boundary band around sqrt(2), before rounding is added.
BOUNDARY_TOL = 1e-9


#: The labels indexed by the kernel's verdict codes: how many of the two band
#: edges sqrt(2) - w and sqrt(2) + w the trace magnitude has reached.
VERDICT_LABELS = ("chaotic", "boundary", "non_chaotic")
CHAOTIC, BOUNDARY, NON_CHAOTIC = range(3)


def boundary_half_width(k):
    """Half-width of the float-pair band around sqrt(2) at order K: BOUNDARY_TOL
    plus the rounding of |tr U^K|, derived in the tests' TestRoundingAwareBand."""
    return BOUNDARY_TOL + (2.0 * TWO_PI * k + 4.0) * 2.0 ** -52


class OrderVerdicts(NamedTuple):
    """theta_K (None for raw differences), |tr U^K| and verdict codes (indices
    into VERDICT_LABELS)."""

    theta: np.ndarray | None
    trace_mag: np.ndarray
    codes: np.ndarray


def _theta_units(spec: ExactUnitarySpec, ks: np.ndarray) -> tuple[np.ndarray, int]:
    """(t, L) with theta_K = t*pi/L, L = lcm(p1, p2), from residues mod 2L.

    Both phases are integers a_i mod 2L in units of pi/L; (K mod 2L)*a_i stays
    below 2^62 when 2L <= 2^31, and is taken in Python integers otherwise.
    """
    big = math.lcm(spec.phase1.p, spec.phase2.p)
    two = 2 * big
    r = (ks if two <= 1 << 31 else ks.astype(object)) % two
    d = np.abs(r * (spec.phase1.m * (big // spec.phase1.p)) % two
               - r * (spec.phase2.m * (big // spec.phase2.p)) % two)
    return np.minimum(d, two - d), big


def order_verdicts(source, ks=1) -> OrderVerdicts:
    """The trace/verdict kernel: theta_K, |tr U^K| and verdict codes per order K.

    ``source`` is an ExactUnitarySpec (chaotic iff 2t > L, boundary iff
    2t = L; |tr| is exactly 2 at t = 0 and 0 at t = L), a 1-D real array of
    differences d = phi - psi at the scalar K = 1 only (theta is then None),
    as the census and the noise walk pass, or any other source, read through
    its float pair ``source.pair()`` (an EigenphasePair or a QuadraticRecipe:
    d = fmod(K*phi) - fmod(K*psi)).  In every case |tr| = 2|cos(d/2)|.  A
    scalar K gives shape-() results; a non-integer K or non-finite d is rejected.
    """
    ks = np.asarray(ks)
    if ks.dtype == object:
        ks = np.array([require_integer("order", k) for k in ks.flat], object).reshape(ks.shape)
    elif ks.dtype.kind not in "iu":
        raise ValueError(f"order must be an integer, got {ks.dtype} orders")
    if not ks.size:
        raise ValueError("orders must hold at least one order K")
    if ks.min() < 1:
        raise ValueError(f"order must be a positive integer, got {ks.min()}")
    # by value: int64, or Python ints past it, so no narrow or unsigned type wraps
    ks = ks.astype(np.int64 if int(ks.max()) < 1 << 63 else object, copy=False)
    exact = isinstance(source, ExactUnitarySpec)
    if exact:
        t, big = _theta_units(source, ks)
        d = theta = np.asarray(t / big, dtype=float) * math.pi
    elif isinstance(source, np.ndarray):
        if source.ndim != 1 or source.dtype.kind not in "fiu":
            raise ValueError("phase differences must be a 1-D array of real numbers, "
                             f"got shape {source.shape} and dtype {source.dtype}")
        if ks.shape or ks != 1:
            raise ValueError("an array of phase differences takes only the order K = 1")
        d, theta = np.asarray(source, dtype=float), None
        if not np.isfinite(d).all():
            raise ValueError("phase differences must be finite")
    else:
        pair, kf = source.pair(), ks.astype(float)
        d = np.fmod(kf * pair.phi, TWO_PI) - np.fmod(kf * pair.psi, TWO_PI)
        theta = np.minimum(np.abs(d), TWO_PI - np.abs(d))
    trace_mag = np.cos(d / 2.0, out=np.empty(np.shape(d)))  # 2|cos(d/2)| in one buffer
    np.abs(trace_mag, out=trace_mag)
    trace_mag *= 2.0
    if exact:  # 2t - L has the sign of sqrt(2) - |tr|
        trace_mag = np.where(t == big, 0.0, trace_mag)
        margin, w = 2 * t - big, 0
    else:
        margin, w = SQRT2 - trace_mag, boundary_half_width(ks.astype(float))
    codes = (margin <= w).astype(np.int8) + (margin < -w)
    return OrderVerdicts(theta, trace_mag, codes)


def exact_theta_fraction(spec: ExactUnitarySpec, k: int) -> Fraction:
    """theta/pi of the k-th power of an exact spec, as an exact Fraction in [0, 1]."""
    from fractions import Fraction  # only callers of this function need fractions

    t, big = _theta_units(spec, np.array([require_count("order", k)], dtype=object))
    return Fraction(int(t[0]), big)


def qubit_entropy_closed(pair: EigenphasePair) -> float:
    """Closed-form PVM entropy, in bits, of a qubit unitary with the given eigenphases."""
    return float(qubit_entropy_of_theta(order_verdicts(pair).theta))


class ChaoticityReport(NamedTuple):
    """One block of a scan: orders K, theta_K, H_K, |tr U^K| and verdict codes."""

    k: np.ndarray
    theta: np.ndarray
    entropy_bits: np.ndarray
    trace_mag: np.ndarray
    codes: np.ndarray


#: Orders per block of a scan or a count: a block holds a few float arrays of this length.
_SCAN_CHUNK = 1 << 14


def _order_blocks(k_max: int) -> Iterator[np.ndarray]:
    """Orders 1..k_max as consecutive arrays of at most _SCAN_CHUNK orders."""
    return (np.arange(s, min(s + _SCAN_CHUNK, k_max + 1))
            for s in range(1, k_max + 1, _SCAN_CHUNK))


def chaoticity_scan(u, k_max: int) -> Iterator[ChaoticityReport]:
    """Orders 1..k_max of a source as consecutive blocks of at most _SCAN_CHUNK
    orders, H by the array closed form.  k_max is checked at the call and each
    block computed as it is taken, so memory need not grow with k_max."""
    k_max = require_count("k_max", k_max)
    blocks = ((ks, order_verdicts(u, ks)) for ks in _order_blocks(k_max))
    return (ChaoticityReport(ks, v.theta, qubit_entropy_of_theta(v.theta), v.trace_mag, v.codes)
            for ks, v in blocks)


class IdempotencyCapError(ValueError):
    """The exact idempotency order exceeds the requested cap."""

    def __init__(self, order: int, cap: int):
        self.order = order
        self.cap = cap
        super().__init__(f"idempotency order {order} exceeds cap {cap}")


def idempotency_order(spec: ExactUnitarySpec, n_cap: int = 1_000_000) -> int:
    """Exact minimal n with U^n = I, global phase included.

    n is the lcm of the orders of the two total eigenvalue phases; minimality
    is inherited from the componentwise minimal orders.  For 1*pi/p phases
    with large prime p the commonly quoted order is the lcm of the inner
    denominators, which the strict order can differ from by the global-phase
    contribution; ``analyze`` reports both.
    """
    n_cap = require_count("n_cap", n_cap)
    g = spec.global_phase
    order = math.lcm(rational_phase_order(g + spec.phase1), rational_phase_order(g + spec.phase2))
    if order > n_cap:
        raise IdempotencyCapError(order, n_cap)
    return order


def projective_idempotency_order(spec: ExactUnitarySpec, n_cap: int = 1_000_000) -> int:
    """Smallest n with U^n proportional to the identity (global phase ignored)."""
    n_cap = require_count("n_cap", n_cap)
    order = rational_phase_order(spec.phase1 + RationalPhase(-spec.phase2.m, spec.phase2.p))
    if order > n_cap:
        raise IdempotencyCapError(order, n_cap)
    return order


def first_nonchaotic_order(source, k_bound: int) -> int | None:
    """Smallest K <= k_bound with a non-chaotic verdict.  No unitary has one above
    4 (proved in the tests' TestFirstNonchaoticOrder), so only K = 1..min(4,
    k_bound) are evaluated, and None means k_bound < 4 and none up to it is."""
    k_bound = require_count("order bound", k_bound)
    codes = order_verdicts(source, np.arange(1, min(4, k_bound) + 1)).codes
    hits = np.flatnonzero(codes == NON_CHAOTIC)
    return int(hits[0]) + 1 if hits.size else None


def _chaotic_orders(source, k: int) -> int:
    """Chaotic verdicts among orders 1..k, counted a block of orders at a time."""
    return sum(int(np.count_nonzero(order_verdicts(source, ks).codes == CHAOTIC))
               for ks in _order_blocks(k))


def chaotic_order_fraction(source, k_max: int) -> float:
    """Fraction of orders K in 1..k_max of a source with a chaotic (not
    boundary) verdict.

    An ExactUnitarySpec's verdicts depend on K mod 2L only (L = lcm(p1, p2)),
    so its orders are counted over one period and over the remainder.
    """
    k_max = require_count("order bound", k_max)
    period = k_max
    if isinstance(source, ExactUnitarySpec):
        period = min(k_max, 2 * math.lcm(source.phase1.p, source.phase2.p))
    cycles, rest = divmod(k_max, period)
    return (cycles * _chaotic_orders(source, period) + _chaotic_orders(source, rest)) / k_max

"""Eigenphase representations of 2x2 unitaries.

A 2x2 unitary is determined, up to the choice of eigenbasis, by its pair of
eigenphases (phi, psi).  This module holds the floating-point pair, the exact
rational phase m*pi/p used wherever idempotency must be decided exactly, and
the conversions between the matrix view and the eigenphase view.  Phases
live in [0, 2*pi).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: Max absolute entrywise deviation of U^dag U from the identity.
UNITARY_TOL = 1e-12


def mod_2pi(x):
    """Reduce a finite angle (radians), or an array of them, to [0, 2*pi)."""
    if not np.isfinite(x).all():
        raise ValueError(f"angle must be finite, got {x!r}")
    r = x % TWO_PI  # fmod, plus 2*pi where that is negative (-0.0 becomes 0.0)
    return r - TWO_PI * (r >= TWO_PI)  # r + 2*pi can round up to 2*pi


@dataclass(frozen=True)
class EigenphasePair:
    """Eigenphases (phi, psi) of a 2x2 unitary, each in [0, 2*pi); rationality unknown."""

    kind, rationality = "float_pair", "unknown"
    phi: float
    psi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", mod_2pi(float(self.phi)))
        object.__setattr__(self, "psi", mod_2pi(float(self.psi)))

    def pair(self) -> "EigenphasePair":
        return self  # every source kind says its float pair through pair()


@dataclass(frozen=True)
class RationalPhase:
    """Exact phase m*pi/p with gcd(|m|, p) = 1 and 0 <= m/p < 2.

    Any integer pair is accepted and normalized: the sign of p is absorbed
    into m, m is reduced modulo 2p so the phase lands in [0, 2*pi), and the
    fraction is brought to lowest terms.
    """

    m: int
    p: int = 1

    def __post_init__(self):
        m = require_integer("rational phase numerator", self.m)
        p = require_integer("rational phase denominator", self.p)
        if p == 0:
            raise ValueError("rational phase denominator must be nonzero")
        if p < 0:
            m, p = -m, -p
        m %= 2 * p
        g = math.gcd(m, p)
        object.__setattr__(self, "m", m // g)
        object.__setattr__(self, "p", p // g)

    def radians(self) -> float:
        return self.m * math.pi / self.p

    def __add__(self, other: "RationalPhase") -> "RationalPhase":
        return RationalPhase(self.m * other.p + other.m * self.p, self.p * other.p)


def rational_phase_order(ph: RationalPhase) -> int:
    """Smallest n >= 1 with n * (m*pi/p) an exact multiple of 2*pi.

    n * m / p must be an even integer, which gives n = 2p / gcd(m, 2p).
    """
    return 2 * ph.p // math.gcd(ph.m, 2 * ph.p)


def require_integer(name: str, value) -> int:
    """The one integer check: an int or a numpy integer, never a bool, as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_count(name: str, value) -> int:
    """A count by value: ``require_integer``, and >= 1."""
    if require_integer(name, value) < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return int(value)


def require_unitary(u, d: int | None = None) -> np.ndarray:
    """Validate that u is a d x d unitary matrix and return it as complex ndarray.

    Raises ValueError when the shape is wrong or max |U^dag U - I| exceeds UNITARY_TOL.
    """
    m = np.asarray(u, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if d is not None and m.shape[0] != d:
        raise ValueError(f"expected a {d}x{d} matrix, got shape {m.shape}")
    residual = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
    if not residual <= UNITARY_TOL:  # also true for a NaN entry
        raise ValueError(f"matrix is not unitary: residual {residual:.3e} > {UNITARY_TOL:.1e}")
    return m


@dataclass(frozen=True)
class ExactUnitarySpec:
    """Exact recipe e^{i g} * Diag(e^{i phase1}, e^{i phase2}), all rational phases.

    This is the only representation on which idempotency is decidable; the
    global phase takes part in strict idempotency but never in trace-magnitude
    chaoticity checks (|tr| is invariant under a unit-modulus prefactor).
    ``to_json()`` gives the object ``constructions.source_from_json`` reads back.
    """

    kind = rationality = "rational"
    phase1: RationalPhase
    phase2: RationalPhase
    global_phase: RationalPhase = RationalPhase(0)

    def __post_init__(self):
        for name in ("phase1", "phase2", "global_phase"):
            value = getattr(self, name)
            if not isinstance(value, RationalPhase):
                raise ValueError(f"{name} must be an exact rational phase, got {value!r}")

    def pair(self) -> EigenphasePair:
        """The inner eigenphases as floats (global phase excluded)."""
        return EigenphasePair(self.phase1.radians(), self.phase2.radians())

    def to_json(self) -> dict:
        g = self.global_phase
        return {"kind": self.kind, "m1": self.phase1.m, "p1": self.phase1.p,
                "m2": self.phase2.m, "p2": self.phase2.p, "g_m": g.m, "g_p": g.p}

    def to_unitary(self) -> np.ndarray:
        """The matrix, global phase included."""
        pre = cmath.exp(1j * self.global_phase.radians())
        return np.diag([pre * cmath.exp(1j * self.phase1.radians()),
                        pre * cmath.exp(1j * self.phase2.radians())])


def unitary_power(source, period: int = 1) -> np.ndarray:
    """The matrix of U^period for a pair, an exact spec or a raw matrix.

    A pair is powered through its phases, fmod(period*phi, 2*pi) as
    ``order_verdicts`` reduces them, and an exact spec through its integer
    residues, so both stay unitary at any period; a raw matrix goes through
    ``np.linalg.matrix_power``, whose repeated squaring drifts past UNITARY_TOL
    by period 10^5, and for period > 1 back to its polar factor W V^dag.
    """
    if isinstance(source, EigenphasePair):  # Diag(e^{i phi}, e^{i psi}) in the eigenframe
        k = float(period)
        return np.diag([cmath.exp(1j * math.fmod(k * source.phi, TWO_PI)),
                        cmath.exp(1j * math.fmod(k * source.psi, TWO_PI))])
    if isinstance(source, ExactUnitarySpec):
        return ExactUnitarySpec(*(RationalPhase(int(period) * ph.m, ph.p) for ph in (
            source.phase1, source.phase2, source.global_phase))).to_unitary()
    m = np.linalg.matrix_power(require_unitary(source), period)
    return m if period == 1 else np.matmul(*np.linalg.svd(m)[::2])  # SVD W S V^dag


def eigenphases_of(u) -> tuple[EigenphasePair, np.ndarray]:
    """Eigenphases and an orthonormal eigenbasis V of a 2x2 unitary.

    Returns (pair, V) with u = V @ Diag(e^{i phi}, e^{i psi}) @ V^dag and a
    reconstruction error of at most 1e-10 per entry.  Diagonal input (which
    covers every degenerate unitary) returns the computational basis; other
    input is e^{ia} (cos t - i sin t n.sigma), t in [0, pi], with eigenphases
    a -/+ t and the n.sigma = +1 eigenvector from a half-angle formula.
    """
    m = require_unitary(u, d=2)
    if max(abs(m[0, 1]), abs(m[1, 0])) <= UNITARY_TOL:
        pair = EigenphasePair(cmath.phase(m[0, 0]), cmath.phase(m[1, 1]))
        return pair, np.eye(2, dtype=complex)
    a = cmath.phase(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) / 2.0
    w = m * cmath.exp(-1j * a)  # in SU(2)
    sn3 = (w[1, 1].imag - w[0, 0].imag) / 2.0  # s*n3 and s*(n1 + i n2), s = sin t
    sn12 = 1j * (w[1, 0] - w[0, 1].conjugate()) / 2.0
    s = math.hypot(sn3, abs(sn12))
    t = math.atan2(s, (w[0, 0] + w[1, 1]).real / 2.0)
    v0 = np.array([s + sn3, sn12] if sn3 >= 0.0 else [sn12.conjugate(), s - sn3])
    v0 /= np.linalg.norm(v0)
    v = np.array([[v0[0], -v0[1].conjugate()], [v0[1], v0[0].conjugate()]])
    pair = EigenphasePair(a - t, a + t)
    err = np.max(np.abs(v @ unitary_power(pair) @ v.conj().T - m))
    if err > 1e-10:
        raise ArithmeticError(f"eigendecomposition failed to reconstruct input: {err:.3e}")
    return pair, v

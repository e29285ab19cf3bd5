"""Shared test utilities."""

import math

import numpy as np

from qchaos import TWO_PI, EigenphasePair


def random_unitary(rng, d=2):
    """Haar-ish U(d) via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q @ np.diag(r.diagonal() / np.abs(r.diagonal()))


def random_orthonormal_basis(rng, d=2):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.linalg.qr(z)[0]


def power_eigenphases(pair: EigenphasePair, k: int) -> EigenphasePair:
    """Scalar reference for the eigenphases of U^k: (fmod(k*phi, 2*pi), fmod(k*psi, 2*pi))."""
    if k < 1:
        raise ValueError(f"power must be a positive integer, got {k}")
    return EigenphasePair(math.fmod(k * pair.phi, TWO_PI), math.fmod(k * pair.psi, TWO_PI))

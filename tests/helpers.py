"""Shared test utilities."""

import csv
import io
import json
import math

import numpy as np

from qchaos import TWO_PI, VERDICT_LABELS, EigenphasePair, order_verdicts
from qchaos.entropy import qubit_entropy_of_theta
from qchaos.jsontext import Rows


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


SCAN_KEYS = ["K", "theta", "H", "trace_mag", "verdict"]


def round_floats(obj):
    """Every float rounded to 12 significant digits, every Rows table expanded
    into its row objects: the document as the old per-row writer held it."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, Rows):
        return [dict(zip(obj, map(round_floats, row))) for row in zip(*obj.values())]
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def reference_dumps(doc) -> str:
    """The emitter's oracle: the document text as ``json.dumps`` writes it."""
    return json.dumps(round_floats(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def reference_scan_rows(source, k_max: int) -> list[list]:
    """[K, theta, H, trace_mag, verdict] per order, built one order at a time
    as the old per-record scan did."""
    res = order_verdicts(source, np.arange(1, k_max + 1))
    return [[k, th, qubit_entropy_of_theta(th), tm, VERDICT_LABELS[c].value]
            for k, th, tm, c in zip(range(1, k_max + 1), res.theta.tolist(),
                                    res.trace_mag.tolist(), res.codes.tolist())]


def reference_csv(source, k_max: int) -> str:
    """The scan CSV as the old per-record ``csv.writer`` wrote it, floats as repr."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SCAN_KEYS)
    w.writerows(reference_scan_rows(source, k_max))
    return buf.getvalue()

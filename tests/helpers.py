"""Shared test utilities."""

import bisect
import cmath
import csv
import functools
import io
import json
import math
import operator
from fractions import Fraction

import numpy as np

from qchaos import TWO_PI, VERDICT_LABELS, EigenphasePair, order_verdicts
from qchaos.chaoticity import CHAOTIC, ChaoticityReport
from qchaos.entropy import eta, qubit_entropy_of_theta, transition_matrix
from qchaos.jsontext import Rows
from qchaos.phases import mod_2pi, unitary_power
from qchaos.rng import stream_generator
from qchaos.simulate import CENSUS_CHUNK, NoiseWalk, _symbols


def circular_distance(x: float, y: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    d = mod_2pi(x - y)
    return min(d, TWO_PI - d)


def make_su2_from_psi(psi: float) -> EigenphasePair:
    """SU(2) pair from a single phase: phi is fixed by phi + psi = 0 mod 2*pi."""
    psi_r = mod_2pi(psi)
    phi = mod_2pi(TWO_PI - psi_r)
    return EigenphasePair(phi, psi_r)


def empirical_transition_matrix(sequence, d: int | None = None) -> np.ndarray:
    """Row-normalized transition frequencies of a symbol sequence, its symbols
    and ``d`` checked as the entropy estimator checks them."""
    s, d = _symbols(sequence, d, "d")
    s = s.astype(np.int64)  # a bool array would index as a mask
    counts = np.zeros((d, d))
    np.add.at(counts, (s[:-1], s[1:]), 1.0)
    rows = counts.sum(axis=1, keepdims=True)
    rows[rows == 0.0] = 1.0
    return counts / rows


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
    into its row objects, block after block: the document as the old per-row
    writer held it."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, Rows):
        return [dict(zip(block, map(round_floats, row))) for block in obj.blocks
                for row in zip(*(list(col) for col in block.values()), strict=True)]
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def reference_dumps(doc) -> str:
    """The emitter's oracle: the document text as ``json.dumps`` writes it."""
    return json.dumps(round_floats(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def reference_entropy_of_theta(th: float) -> float:
    """The closed form's scalar oracle: 1 for theta >= pi/2, else eta(c) + eta(1 - c)
    with c = cos(theta/2) ** 2, one Python float at a time."""
    if th >= math.pi / 2.0:
        return 1.0
    c = math.cos(0.5 * th) ** 2
    return eta(c) + eta(1.0 - c)


def reference_scan(source, k_max: int) -> ChaoticityReport:
    """The scan's oracle: orders 1..k_max of a source in one block, from one
    kernel call on all of them, as the whole-array scan computed it."""
    ks = np.arange(1, k_max + 1)
    theta, trace_mag, codes = order_verdicts(source, ks)
    return ChaoticityReport(ks, theta, qubit_entropy_of_theta(theta), trace_mag, codes)


def joined_scan(blocks) -> ChaoticityReport:
    """The blocks of a scan joined into one array per column."""
    return ChaoticityReport(*map(np.concatenate, zip(*blocks)))


def scan_columns(report: ChaoticityReport) -> dict[str, list]:
    """A scan's columns as Python scalars, keyed as in a JSON row."""
    return {"K": report.k.tolist(), "theta": report.theta.tolist(),
            "H": report.entropy_bits.tolist(), "trace_mag": report.trace_mag.tolist(),
            "verdict": [VERDICT_LABELS[c] for c in report.codes.tolist()]}


def reference_scan_rows(source, k_max: int) -> list[list]:
    """[K, theta, H, trace_mag, verdict] per order, built one order at a time
    as the old per-record scan did."""
    res = order_verdicts(source, np.arange(1, k_max + 1))
    return [[k, th, reference_entropy_of_theta(th), tm, VERDICT_LABELS[c]]
            for k, th, tm, c in zip(range(1, k_max + 1), res.theta.tolist(),
                                    res.trace_mag.tolist(), res.codes.tolist())]


def reference_csv(source, k_max: int) -> str:
    """The scan CSV as the old per-record ``csv.writer`` wrote it, floats as repr."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SCAN_KEYS)
    w.writerows(reference_scan_rows(source, k_max))
    return buf.getvalue()


def reference_trajectory(unitary, basis, steps, seed, period=1) -> np.ndarray:
    """The sampler's oracle: one outcome per step, the first uniform over the d
    basis states and each next one drawn from the row of the previous one, as
    the per-step loop did for every dimension."""
    u_eff = unitary_power(unitary, period)
    d = u_eff.shape[0]
    if d != basis.d:
        raise ValueError(f"unitary dimension {d} != basis dimension {basis.d}")
    p = transition_matrix(u_eff, basis)

    cum0 = np.arange(1, d + 1) / d  # the maximally mixed start
    cum = np.cumsum(p, axis=1)
    cum[:, -1] = 1.0

    uniforms = stream_generator(seed, 0).random(steps)
    out = np.empty(steps, dtype=np.uint8)
    x = int(np.searchsorted(cum0, uniforms[0], side="right"))
    out[0] = x
    ul = uniforms.tolist()
    if d == 2:
        t0, t1 = float(cum[0, 0]), float(cum[1, 0])
        for i in range(1, steps):
            x = 0 if ul[i] < (t0 if x == 0 else t1) else 1
            out[i] = x
    else:
        rows = [row.tolist() for row in cum]
        for i in range(1, steps):
            x = bisect.bisect_right(rows[x], ul[i])
            out[i] = x
    return out


def reference_noise_walk(base: EigenphasePair, epsilon: float, steps: int,
                         seed: int) -> NoiseWalk:
    """The noise walk's oracle: the whole walk at once, one array per column,
    from all the draws of the stream keyed (seed, 0)."""
    half = epsilon * math.pi
    lambdas = stream_generator(seed).uniform(-half, half, steps)
    phi = mod_2pi(base.phi + lambdas)
    psi = mod_2pi(base.psi - lambdas)
    verdicts = order_verdicts(phi - psi)
    return NoiseWalk(phi, psi, verdicts.trace_mag, verdicts.codes)


def joined_walk(blocks) -> NoiseWalk:
    """The blocks of a noise walk joined into one array per column."""
    return NoiseWalk(*map(np.concatenate, zip(*blocks)))


def reference_neg_rate(u: np.ndarray):
    """The objective's oracle: minus the entropy rate at the d(d-1) angles, in
    Python complex scalars.  V is the product (G01 @ G02) @ G12 of the plane
    factors [[c, a], [b, c]] of ``basis_from_angles`` but with b = s conj(e_f),
    and p_jl = min(|(V^dag U V)_jl|^2, 1) is summed over (j, l) in that order.
    At d = 2, V is the one factor itself: (cos t, s conj(e_f)) and
    (-e_f s, cos t) are its columns."""
    d = u.shape[0]
    rows = [[complex(z) for z in row] for row in u]
    planes = {2: [(0, 1)], 3: [(0, 1), (0, 2), (1, 2)]}[d]

    def matmul(a, b):
        return [[functools.reduce(operator.add, map(operator.mul, row, col)) for col in zip(*b)]
                for row in a]

    def neg(x):
        factors = []
        for (i, j), t, f in zip(planes, x[0::2], x[1::2]):
            c, s = math.cos(t), math.sin(t)
            ef = cmath.exp(1j * f)
            g = [[float(r == k) for k in range(d)] for r in range(d)]
            g[i][i] = g[j][j] = c
            g[i][j], g[j][i] = -ef * s, s * ef.conjugate()
            factors.append(g)
        v = functools.reduce(matmul, factors)
        z = matmul([[w.conjugate() for w in col] for col in zip(*v)], matmul(rows, v))
        total = 0.0
        for p in (min(abs(z_jl) ** 2, 1.0) for row in z for z_jl in row):
            if p > 0.0:
                total -= p * math.log(p)
        return -total / d / math.log(2.0)

    return neg


def reference_census_count(n: int, seed: int) -> int:
    """The census's oracle: psi drawn uniform on [0, 2*pi) per chunk stream, and
    the chaotic verdicts of d = 2 psi counted by the kernel itself."""
    count = 0
    for chunk, start in enumerate(range(0, n, CENSUS_CHUNK)):
        psis = stream_generator(seed, chunk).uniform(0.0, TWO_PI, min(CENSUS_CHUNK, n - start))
        count += int(np.count_nonzero(order_verdicts(2.0 * psis).codes == CHAOTIC))
    return count


def reference_entropy_rate(sequence, block_len: int, alphabet_size: int | None = None) -> float:
    """The estimator's oracle: window codes in int64, one temporary per digit."""
    s = np.asarray(sequence, dtype=np.int64)
    d = alphabet_size if alphabet_size is not None else int(s.max()) + 1
    n_win = s.size - block_len
    codes = np.zeros(n_win, dtype=np.int64)
    for j in range(block_len + 1):  # last symbol is the least significant digit
        codes += s[j:j + n_win] * d ** (block_len - j)
    counts = np.bincount(codes, minlength=d ** (block_len + 1))

    def block_entropy(c: np.ndarray) -> float:
        n = c[c > 0].astype(float)
        total = n.sum()
        return math.log2(total) - float((n * np.log2(n)).sum()) / total

    h_hi = block_entropy(counts)
    h_lo = block_entropy(counts.reshape(-1, d).sum(axis=1))
    return max(0.0, h_hi - h_lo)


def reference_chaotic_order_prime(k: int) -> int:
    """The prime ``build_chaotic_order`` must pick, by brute force: the
    smallest prime p not dividing k with theta_k of the pair (-pi/p, pi/p)
    above pi/2, from exact fractions of pi."""
    for p in range(2, 10_000):
        if k % p == 0 or any(p % q == 0 for q in range(2, p)):
            continue
        x = Fraction(2 * k, p) % 2  # (phi - psi)*k/pi = -2k/p mod 2, up to sign
        if min(x, 2 - x) > Fraction(1, 2):
            return p
    raise ValueError(f"no qualifying prime for order {k}")

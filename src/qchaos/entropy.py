"""PVM dynamical entropy of unitary maps.

Iterating a unitary and measuring a rank-1 PVM after every step turns the
outcome sequence into a Markov chain whose transition matrix is unistochastic,
P_ij = |<phi_j|U|phi_i>|^2.  Its entropy rate (base 2, so the qubit maximum is
exactly 1 bit) is (1/d) * sum_ij eta(P_ij), and the PVM entropy of U is the
maximum of that rate over all orthonormal measurement bases.

For qubits the maximum has a closed form in terms of the eigenphase distance
theta = min(|phi - psi|, 2*pi - |phi - psi|):

    H(U) = 1                                      for theta >= pi/2
    H(U) = eta(cos^2(theta/2)) + eta(sin^2(theta/2))  otherwise

(``qubit_entropy_of_theta``, the array closed form; ``qubit_entropy_closed`` takes a pair).

For general small d the maximum is estimated by multi-start derivative-free
ascent over a plane-rotation parametrization of the basis, every start
advanced in lock-step as arrays under one objective for d = 2 and d = 3
(``pvm_entropy_optimize``, whose restart count, iteration cap and seed are
plain arguments).  ``_bases`` forms the basis from the angles for the
objective and for ``basis_from_angles`` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .phases import TWO_PI, require_count, require_unitary
from .rng import stream_generator

#: Orthonormality tolerance for measurement bases.
GRAM_TOL = 1e-10
#: Row/column sum tolerance accepted by the entropy rate.
STOCHASTIC_TOL = 1e-8
#: Inputs to eta may stray this far outside [0, 1] before being rejected.
ETA_CLAMP = 1e-12

_LOG2 = math.log(2.0)


def eta(x):
    """Entropy summand -x * log2(x), eta(0) = 0, of a number (a float) or of each
    entry of an array, with libm's log (np.log rounds differently on some inputs).

    Accepts x in [0, 1]; values within ETA_CLAMP outside are clamped, since
    squared moduli of unit vectors can overshoot by rounding."""
    a = np.asarray(x, dtype=float)
    bad = ~((a >= -ETA_CLAMP) & (a <= 1.0 + ETA_CLAMP))  # NaN fails both
    if bad.any():
        raise ValueError(f"eta argument must lie in [0, 1], got {float(a[bad][0])!r}")
    a = np.clip(a, 0.0, 1.0)
    out, live = np.zeros(a.shape), a != 0.0
    out[live] = -a[live] * np.fromiter(map(math.log, a[live].tolist()), float) / _LOG2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PvmBasis:
    """Orthonormal measurement basis; columns of ``vectors`` are the states."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.array(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"basis must be a square column matrix, got shape {v.shape}")
        gram = v.conj().T @ v
        err = np.max(np.abs(gram - np.eye(v.shape[0])))
        if not err <= GRAM_TOL:  # also true for a NaN
            raise ValueError(f"basis is not orthonormal: Gram residual {err:.3e}")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def d(self) -> int:
        return self.vectors.shape[0]

    @classmethod
    def computational(cls, d: int = 2) -> "PvmBasis":
        return cls(np.eye(d, dtype=complex))

    @classmethod
    def x_basis(cls) -> "PvmBasis":
        """The |+>, |-> basis for qubits."""
        s = 1.0 / math.sqrt(2.0)
        return cls(np.array([[s, s], [s, -s]], dtype=complex))


class EntropyResult(NamedTuple):
    """Best-found entropy rate in bits per step, in [0, log2 d], and its basis."""

    value: float
    optimal_basis: PvmBasis


def qubit_entropy_of_theta(theta: np.ndarray) -> np.ndarray:
    """Closed-form qubit PVM entropy in bits per eigenphase distance theta, bit for bit
    1 or eta(c) + eta(1 - c), c = cos(theta/2) ** 2: cos and the square are libm's
    value by value, since x * x rounds differently on some inputs."""
    low = theta < math.pi / 2.0
    c = np.fromiter(map(pow, map(math.cos, (0.5 * theta[low]).tolist()), repeat(2.0)), float)
    h = np.ones(theta.shape)
    h[low] = eta(c) + eta(1.0 - c)
    return h


def transition_matrix(u, basis: PvmBasis) -> np.ndarray:
    """Markov transition matrix P_{i->j} = |<phi_j|U|phi_i>|^2 of measured dynamics."""
    m = require_unitary(u)
    if m.shape[0] != basis.d:
        raise ValueError(f"unitary dimension {m.shape[0]} != basis dimension {basis.d}")
    amp = basis.vectors.conj().T @ m @ basis.vectors  # amp[j, i] = <phi_j|U|phi_i>
    return np.abs(amp.T) ** 2


def markov_entropy_rate(p) -> float:
    """Entropy rate (1/d) * sum_ij eta(P_ij) of a doubly stochastic chain (bits/step).

    Double stochasticity makes the uniform distribution stationary, which is
    what the 1/d prefactor assumes.  The matrix is validated within
    STOCHASTIC_TOL.  Rounding in eta cannot lift the rate above log2(d).
    """
    entries = np.asarray(p, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("transition matrix must be square")
    if not (np.max(np.abs(entries.sum(axis=1) - 1.0)) <= STOCHASTIC_TOL
            and np.max(np.abs(entries.sum(axis=0) - 1.0)) <= STOCHASTIC_TOL):  # NaN fails
        raise ValueError("matrix is not doubly stochastic within 1e-8")
    if entries.min() < -ETA_CLAMP:
        raise ValueError("transition probabilities must be nonnegative")
    d = entries.shape[0]
    return min(sum(eta(entries.ravel()).tolist()) / d, math.log2(d))


# Plane pairs acted on by successive Givens-with-phase factors, per dimension.
_PLANES = {2: ((0, 1),), 3: ((0, 1), (0, 2), (1, 2))}
#: Signs of b.imag in a product a b, and of a conjugate, on the stacked [re/im] axis.
_SIGNS = np.array([-1.0, 1.0]).reshape(2, 1, 1, 1, 1)
_CONJ = np.array([1.0, -1.0]).reshape(2, 1, 1, 1)


def _matmul(a, b):
    """a @ b for complex matrices stacked as [real/imaginary, row, col, ...],
    each entry sum_k a_ik b_kl as Python complex scalars form it: a_ik b_kl is
    (ar br - ai bi, ai br + ar bi), here a * br + a[::-1] * (-bi, bi), and the
    products are summed in order of k."""
    a = a.swapaxes(1, 2)[:, :, :, None]  # [., k, i, ., ...]
    b = b[:, :, None]  # [., k, ., l, ...]
    return reduce(np.add, (a * b[0] + a[::-1] * (b[1] * _SIGNS)).swapaxes(0, 1))


def _bases(d: int, x: np.ndarray) -> np.ndarray:
    """V = (G01 @ G02) @ G12 at each row of an (m, d(d-1)) array of angles (t, f),
    one pair per plane, stacked as [real/imaginary, row, col, m]: each factor is the
    identity but for [[c, a], [b, c]] in its plane, c = cos t, a = -e_f sin t and
    b = sin t conj(e_f), and ``_matmul`` multiplies them in CPython's complex order."""
    planes, (i, j), diag = np.arange(d * (d - 1) // 2), np.array(_PLANES[d]).T, np.arange(d)
    c, s = np.cos(x[:, 0::2].T), np.sin(x[:, 0::2].T)
    ec, es = np.cos(x[:, 1::2].T), np.sin(x[:, 1::2].T)  # e_f = exp(i f)
    br, bi = s * ec, -(s * es)  # b = s conj(e_f), and a = -e_f s = (-br, bi)
    g = np.zeros((len(planes), 2, d, d, len(x)))  # the factors, at [plane, ., row, col]
    g[:, 0, diag, diag] = 1.0
    g[planes, 0, i, i] = g[planes, 0, j, j] = c
    g[planes, 0, i, j], g[planes, 1, i, j] = -br, bi
    g[planes, 0, j, i], g[planes, 1, j, i] = br, bi
    return reduce(_matmul, g)


def basis_from_angles(d: int, angles) -> PvmBasis:
    """The basis ``_bases`` forms from the optimizer's angles, the very matrix the
    objective rates.  Each plane (i, j) contributes a rotation angle t and a phase
    f; the product spans every basis up to per-column phases, which the rate
    cannot see."""
    if d not in _PLANES:
        raise ValueError(f"unsupported dimension {d}; only d in (2, 3)")
    angles = np.asarray(angles, dtype=float)
    if angles.size != d * (d - 1):
        raise ValueError(f"expected {d * (d - 1)} angles for d={d}, got {angles.size}")
    v = np.moveaxis(_bases(d, angles.reshape(1, -1))[..., 0], 0, -1)  # [row, col, re/im]
    return PvmBasis(v.copy().view(complex)[..., 0])


def _neg_rates(u: np.ndarray):
    """The objective ``_nelder_mead`` minimizes for U: minus the rate at each row
    of an (m, d(d-1)) array of angles.  With V from ``_bases`` and
    p_jl = min(|(V^dag U V)_jl|^2, 1), it is -(0 - sum p_jl ln p_jl) / d / ln 2,
    summed over (j, l) in order.  The complex arithmetic is in CPython's order,
    abs and ** 2 are libm's hypot and pow (np.hypot, np.float_power), and log is
    math.log, so each row is bit for bit the formula in Python complex scalars."""
    d = u.shape[0]
    uu = np.array([u.real, u.imag])[..., None]

    def neg(x):
        v = _bases(d, x)
        z = _matmul(v.swapaxes(1, 2) * _CONJ, _matmul(uu, v))
        p = np.minimum(np.float_power(np.hypot(*z), 2.0), 1.0).reshape(d * d, -1)
        # ln 1 = 0 stands in at p = 0, where p ln p is 0
        logs = np.fromiter(map(math.log, np.where(p > 0.0, p, 1.0).ravel().tolist()),
                           float, p.size).reshape(p.shape)
        return -np.subtract.reduce(p * logs, initial=0.0) / d / _LOG2

    return neg


# Nelder-Mead coefficients and initial-simplex steps, as scipy's defaults.
_NM_RHO, _NM_CHI, _NM_PSI, _NM_SIGMA = 1, 2, 0.5, 0.5
_NM_NONZDELT, _NM_ZDELT = 0.05, 0.00025
#: Convergence tolerances on the simplex's spread in x and in f.
_NM_XATOL, _NM_FATOL = 1e-10, 1e-12
#: Restarts advanced together by one ``_nelder_mead`` call, so memory does not
#: grow with the restart count.
_NM_BLOCK = 1024


def _by_value(sim, fsim):
    """Each simplex's vertices and values in np.argsort order of its values."""
    order = np.argsort(fsim, axis=1)
    rows = np.arange(len(fsim))[:, None]
    return sim[rows, order], fsim[rows, order]


def _nelder_mead(f, x0, xatol: float, fatol: float, max_iters: int):
    """Minimize f by Nelder-Mead (1965) from every row of x0 in lock-step.

    ``f`` maps a (k, n) array of points to their k values.  Returns per-row
    arrays (fun, x, nfev, nit).  Each row repeats
    scipy.optimize.minimize(method="Nelder-Mead") step for step, with its
    default coefficients, initial simplex and convergence test and the same
    float operations in the same order.  An iteration evaluates one batch
    per phase: the reflections, then the expansions and (inside)
    contractions, then the shrinks.  A row leaves the batch when it
    converges, so its nit is its own.  Vertices are ordered with np.argsort,
    as scipy orders them, because that sort need not keep ties in place and
    the order of tied vertices steers every later step.
    """
    m, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + _NM_NONZDELT) * x0, _NM_ZDELT)
    fsim = f(sim.reshape(-1, n)).reshape(m, n + 1)
    sim, fsim = _by_value(*_by_value(sim, fsim))  # scipy sorts the first simplex twice
    fun, x, nit = np.empty(m), np.empty((m, n)), np.empty(m, dtype=int)
    nfev = np.full(m, n + 1)
    live = np.arange(m)
    it = 1
    while it < max_iters:
        done = (np.all(np.abs(sim[:, 1:] - sim[:, :1]) <= xatol, axis=(1, 2))
                & np.all(np.abs(fsim[:, :1] - fsim[:, 1:]) <= fatol, axis=1))
        if done.any():
            out = live[done]
            fun[out], x[out], nit[out] = fsim[done, 0], sim[done, 0], it
            sim, fsim, live = sim[~done], fsim[~done], live[~done]
            if not live.size:
                break
        xbar = sim[:, 0]
        for j in range(1, n):  # row by row, as numpy reduces over the first axis
            xbar = xbar + sim[:, j]
        xbar = xbar / n
        worst = sim[:, -1]
        xr = (1 + _NM_RHO) * xbar - _NM_RHO * worst
        fxr = f(xr)
        nfev[live] += 1
        expand = fxr < fsim[:, 0]
        accept = ~expand & (fxr < fsim[:, -2])
        contract = ~expand & ~accept & (fxr < fsim[:, -1])
        second = ~accept
        x2 = np.where(expand[:, None],
                      (1 + _NM_RHO * _NM_CHI) * xbar - _NM_RHO * _NM_CHI * worst,
                      np.where(contract[:, None],
                               (1 + _NM_PSI * _NM_RHO) * xbar - _NM_PSI * _NM_RHO * worst,
                               (1 - _NM_PSI) * xbar + _NM_PSI * worst))
        f2 = np.full(fxr.shape, np.nan)
        if second.any():
            f2[second] = f(x2[second])
            nfev[live[second]] += 1
        take2 = np.where(expand, f2 < fxr,
                         np.where(contract, f2 <= fxr, f2 < fsim[:, -1])) & second
        shrink = second & ~take2 & ~expand
        step = ~shrink
        sim[step, -1] = np.where(take2[:, None], x2, xr)[step]
        fsim[step, -1] = np.where(take2, f2, fxr)[step]
        if shrink.any():
            b = sim[shrink, :1]
            pts = b + _NM_SIGMA * (sim[shrink, 1:] - b)
            sim[shrink, 1:] = pts
            fsim[shrink, 1:] = f(pts.reshape(-1, n)).reshape(-1, n)
            nfev[live[shrink]] += n
        it += 1
        sim, fsim = _by_value(sim, fsim)
    fun[live], x[live], nit[live] = fsim[:, 0], sim[:, 0], it
    return fun, x, nfev, nit


def pvm_entropy_optimize(u, restarts: int = 32, max_iters: int = 2000,
                         seed: int = 0) -> EntropyResult:
    """Best-found PVM entropy rate (1/d) max_V sum eta(|(V^dag U V)_jl|^2).

    Multi-start Nelder-Mead on the plane-rotation angles: the objective is
    non-smooth where transition probabilities hit 0, so derivative-free
    descent is the robust choice at this dimension.  Restart r draws its
    start from a counter-based stream keyed by (seed, r), so the best value
    can only grow as restarts increase; each start runs at most max_iters
    iterations.  ``_nelder_mead`` (scipy's algorithm) advances up to
    _NM_BLOCK restarts in lock-step as arrays, and one objective, the same
    array code for d = 2 and d = 3, rates the batch's rows.  Best-found, not
    certified-global.
    """
    restarts = require_count("restarts", restarts)
    max_iters = require_count("max_iters", max_iters)
    m = require_unitary(u)
    d = m.shape[0]
    if d not in _PLANES:
        raise ValueError(f"unsupported dimension {d}; only d in (2, 3)")
    n_params = d * (d - 1)
    neg = _neg_rates(m)
    best_value, best_x = -1.0, None
    for lo in range(0, restarts, _NM_BLOCK):
        x0 = np.array([stream_generator(seed, r).uniform(0.0, TWO_PI, n_params)
                       for r in range(lo, min(lo + _NM_BLOCK, restarts))])
        fun, xs, _, _ = _nelder_mead(neg, x0, _NM_XATOL, _NM_FATOL, max_iters)
        for f, x in zip(fun.tolist(), xs):  # the earliest restart wins ties
            if -f > best_value:
                best_value, best_x = -f, x
    best_value = max(0.0, min(best_value, float(math.log2(d))))
    return EntropyResult(best_value, optimal_basis=basis_from_angles(d, best_x))

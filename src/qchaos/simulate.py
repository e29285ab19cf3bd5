"""Stochastic side: trajectories, entropy estimation, census, phase noise.

Measuring a PVM after every K-th application of a unitary produces a Markov
chain over outcome indices with transition matrix P of U^K.  This module
samples such trajectories reproducibly from counter-based streams keyed by the
caller's seed (a qubit's with array code, larger d step by step), estimates
entropy rates with a plug-in conditional block estimator (the one pipeline of
basis, samples, estimate and prediction is ``entropy_rate_experiment``, with
the bases "computational", "x" and "optimized", the last fitted to U^K), runs
the uniform-phase chaoticity census, and applies the phase-noise model that
perturbs (phi, psi) to (phi + lambda, psi - lambda).  Every stochastic command
runs in memory that does not grow with its length: there is one block sampler,
one window counter and one noise-block kernel, each working in blocks of
_BLOCK steps.  ``entropy_rate_experiment`` samples each block once, writes it
to the open stream file it is given and counts its windows, carrying the last
L symbols into the next block; ``noisy_phase_walk`` yields the walk block by
block.  ``sample_trajectory`` and ``empirical_entropy_rate`` fill from and call
the same kernels.  Every routine takes plain arguments, and
``stream_generator`` is the one check of a seed.  The noise walk takes its
verdicts from ``chaoticity.order_verdicts``; so does the census: its chaotic
draws form two intervals, whose four ends it finds once per call by bisecting
that kernel, and it counts the draws in them."""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .chaoticity import CHAOTIC, order_verdicts
from .entropy import PvmBasis, markov_entropy_rate, pvm_entropy_optimize, transition_matrix
from .phases import EigenphasePair, TWO_PI, mod_2pi, require_count, unitary_power
from .rng import stream_generator

#: Census trials per stream chunk.  Part of the census's definition: chunk c
#: is drawn from stream (seed, c), so changing it changes every count.
CENSUS_CHUNK = 1 << 15
#: Steps per block of the sampler and the noise walk, and the fewest windows
#: per bincount of the estimator.  Measured on a 2-core Linux machine: at 2^14
#: a 2e5-step ``noise`` peaks 1 MB of RSS above a 1000-step one (2.5 MB at
#: 2^15, 4.9 MB at 2^16: ``order_verdicts`` holds a few float arrays per block),
#: while the per-block calls cost the sampler and the estimator about 3 ns per
#: step more than at 2^16.
_BLOCK = 1 << 14


class InsufficientDataError(ValueError):
    """Sequence too short for the requested block length."""


def _symbols(sequence, d, name: str) -> tuple[np.ndarray, int]:
    """The sequence as a non-empty 1-D array of integer or bool dtype (a cast
    would truncate floats) and its alphabet size: ``d`` through
    ``require_count`` as ``name``, or the largest symbol + 1 when None.  Every
    symbol must lie in [0, d)."""
    s = np.asarray(sequence)
    if s.dtype.kind not in "biu":
        raise ValueError(f"sequence symbols must be integers, got dtype {s.dtype}")
    if s.ndim != 1 or not s.size:
        raise ValueError(f"sequence must be a non-empty 1-D array, got shape {s.shape}")
    d = int(s.max()) + 1 if d is None else require_count(name, d)
    if s.min() < 0 or s.max() >= d:
        raise ValueError(f"sequence symbols must lie in [0, {name}) = [0, {d})")
    return s, d


def _qubit_block(draws: np.ndarray, t0: float, t1: float, first: int,
                 out: np.ndarray) -> None:
    """Write the qubit outcomes x_0 = ``first``, x_i = [u_i >= t_{x_{i-1}}] of a
    block of draws u to ``out``.  A step whose two candidates agree is a reset;
    any other XORs the last outcome with the after-0 one.  With Y the running XOR
    of the after-0 outcomes, x_i = Y_i ^ Y_{r-1} for the last reset r <= i (index 0
    is one, Y_{-1} = 0), so the block needs no per-step loop."""
    after0 = (draws >= t0).view(np.uint8)  # the next outcome when the last one is 0
    after1 = (draws >= t1).view(np.uint8)  # ... and when it is 1
    after0[0] = after1[0] = first
    resets = np.flatnonzero(after0 == after1)
    np.bitwise_xor.accumulate(after0, out=out)
    before = out[resets] ^ after0[resets]  # Y just before each reset
    out ^= np.repeat(before, np.diff(resets, append=out.size))


def _outcome_blocks(u_eff: np.ndarray, basis: PvmBasis, steps: int,
                    seed: int) -> Iterator[np.ndarray]:
    """The block sampler: the outcomes of ``sample_trajectory`` for the matrix
    ``u_eff`` of U^period, in blocks of at most _BLOCK steps, for a count its
    callers have taken by value.  The other arguments are checked and the
    stream made here, at the call; each block is a view of one buffer that the
    next block overwrites."""
    d = u_eff.shape[0]
    if d != basis.d:
        raise ValueError(f"unitary dimension {d} != basis dimension {basis.d}")
    p = transition_matrix(u_eff, basis)

    cum0 = np.cumsum(np.full(d, 1.0 / d))  # the maximally mixed start: uniform in any basis
    cum0[-1] = 1.0
    cum = np.cumsum(p, axis=1)
    cum[:, -1] = 1.0
    return _sample_blocks(stream_generator(seed), cum0, cum, steps)


def _sample_blocks(gen: np.random.Generator, cum0: np.ndarray, cum: np.ndarray,
                   steps: int) -> Iterator[np.ndarray]:
    buf = np.empty(min(steps, _BLOCK))
    out = np.empty(buf.size, dtype=np.uint8)
    rows = [r.tolist() for r in cum]
    row = cum0.tolist()  # the first outcome's row
    for lo in range(0, steps, _BLOCK):
        draws = gen.random(out=buf[:min(_BLOCK, steps - lo)])
        block = out[:draws.size]
        x = bisect.bisect_right(row, float(draws[0]))
        if cum.shape[0] == 2:
            _qubit_block(draws, cum[0, 0], cum[1, 0], x, block)
        else:
            block[0] = x
            for i, u in enumerate(draws[1:].tolist(), 1):
                x = bisect.bisect_right(rows[x], u)
                block[i] = x
        row = rows[block[-1]]
        yield block


def sample_trajectory(unitary, basis: PvmBasis, steps: int, seed: int,
                      period: int = 1) -> np.ndarray:
    """Outcome indices of measuring ``basis`` after every ``period`` applications
    of the unitary, ``steps`` measurements in all; bit-identical per arguments.

    The chain starts in the maximally mixed state, the stationary state of
    every doubly stochastic chain: the first outcome is the first j with u_0
    below the j-th partial sum of d terms 1/d, so uniform over the basis.
    Every later one follows the chain P_{i->j} = |<phi_j|U^period|phi_i>|^2:
    the first j with u_i < cum_{x,j}, for previous outcome x.  The uniform
    u_i come from the stream keyed (seed, 0); there is no ambient randomness.
    For a qubit a step x -> [u_i >= cum_{x,0}] whose two candidates agree is a
    reset (the first outcome is one), and any other XORs the last outcome with
    the after-0 one: an outcome is the XOR of the after-0 outcomes since the
    last reset.  The array code makes the loop's float comparisons, so it gives
    the same stream.

    The result is filled from the block sampler that ``entropy_rate_experiment``
    streams: the draws are made and used in blocks of _BLOCK steps, each block
    starting from the last outcome of the one before, and the stream's doubles
    do not depend on how its draws are split.  Beyond the one byte per outcome
    of the result, memory does not grow with ``steps``.
    """
    steps, period = require_count("steps", steps), require_count("period", period)
    blocks = _outcome_blocks(unitary_power(unitary, period), basis, steps, seed)
    out = np.empty(steps, dtype=np.uint8)
    lo = 0
    for block in blocks:
        out[lo:lo + block.size] = block
        lo += block.size
    return out


def _window_counts(blocks: Iterable[np.ndarray], d: int, block_len: int) -> np.ndarray:
    """The window counter: counts of the (L+1)-windows of the symbols that
    ``blocks`` yields, in order, by their Horner codes (last symbol least
    significant) in the narrowest unsigned type.

    The symbols gather in one buffer of max(_BLOCK, d^(L+1)) windows and their
    L successors, so a bincount is no dearer than its codes; when it is full,
    its windows are counted and its last L symbols carried to the start.
    """
    n_codes = d ** (block_len + 1)
    step = max(_BLOCK, n_codes)
    buf = np.empty(step + block_len, dtype=np.min_scalar_type(n_codes - 1))
    codes = np.empty(step, dtype=buf.dtype)

    def counted(n: int) -> np.ndarray:  # the n windows that start in buf[:n]
        c = codes[:n]
        c[...] = buf[:n]
        for j in range(1, block_len + 1):
            c *= d
            c += buf[j:j + n]
        return np.bincount(c, minlength=n_codes)

    counts = np.zeros(n_codes, dtype=np.int64)
    fill = 0
    for block in blocks:
        lo = 0
        while lo < block.size:
            n = min(block.size - lo, buf.size - fill)
            buf[fill:fill + n] = block[lo:lo + n]
            fill, lo = fill + n, lo + n
            if fill == buf.size:
                counts += counted(step)
                buf[:block_len] = buf[step:]
                fill = block_len
    if fill > block_len:
        counts += counted(fill - block_len)
    return counts


def _min_symbols(d: int, block_len: int) -> int:
    """The shortest sequence the estimator takes: 100 symbols per L-block."""
    return 100 * d ** block_len


def _rate_of_counts(counts: np.ndarray, d: int) -> float:
    """H_{L+1} - H_L from the (L+1)-window counts, clamped at 0."""
    def block_entropy(c: np.ndarray) -> float:
        n = c[c > 0].astype(float)
        total = n.sum()
        return math.log2(total) - float((n * np.log2(n)).sum()) / total

    h_hi = block_entropy(counts)
    h_lo = block_entropy(counts.reshape(-1, d).sum(axis=1))
    return max(0.0, h_hi - h_lo)


def empirical_entropy_rate(sequence, block_len: int,
                           alphabet_size: int | None = None) -> float:
    """Plug-in conditional block estimate H_{L+1} - H_L, in bits per symbol.

    Both block entropies come from the same set of (L+1)-windows, so the
    L-block marginal is exactly consistent and the difference is a genuine
    conditional entropy in [0, log2 d].  Requires at least 100 * d^L symbols.
    The windows go through the window counter that ``entropy_rate_experiment``
    feeds block by block, so the working memory does not grow with the
    sequence, and the estimate is the same however the symbols are split.
    """
    block_len = require_count("block length", block_len)
    s, d = _symbols(sequence, alphabet_size, "alphabet size")
    needed = _min_symbols(d, block_len)
    if s.size < needed:
        raise InsufficientDataError(
            f"need at least {needed} symbols for block length {block_len} "
            f"over a {d}-letter alphabet, got {s.size}")
    return _rate_of_counts(_window_counts([s], d, block_len), d)


class CensusResult(NamedTuple):
    """Uniform-psi chaoticity census with its 3-sigma binomial half-width."""

    n_trials: int
    chaotic_count: int
    fraction: float
    half_width_3sigma: float


def _census_ends() -> list[float]:
    """The draws u = k*2^-53 where the census's verdict turns: a draw is
    chaotic iff e0 <= u < e1 or e2 <= u < e3.

    The SU(2) pair of psi has |tr| = 2|cos psi|, which the kernel reads from
    d = 2 psi = 4*pi*u (bit for bit, for psi drawn by uniform(0, 2*pi)).  It is
    monotone in u on each quarter of [0, 1), so the four ends are bisected
    over k together.  2^12 grid steps from each end, the margin to the band
    edge is already about 4e-12 against about 1e-15 of rounding, and a test
    checks every grid point inside that window.
    """
    def chaotic(k: np.ndarray) -> np.ndarray:
        return order_verdicts(k * 2.0 ** -53 * (2.0 * TWO_PI)).codes == CHAOTIC

    lo = np.arange(4, dtype=np.int64) << 51  # quarter starts; at the end, last k before each turn
    start = chaotic(lo)
    for bit in range(50, -1, -1):
        mid = lo + (1 << bit)
        lo = np.where(chaotic(mid) == start, mid, lo)
    return ((lo + 1) * 2.0 ** -53).tolist()


def _census_chunk(seed: int, chunk: int, buf: np.ndarray, ends: list[float]) -> int:
    # the draws and the ends lie on the 2^-53 grid, so the comparisons are exact
    u = stream_generator(seed, chunk).random(out=buf)
    above = [int(np.count_nonzero(u >= e)) for e in ends]
    return above[0] - above[1] + above[2] - above[3]


def monte_carlo_chaotic_fraction(n_trials: int, seed: int) -> CensusResult:
    """Draw psi uniform on [0, 2*pi), build the SU(2) pair, count chaotic verdicts.

    ``boundary`` verdicts are not counted.  Chunk c holds trials
    c*CENSUS_CHUNK onwards, drawn from stream (seed, c) into one reused buffer.
    """
    n_trials = require_count("n_trials", n_trials)
    ends = _census_ends()
    buf = np.empty(min(CENSUS_CHUNK, n_trials))
    chaotic = sum(_census_chunk(seed, c, buf[:min(CENSUS_CHUNK, n_trials - start)], ends)
                  for c, start in enumerate(range(0, n_trials, CENSUS_CHUNK)))
    return CensusResult(n_trials, chaotic, chaotic / n_trials,
                        3.0 * math.sqrt(0.25 / n_trials))


class NoiseWalk(NamedTuple):
    """One block of a noise walk: per-step phases, |tr| and verdict codes
    (indices into VERDICT_LABELS)."""

    phi: np.ndarray
    psi: np.ndarray
    trace_mag: np.ndarray
    codes: np.ndarray


def noisy_phase_walk(base: EigenphasePair, epsilon: float, steps: int,
                     seed: int) -> Iterator[NoiseWalk]:
    """Per-step perturbed phases ((phi+lambda) mod 2*pi, (psi-lambda) mod 2*pi),
    their |tr| and verdicts, as consecutive blocks of at most _BLOCK steps.

    lambda is drawn uniformly from [-epsilon*pi, epsilon*pi] each step, one
    draw per step from the stream keyed (seed, 0); the perturbation cancels in
    the phase sum, so a unimodular base stays unimodular at every step.  The
    arguments are checked and the stream made at the call, and the walk is
    computed as its blocks are taken, so a caller that keeps only the verdict
    counts holds memory that does not grow with ``steps``.  Each block's
    arrays are its own; the blocks joined are the whole walk, bit for bit.
    """
    if not 0.0 <= 2.0 * math.pi * epsilon < math.inf:  # the draw's range; NaN fails
        raise ValueError(f"epsilon must be >= 0 with 2*pi*epsilon finite, got {epsilon}")
    steps = require_count("steps", steps)
    return _noise_blocks(stream_generator(seed), base, epsilon * math.pi, steps)


def _noise_blocks(gen: np.random.Generator, base: EigenphasePair, half: float,
                  steps: int) -> Iterator[NoiseWalk]:
    """The noise-block kernel: the next block of draws and its phases and verdicts."""
    for lo in range(0, steps, _BLOCK):
        lambdas = gen.uniform(-half, half, min(_BLOCK, steps - lo))
        phi = mod_2pi(base.phi + lambdas)
        psi = mod_2pi(base.psi - lambdas)
        verdicts = order_verdicts(np.subtract(phi, psi, out=lambdas))
        yield NoiseWalk(phi, psi, verdicts.trace_mag, verdicts.codes)


#: The measurement bases by name, each built from the measured map U^period and
#: the seed: the optimized one is the PVM entropy maximizer's for that map, with
#: restarts keyed by the seed.
_BASIS_CHOICES = {
    "computational": lambda u, seed: PvmBasis.computational(),
    "x": lambda u, seed: PvmBasis.x_basis(),
    "optimized": lambda u, seed: pvm_entropy_optimize(u, seed=seed).optimal_basis,
}


class EntropyRateExperiment(NamedTuple):
    """The (empirical, predicted, abs_diff) entropy rates of a run in bits per
    step; empirical and abs_diff are None below 100 * 2^L steps."""

    empirical: float | None
    predicted: float
    abs_diff: float | None


def entropy_rate_experiment(pair: EigenphasePair, basis: str, steps: int, block_len: int,
                            seed: int, period: int = 1, out=None) -> EntropyRateExperiment:
    """The measured dynamics of a pair: choose the basis, sample, estimate, predict.

    ``basis`` names a key of _BASIS_CHOICES: "computational", "x" (the |+>, |->
    basis against the eigenframe) or "optimized", the basis that maximizes the
    PVM entropy of U^period, the map measured, so its prediction is the
    order-period entropy.  The outcomes are those of
    ``sample_trajectory(pair, basis, steps, seed, period)``, from the stream
    keyed (seed, 0), and the estimate is ``empirical_entropy_rate`` of them
    with L = block_len; the prediction is the Markov entropy rate of the exact
    transition matrix of U^period.  Each block of outcomes is sampled once,
    written to ``out``, an open binary file, when it is given (one byte per
    outcome), and passed to the window counter, so a run holds no memory that
    grows with ``steps``.  The outcomes are not returned: ``sample_trajectory``
    with the same arguments gives them again.
    """
    steps, period = require_count("steps", steps), require_count("period", period)
    block_len = require_count("block length", block_len)
    if basis not in _BASIS_CHOICES:
        raise ValueError(f"basis must be one of {', '.join(_BASIS_CHOICES)}, got {basis!r}")
    u_eff = unitary_power(pair, period)
    pvm = _BASIS_CHOICES[basis](u_eff, seed)
    blocks = _outcome_blocks(u_eff, pvm, steps, seed)
    predicted = markov_entropy_rate(transition_matrix(u_eff, pvm))
    if out is not None:
        blocks = _written(blocks, out)
    if steps < _min_symbols(2, block_len):
        for _ in blocks:  # sampled and written, but too few to estimate
            pass
        return EntropyRateExperiment(None, predicted, None)
    empirical = _rate_of_counts(_window_counts(blocks, 2, block_len), 2)
    return EntropyRateExperiment(empirical, predicted, abs(empirical - predicted))


def _written(blocks: Iterator[np.ndarray], file) -> Iterator[np.ndarray]:
    """The blocks, each written to the binary ``file`` as it is taken."""
    for block in blocks:
        file.write(block)
        yield block

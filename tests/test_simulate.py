"""Trajectory sampling, entropy estimation, census and the noise model."""

import bisect
import cmath
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qchaos import (
    EigenphasePair,
    ExactUnitarySpec,
    InsufficientDataError,
    PvmBasis,
    RationalPhase,
    TWO_PI,
    VERDICT_LABELS,
    empirical_entropy_rate,
    entropy_rate_experiment,
    monte_carlo_chaotic_fraction,
    noisy_phase_walk,
    order_verdicts,
    sample_trajectory,
    stream_generator,
    transition_matrix,
)
from qchaos.chaoticity import CHAOTIC
from qchaos.entropy import qubit_entropy_of_theta

from qchaos import simulate
from qchaos.phases import unitary_power
from qchaos.simulate import CENSUS_CHUNK

from helpers import (
    circular_distance,
    empirical_transition_matrix,
    joined_walk,
    make_su2_from_psi,
    random_orthonormal_basis,
    random_unitary,
    reference_census_count,
    reference_entropy_rate,
    reference_noise_walk,
    reference_trajectory,
)

PI = math.pi
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
NUMPY_INTEGERS = (np.int8, np.int16, np.int64, np.uint8, np.uint16, np.uint64)


class TestSampleTrajectory:
    def test_pauli_x_alternates(self):
        out = sample_trajectory(PAULI_X, PvmBasis.computational(2), 200, seed=1)
        assert np.array_equal(out, (out[0] + np.arange(200)) % 2)

    def test_uniform_chain_bias(self):
        # Diag(1, i) in the x basis: every transition probability is 1/2
        out = sample_trajectory(np.diag([1.0, 1j]), PvmBasis.x_basis(), 10 ** 6, seed=11)
        assert abs(out.mean() - 0.5) < 0.003

    def test_pauli_x_period_two_is_constant(self):
        # X^2 = I, so measuring every other step yields a frozen outcome
        for basis in (PvmBasis.computational(2), PvmBasis.x_basis()):
            out = sample_trajectory(PAULI_X, basis, 5000, seed=3, period=2)
            assert np.all(out == out[0])

    def test_bit_identical_reproducibility(self):
        u = np.diag([1.0, 1j])  # uniform chain in the x basis
        a = sample_trajectory(u, PvmBasis.x_basis(), 10000, seed=42)
        b = sample_trajectory(u, PvmBasis.x_basis(), 10000, seed=42)
        assert np.array_equal(a, b)
        c = sample_trajectory(u, PvmBasis.x_basis(), 10000, seed=43)
        assert not np.array_equal(a, c)

    def test_accepts_pair_and_spec_sources(self):
        pair = make_su2_from_psi(PI / 3)
        out = sample_trajectory(pair, PvmBasis.x_basis(), 100, seed=5)
        assert out.shape == (100,)
        assert set(np.unique(out)) <= {0, 1}

    @pytest.mark.parametrize("seed", range(8))
    def test_first_outcome_is_uniform_over_the_basis(self, seed):
        # the chain starts maximally mixed: u_0 picks the basis state, whatever U is
        u0 = stream_generator(seed, 0).random()
        for d in (2, 3):
            u = random_unitary(np.random.default_rng(seed), d)
            basis = PvmBasis(random_orthonormal_basis(np.random.default_rng(seed + 8), d))
            out = sample_trajectory(u, basis, 5, seed=seed)
            expected = u0 >= 0.5 if d == 2 else bisect.bisect_right([1 / 3, 2 / 3, 1.0], u0)
            assert out[0] == expected

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            sample_trajectory(np.eye(3), PvmBasis.computational(2), 10, seed=0)

    def test_empirical_frequencies_match_exact_matrix(self):
        pair = EigenphasePair(0.0, PI / 3)
        u = unitary_power(pair)
        basis = PvmBasis.x_basis()
        out = sample_trajectory(pair, basis, 10 ** 6, seed=17)
        emp = empirical_transition_matrix(out, 2)
        exact = transition_matrix(u, basis)
        assert np.max(np.abs(emp - exact)) < 0.005

    def test_period_k_equals_power_chain(self):
        pair = EigenphasePair(0.3, 2.1)
        u = unitary_power(pair)
        basis = PvmBasis.x_basis()
        with_period = sample_trajectory(pair, basis, 200000, seed=23, period=3)
        of_power = sample_trajectory(np.linalg.matrix_power(u, 3), basis, 200000, seed=29)
        emp_a = empirical_transition_matrix(with_period, 2)
        emp_b = empirical_transition_matrix(of_power, 2)
        assert np.max(np.abs(emp_a - emp_b)) < 0.005

    def test_period_one_is_the_source_matrix(self):
        pair = EigenphasePair(0.3, 2.1)
        spec = ExactUnitarySpec(RationalPhase(1, 3), RationalPhase(5, 7), RationalPhase(1, 4))
        u3 = random_unitary(np.random.default_rng(5), 3)
        # built with cmath.exp, which np.exp does not match bit for bit
        assert np.array_equal(unitary_power(pair),
                              np.diag([cmath.exp(1j * pair.phi), cmath.exp(1j * pair.psi)]))
        assert np.array_equal(unitary_power(spec), spec.to_unitary())
        assert np.array_equal(unitary_power(u3), u3)
        assert np.abs(unitary_power(u3, 5) - np.linalg.matrix_power(u3, 5)).max() < 1e-14

    def test_exact_spec_powers_by_residues(self):
        # every phase is a multiple of pi/84, so U^P repeats with period 2 * 84 in P
        spec = ExactUnitarySpec(RationalPhase(1, 3), RationalPhase(5, 7), RationalPhase(1, 4))
        big = 10 ** 18 + 5
        assert np.array_equal(unitary_power(spec, big), unitary_power(spec, big % 168))
        assert np.array_equal(unitary_power(spec, np.int32(2)), unitary_power(spec, 2))

    @pytest.mark.parametrize("period", [10 ** 5, 10 ** 9, 10 ** 15])
    def test_large_period_pair_matches_the_kernel(self, period):
        pair = EigenphasePair(0.3 * PI, 1.1 * PI)
        m = unitary_power(pair, period)
        kernel = order_verdicts(pair, period)
        assert abs(abs(np.trace(m)) - float(kernel.trace_mag)) < 1e-12

    @pytest.mark.parametrize("period", [10 ** 5, 10 ** 9])
    @pytest.mark.parametrize("d", [2, 3])
    def test_large_period_raw_matrix_stays_unitary(self, d, period):
        """Repeated squaring drifts off the unitary group (residual 1e-11 at
        10^5, 1.6e-7 at 10^9 for d = 3); the polar factor takes it back."""
        if d == 2:
            pair = EigenphasePair(0.3 * PI, 1.1 * PI)
            u = np.diag([np.exp(1j * pair.phi), np.exp(1j * pair.psi)])
        else:
            u = random_unitary(np.random.default_rng(11), 3)
        m = unitary_power(u, period)
        assert np.abs(m.conj().T @ m - np.eye(d)).max() <= 1e-14
        if d == 2:
            assert np.abs(m - unitary_power(pair, period)).max() < 1e-6
        out = sample_trajectory(u, PvmBasis.computational(d), 10, seed=0, period=period)
        assert out.shape == (10,)

    def test_seed_is_mandatory(self):
        with pytest.raises(ValueError):
            sample_trajectory(PAULI_X, PvmBasis.x_basis(), steps=10, seed=None)  # type: ignore[arg-type]

    @pytest.mark.parametrize("field,value", [
        ("steps", 1000.0), ("period", 2.0), ("steps", "10"), ("period", None),
        ("steps", True), ("period", True)])
    def test_rejects_non_integer_counts(self, field, value):
        kw = {"steps": 10, "period": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            sample_trajectory(PAULI_X, PvmBasis.x_basis(), seed=0, **kw)

    def test_accepts_numpy_integer_counts(self):
        out = sample_trajectory(PAULI_X, PvmBasis.x_basis(), np.int64(10), seed=0,
                                period=np.int32(2))
        assert out.shape == (10,)


def _assert_matches_reference(*args, **kw):
    out = sample_trajectory(*args, **kw)
    ref = reference_trajectory(*args, **kw)
    assert out.dtype == ref.dtype == np.uint8
    assert np.array_equal(out, ref)
    return out


class TestSamplerMatchesPerStepLoop:
    """The array sampler against the per-step loop, value and dtype."""

    @settings(max_examples=150, deadline=None)
    @given(phi=st.floats(0.0, TWO_PI), psi=st.floats(0.0, TWO_PI),
           basis=st.sampled_from(["x", "computational", "haar"]),
           period=st.integers(1, 4), steps=st.integers(1, 20000),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_pairs(self, phi, psi, basis, period, steps, seed):
        rng = np.random.default_rng(seed)
        pvm = {"x": PvmBasis.x_basis(), "computational": PvmBasis.computational(2),
               "haar": PvmBasis(random_orthonormal_basis(rng))}[basis]
        _assert_matches_reference(EigenphasePair(phi, psi), pvm, steps, seed=seed,
                                  period=period)

    @pytest.mark.parametrize("u,basis,expected", [
        (np.eye(2), PvmBasis.x_basis(), "identity"),
        (PAULI_X, PvmBasis.computational(2), "flip"),
        (np.diag([1.0, 1j]), PvmBasis.x_basis(), "constant"),
        (EigenphasePair(0.0, PI), PvmBasis.x_basis(), None),
    ], ids=["identity", "pauli-x", "diag-1-i", "theta-pi"])
    def test_degenerate_chains(self, u, basis, expected):
        out = _assert_matches_reference(u, basis, 5000, seed=13)
        if expected == "identity":
            assert np.all(out == out[0])
        elif expected == "flip":
            assert np.array_equal(out, (out[0] + np.arange(5000)) % 2)
        elif expected == "constant":
            # t0 == t1: every step ignores the previous outcome
            u_draws = stream_generator(13, 0).random(5000)
            assert np.array_equal(out[1:], u_draws[1:] >= 0.5)

    @pytest.mark.parametrize("block", [simulate._BLOCK, 7], ids=["default-block", "block-7"])
    @pytest.mark.parametrize("seed", range(6))
    def test_draws_equal_to_the_thresholds(self, seed, block, monkeypatch):
        # a draw equal to cum[x, 0] moves to outcome 1, as in the loop, also
        # at the first draw of a block
        rng = np.random.default_rng(seed)
        pair = EigenphasePair(*rng.uniform(0.0, TWO_PI, 2))
        basis = PvmBasis(random_orthonormal_basis(rng)) if seed % 2 else PvmBasis.x_basis()
        cum = np.cumsum(transition_matrix(unitary_power(pair), basis), axis=1)
        t0, t1 = cum[0, 0], cum[1, 0]
        values = np.array([t0, t1, np.nextafter(t0, 0.0), np.nextafter(t1, 1.0), 0.0, 0.5])
        draws = rng.choice(values, 4000)

        class Fixed:
            """The draws in order: each call goes on where the last one stopped."""

            def __init__(self):
                self.pos = 0

            def random(self, size=None, out=None):
                n = size if out is None else out.size
                got = draws[self.pos:self.pos + n]
                self.pos += n
                if out is None:
                    return got.copy()
                out[...] = got
                return out

        for module in ("qchaos.simulate", "helpers"):
            monkeypatch.setattr(f"{module}.stream_generator", lambda *_: Fixed())
        monkeypatch.setattr(simulate, "_BLOCK", block)
        _assert_matches_reference(pair, basis, 4000, seed=0)

    def test_qutrit_loop(self):
        rng = np.random.default_rng(5)
        basis = PvmBasis(random_orthonormal_basis(rng, 3))
        for period in (1, 3):
            _assert_matches_reference(random_unitary(rng, 3), basis, 3000, seed=8,
                                      period=period)


class TestQubitKernel:
    """``_qubit_block`` against the recurrence x_i = [u_i >= t_{x_{i-1}}] it solves."""

    threshold = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))

    @settings(max_examples=300, deadline=None)
    @given(t0=threshold, t1=threshold, same=st.booleans(), first=st.integers(0, 1),
           picks=st.lists(st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                                    st.sampled_from(["t0", "t1"])),
                          min_size=1, max_size=300))
    def test_equals_the_recurrence(self, t0, t1, same, first, picks):
        t1 = t0 if same else t1  # t0 == t1: every step is a reset
        draws = np.array([{"t0": t0, "t1": t1}.get(p, p) for p in picks])
        want, x = [first], first
        for u in draws[1:]:
            x = int(u >= (t0, t1)[x])
            want.append(x)
        out = np.empty(draws.size, dtype=np.uint8)
        simulate._qubit_block(draws, t0, t1, first, out)
        assert out.tolist() == want


class TestBlocks:
    """The sampler and the estimator work in blocks of simulate._BLOCK; the
    outputs do not depend on where the blocks end."""

    @pytest.mark.parametrize("block", [1, 7, 64])
    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3]), blocks=st.integers(1, 30), offset=st.integers(-2, 2),
           block_len=st.integers(1, 3), period=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_outputs_equal_the_references(self, block, d, blocks, offset, block_len, period,
                                          seed):
        rng = np.random.default_rng(seed)
        if d == 2:
            u = EigenphasePair(*rng.uniform(0.0, TWO_PI, 2))
        else:
            u = random_unitary(rng, 3)
        basis = PvmBasis(random_orthonormal_basis(rng, d))
        # the estimator's blocks hold max(_BLOCK, d^(L+1)) windows
        windows = max(block, d ** (block_len + 1))
        est_blocks = -(-100 * d ** block_len // windows) + blocks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_BLOCK", block)
            _assert_matches_reference(u, basis, max(1, blocks * block + offset), seed=seed,
                                      period=period)
            seq = _assert_matches_reference(u, basis, est_blocks * windows + block_len + offset,
                                            seed=seed, period=period)
            rate = empirical_entropy_rate(seq, block_len, alphabet_size=d)
        assert rate.hex() == reference_entropy_rate(seq, block_len, d).hex()

    @pytest.mark.parametrize("a,b", [(1, 1), (7, 64), (1 << 16, 3), (5, 1 << 16)])
    def test_split_draws_continue_the_stream(self, a, b):
        # random(a) then random(b) on one stream gives the doubles of random(a + b),
        # also when each is drawn into a buffer
        whole = stream_generator(9).random(a + b)
        gen = stream_generator(9)
        assert np.concatenate([gen.random(a), gen.random(b)]).tobytes() == whole.tobytes()
        gen, buf = stream_generator(9), np.empty(max(a, b))
        first = gen.random(out=buf[:a]).copy()
        assert np.concatenate([first, gen.random(out=buf[:b])]).tobytes() == whole.tobytes()

    def test_memory_does_not_grow_with_steps(self, tmp_path):
        # the run holds a few blocks, not the outcomes: the stream goes to a file
        steps = 2_000_000
        pair = EigenphasePair(0.3, 2.1)
        entropy_rate_experiment(pair, "x", 1000, 2, seed=1)  # first-call set-up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with open(tmp_path / "run.stream", "wb") as out:
                run = entropy_rate_experiment(pair, "x", steps, 8, seed=5, out=out)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert run.empirical is not None
        assert (tmp_path / "run.stream").stat().st_size == steps
        assert peak < 2 ** 22

    def test_noise_counts_in_memory_that_does_not_grow_with_steps(self):
        steps = 2_000_000
        walk = noisy_phase_walk(EigenphasePair(0.3, 2.1), 0.1, steps, seed=5)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            counts = sum(np.bincount(block.codes, minlength=len(VERDICT_LABELS))
                         for block in walk)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert counts.sum() == steps
        assert peak < 2 ** 22

    @pytest.mark.parametrize("command,small,large", [
        (["noise", "--psi", "0.7512", "--epsilon", "0.05"], 1000, 1_000_000),
        (["simulate", "--phi", "0.31", "--psi", "1.17", "--out", "{tmp}/run"], 3000, 3_000_000),
    ], ids=["noise", "simulate"])
    def test_peak_rss_does_not_grow_with_steps(self, command, small, large, tmp_path):
        # each size in a fresh process, where the peak RSS is the command's own
        def peak_mb(steps):
            argv = [a.replace("{tmp}", str(tmp_path)) for a in command]
            proc = subprocess.Popen(
                [sys.executable, "-m", "qchaos.cli", *argv, "--steps", str(steps),
                 "--seed", "1", "--json", str(tmp_path / "doc.json")],
                env=dict(os.environ, PYTHONPATH=str(Path(simulate.__file__).parents[1])))
            _, status, usage = os.wait4(proc.pid, 0)
            assert status == 0
            return usage.ru_maxrss / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)

        assert peak_mb(large) - peak_mb(small) < 3.0


class TestStreamedRun:
    """``entropy_rate_experiment`` samples, writes and counts block by block;
    its stream and estimate are those of the whole-array calls."""

    B = simulate._BLOCK

    # the sampler's blocks end at multiples of B; the counter's buffer, of
    # max(B, 2^(L+1)) windows and their L successors, fills at k*B + L for
    # L = 1 and 8, and at k*2^17 + 16 for L = 16, where 2^(L+1) > B
    @pytest.mark.parametrize("block_len,steps", [
        *[(1, n) for n in (200, 3 * B - 1, 3 * B, 3 * B + 1, 3 * B + 2)],
        *[(8, n) for n in (25600, 2 * B + 7, 2 * B + 8, 2 * B + 9, 3 * B)],
        *[(16, 50 * 2 ** 17 + 16 + k) for k in (-1, 0, 1)],
    ])
    def test_stream_and_rate_equal_the_whole_array_calls(self, block_len, steps):
        assert 2 ** 17 > self.B  # so L = 16 counts more windows per bincount than B
        pair = EigenphasePair(0.7, 2.3)
        run = entropy_rate_experiment(pair, "x", steps, block_len, seed=11,
                                      out=(out := io.BytesIO()))
        whole = sample_trajectory(pair, PvmBasis.x_basis(), steps, seed=11)
        assert out.getvalue() == whole.tobytes()
        rate = empirical_entropy_rate(whole, block_len, alphabet_size=2)
        assert run.empirical == rate
        assert run.abs_diff == abs(rate - run.predicted)

    @pytest.mark.parametrize("block", [1, 7, 64])
    @settings(max_examples=30, deadline=None)
    @given(phi=st.floats(0.0, TWO_PI), psi=st.floats(0.0, TWO_PI),
           basis=st.sampled_from(["computational", "x"]), block_len=st.integers(1, 3),
           period=st.integers(1, 3), steps=st.integers(1, 3000),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_any_split(self, block, phi, psi, basis, block_len, period, steps, seed):
        pair, out = EigenphasePair(phi, psi), io.BytesIO()
        pvm = PvmBasis.x_basis() if basis == "x" else PvmBasis.computational()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_BLOCK", block)
            run = entropy_rate_experiment(pair, basis, steps, block_len, seed, period, out=out)
        whole = reference_trajectory(pair, pvm, steps, seed, period)
        assert out.getvalue() == whole.tobytes()
        if steps >= 100 * 2 ** block_len:
            assert run.empirical == reference_entropy_rate(whole, block_len, 2)
        else:
            assert run.empirical is None


class TestEmpiricalEntropyRate:
    def test_fair_coin(self):
        bits = (stream_generator(100, 0).random(10 ** 6) < 0.5).astype(np.uint8)
        rate = empirical_entropy_rate(bits, 8)
        assert rate == pytest.approx(1.0, abs=0.01)

    def test_constant_sequence(self):
        assert empirical_entropy_rate(np.zeros(1000, dtype=int), 1) == 0.0

    def test_alternating_sequence(self):
        seq = np.arange(30000) % 2
        for block_len in (1, 4, 8):
            assert empirical_entropy_rate(seq, block_len) == 0.0

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            empirical_entropy_rate(np.zeros(100, dtype=int), 8, alphabet_size=2)

    def test_within_bounds(self):
        rng = np.random.default_rng(7)
        seq = rng.integers(0, 3, 100 * 3 ** 4)
        rate = empirical_entropy_rate(seq, 4, alphabet_size=3)
        assert 0.0 <= rate <= math.log2(3)

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            empirical_entropy_rate(np.array([0, 1, 5]), 1, alphabet_size=2)

    @pytest.mark.parametrize("sequence", [
        np.full(1000, 0.9), np.zeros(1000), [0.0, 1.0] * 500, np.zeros(1000, dtype=complex)])
    def test_rejects_non_integer_symbols(self, sequence):
        with pytest.raises(ValueError, match="integers"):
            empirical_entropy_rate(sequence, 1, alphabet_size=2)

    @pytest.mark.parametrize("sequence", [np.full(10, 0.9), [0.0, 1.0, 1.0]])
    def test_transition_matrix_rejects_non_integer_symbols(self, sequence):
        # a cast to int64 would truncate 0.9 to 0 and count 9 transitions 0 -> 0
        with pytest.raises(ValueError, match="integers"):
            empirical_transition_matrix(sequence, 2)

    def test_transition_matrix_rejects_symbols_past_d(self):
        with pytest.raises(ValueError, match=r"lie in \[0, d\) = \[0, 1\)"):
            empirical_transition_matrix([0, 1, 1, 0], 1)

    @pytest.mark.parametrize("d", [2.0, True, 0])
    def test_transition_matrix_takes_d_as_a_count(self, d):
        with pytest.raises(ValueError, match="d must be"):
            empirical_transition_matrix([0, 1, 1, 0], d)

    @pytest.mark.parametrize("d", [None, 2])
    def test_transition_matrix_rejects_negative_symbols(self, d):
        # -1 would count as the last row
        with pytest.raises(ValueError, match="lie in"):
            empirical_transition_matrix([0, -1, 1, 0], d)

    @pytest.mark.parametrize("sequence", [np.array([], dtype=int), np.zeros((2, 500), dtype=int)],
                             ids=["empty", "2-d"])
    def test_symbols_are_a_non_empty_1d_sequence(self, sequence):
        for call in (lambda: empirical_transition_matrix(sequence, 2),
                     lambda: empirical_entropy_rate(sequence, 1, alphabet_size=2)):
            with pytest.raises(ValueError, match="non-empty 1-D array"):
                call()

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_rejects_negative_symbols(self, dtype):
        seq = np.tile(np.array([0, 1, -1], dtype=dtype), 400)
        with pytest.raises(ValueError, match="lie in"):
            empirical_entropy_rate(seq, 1, alphabet_size=2)

    @pytest.mark.parametrize("d,block_len", [(2, 7), (2, 8), (3, 4), (3, 5), (2, 1), (5, 3)])
    @pytest.mark.parametrize("kind", ["list", "int64", "uint8"])
    def test_matches_int64_oracle(self, d, block_len, kind):
        # d^(L+1) on either side of 2^8, where the window codes go from uint8 to uint16
        seq = np.random.default_rng(d * 100 + block_len).integers(0, d, 100 * d ** block_len + 17)
        arg = seq.tolist() if kind == "list" else seq.astype(kind)
        before = np.array(arg, copy=True)
        for alphabet in (d, None):
            rate = empirical_entropy_rate(arg, block_len, alphabet_size=alphabet)
            assert rate.hex() == reference_entropy_rate(seq, block_len, alphabet).hex()
        assert np.array_equal(np.asarray(arg), before)
        if d == 2:
            assert empirical_entropy_rate(seq.astype(bool), block_len) == rate

    def test_numpy_integer_arguments_are_taken_by_value(self):
        seq = np.random.default_rng(3).integers(0, 2, 30000)
        want = empirical_entropy_rate(seq, 8, 2)
        for kind in NUMPY_INTEGERS:
            assert empirical_entropy_rate(seq, kind(8), 2) == want
            assert empirical_entropy_rate(seq, 8, alphabet_size=kind(2)) == want


CENSUS_BY_VALUE = """
import numpy as np
from qchaos import monte_carlo_chaotic_fraction as census
want = census(1000, seed=1)
print([census(kind(1000), seed=1) == want for kind in (np.uint64, np.uint16, np.int16)])
"""


class TestCensus:
    def test_large_run_hits_half(self):
        res = monte_carlo_chaotic_fraction(10 ** 5, seed=1)
        assert abs(res.fraction - 0.5) <= res.half_width_3sigma
        assert res.half_width_3sigma == pytest.approx(3 * math.sqrt(0.25 / 10 ** 5))

    def test_single_trial(self):
        res = monte_carlo_chaotic_fraction(1, seed=4)
        assert res.fraction in (0.0, 1.0)
        assert res == monte_carlo_chaotic_fraction(1, seed=4)

    def test_deterministic(self):
        assert (monte_carlo_chaotic_fraction(50000, seed=8)
                == monte_carlo_chaotic_fraction(50000, seed=8))

    def test_band_scales_with_n(self):
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            res = monte_carlo_chaotic_fraction(n, seed=6)
            assert res.half_width_3sigma == pytest.approx(1.5 / math.sqrt(n))
            assert abs(res.fraction - 0.5) <= res.half_width_3sigma

    def test_matches_pairwise_verdicts(self):
        # the vectorized count must agree with building each pair explicitly
        n = 500
        res = monte_carlo_chaotic_fraction(n, seed=13)
        psis = stream_generator(13, 0).uniform(0.0, TWO_PI, n)
        explicit = sum(
            order_verdicts(make_su2_from_psi(p)).codes == CHAOTIC for p in psis)
        assert res.chaotic_count == explicit

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_chaotic_fraction(0, seed=0)

    @pytest.mark.parametrize("kw", [{"n_trials": 100.0}, {"n_trials": "100"},
                                    {"n_trials": True}])
    def test_rejects_non_integer_counts(self, kw):
        args = {"n_trials": 100, "seed": 1, **kw}
        field = next(iter(kw))
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            monte_carlo_chaotic_fraction(**args)

    @pytest.mark.parametrize("seed", [1.0, None])
    def test_rejects_non_integer_seeds(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            monte_carlo_chaotic_fraction(100, seed)

    @pytest.mark.parametrize("n, seed, want", [
        (10 ** 5, 1, 50134), (2 * 10 ** 7, 1087608058291172413, 10000961), (12345, 7, 6211),
        (1, 3, 0), (98305, 2, 49312)])
    def test_counts_are_pinned(self, n, seed, want):
        # chunk c is stream (seed, c), so a change of chunking changes these counts
        assert monte_carlo_chaotic_fraction(n, seed).chaotic_count == want

    def test_accepts_numpy_integer_counts(self):
        assert (monte_carlo_chaotic_fraction(np.int64(1000), seed=1)
                == monte_carlo_chaotic_fraction(1000, seed=1))

    def test_unsigned_counts_are_taken_by_value(self):
        # in a child process under a timeout: an unsigned count once wrapped the
        # chunk count, -(-n // CENSUS_CHUNK), to about 1.8e19 chunks
        out = subprocess.run(
            [sys.executable, "-c", CENSUS_BY_VALUE],
            env=dict(os.environ, PYTHONPATH=str(Path(simulate.__file__).parents[1])),
            capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "[True, True, True]"


class TestCensusMatchesPerChunkKernel:
    @pytest.mark.parametrize("n", [1, CENSUS_CHUNK - 1, CENSUS_CHUNK, CENSUS_CHUNK + 1,
                                   3 * CENSUS_CHUNK + 17])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2 ** 64 - 1])
    def test_count_equals_the_kernel_count(self, n, seed):
        want = reference_census_count(n, seed)
        assert monte_carlo_chaotic_fraction(n, seed).chaotic_count == want

    @pytest.mark.parametrize("seed", [0, 3, 2 ** 64 - 1])
    def test_scaled_draws_are_twice_the_uniform_psi(self, seed):
        # _census_ends reads the kernel at 4*pi*u for the draws u: 2 psi bit for bit
        d = stream_generator(seed, 2).random(CENSUS_CHUNK) * (2.0 * TWO_PI)
        psis = stream_generator(seed, 2).uniform(0.0, TWO_PI, CENSUS_CHUNK)
        assert d.tobytes() == (2.0 * psis).tobytes()

    def test_one_worker_imports_no_pool(self, tmp_path):
        probe = ("import sys, qchaos.cli; qchaos.cli.main(sys.argv[1:]); "
                 "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
        out = subprocess.run(
            [sys.executable, "-c", probe, "census", "--n", str(3 * CENSUS_CHUNK), "--seed", "1",
             "--json", str(tmp_path / "c.json")],
            env=dict(os.environ, PYTHONPATH=str(Path(simulate.__file__).parents[1])),
            capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "[]"


def _assert_walk_matches_reference(base, epsilon, steps, seed):
    blocks = list(noisy_phase_walk(base, epsilon, steps, seed))
    assert all(0 < len(b.codes) <= simulate._BLOCK for b in blocks)
    walk, ref = joined_walk(blocks), reference_noise_walk(base, epsilon, steps, seed)
    for got, want in zip(walk, ref):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestNoiseBlocks:
    """The walk's blocks joined are the whole-array walk, bit for bit."""

    B = simulate._BLOCK

    @pytest.mark.parametrize("steps", [1, B - 1, B, B + 1, 3 * B + 7])
    def test_block_edges(self, steps):
        _assert_walk_matches_reference(EigenphasePair(0.3, 4.1), 0.37, steps, seed=17)

    @pytest.mark.parametrize("block", [1, 5, 64])
    @settings(max_examples=40, deadline=None)
    @given(phi=st.floats(0.0, TWO_PI), psi=st.floats(0.0, TWO_PI),
           epsilon=st.floats(0.0, 3.0), steps=st.integers(1, 400),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_any_split(self, block, phi, psi, epsilon, steps, seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_BLOCK", block)
            _assert_walk_matches_reference(EigenphasePair(phi, psi), epsilon, steps, seed)

    def test_checks_at_the_call(self):
        # the arguments are checked before a block is asked for
        with pytest.raises(ValueError, match="steps"):
            noisy_phase_walk(EigenphasePair(0.0, PI), 0.1, 0, seed=1)
        with pytest.raises(ValueError, match="must lie in"):
            noisy_phase_walk(EigenphasePair(0.0, PI), 0.1, 10, seed=-1)


class TestNoisyPhaseWalk:
    def test_zero_epsilon_is_constant(self):
        base = make_su2_from_psi(PI / 2)
        walk = joined_walk(noisy_phase_walk(base, epsilon=0.0, steps=50, seed=1))
        assert all(EigenphasePair(p, q) == base
                   for p, q in zip(walk.phi.tolist(), walk.psi.tolist()))
        assert len(set(walk.codes.tolist())) == 1

    def test_boundary_base_alternates(self):
        base = make_su2_from_psi(3 * PI / 4)  # edge of the chaotic window
        walk = joined_walk(noisy_phase_walk(base, epsilon=0.1, steps=1000, seed=3))
        labels = {VERDICT_LABELS[c] for c in walk.codes}
        assert "chaotic" in labels
        assert "non_chaotic" in labels

    def test_small_noise_stays_chaotic(self):
        base = make_su2_from_psi(PI / 2)  # center of the window
        walk = joined_walk(noisy_phase_walk(base, epsilon=0.01, steps=1000, seed=5))
        assert all(VERDICT_LABELS[c] == "chaotic" for c in walk.codes)

    def test_unimodular_invariant_at_every_step(self):
        base = make_su2_from_psi(1.234)
        for eps in (0.0, 0.01, 0.5, 1.0):
            walk = joined_walk(noisy_phase_walk(base, epsilon=eps, steps=200, seed=7))
            for phi, psi in zip(walk.phi.tolist(), walk.psi.tolist()):
                assert circular_distance(phi + psi, 0.0) <= 1e-12

    def test_matches_per_step_reference(self):
        # the arrays equal a scalar loop over the same draws, bit for bit
        base = EigenphasePair(0.3, 4.1)
        walk = joined_walk(noisy_phase_walk(base, epsilon=1.5, steps=300, seed=9))
        lambdas = stream_generator(9, 0).uniform(-1.5 * PI, 1.5 * PI, 300)
        for i, lam in enumerate(lambdas.tolist()):
            pair = EigenphasePair(base.phi + lam, base.psi - lam)
            assert (walk.phi[i], walk.psi[i]) == (pair.phi, pair.psi)
            assert walk.trace_mag[i] == 2.0 * abs(math.cos(0.5 * (pair.phi - pair.psi)))
            assert walk.codes[i] == order_verdicts(pair).codes

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            noisy_phase_walk(EigenphasePair(0.0, PI), epsilon=-0.1, steps=10, seed=0)

    @pytest.mark.parametrize("steps", [10.0, "10", None, True])
    def test_rejects_non_integer_steps(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer"):
            noisy_phase_walk(EigenphasePair(0.0, PI), epsilon=0.1, steps=steps, seed=1)


class TestStreamKeys:
    @pytest.mark.parametrize("seed,stream", [(-1, 0), (1 << 64, 0), (0, -1), (0, 1 << 64)])
    def test_rejects_keys_outside_64_bits(self, seed, stream):
        # reduced mod 2^64, seed -1 and seed 2^64 - 1 would share one stream
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*64\)"):
            stream_generator(seed, stream)

    @pytest.mark.parametrize("seed,stream", [(True, 0), (0, False), (1.0, 0), ("1", 0)])
    def test_rejects_keys_that_are_not_integers(self, seed, stream):
        # a bool is an int, but seed=True would silently be seed 1
        with pytest.raises(ValueError, match="(seed|stream) must be an integer"):
            stream_generator(seed, stream)

    def test_numpy_integer_keys_are_their_python_values(self):
        want = stream_generator(7, 3).random(4).tobytes()
        assert stream_generator(np.int64(7), np.uint32(3)).random(4).tobytes() == want
        top = np.uint64((1 << 64) - 1)
        assert (stream_generator(top, top).random(4).tobytes()
                == stream_generator((1 << 64) - 1, (1 << 64) - 1).random(4).tobytes())
        with pytest.raises(ValueError, match="must lie in"):
            stream_generator(np.int64(-1))

    def test_edges_of_the_range_are_distinct_streams(self):
        top = (1 << 64) - 1
        draws = {stream_generator(s, t).random(4).tobytes()
                 for s, t in [(0, 0), (top, 0), (0, top), (top, top)]}
        assert len(draws) == 4

    def test_out_of_range_seed_fails_every_seeded_routine(self):
        with pytest.raises(ValueError, match="must lie in"):
            sample_trajectory(PAULI_X, PvmBasis.x_basis(), steps=10, seed=-1)
        with pytest.raises(ValueError, match="must lie in"):
            noisy_phase_walk(EigenphasePair(0.0, PI), 0.1, 10, seed=1 << 64)
        with pytest.raises(ValueError, match="must lie in"):
            monte_carlo_chaotic_fraction(10, seed=-1)


class TestEntropyRateExperiment:
    def test_theta_pi_third_x_basis(self):
        pair = EigenphasePair(0.0, PI / 3)
        res = entropy_rate_experiment(pair, "x", 10 ** 6, 8, seed=31)
        assert res.predicted == pytest.approx(0.811278, abs=1e-6)
        assert abs(res.empirical - 0.811278) < 0.01
        assert res.abs_diff == pytest.approx(abs(res.empirical - res.predicted))

    def test_theta_pi_x_basis_is_the_swap_chain(self):
        # at theta = pi the x-basis chain is deterministic alternation; the
        # 1-bit maximum needs the suitably chosen (optimized) basis instead
        pair = EigenphasePair(0.0, PI)
        res = entropy_rate_experiment(pair, "x", 10 ** 5, 6, seed=37, out=(out := io.BytesIO()))
        assert res.predicted == pytest.approx(0.0, abs=1e-12)
        assert res.empirical == 0.0
        raw = np.frombuffer(out.getvalue(), dtype=np.uint8)
        assert raw.size == 10 ** 5 and np.array_equal(raw, (raw[0] + np.arange(raw.size)) % 2)

    def test_theta_pi_optimized_basis(self):
        pair = EigenphasePair(0.0, PI)
        res = entropy_rate_experiment(pair, "optimized", 10 ** 6, 8, seed=37)
        assert res.predicted == pytest.approx(1.0, abs=1e-6)
        assert abs(res.empirical - 1.0) < 0.01

    def test_identity_is_silent(self):
        pair = EigenphasePair(0.0, 0.0)
        res = entropy_rate_experiment(pair, "x", 30000, 4, seed=41)
        assert res.empirical == 0.0
        assert res.predicted == pytest.approx(0.0, abs=1e-12)

    def test_optimized_basis_reaches_closed_form(self):
        pair = EigenphasePair(0.0, PI / 3)
        res = entropy_rate_experiment(pair, "optimized", 10 ** 5, 6, seed=43)
        assert res.predicted == pytest.approx(0.8112781244591328, abs=1e-6)
        assert res.abs_diff < 0.02

    @settings(max_examples=50, deadline=None)
    @given(phi=st.floats(0.0, TWO_PI), psi=st.floats(0.0, TWO_PI), period=st.integers(1, 8),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_optimized_basis_is_fitted_to_the_measured_power(self, phi, psi, period, seed):
        """The optimized basis maximizes the entropy of U^period, the map the run
        measures, so it predicts the order-period closed form H(theta_P)."""
        pair = EigenphasePair(phi, psi)
        res = entropy_rate_experiment(pair, "optimized", 1, 1, seed, period)
        want = qubit_entropy_of_theta(order_verdicts(pair, period).theta)
        assert abs(res.predicted - want) < 1e-12

    def test_optimized_basis_at_a_chaotic_second_order(self):
        # --psi 0.3: U^2 is chaotic, yet U's own optimal basis predicted 0.892
        # bits at period 2
        psi = 0.3 * PI
        pair = EigenphasePair(TWO_PI - psi, psi)
        assert order_verdicts(pair, 2).codes == CHAOTIC
        res = entropy_rate_experiment(pair, "optimized", 20000, 4, seed=5, period=2)
        assert res.predicted == pytest.approx(1.0, abs=1e-12)
        assert res.abs_diff < 0.01

    def test_rates_are_python_floats(self):
        res = entropy_rate_experiment(EigenphasePair(0.3, 2.1), "x", 30000, 4, 1)
        assert [type(v) for v in res] == [float, float, float]

    def test_numpy_integer_arguments_are_taken_by_value(self):
        pair = EigenphasePair(0.3, 1.7)
        want = entropy_rate_experiment(pair, "x", 100000, 8, seed=1, period=3)
        for kind in NUMPY_INTEGERS:
            assert entropy_rate_experiment(pair, "x", 100000, kind(8), seed=1,
                                           period=kind(3)) == want
        assert entropy_rate_experiment(pair, "x", np.uint64(100000), 8, seed=1,
                                       period=3) == want

    @pytest.mark.parametrize("basis", ["z", "x_basis", "X"])
    def test_rejects_unknown_basis(self, basis):
        with pytest.raises(ValueError, match="basis must be one of computational, x, optimized"):
            entropy_rate_experiment(EigenphasePair(0.0, PI), basis, 1000, 2, seed=0)

    @pytest.mark.parametrize("basis", ["computational", "x", "optimized"])
    def test_short_run_has_no_estimate(self, basis):
        """Below 100 * 2^L steps the outcomes are sampled and written and the
        rate predicted, but there is no block estimate and so no difference."""
        pair, short_out, full_out = EigenphasePair(0.3, 2.1), io.BytesIO(), io.BytesIO()
        short = entropy_rate_experiment(pair, basis, 100 * 2 ** 4 - 1, 4, seed=3, period=2,
                                        out=short_out)
        full = entropy_rate_experiment(pair, basis, 100 * 2 ** 4, 4, seed=3, period=2,
                                       out=full_out)
        assert short.empirical is None and short.abs_diff is None
        assert short.predicted == full.predicted
        stream = full_out.getvalue()
        assert len(stream) == 100 * 2 ** 4
        assert short_out.getvalue() == stream[:-1]
        assert full.abs_diff == abs(full.empirical - full.predicted)


"""Entropy primitives, transition matrices and the variational optimizer."""

import hashlib
import math
from itertools import repeat

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

from qchaos import (
    EigenphasePair,
    eigenphases_of,
    PvmBasis,
    TWO_PI,
    basis_from_angles,
    eta,
    markov_entropy_rate,
    pvm_entropy_optimize,
    order_verdicts,
    qubit_entropy_closed,
    transition_matrix,
)
from qchaos.entropy import (
    _NM_BLOCK,
    _NM_FATOL,
    _NM_XATOL,
    _nelder_mead,
    _neg_rates,
    qubit_entropy_of_theta,
)
from qchaos.phases import unitary_power
from qchaos.rng import stream_generator
from helpers import (
    random_orthonormal_basis,
    random_unitary,
    reference_basis,
    reference_entropy_of_theta,
    reference_neg_rate,
)

PI = math.pi

# Binary entropy of 1/4 in bits: -(3/4)log2(3/4) - (1/4)log2(1/4).
# This is the closed-form entropy at theta = pi/3 and the rate of the
# {3/4, 1/4} chain; frozen from direct evaluation of the formula.
H_QUARTER = 0.8112781244591328


class TestEta:
    def test_half(self):
        assert eta(0.5) == 0.5

    def test_zero_exactly(self):
        assert eta(0.0) == 0.0

    def test_quarter(self):
        assert eta(0.25) == pytest.approx(0.5, abs=1e-15)

    def test_clamps_rounding_noise(self):
        assert eta(-1e-13) == 0.0
        assert eta(1.0 + 1e-13) == 0.0
        assert eta(np.array([-1e-13, 1.0 + 1e-13])).tolist() == [0.0, 0.0]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            eta(-1e-6)
        with pytest.raises(ValueError):
            eta(1.001)
        with pytest.raises(ValueError, match="got 1.001"):
            eta(np.array([0.5, 1.001]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="got nan"):
            eta(math.nan)
        with pytest.raises(ValueError, match="got nan"):
            eta(np.array([0.5, math.nan]))

    @settings(max_examples=300, deadline=None)
    @given(xs=st.lists(st.floats(0.0, 1.0), max_size=40))
    @example(xs=[0.0, 5e-324, 0.25, 0.5, 1.0])
    def test_array_equals_the_scalar_formula(self, xs):
        got = eta(np.array(xs, dtype=float)).tolist()
        want = [0.0 if x == 0.0 else -x * math.log(x) / math.log(2) for x in xs]
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_concavity_on_grid(self):
        xs = np.linspace(0.0, 1.0, 101)
        for x in xs:
            for y in xs:
                mid = eta((x + y) / 2)
                assert mid >= (eta(x) + eta(y)) / 2 - 1e-12


class TestTheta:
    @pytest.mark.parametrize("phi,psi,want", [
        (0.0, PI, PI),
        (PI / 4, 7 * PI / 4, PI / 2),   # wraps: 2*pi - 3*pi/2
        (PI / 32, 17 * PI / 32, PI / 2),
    ])
    def test_examples(self, phi, psi, want):
        assert order_verdicts(EigenphasePair(phi, psi)).theta == pytest.approx(want, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, TWO_PI, exclude_max=True), st.floats(0.0, TWO_PI, exclude_max=True))
    def test_is_the_kernel_theta_bit_for_bit(self, phi, psi):
        # the kernel's theta at K = 1 equals the direct formula exactly
        d = abs(phi - psi)
        assert order_verdicts(EigenphasePair(phi, psi)).theta == min(d, TWO_PI - d)

    def test_consistent_with_trace_magnitude(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = order_verdicts(EigenphasePair(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)))
            assert 0.0 <= v.theta <= PI
            assert 2.0 * math.cos(v.theta / 2) == pytest.approx(v.trace_mag, abs=1e-12)


class TestQubitEntropyClosed:
    def test_theta_pi_is_maximal(self):
        assert qubit_entropy_closed(EigenphasePair(0.0, PI)) == 1.0

    def test_theta_zero(self):
        assert qubit_entropy_closed(EigenphasePair(0.0, 0.0)) == 0.0

    def test_theta_pi_third(self):
        res = qubit_entropy_closed(EigenphasePair(0.0, PI / 3))
        assert res == pytest.approx(H_QUARTER, abs=1e-12)

    def test_value_range(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            pair = EigenphasePair(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
            v = qubit_entropy_closed(pair)
            assert 0.0 <= v <= 1.0


class TestArrayClosedForm:
    """The array kernel against the scalar formula, bit for bit: np.log and
    x * x would each change some entries."""

    @settings(max_examples=300, deadline=None)
    @given(thetas=st.lists(st.floats(0.0, PI), max_size=40))
    @example(thetas=[0.0])
    @example(thetas=[5e-324])
    @example(thetas=[PI / 2 - 1e-16])
    @example(thetas=[math.nextafter(PI / 2, 0.0)])
    @example(thetas=[0.0, 5e-324, 1e-8, PI / 2 - 1e-16, math.nextafter(PI / 2, 0.0), PI / 2])
    def test_equals_the_scalar_oracle(self, thetas):
        got = qubit_entropy_of_theta(np.array(thetas, dtype=float))
        want = np.array([reference_entropy_of_theta(t) for t in thetas], dtype=float)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_dense_sample_and_the_closed_form_of_a_pair(self):
        theta = np.random.default_rng(17).uniform(0.0, PI / 2, 20_000)
        want = np.array(list(map(reference_entropy_of_theta, theta.tolist())))
        assert np.array_equal(qubit_entropy_of_theta(theta).view(np.int64), want.view(np.int64))
        pair = EigenphasePair(0.0, 0.7)
        assert qubit_entropy_closed(pair) == reference_entropy_of_theta(0.7)


class TestPvmBasis:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            PvmBasis(np.array([[1.0, 0.1], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="orthonormal"):
            PvmBasis(np.full((2, 2), np.nan))

    def test_x_basis_columns(self):
        b = PvmBasis.x_basis()
        s = 1 / math.sqrt(2)
        assert np.allclose(b.vectors[:, 0], [s, s])
        assert np.allclose(b.vectors[:, 1], [s, -s])


class TestTransitionMatrix:
    def test_diagonal_unitary_computational_basis(self):
        p = transition_matrix(np.diag([1.0, 1j]), PvmBasis.computational(2))
        assert np.allclose(p, np.eye(2), atol=1e-15)

    def test_diag_1_i_in_x_basis(self):
        # |<pm| Diag(1, i) |pm>|^2 = |1 +- i|^2 / 4 = 1/2 for every entry
        p = transition_matrix(np.diag([1.0, 1j]), PvmBasis.x_basis())
        assert np.allclose(p, 0.5, atol=1e-15)

    def test_pauli_x_is_swap(self):
        p = transition_matrix(np.array([[0, 1], [1, 0]], dtype=complex),
                              PvmBasis.computational(2))
        assert np.allclose(p, [[0, 1], [1, 0]], atol=1e-15)

    def test_orientation_is_row_from_column_to(self):
        # U|0> = |0>, U|1> -> |0> would break unitarity; use a rotation instead:
        # P[i, j] must be |<phi_j|U|phi_i>|^2, so a rotation by small angle from
        # |0> mostly stays at 0: P[0,0] close to 1.
        t = 0.1
        u = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]],
                     dtype=complex)
        p = transition_matrix(u, PvmBasis.computational(2))
        assert p[0, 0] == pytest.approx(math.cos(t) ** 2, abs=1e-15)
        assert p[0, 1] == pytest.approx(math.sin(t) ** 2, abs=1e-15)

    def test_doubly_stochastic_for_random_inputs(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            u = random_unitary(rng)
            b = PvmBasis(random_orthonormal_basis(rng))
            p = transition_matrix(u, b)
            assert np.max(np.abs(p.sum(axis=0) - 1.0)) <= 1e-10
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            transition_matrix(np.eye(3), PvmBasis.computational(2))


class TestMarkovEntropyRate:
    def test_identity_chain(self):
        assert markov_entropy_rate(np.eye(2)) == 0.0

    def test_uniform_chain(self):
        assert markov_entropy_rate(np.full((2, 2), 0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_three_quarter_chain(self):
        p = np.array([[0.75, 0.25], [0.25, 0.75]])
        assert markov_entropy_rate(p) == pytest.approx(H_QUARTER, abs=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        u = random_unitary(rng)
        p = transition_matrix(u, PvmBasis.x_basis())
        perm = np.array([[0, 1], [1, 0]], dtype=float)
        assert markov_entropy_rate(perm @ p @ perm.T) == pytest.approx(
            markov_entropy_rate(p), abs=1e-15)

    def test_rejects_non_doubly_stochastic(self):
        with pytest.raises(ValueError, match="doubly stochastic"):
            markov_entropy_rate(np.array([[0.9, 0.1], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="doubly stochastic"):
            markov_entropy_rate(np.full((2, 2), np.nan))

    def test_x_basis_chain_equals_closed_form_below_pi_half(self):
        # consequence of the transition entries {cos^2(theta/2), sin^2(theta/2)}
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 50:
            pair = EigenphasePair(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
            if order_verdicts(pair).theta > PI / 2:
                continue
            u = unitary_power(pair)
            rate = markov_entropy_rate(transition_matrix(u, PvmBasis.x_basis()))
            assert rate == pytest.approx(qubit_entropy_closed(pair), abs=1e-9)
            checked += 1


class TestOptimizer:
    @pytest.mark.parametrize("field", ["restarts", "max_iters"])
    def test_options_reject_counts_below_one(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            pvm_entropy_optimize(np.eye(2), **{field: 0})

    def test_identity_gives_zero(self):
        res = pvm_entropy_optimize(np.eye(2), restarts=4)
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_theta_pi_reaches_one_bit(self):
        res = pvm_entropy_optimize(np.diag([1.0, -1.0]), restarts=8)
        assert res.value == pytest.approx(1.0, abs=1e-3)

    def test_theta_pi_third_matches_closed_form(self):
        u = np.diag([1.0, np.exp(1j * PI / 3)])
        res = pvm_entropy_optimize(u, restarts=8)
        assert res.value == pytest.approx(H_QUARTER, abs=1e-3)

    def test_matches_closed_form_on_random_unitaries(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            u = random_unitary(rng)
            pair, _ = eigenphases_of(u)
            res = pvm_entropy_optimize(u, restarts=16, seed=5)
            assert abs(res.value - qubit_entropy_closed(pair)) <= 1e-3

    def test_monotone_in_restarts(self):
        u = random_unitary(np.random.default_rng(55))
        values = [pvm_entropy_optimize(u, restarts=r, seed=9).value
                  for r in (1, 2, 4, 8)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-15

    def test_dominates_sampled_bases(self):
        rng = np.random.default_rng(77)
        for d, restarts in [(2, 8), (3, 12)]:
            u = random_unitary(rng, d)
            best = pvm_entropy_optimize(u, restarts=restarts, seed=1)
            for _ in range(5):
                b = PvmBasis(random_orthonormal_basis(rng, d))
                sampled = markov_entropy_rate(transition_matrix(u, b))
                assert best.value >= sampled - 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_optimal_basis_achieves_reported_value(self, d):
        u = random_unitary(np.random.default_rng(13), d)
        res = pvm_entropy_optimize(u, restarts=8)
        achieved = markov_entropy_rate(transition_matrix(u, res.optimal_basis))
        assert achieved == pytest.approx(res.value, abs=1e-9)

    def test_rejects_unsupported_dimension(self):
        with pytest.raises(ValueError, match="unsupported dimension"):
            pvm_entropy_optimize(np.eye(4))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            pvm_entropy_optimize(np.array([[1.0, 0.0], [0.0, 1.2]]))


def restart_starts(seed, restarts, d):
    """The start points pvm_entropy_optimize draws for restarts 0..restarts-1."""
    return [stream_generator(seed, r).uniform(0.0, TWO_PI, d * (d - 1))
            for r in range(restarts)]


class TestNelderMead:
    """_nelder_mead repeats scipy's Nelder-Mead bit for bit on every row of a batch."""

    def assert_matches_scipy(self, u, starts):
        """Runs all starts as one batch per cap; returns the nit of the cap-2000 batch."""
        for cap in (1, 2, 300, 2000):
            fun, x, nfev, nit = _nelder_mead(_neg_rates(u), np.array(starts),
                                             1e-10, 1e-12, cap)
            for r, x0 in enumerate(starts):
                ref = scipy.optimize.minimize(
                    reference_neg_rate(u), x0, method="Nelder-Mead",
                    options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": cap})
                assert ((float(fun[r]).hex(), [v.hex() for v in x[r].tolist()],
                         int(nfev[r]), int(nit[r]))
                        == (float(ref.fun).hex(), [v.hex() for v in ref.x.tolist()],
                            ref.nfev, ref.nit))
        return nit.tolist()

    @settings(max_examples=25, deadline=None)
    @given(phi=st.floats(0.0, TWO_PI), psi=st.floats(0.0, TWO_PI),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_d2_random_pairs(self, phi, psi, seed):
        u = unitary_power(EigenphasePair(phi, psi))
        self.assert_matches_scipy(u, restart_starts(seed, 2, 2))

    def test_golden_theta_pi_third(self):
        # the optimize_theta_pi3 golden case: --phi 0 --psi 1/3 --restarts 8 --seed 1;
        # its restarts stop at different iterations, so rows leave the batch apart
        u = unitary_power(EigenphasePair(0.0, PI / 3))
        nits = self.assert_matches_scipy(u, restart_starts(1, 8, 2))
        assert len(set(nits)) > 1 and max(nits) < 2000

    @pytest.mark.parametrize("u", [np.diag([1.0, -1.0]), np.eye(2)],
                             ids=["theta-pi-plateau", "identity"])
    def test_d2_ties(self, u):
        self.assert_matches_scipy(u, restart_starts(0, 8, 2))

    def test_d3_identity_ties(self):
        # every basis gives rate 0 exactly, so each simplex is all ties
        self.assert_matches_scipy(np.eye(3), restart_starts(0, 3, 3))

    @pytest.mark.parametrize("seed", [3, 17, 29, 41])
    def test_d3_haar(self, seed):
        u = random_unitary(np.random.default_rng(seed), 3)
        nits = self.assert_matches_scipy(u, restart_starts(seed, 4, 3))
        assert len(set(nits)) > 1

    def test_blocks_equal_per_block_runs(self):
        # 2 * _NM_BLOCK + 3 restarts run as three blocks; each row's result is
        # the same as in one batch over all starts and in a run of its own block
        u = random_unitary(np.random.default_rng(5), 2)
        restarts = 2 * _NM_BLOCK + 3
        starts = np.array(restart_starts(11, restarts, 2))
        obj = _neg_rates(u)
        whole = _nelder_mead(obj, starts, _NM_XATOL, _NM_FATOL, 80)
        blocks = [_nelder_mead(obj, starts[lo:lo + _NM_BLOCK], _NM_XATOL, _NM_FATOL, 80)
                  for lo in range(0, restarts, _NM_BLOCK)]
        assert [len(b[0]) for b in blocks] == [_NM_BLOCK, _NM_BLOCK, 3]
        for got, want in zip(map(np.concatenate, zip(*blocks)), whole):
            assert np.array_equal(got, want)
        assert len(set(whole[3].tolist())) > 1  # some rows converged before the cap
        first_best = int(np.argmin(whole[0]))  # the earliest restart wins ties
        res = pvm_entropy_optimize(u, restarts, max_iters=80, seed=11)
        assert res.value == min(-whole[0][first_best], 1.0)
        assert np.array_equal(res.optimal_basis.vectors,
                              basis_from_angles(2, whole[1][first_best]).vectors)


# float.hex of each case's value, and a sha256 prefix of the float.hex strings
# of its basis entries, from the scalar Nelder-Mead that ran one restart at a
# time; the lock-step batch must reproduce them bit for bit.  The basis is the
# V the objective rated at the best angles, entry for entry: another rounding
# of V hashes differently, and another rounding inside the objective ends some
# d = 3 restarts at other optima of the same value.
PINNED_OPTIMA = {
    "d2-golden-r1": ("0x1.9f5fd8a9063e6p-1", "33347d155ef97138"),
    "d2-golden-r8": ("0x1.9f5fd8a9063e6p-1", "33347d155ef97138"),
    "d2-golden-r256": ("0x1.9f5fd8a9063e7p-1", "7186c331aea1c431"),
    "d2-identity-r1": ("0x1.71547652b82fdp-51", "ff81e80fb2754413"),
    "d2-identity-r8": ("0x1.14ff58be0a23dp-50", "08233f31ad18a2b6"),
    "d2-identity-r256": ("0x1.71547652b82fbp-50", "922b286c1e7a1b9e"),
    "d2-diag-1-m1-r1": ("0x1.0000000000000p+0", "1224b5b5024017b2"),
    "d2-diag-1-m1-r8": ("0x1.0000000000000p+0", "1224b5b5024017b2"),
    "d2-diag-1-m1-r256": ("0x1.0000000000000p+0", "ac150026c74bba83"),
    "d2-haar2-r1": ("0x1.eb95d9c6878a4p-1", "a95abc19264ff637"),
    "d2-haar2-r8": ("0x1.eb95d9c6878a4p-1", "a95abc19264ff637"),
    "d2-haar2-r256": ("0x1.eb95d9c6878a4p-1", "a95abc19264ff637"),
    "d2-haar17-r1": ("0x1.0000000000000p+0", "a53629e576c1ac8f"),
    "d2-haar17-r8": ("0x1.0000000000000p+0", "a53629e576c1ac8f"),
    "d2-haar17-r256": ("0x1.0000000000000p+0", "1b291f2ba1d19ddf"),
    "d2-haar36-r1": ("0x1.c78fc4078442bp-1", "ba65023d68698050"),
    "d2-haar36-r8": ("0x1.c78fc4078442bp-1", "ba65023d68698050"),
    "d2-haar36-r256": ("0x1.c78fc4078442cp-1", "c2922151e72dd2b9"),
    "d3-haar3-48x300": ("0x1.95c01a39fbd68p+0", "5dfb9abf40dc1de1"),
    "d3-haar3-32x2000": ("0x1.95c01a39fbd68p+0", "31561a5994e6d851"),
    "d3-haar17-48x300": ("0x1.95c01a39fbd68p+0", "5bfcd79637530b51"),
    "d3-haar17-32x2000": ("0x1.95c01a39fbd68p+0", "5bfcd79637530b51"),
    "d3-haar29-48x300": ("0x1.95c01a39fbd68p+0", "67aea318bb82c018"),
    "d3-haar29-32x2000": ("0x1.95c01a39fbd68p+0", "5ab5ad724a81a3c4"),
}


def pinned_case(name):
    """The unitary, restarts, max_iters and seed of a PINNED_OPTIMA case."""
    d, rest = name.split("-", 1)
    kind, shape = rest.rsplit("-", 1)
    if kind.startswith("haar"):
        u = random_unitary(np.random.default_rng(int(kind[4:])), int(d[1]))
    else:
        u = {"golden": unitary_power(EigenphasePair(0.0, PI / 3)),
             "identity": np.eye(2), "diag-1-m1": np.diag([1.0, -1.0])}[kind]
    if d == "d2":
        return u, int(shape[1:]), 2000, 7
    restarts, iters = map(int, shape.split("x"))
    return u, restarts, iters, int(kind[4:])


class TestPinnedOptima:
    @pytest.mark.parametrize("name", sorted(PINNED_OPTIMA))
    def test_value_and_basis_bits(self, name):
        res = pvm_entropy_optimize(*pinned_case(name))
        basis = " ".join(float(p).hex() for z in res.optimal_basis.vectors.ravel().tolist()
                         for p in (z.real, z.imag))
        assert (res.value.hex(), hashlib.sha256(basis.encode()).hexdigest()[:16]) == \
            PINNED_OPTIMA[name]


ANGLES = st.one_of(st.floats(-50.0, 50.0),
                   st.sampled_from([0.0, PI / 2, -PI / 2, PI, TWO_PI, -0.0, 5e-324, 1e300]))
QUBIT_UNITARIES = st.one_of(
    st.integers(0, 2 ** 32 - 1).map(lambda s: random_unitary(np.random.default_rng(s))),
    st.tuples(st.floats(0.0, TWO_PI), st.floats(0.0, TWO_PI)).map(
        lambda ab: np.diag(np.exp(1j * np.array(ab)))),
    st.sampled_from([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]),
                     np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)]))


QUTRIT_UNITARIES = st.one_of(
    st.integers(0, 2 ** 32 - 1).map(lambda s: random_unitary(np.random.default_rng(s), 3)),
    st.tuples(st.floats(0.0, TWO_PI), st.floats(0.0, TWO_PI), st.floats(0.0, TWO_PI)).map(
        lambda abc: np.diag(np.exp(1j * np.array(abc)))),
    st.permutations(range(3)).map(lambda perm: np.eye(3)[list(perm)]))
UNITARIES = {2: QUBIT_UNITARIES, 3: QUTRIT_UNITARIES}


class TestObjective:
    """The array objective against its scalar oracle, for d = 2 and d = 3."""

    @pytest.mark.parametrize("d", [2, 3])
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_matches_public_rate(self, d, seed, data):
        angles = data.draw(st.lists(st.floats(-20.0, 20.0), min_size=d * (d - 1),
                                    max_size=d * (d - 1)))
        u = random_unitary(np.random.default_rng(seed), d)
        ref = -markov_entropy_rate(transition_matrix(u, basis_from_angles(d, angles)))
        assert abs(_neg_rates(u)(np.array([angles]))[0] - ref) <= 1e-13

    @pytest.mark.parametrize("d", [2, 3])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_array_objective_equals_scalar_closure(self, d, data):
        u = data.draw(UNITARIES[d])
        points = data.draw(st.lists(st.tuples(*[ANGLES] * (d * (d - 1))),
                                    min_size=1, max_size=40))
        got = _neg_rates(u)(np.array(points, dtype=float)).tolist()
        want = list(map(reference_neg_rate(u), points))
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("u", [
        random_unitary(np.random.default_rng(1)), np.diag([1.0, np.exp(0.7j)]), np.eye(2),
        np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),
        random_unitary(np.random.default_rng(1), 3), np.diag(np.exp([0.0, 0.7j, 2.1j])),
        np.eye(3)[[2, 0, 1]],
    ], ids=["d2-haar", "d2-diagonal", "d2-identity", "d2-pauli-x", "d2-hadamard",
            "d3-haar", "d3-diagonal", "d3-permutation"])
    def test_equals_scalar_closure_on_dense_angles(self, u):
        # x * x and np.log differ from libm's pow and log in about 0.1 % of
        # inputs: a dense sample shows either
        d = u.shape[0]
        x = np.random.default_rng(0).uniform(-50.0, 50.0, ({2: 20_000, 3: 5_000}[d], d * (d - 1)))
        got = _neg_rates(u)(x)
        want = np.array(list(map(reference_neg_rate(u), x.tolist())))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestBasisFromAngles:
    """The reported basis is the V the objective rates, bit for bit."""

    @pytest.mark.parametrize("d", [2, 3])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_is_the_rated_v(self, d, data):
        x = data.draw(st.lists(ANGLES, min_size=d * (d - 1), max_size=d * (d - 1)))
        got = basis_from_angles(d, x).vectors
        want = np.array(reference_basis(d, x))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def scalar_eta(x: float) -> float:
    """-x * log2(x) one Python float at a time, clamped into [0, 1] first."""
    x = min(max(x, 0.0), 1.0)
    return 0.0 if x == 0.0 else -x * math.log(x) / math.log(2.0)


class TestOneEtaKernel:
    """The closed form and the chain rate, both on ``eta``, against the
    formulas each once wrote out for itself, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(thetas=st.lists(st.floats(0.0, PI), max_size=40))
    @example(thetas=[0.0, 5e-324, 1e-8, math.nextafter(PI / 2, 0.0), PI / 2, PI])
    def test_closed_form(self, thetas):
        theta = np.array(thetas, dtype=float)
        low = theta < PI / 2
        c = np.fromiter(map(pow, map(math.cos, (0.5 * theta[low]).tolist()), repeat(2.0)), float)
        p = np.stack([c, 1.0 - c])
        terms, pos = np.zeros_like(p), p > 0.0
        terms[pos] = -p[pos] * np.fromiter(map(math.log, p[pos].tolist()), float) / math.log(2.0)
        want = np.ones(theta.shape)
        want[low] = terms[0] + terms[1]
        assert np.array_equal(qubit_entropy_of_theta(theta).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("d", [2, 3])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), computational=st.booleans())
    def test_chain_rate(self, d, data, seed, computational):
        u = data.draw(UNITARIES[d])
        basis = (PvmBasis.computational(d) if computational else
                 PvmBasis(random_orthonormal_basis(np.random.default_rng(seed), d)))
        p = transition_matrix(u, basis)
        want = min(sum(map(scalar_eta, p.ravel().tolist())) / d, math.log2(d))
        assert markov_entropy_rate(p).hex() == want.hex()

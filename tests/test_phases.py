"""Eigenphase pair and rational phase behavior."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from qchaos import (
    EigenphasePair,
    ExactUnitarySpec,
    RationalPhase,
    TWO_PI,
    UNITARY_TOL,
    eigenphases_of,
    mod_2pi,
    order_verdicts,
    rational_phase_order,
)

from qchaos.phases import unitary_power

from helpers import circular_distance, make_su2_from_psi, power_eigenphases, random_unitary

PI = math.pi


class TestMod2Pi:
    def test_reduces_into_range(self):
        for x in [-7.0, -1e-9, 0.0, 1.0, TWO_PI, TWO_PI + 1e-9, 1e9]:
            r = mod_2pi(x)
            assert 0.0 <= r < TWO_PI

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            mod_2pi(float("nan"))
        with pytest.raises(ValueError):
            mod_2pi(float("inf"))


class TestMakeSu2FromPsi:
    def test_pi_half(self):
        pair = make_su2_from_psi(PI / 2)
        assert pair.phi == pytest.approx(3 * PI / 2, abs=1e-15)
        assert pair.psi == pytest.approx(PI / 2, abs=1e-15)

    def test_zero(self):
        pair = make_su2_from_psi(0.0)
        assert (pair.phi, pair.psi) == (0.0, 0.0)

    def test_pi_quarter(self):
        pair = make_su2_from_psi(PI / 4)
        assert pair.phi == pytest.approx(7 * PI / 4, abs=1e-15)

    def test_unimodular_invariant_1000_samples(self):
        rng = np.random.default_rng(11)
        for psi in rng.uniform(-10 * PI, 10 * PI, 1000):
            pair = make_su2_from_psi(psi)
            assert circular_distance(pair.phi + pair.psi, 0.0) <= 1e-12  # det = 1
            assert 0.0 <= pair.phi < TWO_PI and 0.0 <= pair.psi < TWO_PI


class TestEigenphasePair:
    def test_constructor_reduces(self):
        pair = EigenphasePair(5 * PI / 2, -PI / 2)
        assert pair.phi == pytest.approx(PI / 2)
        assert pair.psi == pytest.approx(3 * PI / 2)


class TestEigenphasesOf:
    def test_identity(self):
        pair, v = eigenphases_of(np.eye(2))
        assert (pair.phi, pair.psi) == (0.0, 0.0)
        assert np.allclose(v.conj().T @ v, np.eye(2))

    def test_pauli_x_against_eig_oracle(self):
        # independent oracle: np.linalg.eig on the same matrix
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        oracle_phases = sorted(np.angle(np.linalg.eig(x)[0]) % TWO_PI)
        pair, v = eigenphases_of(x)
        assert sorted([pair.phi, pair.psi]) == pytest.approx(oracle_phases, abs=1e-12)
        assert sorted([pair.phi, pair.psi]) == pytest.approx([0.0, PI], abs=1e-12)
        # eigenvectors proportional to (1, 1) and (1, -1)
        for j in range(2):
            col = v[:, j]
            lead = col[np.argmax(np.abs(col))]
            col = col / lead
            assert np.allclose(np.abs(col), [1, 1], atol=1e-10)
            assert abs(abs(col[0] * col[1].conjugate()) - 1.0) < 1e-10

    def test_diagonal_input_keeps_computational_basis(self):
        u = np.diag(np.exp(1j * np.array([PI / 4, 5 * PI / 4])))
        pair, v = eigenphases_of(u)
        assert pair.phi == pytest.approx(PI / 4, abs=1e-15)
        assert pair.psi == pytest.approx(5 * PI / 4, abs=1e-15)
        assert np.array_equal(v, np.eye(2))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            eigenphases_of(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_round_trip_1000_random_unitaries(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            u = random_unitary(rng)
            pair, v = eigenphases_of(u)
            rebuilt = v @ np.diag(np.exp(1j * np.array([pair.phi, pair.psi]))) @ v.conj().T
            assert np.max(np.abs(rebuilt - u)) <= 1e-10


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _rotation(seed, a, t, polar, azimuth):
    """e^{ia} V exp(-i t n.sigma) V^dag with a Haar-ish V drawn from seed."""
    n = (math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth),
         math.cos(polar))
    w = math.cos(t) * np.eye(2) - 1j * math.sin(t) * np.tensordot(n, _PAULI, 1)
    v = random_unitary(np.random.default_rng(seed))
    return np.exp(1j * a) * v @ w @ v.conj().T


_seeds = st.integers(0, 2 ** 32 - 1)
_haar = st.builds(lambda seed: random_unitary(np.random.default_rng(seed)), _seeds)
_near_degenerate = st.builds(
    _rotation, _seeds, st.floats(0.0, TWO_PI), st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e),
    st.floats(0.0, PI), st.floats(0.0, TWO_PI))


class TestClosedFormAgainstSchur:
    """The axis-angle eigendecomposition against scipy's complex Schur form."""

    @settings(max_examples=500, deadline=None)
    @given(u=st.one_of(_haar, _near_degenerate))
    def test_matches_schur(self, u):
        assume(max(abs(u[0, 1]), abs(u[1, 0])) > UNITARY_TOL)  # not the diagonal branch
        pair, v = eigenphases_of(u)
        t, _ = scipy.linalg.schur(u, output="complex")
        want = np.angle(np.diag(t))
        for got in ([pair.phi, pair.psi], [pair.psi, pair.phi]):
            if max(map(circular_distance, got, want)) <= 1e-14:
                break
        else:
            pytest.fail(f"eigenphases {pair} differ from Schur's {want}")
        rebuilt = v @ np.diag(np.exp(1j * np.array([pair.phi, pair.psi]))) @ v.conj().T
        assert np.max(np.abs(rebuilt - u)) <= 1e-14
        assert np.max(np.abs(v.conj().T @ v - np.eye(2))) <= 1e-14


class TestRationalPhase:
    def test_normalization(self):
        ph = RationalPhase(5, 4)  # already in [0, 2)
        assert (ph.m, ph.p) == (5, 4)
        assert (RationalPhase(9, 4).m, RationalPhase(9, 4).p) == (1, 4)  # mod 2pi
        assert (RationalPhase(-1, 4).m, RationalPhase(-1, 4).p) == (7, 4)
        assert (RationalPhase(2, 4).m, RationalPhase(2, 4).p) == (1, 2)  # reduced
        assert (RationalPhase(0, 9).m, RationalPhase(0, 9).p) == (0, 1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            RationalPhase(1, 0)
        for m, p in ((1.5, 2), (True, 2), (1, True), (np.bool_(True), 2)):
            with pytest.raises(ValueError, match="rational phase (numerator|denominator) must be an integer"):
                RationalPhase(m, p)  # type: ignore[arg-type]

    def test_numpy_integers_are_their_python_values(self):
        ph = RationalPhase(np.int64(3), np.int32(-4))
        assert (ph.m, ph.p) == (5, 4) and type(ph.m) is type(ph.p) is int
        assert ph == RationalPhase(3, -4)

    @settings(max_examples=300, deadline=None)
    @given(m1=st.integers(-500, 500), p1=st.integers(-60, 60).filter(bool),
           m2=st.integers(-500, 500), p2=st.integers(-60, 60).filter(bool))
    def test_sum_is_the_fraction_sum_mod_two(self, m1, p1, m2, p2):
        got = RationalPhase(m1, p1) + RationalPhase(m2, p2)
        want = (Fraction(m1, p1) + Fraction(m2, p2)) % 2
        assert (got.m, got.p) == (want.numerator, want.denominator)

    @pytest.mark.parametrize("m,p,order", [(1, 4, 8), (1, 1, 2), (2, 3, 3), (0, 1, 1), (3, 2, 4)])
    def test_order(self, m, p, order):
        ph = RationalPhase(m, p)
        n = rational_phase_order(ph)
        assert n == order
        # minimality and exactness by integer arithmetic
        assert (n * ph.m) % (2 * ph.p) == 0
        for k in range(1, n):
            assert (k * ph.m) % (2 * ph.p) != 0


class TestPowerEigenphases:
    def test_order5_example(self):
        pair = EigenphasePair(3 * PI / 2, PI / 2)
        p5 = power_eigenphases(pair, 5)
        assert p5.phi == pytest.approx(3 * PI / 2, abs=1e-12)
        assert p5.psi == pytest.approx(PI / 2, abs=1e-12)

    def test_power_one_is_identity_map(self):
        pair = EigenphasePair(0.3, 5.1)
        assert power_eigenphases(pair, 1) == pair

    def test_pauli_square(self):
        p2 = power_eigenphases(EigenphasePair(0.0, PI), 2)
        assert (p2.phi, p2.psi) == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            power_eigenphases(EigenphasePair(0.0, 1.0), 0)

    def test_agrees_with_matrix_power(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            pair = EigenphasePair(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
            u = unitary_power(pair)
            for k in range(1, 65):
                pk = power_eigenphases(pair, k)
                mk_pair, _ = eigenphases_of(np.linalg.matrix_power(u, k))
                got = sorted([pk.phi, pk.psi])
                want = sorted([mk_pair.phi, mk_pair.psi])
                for g, w in zip(got, want):
                    assert circular_distance(g, w) <= 1e-9

    def test_large_k_precision(self):
        pair = EigenphasePair(0.123456789, 5.87654321)
        p = power_eigenphases(pair, 10 ** 6)
        # against exact integer-scaled reduction of the double inputs
        import fractions
        for got, base in [(p.phi, pair.phi), (p.psi, pair.psi)]:
            exact = float(fractions.Fraction(base) * 10 ** 6 % fractions.Fraction(TWO_PI))
            assert circular_distance(got, exact) <= 1e-9


class TestTraceMagnitude:
    def test_examples(self):
        assert order_verdicts(EigenphasePair(0.0, PI)).trace_mag == pytest.approx(0.0, abs=1e-15)
        assert order_verdicts(EigenphasePair(0.0, 0.0)).trace_mag == 2.0
        lucas = EigenphasePair(0.7416294238611398, 5.541555883318446)
        assert order_verdicts(lucas).trace_mag == pytest.approx(1.4747, abs=5e-4)

    def test_matches_matrix_trace_under_powers(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pair = EigenphasePair(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
            u = unitary_power(pair)
            m = np.eye(2, dtype=complex)
            for k in range(1, 33):
                m = m @ u  # repeated multiplication, not the phase shortcut
                tm = order_verdicts(power_eigenphases(pair, k)).trace_mag
                assert tm == pytest.approx(abs(np.trace(m)), abs=1e-9)


class TestPairMatrix:
    def test_from_pair_round_trip(self):
        back, _ = eigenphases_of(unitary_power(EigenphasePair(0.4, 2.8)))
        assert sorted([back.phi, back.psi]) == pytest.approx(sorted([0.4, 2.8]), abs=1e-12)


class TestExactUnitarySpec:
    @pytest.mark.parametrize("field", ["phase1", "phase2", "global_phase"])
    @pytest.mark.parametrize("value", [0.25 * PI, Fraction(1, 4), 1])
    def test_rejects_fields_that_are_not_rational_phases(self, field, value):
        kw = {"phase1": RationalPhase(1, 4), "phase2": RationalPhase(5, 4), field: value}
        with pytest.raises(ValueError, match=f"{field} must be an exact rational phase"):
            ExactUnitarySpec(**kw)

    def test_to_unitary_tracks_global_phase(self):
        # total phases pi/4 + pi/4 = pi/2 and pi/4 + 5*pi/4 = 3*pi/2
        spec = ExactUnitarySpec(RationalPhase(1, 4), RationalPhase(5, 4), RationalPhase(1, 4))
        assert np.allclose(spec.to_unitary(), np.diag([1j, -1j]), atol=1e-15)

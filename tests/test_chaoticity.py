"""Verdicts, order scans, exact idempotency, Kronecker-style order search."""

import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qchaos import (
    BOUNDARY_TOL,
    EigenphasePair,
    ExactUnitarySpec,
    IdempotencyCapError,
    RationalPhase,
    SQRT2,
    TWO_PI,
    VERDICT_LABELS,
    chaotic_order_fraction,
    chaoticity_scan,
    exact_theta_fraction,
    first_nonchaotic_order,
    boundary_half_width,
    idempotency_order,
    order_verdicts,
    projective_idempotency_order,
    QuadraticRecipe,
    quadratic_trace_sequence,
)

from qchaos import chaoticity
from qchaos.chaoticity import BOUNDARY, CHAOTIC, NON_CHAOTIC
from qchaos.simulate import _census_ends

from helpers import (joined_scan, make_su2_from_psi, power_eigenphases, reference_scan,
                     scan_columns)

PI = math.pi

PAULI_X_PHASES = EigenphasePair(0.0, PI)
LUCAS_T3 = QuadraticRecipe(-1, -1, 3).pair()
D4 = ExactUnitarySpec(RationalPhase(1, 4), RationalPhase(5, 4), RationalPhase(1, 4))
D8 = ExactUnitarySpec(RationalPhase(1, 32), RationalPhase(17, 32), RationalPhase(23, 32))


def same_verdict(a, b) -> bool:
    """Equal codes and bit-equal trace magnitudes."""
    return (a.codes.tolist() == b.codes.tolist()
            and a.trace_mag.tobytes() == b.trace_mag.tobytes())


class TestFirstOrderVerdict:
    def test_pauli_x_chaotic(self):
        v = order_verdicts(PAULI_X_PHASES)
        assert v.codes == CHAOTIC
        assert v.trace_mag == pytest.approx(0.0, abs=1e-15)

    def test_identity_non_chaotic(self):
        v = order_verdicts(EigenphasePair(0.0, 0.0))
        assert v.codes == NON_CHAOTIC
        assert v.trace_mag == 2.0

    def test_lucas_t3_non_chaotic(self):
        v = order_verdicts(LUCAS_T3)
        assert v.codes == NON_CHAOTIC
        assert v.trace_mag == pytest.approx(1.4747, abs=5e-4)

    def test_boundary_band(self):
        # a trace magnitude within BOUNDARY_TOL of sqrt(2) must not be classified
        theta = 2 * math.acos(SQRT2 / 2)  # exactly at the threshold
        v = order_verdicts(EigenphasePair(0.0, theta))
        assert v.codes == BOUNDARY
        assert abs(v.trace_mag - SQRT2) <= BOUNDARY_TOL

    def test_unimodular_equivalent_form(self):
        # for unimodular pairs the verdict reduces to |cos psi| <= 2^(-1/2)
        rng = np.random.default_rng(4)
        for psi in rng.uniform(0, TWO_PI, 300):
            code = order_verdicts(make_su2_from_psi(psi)).codes
            chaotic_by_cos = abs(math.cos(psi)) <= 2 ** -0.5
            if code == CHAOTIC:
                assert chaotic_by_cos
            elif code == NON_CHAOTIC:
                assert not chaotic_by_cos


class TestHigherOrderVerdict:
    def test_pauli_x_even_orders_idle(self):
        v = order_verdicts(PAULI_X_PHASES, 2)
        assert v.codes == NON_CHAOTIC
        assert v.trace_mag == pytest.approx(2.0, abs=1e-12)

    def test_pauli_x_odd_orders_chaotic(self):
        assert order_verdicts(PAULI_X_PHASES, 3).codes == CHAOTIC

    def test_order5_construction(self):
        pair = EigenphasePair(3 * PI / 2, PI / 2)
        assert order_verdicts(pair, 5).codes == CHAOTIC
        assert order_verdicts(power_eigenphases(pair, 5)).theta == pytest.approx(PI, abs=1e-12)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            order_verdicts(PAULI_X_PHASES, 0)
        with pytest.raises(ValueError):
            order_verdicts(D4, 0)

    def test_swap_and_global_phase_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            pair = EigenphasePair(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
            k = int(rng.integers(1, 20))
            v = order_verdicts(pair, k)
            assert order_verdicts(EigenphasePair(pair.psi, pair.phi), k).codes == v.codes
            # a global phase shifts both eigenphases equally and moves |tr|
            # only through the unimodular representative, which is unchanged
            shift = rng.uniform(0, TWO_PI)
            shifted = EigenphasePair(pair.phi + shift, pair.psi + shift)
            tm_shifted = order_verdicts(power_eigenphases(shifted, k)).trace_mag
            assert tm_shifted == pytest.approx(v.trace_mag, abs=1e-9)


class TestChaoticityScan:
    def test_pauli_x_scan(self):
        cols = scan_columns(joined_scan(chaoticity_scan(PAULI_X_PHASES, 4)))
        assert cols["verdict"] == ["chaotic", "non_chaotic", "chaotic", "non_chaotic"]
        assert cols["H"] == [1.0, 0.0, 1.0, 0.0]

    def test_d8_scan_exact(self):
        report = joined_scan(chaoticity_scan(D8, 8))
        assert report.theta[7] == 0.0
        assert report.entropy_bits[7] == 0.0
        assert report.trace_mag[7] == 2.0
        assert report.theta[0] == pytest.approx(PI / 2, abs=0)
        assert report.entropy_bits[0] == 1.0  # boundary branch of the closed form

    def test_identity_scan(self):
        report = joined_scan(chaoticity_scan(EigenphasePair(0.0, 0.0), 6))
        assert np.all(report.codes == NON_CHAOTIC)
        assert np.all(report.entropy_bits == 0.0)

    def test_rejects_zero_kmax(self):
        with pytest.raises(ValueError):
            chaoticity_scan(PAULI_X_PHASES, 0)

    @pytest.mark.parametrize("call", [
        lambda: chaoticity_scan(PAULI_X_PHASES, 8.0),
        lambda: chaoticity_scan(D4, 8.5),
        lambda: exact_theta_fraction(D4, 2.0),
        lambda: idempotency_order(D4, 1e6),
        lambda: projective_idempotency_order(D4, 1e6),
        lambda: first_nonchaotic_order(LUCAS_T3, 4.0),
        lambda: chaotic_order_fraction(LUCAS_T3, 100.0),
        lambda: order_verdicts(EigenphasePair(0.1, 0.2), 1.5),
        lambda: order_verdicts(D4, 1.5),
        lambda: order_verdicts(LUCAS_T3, np.array([1.0, 2.0])),
        lambda: order_verdicts(D4, np.array([3, Fraction(3, 2)], dtype=object)),
        lambda: chaoticity_scan(PAULI_X_PHASES, True),
        lambda: idempotency_order(D4, True),
        lambda: order_verdicts(D4, np.array([2, True], dtype=object)),
    ], ids=["scan", "scan-exact", "theta-fraction", "idempotency", "projective",
            "first-nonchaotic", "chaotic-fraction", "order-pair", "order-exact",
            "order-float-array", "order-object-array", "scan-bool", "idempotency-bool",
            "order-object-bool"])
    def test_counts_must_be_integers(self, call):
        # unchecked, k_max = 8.5 would scan the nine orders of np.arange(1, 9.5)
        with pytest.raises(ValueError, match="must be an integer"):
            call()

    def test_entropy_zero_iff_theta_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pair = EigenphasePair(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
            report = joined_scan(chaoticity_scan(pair, 16))
            for theta, h, code in zip(report.theta, report.entropy_bits, report.codes):
                assert (h == 0.0) == (theta == 0.0)
                if code == CHAOTIC and theta >= PI / 2:
                    assert abs(h - 1.0) <= 1e-12

    @pytest.mark.parametrize("source", [LUCAS_T3, D8, EigenphasePair(0.21 * PI, 1.79 * PI)],
                             ids=["quadratic", "exact", "float"])
    def test_blocks_are_the_whole_scan(self, source):
        """Consecutive blocks of at most _SCAN_CHUNK orders, equal bit for bit
        to the one-call scan of every order, on each side of a block's end."""
        chunk = chaoticity._SCAN_CHUNK
        for k_max in (1, 10, chunk - 1, chunk, chunk + 1, 2 * chunk + 5):
            blocks = list(chaoticity_scan(source, k_max))
            assert [b.k.size for b in blocks] == [
                min(chunk, k_max - lo) for lo in range(0, k_max, chunk)]
            got, want = joined_scan(blocks), reference_scan(source, k_max)
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_the_scan_is_taken_lazily(self, monkeypatch):
        seen = []

        def spy(source, ks=1):
            seen.append(int(np.size(ks)))
            return order_verdicts(source, ks)

        monkeypatch.setattr(chaoticity, "order_verdicts", spy)
        scan = chaoticity_scan(D4, 10 ** 9)
        assert seen == []
        assert next(scan).k.tolist() == list(range(1, chaoticity._SCAN_CHUNK + 1))
        assert seen == [chaoticity._SCAN_CHUNK]


class TestExactThetaFraction:
    def test_d4_theta_is_pi(self):
        assert exact_theta_fraction(D4, 1) == Fraction(1)
        assert order_verdicts(D4).theta == PI

    def test_d8_theta_is_half_pi(self):
        assert exact_theta_fraction(D8, 1) == Fraction(1, 2)

    def test_matches_float_path(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            spec = ExactUnitarySpec(RationalPhase(int(rng.integers(0, 64)), 32),
                                    RationalPhase(int(rng.integers(0, 64)), 32))
            k = int(rng.integers(1, 40))
            exact = order_verdicts(spec, k).theta
            floaty = order_verdicts(spec.pair(), k).theta
            assert exact == pytest.approx(floaty, abs=1e-9)


class TestIdempotency:
    def test_d4_strict_order(self):
        assert idempotency_order(D4) == 4

    def test_d8_strict_order(self):
        assert idempotency_order(D8) == 8  # the inner denominators' lcm, 32, overstates it

    def test_pauli_x_as_spec(self):
        spec = ExactUnitarySpec(RationalPhase(0, 1), RationalPhase(1, 1))
        assert idempotency_order(spec) == 2

    def test_minimality_by_brute_force(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            spec = ExactUnitarySpec(
                RationalPhase(int(rng.integers(0, 24)), int(rng.integers(1, 13))),
                RationalPhase(int(rng.integers(0, 24)), int(rng.integers(1, 13))),
                RationalPhase(int(rng.integers(0, 24)), int(rng.integers(1, 13))))
            n = idempotency_order(spec, n_cap=10 ** 9)
            totals = (spec.global_phase + ph for ph in (spec.phase1, spec.phase2))
            c1, c2 = (Fraction(ph.m, ph.p) for ph in totals)
            # U^m = I iff both total phases times m are even integers
            for m in range(1, min(n, 400)):
                assert not ((m * c1) % 2 == 0 and (m * c2) % 2 == 0)
            assert (n * c1) % 2 == 0 and (n * c2) % 2 == 0

    def test_cap_is_reported_not_truncated(self):
        spec = ExactUnitarySpec(RationalPhase(1, 9973), RationalPhase(1, 9967))
        with pytest.raises(IdempotencyCapError) as exc_info:
            idempotency_order(spec, n_cap=1000)
        assert exc_info.value.order > 1000

    def test_projective_variant_ignores_global(self):
        assert projective_idempotency_order(D4) == 2  # D4^2 = -I
        assert projective_idempotency_order(D8) == 4

    def test_large_prime_orders(self):
        # with m_i = 1 and distinct primes, the inner denominators say lcm(p1, p2)
        spec = ExactUnitarySpec(RationalPhase(1, 101), RationalPhase(1, 103))
        assert idempotency_order(spec) == 2 * 101 * 103  # strict order with zero global phase


class TestIdempotencyExcludesChaoticity:
    def test_verdict_at_multiples_of_order(self):
        rng = np.random.default_rng(61)
        specs = [D4, D8]
        for _ in range(20):
            specs.append(ExactUnitarySpec(
                RationalPhase(int(rng.integers(0, 40)), int(rng.integers(1, 21))),
                RationalPhase(int(rng.integers(0, 40)), int(rng.integers(1, 21))),
                RationalPhase(int(rng.integers(0, 40)), int(rng.integers(1, 21)))))
        for spec in specs:
            n = idempotency_order(spec, n_cap=10 ** 9)
            for k in (n, 2 * n):
                v = order_verdicts(spec, k)
                assert v.codes == NON_CHAOTIC
                assert v.trace_mag == 2.0  # exact, via the rational reduction
                assert exact_theta_fraction(spec, k) == 0


class TestFirstNonchaoticOrder:
    """No unitary has its first non-chaotic order above 4.

    Proof: with d = phi - psi, order K is non_chaotic iff K*d lies within pi/2
    of 0 mod 2*pi, beyond the boundary band.  If K = 1, 2, 3 all miss that, d
    lies in [pi/2, 3*pi/2]; 2*d confines it to [pi/2, 3*pi/4] u [5*pi/4, 3*pi/2],
    and 3*d to pi/2 or 3*pi/2, within the band.  So d = pi/2 (mod pi), 4*d = 0
    (mod 2*pi) and |tr U^4| = 2 to within a few band widths.  Exact specs need
    no band.  Hence ``first_nonchaotic_order`` evaluates only K = 1..min(4,
    k_bound) of the source.
    """

    def test_lucas_already_nonchaotic(self):
        assert first_nonchaotic_order(LUCAS_T3, 100) == 1

    def test_order5_pair_fails_at_two(self):
        # U^2 has phases (pi, pi): trace magnitude 2
        assert first_nonchaotic_order(EigenphasePair(3 * PI / 2, PI / 2), 100) == 2

    def test_chaotic_quadratic_pair_still_fails_somewhere(self):
        pair = QuadraticRecipe(-2, -101, 8).pair()
        assert order_verdicts(pair).codes == CHAOTIC
        k = first_nonchaotic_order(pair, 10 ** 4)
        assert k is not None
        assert order_verdicts(pair, k).codes == NON_CHAOTIC
        for j in range(1, k):
            assert order_verdicts(pair, j).codes != NON_CHAOTIC

    def test_none_when_not_found(self):
        # Pauli X only leaves the chaotic region at even orders; bound 1 sees none
        assert first_nonchaotic_order(PAULI_X_PHASES, 1) is None

    def test_rejects_zero_bound(self):
        with pytest.raises(ValueError):
            first_nonchaotic_order(LUCAS_T3, 0)


class TestChaoticFractionEquidistribution:
    def test_irrational_pairs_give_half(self):
        for seed, t in [((-1, -1), 3), ((-2, -101), 8), ((-3, -1), 3)]:
            pair = QuadraticRecipe(*seed, t).pair()
            frac = chaotic_order_fraction(pair, 10 ** 5)
            assert abs(frac - 0.5) <= 0.01

    def test_rational_pair_fraction_is_periodic_average(self):
        # psi = pi/2 spec: orders cycle with period 4 -> exactly half chaotic
        pair = EigenphasePair(3 * PI / 2, PI / 2)
        assert chaotic_order_fraction(pair, 10 ** 4) == pytest.approx(0.5, abs=1e-12)


class TestOrderVerdicts:
    def test_large_denominators_stay_exact(self):
        # 2 lcm(p1, p2) exceeds 2^31, so the residues are Python integers
        spec = ExactUnitarySpec(RationalPhase(3, 1_000_003), RationalPhase(5, 999_983))
        f1, f2 = (Fraction(ph.m, ph.p) for ph in (spec.phase1, spec.phase2))
        for k in (1, 12345, 10 ** 18 + 9, 10 ** 40 + 3):
            d = abs((k * f1) % 2 - (k * f2) % 2)
            tf = min(d, 2 - d)
            assert exact_theta_fraction(spec, k) == tf
            want = CHAOTIC if 2 * tf > 1 else NON_CHAOTIC
            assert order_verdicts(spec, k).codes == want  # K beyond int64: object arrays

    def test_exact_boundary_is_exactly_half_pi(self):
        res = order_verdicts(D8, [1, 2, 8])  # theta = pi/2, pi, 0
        assert [VERDICT_LABELS[c] for c in res.codes] == ["boundary", "chaotic", "non_chaotic"]
        assert res.trace_mag[1] == 0.0 and res.trace_mag[2] == 2.0

    def test_vectorized_matches_per_order_calls(self):
        ks = np.arange(1, 200)
        for u in (LUCAS_T3, D8):
            res = order_verdicts(u, ks)
            for k, th, tm, c in zip(ks.tolist(), res.theta, res.trace_mag, res.codes):
                one = order_verdicts(u, k)  # a scalar K gives shape-() results
                assert one.codes.shape == one.trace_mag.shape == one.theta.shape == ()
                assert (one.codes, one.trace_mag, one.theta) == (c, tm, th)

    @pytest.mark.parametrize("dtype", [int, np.uint8, object])
    def test_rejects_empty_orders(self, dtype):
        for source in (LUCAS_T3, D8):
            with pytest.raises(ValueError, match="at least one order"):
                order_verdicts(source, np.array([], dtype=dtype))

    @pytest.mark.parametrize("d", [[np.nan], [np.inf], [-np.inf], [0.1, np.nan, 1.0]],
                             ids=["nan", "inf", "-inf", "nan-among-finite"])
    def test_non_finite_differences_are_rejected(self, d):
        # both band comparisons of a NaN margin are false: it would read as chaotic
        with pytest.raises(ValueError, match="must be finite"):
            order_verdicts(np.array(d))

    @pytest.mark.parametrize("call", [
        lambda d: order_verdicts(d, [1, 2, 3]),
        lambda d: order_verdicts(d, [1]),
        lambda d: list(chaoticity_scan(d, 3)),
        lambda d: list(chaoticity_scan(d, 1)),
        lambda d: first_nonchaotic_order(d, 4),
        lambda d: chaotic_order_fraction(d, 70000),
    ], ids=["orders", "order-list", "scan", "scan-1", "first-nonchaotic", "fraction"])
    def test_differences_are_an_order_one_source(self, call):
        """An array of phase differences stands for U, not U^K: any order but
        the scalar K = 1 is rejected, rather than broadcast against it.  It is
        a 1-D real array: a matrix, a 0-d array or complex differences are
        rejected at every order, K = 1 included."""
        for d in (np.array([3.0]), np.array([3.0, 0.1])):
            with pytest.raises(ValueError, match="only the order K = 1"):
                call(d)
        for d in (np.eye(2), np.array(3.0), np.array([3.0 + 0.5j, 0.1]),
                  np.array([True, False])):
            for f in (call, order_verdicts):
                with pytest.raises(ValueError, match="1-D array of real numbers"):
                    f(d)


_PI_DIGITS = "3.14159265358979323846264338327950288419716939937510582097494459230781640628620899"


def lucas_reference(k: int, digits: int = 60):
    """(2|cos(K (sqrt 5 - 3) pi)|, sqrt 2) to ``digits`` significant digits.

    The Lucas t=3 pair is ((sqrt 5 - 2) pi, (4 - sqrt 5) pi), so
    (phi - psi)/2 = (sqrt 5 - 3) pi exactly.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        y = abs((k * (ctx.sqrt(decimal.Decimal(5)) - 3)) % 1)
        x = decimal.Decimal(_PI_DIGITS) * min(y, 1 - y)  # |cos(pi y)| = cos(pi z)
        x2, term, total, n = x * x, decimal.Decimal(1), decimal.Decimal(1), 0
        while abs(term) > decimal.Decimal(10) ** -digits:
            n += 2
            term = -term * x2 / (n * (n - 1))
            total += term
        return 2 * total, ctx.sqrt(decimal.Decimal(2))


class TestRoundingAwareBand:
    """The band ``boundary_half_width(K)`` covers the rounding of |tr U^K|.

    A phase in [0, 2*pi) is within half an ulp, 2*pi*2^-53, of the value it
    stands for; K multiplies that and rounding K*phi adds as much again, so
    d = fmod(K*phi) - fmod(K*psi) (fmod is exact) is off by 2*K*2*pi*2^-52.
    |tr| = 2|cos(d/2)| is 1-Lipschitz in d, and the subtraction, the cosine
    and sqrt(2) itself add at most 4 ulps (2^-52 each) near sqrt(2).
    """

    @pytest.mark.parametrize("scale", [10 ** 10, 10 ** 14, 10 ** 15])
    def test_lucas_labels_never_contradict_the_exact_trace(self, scale):
        # a band that ignores K labels 27/1000 of these orders near 1e14 and
        # 278/1000 near 1e15 opposite to the exact trace
        ks = np.random.default_rng(7).integers(scale, 2 * scale, 1000).tolist()
        wrong, boundary = [], 0
        for k in ks:
            tr, sqrt2 = lucas_reference(k)
            v = order_verdicts(LUCAS_T3, k)
            if v.codes == BOUNDARY:
                boundary += 1
            elif v.codes != (CHAOTIC if tr < sqrt2 else NON_CHAOTIC):
                wrong.append(k)
            if scale <= 10 ** 10:  # the band widens; the trace itself is unchanged
                pk = power_eigenphases(LUCAS_T3, k)
                assert v.trace_mag == 2.0 * abs(math.cos(0.5 * (pk.phi - pk.psi)))
        assert wrong == []
        if scale == 10 ** 15:  # the band exceeds sqrt(2): nothing can be decided
            assert boundary == len(ks)

    def test_half_width_grows_with_order(self):
        assert boundary_half_width(1) - BOUNDARY_TOL < 4e-15
        assert boundary_half_width(12) - BOUNDARY_TOL < 4e-14
        assert boundary_half_width(10 ** 15) > SQRT2


_rational = st.builds(RationalPhase, st.integers(-400, 400), st.integers(1, 60))
_specs = st.builds(ExactUnitarySpec, _rational, _rational, _rational)
_angles = st.floats(0.0, TWO_PI, exclude_max=True)
# orders up to 1e5 keep the rounding of RationalPhase.radians() (two roundings
# per phase, one more than the band assumes) well inside BOUNDARY_TOL
_orders = st.integers(1, 10 ** 5)


_INTEGER_TYPES = (np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64)
SPEC_3_5 = ExactUnitarySpec(RationalPhase(1, 3), RationalPhase(2, 5))


class TestOrdersByValue:
    """Orders and counts are taken by value: a narrow, unsigned or object
    holding of the same integers gives the int64 or Python int answer."""

    @settings(max_examples=300, deadline=None)
    @given(source=st.one_of(_specs, st.builds(EigenphasePair, _angles, _angles)),
           kind=st.sampled_from(_INTEGER_TYPES + (object,)), data=st.data())
    def test_every_integer_type_gives_the_int64_verdicts(self, source, kind, data):
        top = min((1 << 63) - 1, np.iinfo(np.int64 if kind is object else kind).max)
        ks = data.draw(st.lists(st.integers(1, int(top)), min_size=1, max_size=20))
        want = order_verdicts(source, np.array(ks, dtype=np.int64))
        # an object array holds numpy integers here, Python ints in the test below
        held = (np.array([np.uint64(k) for k in ks], dtype=object) if kind is object
                else np.array(ks, dtype=kind))
        got = order_verdicts(source, held)
        assert same_verdict(got, want)
        assert got.theta.tobytes() == want.theta.tobytes()

    def test_unsigned_orders_past_int64_are_python_ints(self):
        ks = [2 ** 63 + 1, 2 ** 63 + 10 ** 9, 2 ** 64 - 1]
        want = order_verdicts(SPEC_3_5, np.array(ks, dtype=object))
        assert same_verdict(order_verdicts(SPEC_3_5, np.array(ks, dtype=np.uint64)), want)
        for k in ks:
            d = abs((k * Fraction(1, 3)) % 2 - (k * Fraction(2, 5)) % 2)
            assert exact_theta_fraction(SPEC_3_5, k) == min(d, 2 - d)

    def test_scan(self):
        want = joined_scan(chaoticity_scan(SPEC_3_5, 100))
        for kind in _INTEGER_TYPES:
            got = joined_scan(chaoticity_scan(SPEC_3_5, kind(100)))
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_chaotic_order_fraction(self):
        for source in (SPEC_3_5, LUCAS_T3):
            want = chaotic_order_fraction(source, 100)
            assert [chaotic_order_fraction(source, kind(100)) for kind in _INTEGER_TYPES] == \
                [want] * len(_INTEGER_TYPES)

    def test_exact_theta_fraction(self):
        for kind in _INTEGER_TYPES:
            assert exact_theta_fraction(SPEC_3_5, kind(7)) == Fraction(7, 15)


class TestKernelProperties:
    @settings(max_examples=200, deadline=None)
    @given(spec=_specs, g=_rational, k=_orders)
    def test_exact_swap_and_global_phase_invariance(self, spec, g, k):
        v = order_verdicts(spec, k)
        swapped = ExactUnitarySpec(spec.phase2, spec.phase1, spec.global_phase)
        shifted = ExactUnitarySpec(spec.phase1 + g, spec.phase2 + g, g)
        assert same_verdict(order_verdicts(swapped, k), v)
        assert same_verdict(order_verdicts(shifted, k), v)

    @settings(max_examples=200, deadline=None)
    @given(phi=_angles, psi=_angles, shift=_angles, k=_orders)
    def test_float_swap_and_global_phase_invariance(self, phi, psi, shift, k):
        pair = EigenphasePair(phi, psi)
        v = order_verdicts(pair, k)
        assert same_verdict(order_verdicts(EigenphasePair(pair.psi, pair.phi), k), v)
        # the shift is rounded into both phases, so it may move |tr| by a few
        # K-scaled ulps: inside the band, never across it
        shifted = order_verdicts(EigenphasePair(phi + shift, psi + shift), k)
        assert abs(shifted.trace_mag - v.trace_mag) <= 2 * boundary_half_width(k)
        assert {int(shifted.codes), int(v.codes)} != {CHAOTIC, NON_CHAOTIC}

    @settings(max_examples=300, deadline=None)
    @given(spec=_specs, k=_orders)
    def test_exact_and_float_paths_agree_outside_the_band(self, spec, k):
        floaty = order_verdicts(spec.pair(), k).codes
        assume(floaty != BOUNDARY)
        assert order_verdicts(spec, k).codes == floaty

    @settings(max_examples=200, deadline=None)
    @given(spec=_specs, j=st.integers(1, 50))
    def test_trace_is_exactly_two_at_multiples_of_the_idempotency_order(self, spec, j):
        n = idempotency_order(spec, n_cap=10 ** 12)
        res = order_verdicts(spec, n * np.arange(1, j + 1))
        assert np.all(res.codes == NON_CHAOTIC)
        assert np.all(res.trace_mag == 2.0)


def _valid_recipe(abt) -> bool:
    """a, b < 0 (drawn so), a non-square discriminant and an even s_t."""
    a, b, t = abt
    d = a * a - 4 * b
    return math.isqrt(d) ** 2 != d and quadratic_trace_sequence(a, b, t)[t] % 2 == 0


_recipes = st.tuples(st.integers(-40, -1), st.integers(-400, -1), st.integers(1, 60)).filter(
    _valid_recipe).map(lambda abt: QuadraticRecipe(*abt))


class TestSourceInterface:
    """A quadratic recipe is read through its float pair, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(recipe=_recipes, ks=st.lists(_orders, min_size=1, max_size=20))
    def test_recipe_verdicts_are_those_of_its_built_pair(self, recipe, ks):
        got, want = order_verdicts(recipe, ks), order_verdicts(recipe.pair(), ks)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(recipe=_recipes, k_max=st.integers(1, 300))
    def test_recipe_scan_is_that_of_its_built_pair(self, recipe, k_max):
        got = scan_columns(joined_scan(chaoticity_scan(recipe, k_max)))
        want = scan_columns(joined_scan(chaoticity_scan(recipe.pair(), k_max)))
        assert repr(got) == repr(want)

    def test_pair_is_its_own_pair(self):
        assert LUCAS_T3.pair() is LUCAS_T3
        assert QuadraticRecipe(-1, -1, 3).pair() == LUCAS_T3

    def test_search_and_fraction_take_a_recipe(self):
        recipe = QuadraticRecipe(-1, -1, 3)
        assert first_nonchaotic_order(recipe, 10) == first_nonchaotic_order(LUCAS_T3, 10)
        assert chaotic_order_fraction(recipe, 1000) == chaotic_order_fraction(LUCAS_T3, 1000)


def brute_first_nonchaotic(source, k_bound: int):
    """First non-chaotic order found by evaluating every order up to k_bound."""
    codes = order_verdicts(source, np.arange(1, k_bound + 1)).codes
    hits = np.flatnonzero(codes == NON_CHAOTIC)
    return int(hits[0]) + 1 if hits.size else None


# theta = phi - psi on and around pi/2 and 3*pi/4 (and their mirrors), from
# inside the boundary band (about 1.4e-9 wide in angle) to well outside it
_near = st.one_of(st.just(0.0), st.floats(-3e-9, 3e-9), st.floats(-1e-6, 1e-6))
_banded_pairs = st.builds(
    lambda psi, centre, eps: EigenphasePair((psi + centre + eps) % TWO_PI, psi),
    st.one_of(st.just(0.0), _angles),
    st.sampled_from([PI / 2, 3 * PI / 4, 5 * PI / 4, 3 * PI / 2]), _near)
_sources = st.one_of(st.builds(EigenphasePair, _angles, _angles), _banded_pairs, _specs)


def _chaotic_run(spec) -> int:
    """How many orders from K = 1 on are chaotic, read from K = 1..4."""
    codes = order_verdicts(spec, np.arange(1, 5)).codes.tolist()
    return next((k for k, c in enumerate(codes) if c != CHAOTIC), 4)


class TestOrderBoundTheorem:
    """No unitary is chaotic to every order: the first non-chaotic one is <= 4."""

    @settings(max_examples=400, deadline=None)
    @given(source=_sources, k_bound=st.integers(1, 12))
    def test_bounded_search_equals_brute_force_to_1e4(self, source, k_bound):
        brute = brute_first_nonchaotic(source, 10 ** 4)
        assert brute is not None and brute <= 4
        assert first_nonchaotic_order(source, 10 ** 4) == brute
        assert first_nonchaotic_order(source, k_bound) == (brute if brute <= k_bound else None)

    @pytest.mark.parametrize("theta", [PI / 2, PI / 2 + 1e-12, PI / 2 - 1e-12, 3 * PI / 2])
    def test_quarter_turn_reaches_four(self, theta):
        assert first_nonchaotic_order(EigenphasePair(theta, 0.0), 10 ** 4) == 4

    def test_exact_quarter_turn_reaches_four(self):
        spec = ExactUnitarySpec(RationalPhase(1, 2), RationalPhase(0), RationalPhase(0))
        assert first_nonchaotic_order(spec, 10 ** 4) == 4

    def test_run_lengths_on_the_su2_grid(self):
        """The run of chaotic orders from K = 1 over psi = (2j+1)*pi/96, j < 96.

        For SU(2), |tr U^K| = 2|cos(K psi)|, chaotic iff K psi mod pi lies in
        (pi/4, 3*pi/4).  That interval holds half the grid, so 48 points have
        run 0.  Of the rest, K = 2 is chaotic iff psi mod pi lies in
        (pi/4, 3*pi/8) u (5*pi/8, 3*pi/4), half of them again, and there
        3*psi mod pi falls in (3*pi/4, pi) u (0, pi/4): K = 3 is not chaotic,
        so 24 points have run 1 and 24 run 2.  Every endpoint is a multiple
        of pi/8 = 12*pi/96 and every grid point an odd multiple of pi/96, so
        no point sits on an endpoint.
        """
        specs = [ExactUnitarySpec(RationalPhase(-m, 96), RationalPhase(m, 96))
                 for m in range(1, 192, 2)]
        assert all(BOUNDARY not in order_verdicts(s, np.arange(1, 5)).codes for s in specs)
        runs = [_chaotic_run(s) for s in specs]
        assert [runs.count(n) for n in range(5)] == [48, 24, 24, 0, 0]

    @settings(max_examples=400, deadline=None)
    @given(phases=st.lists(st.tuples(st.integers(-200, 200), st.integers(1, 60)),
                           min_size=3, max_size=3))
    def test_run_never_exceeds_two(self, phases):
        spec = ExactUnitarySpec(*(RationalPhase(m, p) for m, p in phases))
        run = _chaotic_run(spec)
        assert run <= 2
        assert run < first_nonchaotic_order(spec, 4) <= 4


def _census_chaotic(ks) -> np.ndarray:
    """The kernel's verdicts on the census draws u = k*2^-53, read as the census's
    oracle reads them: d = 2 psi for psi = uniform(0, 2*pi) = 0.0 + 2*pi*u."""
    u = np.asarray(ks, dtype=np.int64) * 2.0 ** -53
    return order_verdicts(2.0 * (0.0 + TWO_PI * u)).codes == CHAOTIC


_ENDS = _census_ends()
_END_KS = [int(e * 2 ** 53) for e in _ENDS]


class TestCensusEnds:
    """The census's chaotic draws are two intervals whose ends the kernel fixes."""

    @pytest.mark.parametrize("i", range(4))
    def test_each_end_is_the_only_turn_near_it(self, i):
        end = _END_KS[i]
        assert end * 2.0 ** -53 == _ENDS[i]  # on the draws' grid
        assert abs(end - ((2 * i + 1) << 50)) < 2 ** 21  # near u = (2i + 1)/8
        chaotic = _census_chaotic(np.arange(end - 2 ** 12, end + 2 ** 12 + 1))
        assert np.flatnonzero(np.diff(chaotic)).tolist() == [2 ** 12 - 1]
        assert chaotic[2 ** 12] == (i % 2 == 0)  # e0 and e2 open an interval

    @settings(max_examples=500, deadline=None)
    @given(k=st.one_of(
        st.integers(0, 2 ** 53 - 1),
        st.builds(int.__add__, st.sampled_from(_END_KS), st.integers(-2 ** 13, 2 ** 13))))
    def test_membership_is_the_kernel_verdict(self, k):
        e0, e1, e2, e3 = _ENDS
        u = k * 2.0 ** -53
        assert (e0 <= u < e1 or e2 <= u < e3) == _census_chaotic([k])[0]


_small_rational = st.builds(RationalPhase, st.integers(-100, 100), st.integers(1, 24))
_small_specs = st.builds(ExactUnitarySpec, _small_rational, _small_rational, _small_rational)


class TestPeriodicFraction:
    """An exact spec's fraction is counted over one period 2L and the rest."""

    @settings(max_examples=200, deadline=None)
    @given(spec=_small_specs, cycles=st.integers(0, 4), rest=st.integers(0, 1200))
    def test_equals_the_brute_force_count(self, spec, cycles, rest):
        period = 2 * math.lcm(spec.phase1.p, spec.phase2.p)
        k_max = cycles * period + rest % period  # below, at and above multiples of 2L
        assume(k_max >= 1)
        codes = joined_scan(chaoticity_scan(spec, k_max)).codes
        brute = int(np.count_nonzero(codes == CHAOTIC))
        assert chaotic_order_fraction(spec, k_max) == brute / k_max

    def test_counts_a_period_once(self, monkeypatch):
        spec = ExactUnitarySpec(RationalPhase(1, 3), RationalPhase(2, 5))  # 2L = 30
        ks = np.arange(1, 10 ** 6 + 1)
        want = np.count_nonzero(order_verdicts(spec, ks).codes == CHAOTIC) / ks.size
        seen = []

        def spy(source, ks=1):
            seen.append(int(np.size(ks)))
            return order_verdicts(source, ks)

        monkeypatch.setattr(chaoticity, "order_verdicts", spy)
        assert chaotic_order_fraction(spec, 10 ** 6) == want
        assert sum(seen) == 30 + 10 ** 6 % 30

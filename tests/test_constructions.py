"""Builders: rational specs, order-K chaotic unitaries, quadratic series."""

import dataclasses
import decimal
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qchaos import (
    EigenphasePair,
    ExactUnitarySpec,
    QuadraticRecipe,
    RationalPhase,
    build_chaotic_order,
    idempotency_order,
    order_verdicts,
    quadratic_trace_sequence,
    source_from_json,
)
from qchaos.chaoticity import BOUNDARY, CHAOTIC

from helpers import circular_distance, reference_chaotic_order_prime

PI = math.pi


def _roots(a, b):
    """alpha, beta as Decimals at the current context precision."""
    root = decimal.Decimal(a * a - 4 * b).sqrt()
    return (-a + root) / 2, (-a - root) / 2


def _mod2(x):
    r = x % 2  # a Decimal remainder takes the sign of the dividend
    return r + 2 if r < 0 else r


def dec_power_sum_check(a, b, t, s, digits=80):
    """Oracle: alpha^t + beta^t at high precision, straight from the roots.

    Returns (rounds_to_s, abs_error) computed inside the working precision.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        alpha, beta = _roots(a, b)
        total = alpha ** t + beta ** t
        return int(total.to_integral_value()) == s, float(abs(total - s))


def dec_phase_pair(a, b, t, digits=120):
    """Oracle pair ((alpha^t mod 2) pi, (beta^t mod 2) pi) in decimal arithmetic.

    Each residue is rounded to a float once and then multiplied by math.pi,
    which is how the builder forms its phases, so a correct build matches
    this bit for bit.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        alpha, beta = _roots(a, b)
        return (float(_mod2(alpha ** t)) * math.pi, float(_mod2(beta ** t)) * math.pi)


class TestRationalSpec:
    def test_d4_materializes_exactly(self):
        spec = ExactUnitarySpec(RationalPhase(1, 4), RationalPhase(5, 4),
                                      RationalPhase(1, 4))
        u = spec.to_unitary()
        want = np.array([[1j, 0], [0, -1j]])  # e^{i pi/2}, e^{i 3pi/2}
        assert np.max(np.abs(u - want)) <= 1e-15
        assert idempotency_order(spec) == 4

    def test_d8(self):
        spec = ExactUnitarySpec(RationalPhase(1, 32), RationalPhase(17, 32),
                                      RationalPhase(23, 32))
        assert idempotency_order(spec) == 8

    def test_identity(self):
        spec = ExactUnitarySpec(RationalPhase(0), RationalPhase(0))
        assert idempotency_order(spec) == 1

    def test_normalizes_inputs(self):
        spec = ExactUnitarySpec(RationalPhase(9, 4), RationalPhase(-3, 4))
        assert (spec.phase1.m, spec.phase1.p) == (1, 4)
        assert (spec.phase2.m, spec.phase2.p) == (5, 4)


class TestBuildChaoticOrder:
    def test_k5_uses_p2(self):
        spec, p2 = build_chaotic_order(5)
        assert p2 == 2
        assert (spec.phase2.m, spec.phase2.p) == (1, 2)   # psi = pi/2
        assert (spec.phase1.m, spec.phase1.p) == (3, 2)   # phi = 3*pi/2
        v = order_verdicts(spec, 5)
        assert v.codes == CHAOTIC
        assert v.theta == PI

    def test_k1(self):
        spec, p2 = build_chaotic_order(1)
        assert p2 == 2 and (spec.phase2.m, spec.phase2.p) == (1, 2)

    def test_k2_skips_dividing_prime(self):
        spec, p2 = build_chaotic_order(2)
        assert p2 == 3  # |cos(2*pi/3)| = 1/2 <= 2^(-1/2)
        v = order_verdicts(spec, 2)
        assert v.codes == CHAOTIC
        assert v.trace_mag == pytest.approx(1.0, abs=1e-12)

    def test_guarantee_up_to_100(self):
        for k in range(1, 101):
            spec, p2 = build_chaotic_order(k)
            assert k % p2 != 0
            assert order_verdicts(spec, k).codes in (CHAOTIC, BOUNDARY)
            # exactly rational, hence idempotent of some finite order
            assert idempotency_order(spec, n_cap=10 ** 9) >= 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_chaotic_order(0)

    def test_numpy_integer_order_is_taken_by_value(self):
        # an unsigned order once wrapped in the kernel and picked p = 5 for k = 6
        spec, p = build_chaotic_order(6)
        assert p == 11
        for t in (np.int8, np.int64, np.uint8, np.uint16, np.uint64):
            assert build_chaotic_order(t(6)) == (spec, p)

    def test_prime_matches_brute_force_to_500(self):
        for k in range(1, 501):
            spec, p2 = build_chaotic_order(k)
            assert p2 == reference_chaotic_order_prime(k), k
            assert spec == ExactUnitarySpec(RationalPhase(2 * p2 - 1, p2), RationalPhase(1, p2))


class TestQuadraticTraceSequence:
    def test_lucas_numbers(self):
        seq = quadratic_trace_sequence(-1, -1, 7)
        assert seq == (2, 1, 3, 4, 7, 11, 18, 29)

    def test_lucas_even_flags_period_three(self):
        seq = quadratic_trace_sequence(-1, -1, 60)
        want = tuple(t % 3 == 0 for t in range(61))
        assert tuple(v % 2 == 0 for v in seq) == want

    def test_big_integer_example(self):
        seq = quadratic_trace_sequence(-2, -101, 8)
        assert seq[0] == 2 and seq[1] == 2
        assert seq[8] == 277376354

    def test_rejects_zero_t_max(self):
        with pytest.raises(ValueError):
            quadratic_trace_sequence(-1, -1, 0)

    def test_integer_closure_against_root_powers(self):
        # recurrence values must equal round(alpha^t + beta^t) at 80 digits
        rng = np.random.default_rng(42)
        done = 0
        while done < 100:
            a = int(rng.integers(-50, 51))
            b = int(rng.integers(-50, 51))
            if a == 0 or b == 0 or a * a - 4 * b <= 0:
                continue
            seq = quadratic_trace_sequence(a, b, 40)
            for t in (1, 5, 13, 27, 40):
                rounds_exactly, err = dec_power_sum_check(a, b, t, seq[t])
                assert rounds_exactly
                assert err < 1e-6  # 80 digits minus up to ~69 integer digits
            done += 1

    def test_even_minus_a_forces_all_even(self):
        for a in (-2, -4, -6, -10):
            for b in (-1, -3, -7, -25):
                seq = quadratic_trace_sequence(a, b, 60)
                assert all(v % 2 == 0 for v in seq)

    def test_numpy_integers_are_taken_by_value(self):
        # in int64, s_100 = 792070839848372253127 of the Lucas numbers would wrap
        want = quadratic_trace_sequence(-1, -1, 100)
        assert want[-1] == 792070839848372253127
        for t in (np.int8, np.int64, np.uint8):
            got = quadratic_trace_sequence(np.int64(-1), np.int32(-1), t(100))
            assert got == want and all(type(v) is int for v in got)

    def test_rejects_non_integer_coefficients(self):
        for a, b in [(-1.0, -1), (-1, True), (np.bool_(True), -1)]:
            with pytest.raises(ValueError, match="seed coefficient [ab] must be an integer"):
                quadratic_trace_sequence(a, b, 3)


class TestCountsMustBeIntegers:
    @pytest.mark.parametrize("call", [
        lambda: quadratic_trace_sequence(-1, -1, 3.0),
        lambda: QuadraticRecipe(-1, -1, 3.0),
        lambda: QuadraticRecipe(-1, -1, True),
        lambda: build_chaotic_order(5.0),
    ], ids=["trace-sequence", "quadratic-recipe", "quadratic-recipe-bool", "chaotic-order"])
    def test_float_count_is_rejected(self, call):
        with pytest.raises(ValueError, match="must be an integer"):
            call()


class TestQuadraticRecipe:
    def test_lucas_t3_phases(self):
        recipe = QuadraticRecipe(-1, -1, 3)
        pair = recipe.pair()
        assert pair.phi == pytest.approx(0.7416, abs=5e-4)
        assert pair.psi == pytest.approx(5.5415, abs=5e-4)
        assert recipe.classification == "converging_to_identity"
        assert recipe.s_t == 4
        oracle = dec_phase_pair(-1, -1, 3)
        assert pair.phi == pytest.approx(oracle[0], abs=1e-12)
        assert pair.psi == pytest.approx(oracle[1], abs=1e-12)

    def test_traversing_example(self):
        recipe = QuadraticRecipe(-2, -101, 8)
        pair = recipe.pair()
        assert abs(math.cos(pair.psi)) == pytest.approx(0.387, abs=5e-3)
        assert recipe.classification == "traversing"
        oracle = dec_phase_pair(-2, -101, 8)
        assert pair.phi == pytest.approx(oracle[0], abs=1e-12)
        assert pair.psi == pytest.approx(oracle[1], abs=1e-12)

    def test_lucas_t6_drifts_toward_identity(self):
        recipe = QuadraticRecipe(-1, -1, 6)
        assert order_verdicts(recipe).trace_mag == pytest.approx(1.969, abs=5e-4)

    def test_rejects_odd_sum(self):
        with pytest.raises(ValueError, match="odd"):
            QuadraticRecipe(-1, -1, 4)  # s_4 = 7

    def test_rejects_square_discriminant(self):
        with pytest.raises(ValueError, match="square"):
            QuadraticRecipe(-1, -2, 3)  # D = 9

    @pytest.mark.parametrize("a,b", [(2, -1), (-1, 1), (3, 5), (0, -1), (-1, 0)])
    def test_rejects_positive_or_zero_regime(self, a, b):
        with pytest.raises(ValueError, match="regime"):
            QuadraticRecipe(a, b, 2)

    def test_rejects_non_integer_coefficients(self):
        for a, b in [(-1.0, -1), (-1, -1.0), (True, -1), (-1, True), (np.bool_(True), -1)]:
            with pytest.raises(ValueError, match="seed coefficient [ab] must be an integer"):
                QuadraticRecipe(a, b, 3)

    @pytest.mark.parametrize("a,b", [(np.int64(-1), -1), (-1, np.int32(-1)),
                                     (np.int8(-2), np.int64(-101))])
    def test_numpy_integer_coefficients_build_as_their_values(self, a, b):
        t = 3 if int(a) == -1 else 8
        recipe = QuadraticRecipe(a, b, t)
        plain = QuadraticRecipe(int(a), int(b), t)
        assert type(recipe.a) is int and type(recipe.b) is int
        assert recipe == plain and hash(recipe) == hash(plain)
        assert recipe.to_json() == plain.to_json() and repr(recipe) == repr(plain)
        assert recipe.pair() == plain.pair() and recipe.s_t == plain.s_t

    def test_phase_sum_invariant(self):
        for (a, b), t in [((-1, -1), 3), ((-1, -1), 6), ((-2, -101), 8),
                          ((-2, -5), 5), ((-4, -7), 9)]:
            pair = QuadraticRecipe(a, b, t).pair()
            assert circular_distance(pair.phi + pair.psi, 0.0) <= 2 ** -30 * PI

    def test_rejects_zero_t(self):
        with pytest.raises(ValueError):
            QuadraticRecipe(-1, -1, 0)

    def test_numpy_integer_t_builds_as_its_value(self):
        recipe = QuadraticRecipe(-2, -101, np.int64(8))
        assert type(recipe.t) is int and recipe == QuadraticRecipe(-2, -101, 8)
        assert recipe.pair() == QuadraticRecipe(-2, -101, 8).pair()

    def test_build_is_not_part_of_equality_hash_or_repr(self):
        one, other = QuadraticRecipe(-1, -1, 3), QuadraticRecipe(-1, -1, 3)
        assert one == other and hash(one) == hash(other)
        assert len({one, other}) == 1
        assert one != QuadraticRecipe(-1, -1, 6)
        assert repr(one) == "QuadraticRecipe(a=-1, b=-1, t=3)"

    @settings(max_examples=400, deadline=None)
    @given(a=st.integers(-12, 3), b=st.integers(-60, 3), t=st.integers(-2, 60))
    @example(a=0, b=-1, t=3)
    @example(a=-1, b=-2, t=3)  # D = 9
    @example(a=-1, b=-1, t=4)  # s_4 = 7
    @example(a=-1, b=-1, t=0)
    def test_builds_exactly_inside_the_boundary(self, a, b, t):
        """A recipe is made iff a, b < 0, t >= 1, D is not a square and s_t
        is even, and it survives the JSON round trip; otherwise ValueError."""
        d = a * a - 4 * b
        valid = (a < 0 and b < 0 and t >= 1 and math.isqrt(d) ** 2 != d
                 and quadratic_trace_sequence(a, b, t)[t] % 2 == 0)
        if not valid:
            with pytest.raises(ValueError):
                QuadraticRecipe(a, b, t)
            return
        recipe = QuadraticRecipe(a, b, t)
        assert source_from_json(recipe.to_json()) == recipe
        assert recipe.s_t == quadratic_trace_sequence(a, b, t)[t]


class TestQuadraticPhasesExact:
    """The phases of a recipe are its exact residues, correctly rounded.

    With alpha^t = (A_t + B_t sqrt(D)) / 2^t, the integers A_t, B_t follow
    their own recurrence and math.isqrt gives the digits of B_t sqrt(D)
    exactly, so beta^t mod 2 is known to any number of bits without rounding;
    alpha^t mod 2 = 2 - (beta^t mod 2) because s_t is even.  Each phase is the
    residue rounded once to a float, times pi; the residue carries 64 guard
    bits past the float's 53, so the rounding is correct unless it lies within
    2^-64 ulp of a rounding boundary.
    """

    @settings(max_examples=300, deadline=None)
    @given(a=st.integers(-40, -1), b=st.integers(-400, -1), t=st.integers(1, 60))
    @example(a=-1, b=-1, t=60)  # beta^60 ~ 3e-13: psi is tiny, phi just below 2 pi
    def test_phases_are_correctly_rounded(self, a, b, t):
        d = a * a - 4 * b
        assume(math.isqrt(d) ** 2 != d and quadratic_trace_sequence(a, b, t)[t] % 2 == 0)
        pair = QuadraticRecipe(a, b, t).pair()
        # alpha^t stays below 1e102 here, so 250 digits leave over 140 after
        # the point; EigenphasePair maps a phase that rounds to 2 pi onto 0
        assert pair == EigenphasePair(*dec_phase_pair(a, b, t, digits=250))
        assert circular_distance(pair.phi + pair.psi, 0.0) <= 8 * math.ulp(2 * PI)


class TestSourceRationality:
    def test_rational_spec(self):
        spec = ExactUnitarySpec(RationalPhase(1, 4), RationalPhase(5, 4))
        assert (spec.kind, spec.rationality) == ("rational", "rational")

    def test_quadratic_recipe_certified(self):
        for recipe in (QuadraticRecipe(-1, -1, 3), QuadraticRecipe(-2, -101, 8)):
            assert (recipe.kind, recipe.rationality) == ("quadratic", "irrational_certified")

    def test_float_pair_unknown(self):
        pair = EigenphasePair(0.25, 1.25)
        assert (pair.kind, pair.rationality) == ("float_pair", "unknown")

    def test_kind_and_rationality_are_not_fields(self):
        """Class attributes, so ==, hash and repr see only the dataclass fields."""
        spec = ExactUnitarySpec(RationalPhase(1, 4), RationalPhase(5, 4))
        for source in (spec, QuadraticRecipe(-1, -1, 3), EigenphasePair(0.25, 1.25)):
            names = {f.name for f in dataclasses.fields(source)}
            assert not {"kind", "rationality"} & names
            assert "kind" not in repr(source) and "rationality" not in repr(source)


class TestSourceJson:
    def test_rational_round_trip(self):
        spec = ExactUnitarySpec(RationalPhase(1, 32), RationalPhase(17, 32),
                                RationalPhase(23, 32))
        doc = spec.to_json()
        assert doc == {"kind": "rational", "m1": 1, "p1": 32, "m2": 17, "p2": 32,
                       "g_m": 23, "g_p": 32}
        assert source_from_json(doc) == spec
        assert source_from_json(json.dumps(doc)) == spec

    _phase = st.tuples(st.integers(-10 ** 6, 10 ** 6),
                       st.integers(-10 ** 4, 10 ** 4).filter(bool))

    @settings(max_examples=300, deadline=None)
    @given(ph1=_phase, ph2=_phase, g=_phase)
    def test_exact_spec_survives_the_json_text(self, ph1, ph2, g):
        """Signed, unreduced (m, p) normalize once; the JSON text reads back equal."""
        spec = ExactUnitarySpec(RationalPhase(*ph1), RationalPhase(*ph2), RationalPhase(*g))
        assert source_from_json(json.dumps(spec.to_json())) == spec

    def test_quadratic_round_trip(self):
        recipe = QuadraticRecipe(-2, -101, 8)
        doc = recipe.to_json()
        assert doc == {"kind": "quadratic", "a": -2, "b": -101, "t": 8}
        assert source_from_json(doc) == recipe
        # spec files written before precision_bits was dropped still load
        assert source_from_json({**doc, "precision_bits": 256}) == recipe

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            source_from_json({"kind": "nope"})

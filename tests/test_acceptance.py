"""Acceptance gate: every criterion at its stated tolerance and time budget.

Each test prints one PASS line with the measured values once its assertions
hold; run with `pytest tests/test_acceptance.py -v -s` to see them.  Timing
assertions take the best of several repeats so machine load cannot fail a
criterion that the code meets.
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qchaos import (
    EigenphasePair,
    ExactUnitarySpec,
    QuadraticRecipe,
    RationalPhase,
    build_chaotic_order,
    chaotic_order_fraction,
    eigenphases_of,
    entropy_rate_experiment,
    exact_theta_fraction,
    first_nonchaotic_order,
    idempotency_order,
    monte_carlo_chaotic_fraction,
    order_verdicts,
    pvm_entropy_optimize,
    quadratic_trace_sequence,
    qubit_entropy_closed,
)
from qchaos.chaoticity import CHAOTIC, NON_CHAOTIC
from helpers import random_unitary

PI = math.pi


def best_time(fn, repeats=5):
    """Best wall time of several runs; robust against scheduler noise."""
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_criterion_01_lucas_t3_pair():
    QuadraticRecipe(-1, -1, 3)  # warm caches before timing
    elapsed, res = best_time(lambda: QuadraticRecipe(-1, -1, 3))
    pair = res.pair()
    tm = float(order_verdicts(pair).trace_mag)
    assert pair.phi == pytest.approx(0.7416, abs=5e-4)
    assert pair.psi == pytest.approx(5.5415, abs=5e-4)
    assert tm == pytest.approx(1.4747, abs=5e-4)
    assert order_verdicts(pair).codes == NON_CHAOTIC
    assert elapsed < 1e-3
    print(f"\nACCEPTANCE 01 PASS - Lucas t=3: phi={pair.phi:.6f} psi={pair.psi:.6f} "
          f"|tr|={tm:.6f} non_chaotic, {elapsed * 1e6:.0f} us")


def test_criterion_02_traversing_quadratic():
    QuadraticRecipe(-2, -101, 8)
    elapsed, res = best_time(lambda: QuadraticRecipe(-2, -101, 8))
    cos_psi = abs(math.cos(res.pair().psi))
    assert cos_psi == pytest.approx(0.387, abs=5e-3)
    assert order_verdicts(res).codes == CHAOTIC
    assert res.s_t == 277376354
    assert quadratic_trace_sequence(-2, -101, 8)[8] == 277376354
    assert elapsed < 1e-2
    print(f"\nACCEPTANCE 02 PASS - (-2,-101) t=8: |cos psi|={cos_psi:.6f} chaotic, "
          f"s_8=277376354 exact, {elapsed * 1e3:.2f} ms")


def test_criterion_03_d4_d8_exact_idempotency():
    def check():
        d4 = ExactUnitarySpec(RationalPhase(1, 4), RationalPhase(5, 4),
                              RationalPhase(1, 4))
        d8 = ExactUnitarySpec(RationalPhase(1, 32), RationalPhase(17, 32),
                              RationalPhase(23, 32))
        return (idempotency_order(d4), exact_theta_fraction(d4, 1),
                idempotency_order(d8), exact_theta_fraction(d8, 1))

    check()
    elapsed, (n4, theta4, n8, theta8) = best_time(check)
    assert n4 == 4
    assert theta4 == Fraction(1)        # theta = pi, exact rational arithmetic
    assert n8 == 8
    assert theta8 == Fraction(1, 2)     # theta = pi/2
    assert elapsed < 1e-3
    print(f"\nACCEPTANCE 03 PASS - D4 order 4 (theta=pi), D8 order 8 (theta=pi/2), "
          f"exact, {elapsed * 1e6:.0f} us")


def test_criterion_04_chaotic_order_5_construction():
    spec, p2 = build_chaotic_order(5)
    assert p2 == 2
    assert spec.phase2 == RationalPhase(1, 2)   # psi = pi/2
    assert spec.phase1 == RationalPhase(3, 2)   # phi = 3*pi/2
    assert order_verdicts(spec, 5).codes == CHAOTIC
    assert exact_theta_fraction(spec, 5) == Fraction(1)  # theta_5 = pi, exact
    assert order_verdicts(spec, 5).theta == PI
    print("\nACCEPTANCE 04 PASS - order-5 construction: psi=pi/2 phi=3pi/2, "
          "chaotic at K=5 with theta_5=pi (exact)")


def test_criterion_05_optimizer_matches_closed_form():
    rng = np.random.default_rng(2025)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        u = random_unitary(rng)
        closed = qubit_entropy_closed(eigenphases_of(u)[0])
        found = pvm_entropy_optimize(u, restarts=32, seed=12).value
        worst = max(worst, abs(found - closed))
        assert abs(found - closed) <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 05 PASS - 50 unitaries, 32 restarts: worst |opt-closed| = "
          f"{worst:.2e} <= 1e-3, {elapsed:.1f} s")


def test_criterion_06_census_half():
    monte_carlo_chaotic_fraction(1000, seed=1)
    elapsed, res = best_time(lambda: monte_carlo_chaotic_fraction(10 ** 5, seed=1),
                             repeats=3)
    assert abs(res.fraction - 0.5) <= 0.0047
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 06 PASS - census N=1e5: fraction={res.fraction:.5f} "
          f"in 0.5 +/- 0.0047, {elapsed * 1e3:.0f} ms")


def test_criterion_07_entropy_rate_simulations():
    t0 = time.perf_counter()
    third = entropy_rate_experiment(EigenphasePair(0.0, PI / 3), "x",
                                    10 ** 6, 8, seed=31)
    assert abs(third.empirical - 0.811278) < 0.01
    # at theta = pi the x-basis chain is deterministic; the 1-bit rate needs
    # the suitably chosen measurement, which the optimizer provides
    full = entropy_rate_experiment(EigenphasePair(0.0, PI), "optimized",
                                   10 ** 6, 8, seed=37)
    assert abs(full.empirical - 1.0) < 0.01
    from qchaos import PvmBasis, empirical_entropy_rate, sample_trajectory

    x_k2 = sample_trajectory(
        np.array([[0, 1], [1, 0]], dtype=complex), PvmBasis.computational(2),
        steps=10 ** 6, seed=41, period=2)
    rate = empirical_entropy_rate(x_k2, 8, alphabet_size=2)
    assert np.all(x_k2 == x_k2[0])
    assert rate == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 07 PASS - rates: theta=pi/3 -> {third.empirical:.4f} "
          f"(target 0.8113), theta=pi optimized -> {full.empirical:.4f} (target 1.0), "
          f"Pauli X K=2 -> {rate} (exact 0), {elapsed:.1f} s")


def sample_irrational_recipes(n, rng):
    """n quadratic recipes in the a,b < 0 regime with an even s_t."""
    out = []
    while len(out) < n:
        a = -int(rng.integers(1, 10))
        b = -int(rng.integers(1, 61))
        d = a * a - 4 * b
        if math.isqrt(d) ** 2 == d:
            continue
        if a % 2 != 0 and b % 2 == 0:
            continue  # parity: s_t stays odd for every t >= 1
        t = int(rng.choice([3, 6, 9])) if a % 2 else int(rng.integers(3, 9))
        if quadratic_trace_sequence(a, b, t)[t] % 2 != 0:
            continue
        out.append(QuadraticRecipe(a, b, t))
    return out


def test_criterion_08_no_arbitrary_order():
    rng = np.random.default_rng(777)
    t0 = time.perf_counter()
    pairs = []
    for recipe in sample_irrational_recipes(20, rng):
        assert recipe.rationality == "irrational_certified"
        pairs.append(recipe.pair())
    worst_first, worst_frac = 0, 0.0
    for pair in pairs:
        k = first_nonchaotic_order(pair, 10 ** 4)
        assert k is not None and k <= 10 ** 4
        frac = chaotic_order_fraction(pair, 10 ** 5)
        assert abs(frac - 0.5) <= 0.01
        worst_first = max(worst_first, k)
        worst_frac = max(worst_frac, abs(frac - 0.5))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 08 PASS - 20 certified-irrational pairs: every "
          f"first_nonchaotic_order <= {worst_first}, max |fraction-1/2| = "
          f"{worst_frac:.4f} <= 0.01, {elapsed:.1f} s")


def test_criterion_09_idempotency_excludes_chaoticity():
    rng = np.random.default_rng(7)
    specs = [
        ExactUnitarySpec(RationalPhase(1, 4), RationalPhase(5, 4),
                         RationalPhase(1, 4)),
        ExactUnitarySpec(RationalPhase(1, 32), RationalPhase(17, 32),
                         RationalPhase(23, 32)),
        ExactUnitarySpec(RationalPhase(0), RationalPhase(1)),
    ]
    for _ in range(25):
        specs.append(ExactUnitarySpec(
            RationalPhase(int(rng.integers(0, 60)), int(rng.integers(1, 31))),
            RationalPhase(int(rng.integers(0, 60)), int(rng.integers(1, 31))),
            RationalPhase(int(rng.integers(0, 60)), int(rng.integers(1, 31)))))
    t0 = time.perf_counter()
    for spec in specs:
        n = idempotency_order(spec, n_cap=10 ** 9)
        for k in (n, 2 * n):
            v = order_verdicts(spec, k)
            assert v.codes == NON_CHAOTIC
            assert v.trace_mag == 2.0  # exact, not approximate
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 09 PASS - {len(specs)} rational specs: verdict at K=n and "
          f"K=2n is non_chaotic with |tr| = 2 exactly, {elapsed * 1e3:.0f} ms")


def test_criterion_10_determinism_of_seeded_commands(tmp_path):
    from qchaos.cli import main

    def run(args, name):
        dest = tmp_path / name
        assert main([*args, "--json", str(dest)]) == 0
        doc = json.loads(dest.read_text())
        doc["manifest"].pop("timestamp")
        return json.dumps(doc, sort_keys=True)

    t0 = time.perf_counter()
    seeded = [
        ["census", "--n", "100000", "--seed", "1"],
        ["simulate", "--phi", "0", "--psi", "1/2", "--basis", "x",
         "--steps", "100000", "--seed", "7", "--block-len", "6"],
        ["noise", "--psi", "3/4", "--epsilon", "0.1", "--steps", "1000",
         "--seed", "3"],
        ["optimize", "--phi", "0", "--psi", "1/3", "--restarts", "8", "--seed", "1"],
    ]
    checked = 0
    for i, args in enumerate(seeded):
        runs = {run(args, f"{i}_{r}.json") for r in range(2)}
        assert len(runs) == 1  # bit-identical across repeats
        checked += 2

    golden_dir = Path(__file__).parent / "golden"
    for name, args in json.loads((golden_dir / "cases.json").read_text()).items():
        got = run(args, f"golden_{name}.json")
        want = json.dumps(json.loads((golden_dir / f"{name}.json").read_text()),
                          sort_keys=True)
        assert got == want, f"golden mismatch for {name}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 10 PASS - {checked} runs bit-identical (timestamp excluded) "
          f"across repeats, golden suite {elapsed:.1f} s")

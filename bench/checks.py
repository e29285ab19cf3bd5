"""Output checks for every benchmark invocation.

Each check returns a list of error strings; an empty list means the document
is correct.  A failed check counts toward the workload's failure fraction
exactly like a nonzero exit or a timeout.

The references are the benchmark's own and share no code with ``qchaos``:
rational scans are decided exactly with integers, quadratic pairs are
recomputed in high-precision decimal arithmetic, and float pairs use
|tr U^K| = 2|cos(K(phi - psi)/2)|, whose verdict is judged only outside the
boundary band.
"""

from __future__ import annotations

import decimal
import json
import math
from fractions import Fraction
from pathlib import Path

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi
#: Half-width of the program's boundary band around sqrt(2).
BOUNDARY_TOL = 1e-9
#: Allowed |trace_mag - reference|; covers K * eps * 2 pi float drift for
#: K <= 1e5 and the 12-significant-digit rounding of printed values.
TR_TOL = 1e-9
#: Allowed relative error of a printed float against an exact reference.
REL_TOL = 1e-11
#: Largest |empirical - predicted| entropy rate accepted from ``simulate``.
SIM_ABS_DIFF_MAX = 0.01
#: Census band, in units of the document's own 3-sigma half-width: 5 sigma.
#: A 3-sigma band rejects 0.27% of seeds although nothing is wrong; 5 sigma
#: rejects about one seed in two million.
CENSUS_BAND = 5.0 / 3.0


def canonical(doc) -> str:
    """The CLI's document format: two-space indent, sorted keys, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def check_golden(text: str, golden_text: str) -> list[str]:
    """Byte-for-byte comparison with ``manifest.timestamp`` dropped, and nothing else."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if canonical(doc) != text:
        return ["output is not in the canonical document format"]
    if not isinstance(doc.get("manifest"), dict) or "timestamp" not in doc["manifest"]:
        return ["manifest.timestamp is missing"]
    del doc["manifest"]["timestamp"]
    if canonical(doc) != golden_text:
        return ["document differs from its golden file"]
    return []


def _phase_radians(text: str) -> float:
    """A float CLI phase in units of pi, reduced to [0, 2 pi) as the CLI does."""
    r = math.fmod(float(text) * math.pi, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    return r - TWO_PI if r >= TWO_PI else r


def _float_verdict(tr: float) -> str | None:
    """Reference verdict, or None inside the band where rounding can decide it."""
    if tr < SQRT2 - BOUNDARY_TOL - TR_TOL:
        return "chaotic"
    if tr > SQRT2 + BOUNDARY_TOL + TR_TOL:
        return "non_chaotic"
    return None


def exact_theta_over_pi(m1: int, p1: int, m2: int, p2: int, k: int) -> tuple[int, int]:
    """theta_K / pi = t / L exactly, for phases m1 pi/p1 and m2 pi/p2.

    With L = lcm(p1, p2) both phases are integers mod 2L in units of pi/L, so
    the circular distance of their K-th multiples is an integer t in [0, L].
    """
    big = math.lcm(p1, p2)
    a = k * m1 * (big // p1) % (2 * big)
    b = k * m2 * (big // p2) % (2 * big)
    d = abs(a - b)
    return min(d, 2 * big - d), big


def _exact_verdict(t: int, big: int) -> str:
    # |tr| = 2 cos(theta/2) <= sqrt(2) exactly when theta >= pi/2
    if 2 * t > big:
        return "chaotic"
    return "non_chaotic" if 2 * t < big else "boundary"


def _phase_order(units_of_pi: Fraction) -> int:
    """Smallest n >= 1 with n * phase a multiple of 2 pi."""
    return 2 * units_of_pi.denominator // math.gcd(units_of_pi.numerator,
                                                    2 * units_of_pi.denominator)


def check_rows(rows, k_max: int, reference) -> list[str]:
    """Compare scan rows with ``reference(K) -> (theta or None, tr, verdict or None)``.

    A theta of None is not compared; a verdict of None means the order lies
    inside the boundary band and any verdict is accepted.
    """
    if not isinstance(rows, list) or len(rows) != k_max:
        return [f"expected {k_max} scan rows, got "
                f"{len(rows) if isinstance(rows, list) else type(rows).__name__}"]
    errors: list[str] = []
    for k, row in enumerate(rows, start=1):
        if row.get("K") != k:
            errors.append(f"row {k}: K = {row.get('K')}")
        else:
            theta, tr, verdict = reference(k)
            if not 0.0 <= row["H"] <= 1.0:
                errors.append(f"K={k}: H = {row['H']} outside [0, 1]")
            if abs(row["trace_mag"] - tr) > TR_TOL:
                errors.append(f"K={k}: trace_mag {row['trace_mag']} != reference {tr}")
            if theta is not None and abs(row["theta"] - theta) > REL_TOL * max(1.0, theta):
                errors.append(f"K={k}: theta {row['theta']} != reference {theta}")
            if verdict is not None and row["verdict"] != verdict:
                errors.append(f"K={k}: verdict {row['verdict']} != reference {verdict}")
        if len(errors) >= 5:
            errors.append("further rows not checked")
            break
    return errors


def float_reference(phi: float, psi: float):
    half = 0.5 * (phi - psi)

    def ref(k: int):
        tr = 2.0 * abs(math.cos(k * half))
        return None, tr, _float_verdict(tr)

    return ref


def exact_reference(m1: int, p1: int, m2: int, p2: int):
    def ref(k: int):
        t, big = exact_theta_over_pi(m1, p1, m2, p2, k)
        theta = t / big * math.pi
        return theta, 2.0 * math.cos(theta / 2.0), _exact_verdict(t, big)

    return ref


def _mod2(x: decimal.Decimal) -> decimal.Decimal:
    r = x % 2  # Decimal remainders take the sign of the dividend
    return r + 2 if r < 0 else r


def quadratic_phases(a: int, b: int, t: int, digits: int = 80):
    """(alpha^t mod 2, beta^t mod 2, alpha^t - beta^t) as Decimals, in units of pi.

    80 digits leave over 60 after the point for |alpha^t| < 1e14, the largest
    value the workload's seeds reach.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        root = decimal.Decimal(a * a - 4 * b).sqrt()
        alpha_t = ((-a + root) / 2) ** t
        beta_t = ((-a - root) / 2) ** t
        return _mod2(alpha_t), _mod2(beta_t), alpha_t - beta_t


def quadratic_reference(diff: decimal.Decimal, digits: int = 80):
    def ref(k: int):
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            x = (k * diff) % 2  # |cos| is even, so the remainder's sign is harmless
        tr = 2.0 * abs(math.cos(float(x) * math.pi / 2.0))
        return None, tr, _float_verdict(tr)

    return ref


def _check_quadratic(doc: dict, spec: dict) -> list[str]:
    r_alpha, r_beta, diff = quadratic_phases(spec["a"], spec["b"], spec["t"])
    body = doc["analysis"]
    errors = []
    for name, want in (("phi", float(r_alpha) * math.pi), ("psi", float(r_beta) * math.pi)):
        got = body["phases"][name]
        if abs(got - want) > REL_TOL * max(1.0, want):
            errors.append(f"phase {name} {got} != reference {want}")
    if doc["construction"]["s_t"] % 2:
        errors.append(f"s_t = {doc['construction']['s_t']} is odd")
    return errors + check_rows(body["scan"], spec["k_max"], quadratic_reference(diff))


def _check_noise(doc: dict, spec: dict) -> list[str]:
    noise = doc["noise"]
    steps = spec["steps"]
    counts = noise["verdict_counts"]
    errors = []
    if sum(counts.values()) != steps:
        errors.append(f"verdict counts sum to {sum(counts.values())}, not {steps}")
    if not spec["full"]:
        return errors
    walk = noise.get("walk")
    if not isinstance(walk, list) or len(walk) != steps:
        return errors + [f"walk has {len(walk) if isinstance(walk, list) else 0} "
                         f"rows, not {steps}"]
    base_sum = noise["base"]["phi"] + noise["base"]["psi"]
    seen = {"chaotic": 0, "non_chaotic": 0, "boundary": 0}
    for i, row in enumerate(walk):
        seen[row["verdict"]] = seen.get(row["verdict"], 0) + 1
        tr = 2.0 * abs(math.cos(0.5 * (row["phi"] - row["psi"])))
        drift = math.remainder(row["phi"] + row["psi"] - base_sum, TWO_PI)
        verdict = _float_verdict(tr)
        if (abs(row["trace_mag"] - tr) > TR_TOL or abs(drift) > TR_TOL
                or (verdict is not None and row["verdict"] != verdict)):
            errors.append(f"walk step {i}: {row} disagrees with the reference")
            if len(errors) >= 5:
                break
    if seen != counts:
        errors.append(f"walk verdicts {seen} != verdict_counts {counts}")
    return errors


def _check_census(doc: dict, spec: dict) -> list[str]:
    c = doc["census"]
    n = spec["n"]
    errors = []
    if c["n_trials"] != n:
        errors.append(f"n_trials {c['n_trials']} != {n}")
    if abs(c["chaotic_count"] / n - c["fraction"]) > REL_TOL:
        errors.append("fraction != chaotic_count / n_trials")
    if abs(c["half_width_3sigma"] - 3.0 * math.sqrt(0.25 / n)) > REL_TOL:
        errors.append(f"half_width_3sigma {c['half_width_3sigma']} is not 3 sqrt(1/(4n))")
    if abs(c["fraction"] - 0.5) > CENSUS_BAND * c["half_width_3sigma"]:
        errors.append(f"fraction {c['fraction']} is more than 5 sigma from 1/2")
    return errors


def _check_simulate(doc: dict, spec: dict) -> list[str]:
    errors = []
    if doc["abs_diff"] is None or doc["abs_diff"] > SIM_ABS_DIFF_MAX:
        errors.append(f"abs_diff {doc['abs_diff']} exceeds {SIM_ABS_DIFF_MAX}")
    prefix = Path(spec["out"])
    stream = prefix.with_suffix(".stream")
    data = stream.read_bytes() if stream.exists() else b""
    if len(data) != spec["steps"] or (data and max(data) > 1):
        errors.append(f"stream file has {len(data)} bytes, want {spec['steps']} in {{0, 1}}")
    sidecar = prefix.with_suffix(".json")
    if not sidecar.exists() or json.loads(sidecar.read_text())["seed"] != doc["seed"]:
        errors.append("sidecar JSON is missing or does not match the document")
    return errors


def _check_optimize(doc: dict, spec: dict) -> list[str]:
    body = doc["optimize"]
    d = spec["d"]
    errors = []
    if body["d"] != d:
        return [f"d = {body['d']}, want {d}"]
    if not 0.0 <= body["value_bits"] <= math.log2(d) + 1e-12:
        errors.append(f"value {body['value_bits']} outside [0, log2 {d}]")
    cols = [[complex(re, im) for re, im in col] for col in body["basis"]]
    for i in range(d):
        for j in range(d):
            dot = sum(x.conjugate() * y for x, y in zip(cols[i], cols[j]))
            if abs(dot - (1.0 if i == j else 0.0)) > 1e-9:
                errors.append(f"basis columns {i}, {j} are not orthonormal")
    if d == 2 and not body["abs_diff"] <= doc["manifest"]["parameters"]["match_tol"]:
        errors.append(f"d=2 optimum misses the closed form by {body['abs_diff']}")
    return errors


def check_document(spec: dict, text: str) -> list[str]:
    """Dispatch on ``spec['kind']``; any exception in a check is a failure."""
    kind = spec["kind"]
    try:
        if kind == "golden":
            return check_golden(text, Path(spec["path"]).read_text())
        doc = json.loads(text)
        if kind == "scan_float":
            return check_rows(doc["scan"], spec["k_max"], float_reference(
                _phase_radians(spec["phi"]), _phase_radians(spec["psi"])))
        if kind == "scan_exact":
            (m1, p1), (m2, p2) = spec["phases"]
            return check_rows(doc["scan"], spec["k_max"], exact_reference(m1, p1, m2, p2))
        if kind == "analyze_exact":
            (m1, p1), (m2, p2), (mg, pg) = spec["phases"]
            order = math.lcm(*(_phase_order(Fraction(mg, pg) + Fraction(m, p))
                               for m, p in ((m1, p1), (m2, p2))))
            errors = []
            if doc["idempotency"]["order"] != order:
                errors.append(f"idempotency order {doc['idempotency']['order']} != {order}")
            return errors + check_rows(doc["scan"], spec["k_max"],
                                       exact_reference(m1, p1, m2, p2))
        checker = {"construct_quadratic": _check_quadratic, "noise": _check_noise,
                   "census": _check_census, "simulate": _check_simulate,
                   "optimize": _check_optimize}[kind]
        return checker(doc, spec)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return [f"malformed document: {type(exc).__name__}: {exc}"]

"""Seeded inputs and invocation lists for the three benchmark workloads.

Every input a command receives is generated here from the workload seed:
float pairs, rational phases, quadratic seeds, the Haar d=3 unitary and the
per-command stream seeds.  The same seed gives the same invocation list, and
a different seed gives a list of the same size, so a claim can be re-checked
on an unused seed without the amount of work changing.

Each workload is single-threaded (no ``--threads`` flag) and passes every
command only flags that command acts on.  Documents go to ``--json <file>``
so the file-output layer runs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

#: Orders per scan in ``bulk_docs``: large enough that schema validation,
#: rounding and the dump outweigh the ~1 s import of every command.
BULK_K_MAX = 5000
#: Walk steps of ``noise --full`` in ``bulk_docs`` (one document row per step).
BULK_NOISE_STEPS = 10_000
#: Trajectory length of ``simulate`` in ``stochastic``.
SIM_STEPS = 3_000_000
SIM_BLOCK_LEN = 8
#: Census trials in ``stochastic``.
CENSUS_N = 20_000_000
#: Walk steps of ``noise`` (summary only) in ``stochastic``.
NOISE_STEPS = 200_000
#: Restarts of the d=2 optimize; its evaluation count varies by about 2%
#: across seeds.
OPT_D2_RESTARTS = 256
#: Restarts and iteration cap of the d=3 optimize.  Half of the restarts need
#: more than 300 Nelder-Mead iterations, so the cap makes every restart do
#: about the same work: at the CLI default of 2000 the summed evaluation
#: count varied from 19k to 23k across seeds, at 300 by under 3%.
OPT_D3_RESTARTS = 48
OPT_D3_MAX_ITERS = 300

#: Rational phases use prime denominators from this range.
PRIME_RANGE = (101, 997)
#: --n-cap for ``analyze`` on a rational spec: the strict order of three
#: phases with prime denominators below 1000 stays under 2 * 997**3.
ANALYZE_N_CAP = 10**10


@dataclass
class Invocation:
    """One fresh-process CLI run and what its output is checked against."""

    name: str
    argv: list[str]
    check: dict
    size: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)  # extra input files: name -> text


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1)
            if n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))]


def float_phase(rng: random.Random) -> str:
    """A decimal multiple of pi in [0, 2); the '.' keeps it on the float path."""
    return f"{rng.uniform(0.0, 2.0):.10f}"


def rational_phase(rng: random.Random, primes: list[int]) -> tuple[int, int]:
    p = rng.choice(primes)
    return rng.randrange(1, 2 * p), p


def quadratic_seed(rng: random.Random) -> tuple[int, int, int]:
    """(a, b, t) with a, b < 0, a non-square discriminant and an even s_t."""
    while True:
        a, b, t = rng.randint(-9, -1), rng.randint(-60, -1), rng.randint(3, 12)
        disc = a * a - 4 * b
        if math.isqrt(disc) ** 2 == disc:
            continue
        s_prev, s = 2, -a  # s_t = alpha^t + beta^t by s_{t+1} = -a s_t - b s_{t-1}
        for _ in range(t - 1):
            s_prev, s = s, -a * s - b * s_prev
        if s % 2 == 0:
            return a, b, t


def haar_unitary(rng: random.Random, d: int = 3) -> list[list[complex]]:
    """Haar-random U(d): Gram-Schmidt on a complex Ginibre matrix, columns
    normalized so the diagonal of R is positive (Mezzadri's phase fix)."""
    cols = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
            for _ in range(d)]
    basis: list[list[complex]] = []
    for v in cols:
        for _ in range(2):  # re-orthogonalize once for a clean 1e-15 residual
            for q in basis:
                c = sum(qi.conjugate() * vi for qi, vi in zip(q, v))
                v = [vi - c * qi for vi, qi in zip(v, q)]
        norm = math.sqrt(sum(abs(vi) ** 2 for vi in v))
        basis.append([vi / norm for vi in v])
    # basis[j] is column j; the matrix has rows i = [basis[j][i] for j]
    return [[basis[j][i] for j in range(d)] for i in range(d)]


def unitary_json(u: list[list[complex]]) -> str:
    return json.dumps([[[z.real, z.imag] for z in row] for row in u])


def _cmd_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**63))


def golden_replay(seed: int, root: Path) -> list[Invocation]:
    """The golden argument sets, read at run time; the seed only orders them."""
    golden = root / "tests" / "golden"
    cases = json.loads((golden / "cases.json").read_text())
    names = sorted(cases)
    random.Random(seed).shuffle(names)
    return [Invocation(name, list(cases[name]),
                       {"kind": "golden", "path": str(golden / f"{name}.json")})
            for name in names]


def bulk_docs(seed: int, root: Path) -> list[Invocation]:
    """Large-K scans and a full noise walk: documents of thousands of rows."""
    rng = random.Random(seed)
    primes = _primes(*PRIME_RANGE)
    k = str(BULK_K_MAX)

    phi, psi = float_phase(rng), float_phase(rng)
    (m1, p1), (m2, p2), (mg, pg) = (rational_phase(rng, primes) for _ in range(3))
    (n1, q1), (n2, q2), (ng, qg) = (rational_phase(rng, primes) for _ in range(3))
    a, b, t = quadratic_seed(rng)
    noise_psi, eps = float_phase(rng), f"{rng.uniform(0.01, 0.2):.6f}"
    noise_seed = _cmd_seed(rng)

    return [
        Invocation("scan_float", ["scan", "--phi", phi, "--psi", psi, "--k-max", k],
                   {"kind": "scan_float", "phi": phi, "psi": psi, "k_max": BULK_K_MAX},
                   {"k_max": BULK_K_MAX}),
        Invocation("scan_exact",
                   ["scan", "--phi", f"{m1}/{p1}", "--psi", f"{m2}/{p2}",
                    "--global-phase", f"{mg}/{pg}", "--k-max", k],
                   {"kind": "scan_exact", "phases": [[m1, p1], [m2, p2]],
                    "k_max": BULK_K_MAX},
                   {"k_max": BULK_K_MAX}),
        Invocation("construct_quadratic",
                   ["construct", "quadratic", "--a", str(a), "--b", str(b), "--t", str(t),
                    "--k-max", k],
                   {"kind": "construct_quadratic", "a": a, "b": b, "t": t,
                    "k_max": BULK_K_MAX},
                   {"k_max": BULK_K_MAX, "t": t}),
        Invocation("noise_full",
                   ["noise", "--psi", noise_psi, "--epsilon", eps,
                    "--steps", str(BULK_NOISE_STEPS), "--seed", noise_seed, "--full"],
                   {"kind": "noise", "steps": BULK_NOISE_STEPS, "full": True},
                   {"steps": BULK_NOISE_STEPS}),
        # analyze adds the idempotency path, which no scan or construct runs
        Invocation("analyze_exact",
                   ["analyze", "--phi", f"{n1}/{q1}", "--psi", f"{n2}/{q2}",
                    "--global-phase", f"{ng}/{qg}", "--k-max", k,
                    "--n-cap", str(ANALYZE_N_CAP)],
                   {"kind": "analyze_exact", "phases": [[n1, q1], [n2, q2], [ng, qg]],
                    "k_max": BULK_K_MAX},
                   {"k_max": BULK_K_MAX}),
    ]


def stochastic(seed: int, root: Path) -> list[Invocation]:
    """Sampler, estimator, census, noise walk and optimizer; tiny documents."""
    rng = random.Random(seed)
    sim_phi, sim_psi, sim_seed = float_phase(rng), float_phase(rng), _cmd_seed(rng)
    census_seed = _cmd_seed(rng)
    noise_psi, eps = float_phase(rng), f"{rng.uniform(0.01, 0.2):.6f}"
    noise_seed = _cmd_seed(rng)
    u3 = unitary_json(haar_unitary(rng, 3))
    opt3_seed = _cmd_seed(rng)
    opt2_phi, opt2_psi, opt2_seed = float_phase(rng), float_phase(rng), _cmd_seed(rng)

    return [
        Invocation("simulate",
                   ["simulate", "--phi", sim_phi, "--psi", sim_psi, "--basis", "x",
                    "--steps", str(SIM_STEPS), "--block-len", str(SIM_BLOCK_LEN),
                    "--seed", sim_seed, "--out", "{tmp}/traj"],
                   {"kind": "simulate", "steps": SIM_STEPS, "out": "{tmp}/traj"},
                   {"steps": SIM_STEPS, "block_len": SIM_BLOCK_LEN}),
        Invocation("census", ["census", "--n", str(CENSUS_N), "--seed", census_seed],
                   {"kind": "census", "n": CENSUS_N}, {"n": CENSUS_N}),
        Invocation("noise",
                   ["noise", "--psi", noise_psi, "--epsilon", eps,
                    "--steps", str(NOISE_STEPS), "--seed", noise_seed],
                   {"kind": "noise", "steps": NOISE_STEPS, "full": False},
                   {"steps": NOISE_STEPS}),
        Invocation("optimize_d3",
                   ["optimize", "--unitary-json", "{tmp}/u3.json",
                    "--restarts", str(OPT_D3_RESTARTS), "--max-iters", str(OPT_D3_MAX_ITERS),
                    "--seed", opt3_seed],
                   {"kind": "optimize", "d": 3},
                   {"d": 3, "restarts": OPT_D3_RESTARTS, "max_iters": OPT_D3_MAX_ITERS},
                   {"u3.json": u3}),
        # the d=2 objective is a separate scalar code path from the d=3 one
        Invocation("optimize_d2",
                   ["optimize", "--phi", opt2_phi, "--psi", opt2_psi,
                    "--restarts", str(OPT_D2_RESTARTS), "--seed", opt2_seed],
                   {"kind": "optimize", "d": 2},
                   {"d": 2, "restarts": OPT_D2_RESTARTS}),
    ]


WORKLOADS = {"golden_replay": golden_replay, "bulk_docs": bulk_docs,
             "stochastic": stochastic}

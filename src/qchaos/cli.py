"""Command-line surface: analyze, construct, scan, census, simulate, noise, optimize.

Every command emits a JSON document with an embedded run manifest (command,
resolved parameters, seed, version, timestamp).  Re-running a command with
the same arguments reproduces the document bit-identically apart from the
timestamp.  A flag is registered only on the commands it acts on, and a flag
the source would drop exits 2: a phase beside --spec-json or --unitary-json,
or --global-phase beside an inexact phase.
``resolve_source`` gives a float pair, an exact spec (decided exactly) or a
quadratic recipe; the documents write its ``kind``, ``rationality`` and
``to_json()``, scans run on it, and other commands on ``source.pair()``.
``simulate`` is ``simulate.entropy_rate_experiment``, the one pipeline,
over the basis names computational, x and optimized (fitted to U^period);
with --out it writes PREFIX.stream block by block as it samples, and its
document also to PREFIX.json.
``noise`` counts the verdicts of the walk's blocks as they come; --full then
draws the walk again from its seed to write its rows.  ``jsontext.write``
writes every document, floats at 12 significant digits, each table (the scan
rows, the noise walk, and the scan's --csv) a piece of rows at a time as its
blocks come, so no command holds memory that grows with --k-max or --steps.
``_outputs`` owns every file a command writes (--json, --csv, and
PREFIX.stream and PREFIX.json of --out): it opens them all before the command
runs, and a failed command, its argument checks included, removes them; an
empty path exits 2, and so do two outputs that are one file, before any is
opened.  The documents follow
``schemas/output.schema.json``, the output contract, checked by the test
suite rather than on every run.  Exit codes: 0 success, 2 validation error.

The CLI runs OpenBLAS single-threaded unless OPENBLAS_NUM_THREADS is set:
this module sets it to 1 before numpy loads.  ``import qchaos`` loads each
submodule on first use, so ``python -m qchaos.cli`` and the ``qchaos``
script reach this module before numpy.  ``main()`` without an argument list,
the process entry, first freezes the cycle collector's objects (gc.freeze), so
exit does not tear numpy and qchaos down through it; in-process callers pass a
list.  A negative phase starts with '-', which argparse reads as an option:
write ``--psi=-1/2``, and ``construct rational -- -1/4 1/4``.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import gc
import json
import math
import os
import sys
from pathlib import Path

# qchaos's only BLAS/LAPACK calls (transition_matrix, matrix_power, the Gram
# and unitarity checks, basis_from_angles, eigvalsh) are on d <= 3 matrices,
# where OpenBLAS's worker threads get no work and only spin until they time
# out; this must run before numpy loads, and a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .chaoticity import (
    VERDICT_LABELS,
    chaoticity_scan,
    idempotency_order,
    projective_idempotency_order,
    qubit_entropy_closed,
)
from .constructions import (
    QuadraticRecipe,
    build_chaotic_order,
    quadratic_trace_sequence,
    source_from_json,
)
from .entropy import pvm_entropy_optimize
from .jsontext import Rows, cells, row_pieces, write
from .phases import (
    EigenphasePair,
    ExactUnitarySpec,
    RationalPhase,
    TWO_PI,
    eigenphases_of,
    mod_2pi,
    require_count,
    require_unitary,
    unitary_power,
)
from .simulate import (
    _BASIS_CHOICES,
    entropy_rate_experiment,
    monte_carlo_chaotic_fraction,
    noisy_phase_walk,
)


def parse_phase(text: str, exact: str | None = None):
    """Parse a CLI phase: 'm/p' or an integer are exact multiples of pi,
    a decimal is a float multiple of pi, and 'rad:x' is raw radians.  With
    ``exact``, the name of an argument that must be exact, a float phase
    raises ValueError quoting the text as typed."""
    text = text.strip()
    if "/" in text and not text.startswith("rad:"):
        num, den = text.split("/", 1)
        return RationalPhase(int(num), int(den))
    try:
        return RationalPhase(int(text), 1)
    except ValueError:
        if exact:
            raise ValueError(f"{exact} must be an exact rational phase, got {text!r}") from None
    return mod_2pi(float(text[4:]) if text.startswith("rad:") else float(text) * math.pi)


def resolve_source(args):
    """Turn CLI source arguments into an ExactUnitarySpec, QuadraticRecipe or
    pair, or a matrix for --unitary-json.  Raises ValueError where the source
    would drop a flag: a phase beside --spec-json or --unitary-json, or
    --global-phase unless it, phi and psi are all exact."""
    given = [n for n in ("spec_json", "unitary_json", "phi", "psi", "global_phase")
             if getattr(args, n, None) is not None]
    if given and given[0].endswith("_json"):
        if len(given) > 1:
            flags = [f"--{n.replace('_', '-')}" for n in given]
            raise ValueError(f"{flags[0]} cannot be combined with {', '.join(flags[1:])}")
        if given == ["spec_json"]:
            return source_from_json(Path(args.spec_json).read_text())
        rows = json.loads(Path(args.unitary_json).read_text())
        if not (isinstance(rows, list) and all(
                isinstance(row, list) and len(row) == len(rows) and all(
                    isinstance(z, list) and len(z) == 2 and all(type(x) in (int, float) for x in z)
                    for z in row) for row in rows)):
            raise ValueError("--unitary-json must hold a d x d nested list of [re, im] pairs")
        return require_unitary(np.array([[complex(re, im) for re, im in row] for row in rows]))
    if "psi" not in given:
        raise ValueError("a unitary source is required: --psi, --phi/--psi or --spec-json")
    phi, psi, g = (parse_phase(getattr(args, n)) if n in given else None
                   for n in ("phi", "psi", "global_phase"))
    if phi is None:  # SU(2) completion from the single phase: phi = -psi mod 2*pi
        phi = RationalPhase(-psi.m, psi.p) if isinstance(psi, RationalPhase) else TWO_PI - psi
    exact = isinstance(phi, RationalPhase) and isinstance(psi, RationalPhase)
    if g is not None and not (exact and isinstance(g, RationalPhase)):
        raise ValueError("--global-phase needs exact phases: --phi, --psi and itself as m/p")
    if exact:
        return ExactUnitarySpec(phi, psi, g or RationalPhase(0))
    return EigenphasePair(*(v.radians() if isinstance(v, RationalPhase) else v
                            for v in (phi, psi)))


def _manifest(command: str, parameters: dict, seed: int | None) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


@contextlib.contextmanager
def _outputs(args):
    """Every file the command writes, opened before it runs: the --json file
    (stdout for '-'), the --csv file, and PREFIX.stream and PREFIX.json of
    --out, each None when not asked for.  Two that resolve to one file raise
    ValueError before any is opened.  If the command then fails, each is closed
    and, when a regular file, removed, so an exit 2 leaves none of them."""
    out = getattr(args, "out", None)
    wanted = [("--json", None if args.json == "-" else args.json, "w"),
              ("--csv", getattr(args, "csv", None), "w"),
              ("--out", out and f"{Path(out)}.stream", "wb"),
              ("--out", out and f"{Path(out)}.json", "w")]
    seen = {}
    for flag, path, _ in wanted:
        if path:
            real = os.path.realpath(path)
            if real in seen:
                raise ValueError(f"{seen[real]} and {flag} name one file, {path}")
            seen[real] = flag
    opened, done = [], False
    try:
        for _, path, mode in wanted:
            opened.append(path and open(path, mode))
        yield opened[0] or sys.stdout, *opened[1:]
        done = True
    finally:
        for f in filter(None, opened):
            f.close()
            if not done and os.path.isfile(f.name):
                os.remove(f.name)


def _csv_written(blocks, file):
    """The rows of column blocks a piece at a time, each also written to ``file`` as
    CSV: a header, then one %s template a piece (floats as repr; no field is quoted)."""
    for i, piece in enumerate(row_pieces(blocks)):
        if i == 0:
            file.write(",".join(piece) + "\n")
        columns = list(piece.values())
        file.write((",".join(["%s"] * len(columns)) + "\n") * len(columns[0]) % cells(columns))
        yield piece


def _emit(doc: dict, out, csv_file=None, sidecar=None) -> None:
    """Write ``doc`` to ``out`` (--json) and to ``sidecar`` (PREFIX.json) as it
    is formatted, and with ``csv_file`` (--csv) its "scan" rows to that file as
    they are; a NaN or inf raises ValueError."""
    if csv_file is not None:
        doc = dict(doc, scan=Rows(_csv_written(doc["scan"].blocks, csv_file)))
    for file in filter(None, (out, sidecar)):
        write(doc, file)


_LABELS = np.array(VERDICT_LABELS, dtype=object)  # verdict codes -> the label strings


def _scan_rows(scan) -> Rows:
    """The scan table, one column block per block of orders."""
    return Rows({"K": b.k, "theta": b.theta, "H": b.entropy_bits, "trace_mag": b.trace_mag,
                 "verdict": _LABELS[b.codes]} for b in scan)


def _source_doc(source) -> dict:
    """The input block; a quadratic recipe is written by its (a, b, t), without phases."""
    pair = source.pair()
    phases = (None, None) if source.kind == "quadratic" else (pair.phi, pair.psi)
    return {"kind": source.kind, "phi": phases[0], "psi": phases[1],
            "spec": None if source.kind == "float_pair" else source.to_json()}


_NO_ORDER_REASON = {"irrational_certified": "irrational_phase",
                    "unknown": "unknown_phase_rationality"}


def _analysis_body(source, k_max: int, n_cap: int) -> dict:
    """Scan + per-order closed-form entropy + idempotency/rationality block."""
    n_cap = require_count("n_cap", n_cap)
    pair = source.pair()
    rationality = source.rationality
    exact = rationality == "rational"  # an exact spec
    if exact:  # the strict order first: its IdempotencyCapError is the one raised
        idem = {"order": idempotency_order(source, n_cap), "reason": None,
                "inner_denominator_lcm": math.lcm(source.phase1.p, source.phase2.p)}
    else:
        idem = {"order": None, "reason": _NO_ORDER_REASON[rationality],
                "inner_denominator_lcm": None}
    projective = projective_idempotency_order(source, n_cap) if exact else None
    scan = _scan_rows(chaoticity_scan(source, k_max))
    body = {
        "input": _source_doc(source),
        "phases": {"phi": pair.phi, "psi": pair.psi},
        "rationality": rationality,
        "idempotency": idem,
        "projective_order": projective,
        "entropy_bits": qubit_entropy_closed(pair),
        "scan": scan,
    }
    if source.kind == "quadratic":
        body["quadratic_build"] = {"classification": source.classification,
                                   "s_t": source.s_t}
    return body


def cmd_analyze(args) -> dict:
    source = resolve_source(args)
    body = _analysis_body(source, args.k_max, args.n_cap)
    return {"manifest": _manifest("analyze", {
        "source": body["input"], "k_max": args.k_max, "n_cap": args.n_cap,
    }, None), **body}


def cmd_scan(args) -> dict:
    source = resolve_source(args)
    scan = _scan_rows(chaoticity_scan(source, args.k_max))
    return {"manifest": _manifest("scan", {"source": _source_doc(source),
                                           "k_max": args.k_max}, None),
            "scan": scan}


def cmd_construct(args) -> dict:
    construction: dict = {"kind": args.kind}
    if args.kind == "rational":
        source = ExactUnitarySpec(parse_phase(args.phase1, "phase1"),
                                  parse_phase(args.phase2, "phase2"),
                                  parse_phase(args.global_phase or "0", "global_phase"))
        params = source.to_json()
    elif args.kind == "chaotic-order-k":
        source, prime = build_chaotic_order(args.order)
        construction.update(order=args.order, prime=prime)
        params = {"order": args.order}
    else:  # argparse allows only the three kinds
        source = QuadraticRecipe(args.a, args.b, args.t)
        params = {"a": args.a, "b": args.b, "t": args.t}
    construction["source"] = source.to_json()
    params["kind"] = args.kind

    body = _analysis_body(source, args.k_max, args.n_cap)
    if args.kind == "quadratic":
        trace = quadratic_trace_sequence(source.a, source.b, source.t)
        construction.update(classification=source.classification, s_t=source.s_t,
                            trace_values=list(trace))
    return {"manifest": _manifest("construct", params, None),
            "construction": construction, "analysis": body}


def cmd_census(args) -> dict:
    result = monte_carlo_chaotic_fraction(args.n, args.seed)
    return {"manifest": _manifest("census", {"n": args.n}, args.seed),
            "census": result._asdict()}


def cmd_simulate(args) -> dict:
    pair = resolve_source(args).pair()
    run = entropy_rate_experiment(pair, args.basis, args.steps, args.block_len, args.seed,
                                  args.period, args.stream)
    config_doc = {"phi": pair.phi, "psi": pair.psi, "basis": args.basis,
                  "steps": args.steps, "period": args.period,
                  "block_len": args.block_len, "initial": "maximally_mixed"}
    return {
        "manifest": _manifest("simulate", config_doc, args.seed),
        "config": config_doc,
        "seed": args.seed,
        "empirical_rate": run.empirical,
        "predicted_rate": run.predicted,
        "abs_diff": run.abs_diff,
    }


def cmd_noise(args) -> dict:
    pair = resolve_source(args).pair()
    walk = functools.partial(noisy_phase_walk, pair, args.epsilon, args.steps, args.seed)
    counts = sum(np.bincount(b.codes, minlength=len(VERDICT_LABELS)) for b in walk())
    doc = {
        "manifest": _manifest("noise", {"phi": pair.phi, "psi": pair.psi,
                                        "epsilon": args.epsilon, "steps": args.steps},
                              args.seed),
        "noise": {
            "base": {"phi": pair.phi, "psi": pair.psi},
            "epsilon": args.epsilon,
            "steps": args.steps,
            "verdict_counts": dict(zip(VERDICT_LABELS, counts.tolist())),
        },
    }
    if args.full:  # "verdict_counts" comes first, so the rows are of the walk drawn again
        doc["noise"]["walk"] = Rows({"phi": b.phi, "psi": b.psi, "trace_mag": b.trace_mag,
                                     "verdict": _LABELS[b.codes]} for b in walk())
    return doc


def cmd_optimize(args) -> dict:
    if not 0.0 <= args.match_tol < math.inf:  # also false for NaN
        raise ValueError(f"match-tol must be finite and >= 0, got {args.match_tol}")
    source = resolve_source(args)  # --unitary-json resolves to the matrix itself
    u = source if isinstance(source, np.ndarray) else unitary_power(source.pair())
    result = pvm_entropy_optimize(u, args.restarts, args.max_iters, args.seed)
    body = {
        "d": u.shape[0],
        "value_bits": result.value,
        "restarts": args.restarts,
        "basis": [[[v.real, v.imag] for v in col]
                  for col in result.optimal_basis.vectors.T],
    }
    if u.shape[0] == 2:
        closed = qubit_entropy_closed(eigenphases_of(u)[0])
        body["closed_form_bits"] = closed
        body["abs_diff"] = abs(result.value - closed)
        body["matches_closed_form"] = abs(result.value - closed) <= args.match_tol
    return {"manifest": _manifest("optimize", {"restarts": args.restarts,
                                               "max_iters": args.max_iters,
                                               "match_tol": args.match_tol}, args.seed),
            "optimize": body}


def _path(text: str) -> str:
    """An output path; an empty one is rejected, as it names no file."""
    if not text:
        raise argparse.ArgumentTypeError("an output path must not be empty")
    return text


def _add_common(p: argparse.ArgumentParser, seed: bool = False, csv: bool = False,
                out: bool = False) -> None:
    """--json everywhere; --seed, --csv and --out where they act."""
    if seed:
        p.add_argument("--seed", type=int, default=0,
                       help="64-bit seed of the command's random streams")
    p.add_argument("--json", metavar="PATH", type=_path, default="-",
                   help="write the JSON document here ('-' = stdout)")
    if csv:
        p.add_argument("--csv", metavar="PATH", type=_path,
                       help="also write the tabular report as CSV")
    if out:
        p.add_argument("--out", metavar="PREFIX", type=_path,
                       help="output prefix for the stream and sidecar files")


def _add_source_args(p: argparse.ArgumentParser, global_phase: bool = False) -> None:
    p.add_argument("--phi", help="first eigenphase (units of pi; 'm/p' exact, 'rad:' "
                   "radians); join a negative one with '=': --phi=-1/2")
    p.add_argument("--psi", help="second eigenphase; alone it implies the SU(2) "
                   "completion; join a negative one with '=': --psi=-1/2")
    if global_phase:
        p.add_argument("--global-phase",
                       help="scalar prefactor phase (units of pi); needs exact phases")
    p.add_argument("--spec-json", metavar="PATH", help="JSON build source (rational or quadratic)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchaos",
        description="Chaoticity orders and PVM dynamical entropy of two-level unitaries.")
    parser.add_argument("--version", action="version", version=f"qchaos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="scan chaoticity orders, entropy and idempotency")
    _add_source_args(p, global_phase=True)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--n-cap", type=int, default=1_000_000)
    _add_common(p, csv=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scan", help="chaoticity scan rows only")
    _add_source_args(p, global_phase=True)
    p.add_argument("--k-max", type=int, default=8)
    _add_common(p, csv=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("construct", help="build a unitary family member and analyze it")
    kinds = p.add_subparsers(dest="kind", required=True)
    pr = kinds.add_parser("rational", help="exact rational-phase unitary")
    pr.add_argument("phase1", help="first inner phase, units of pi (e.g. 1/4); put '--' "
                    "before negative phases: rational -- -1/4 1/4")
    pr.add_argument("phase2", help="second inner phase, units of pi")
    pr.add_argument("--global-phase", help="prefactor phase, units of pi")
    pk = kinds.add_parser("chaotic-order-k", help="unitary chaotic at a prescribed order")
    pk.add_argument("--order", "-K", type=int, required=True)
    pq = kinds.add_parser("quadratic", help="non-idempotent pair from a quadratic seed")
    for name in ("--a", "--b", "--t"):
        pq.add_argument(name, type=int, required=True)
    for p in (pr, pk, pq):
        p.add_argument("--k-max", type=int, default=8)
        p.add_argument("--n-cap", type=int, default=1_000_000)
        _add_common(p)
        p.set_defaults(func=cmd_construct)

    p = sub.add_parser("census", help="uniform-psi chaotic-fraction census")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("simulate", help="sample a measured trajectory and estimate its rate")
    _add_source_args(p)
    p.add_argument("--basis", choices=list(_BASIS_CHOICES), default="x")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--period", type=int, default=1,
                   help="measure after every period-th application")
    p.add_argument("--block-len", type=int, default=8)
    _add_common(p, seed=True, out=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("noise", help="uniform phase-noise walk with per-step verdicts")
    _add_source_args(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--full", action="store_true", help="include every walk step")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("optimize", help="variational PVM entropy over measurement bases")
    _add_source_args(p)
    p.add_argument("--unitary-json", metavar="PATH",
                   help="d x d matrix as nested [re, im] pairs (d in {2, 3})")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--match-tol", type=float, default=1e-3)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None) -> int:
    if argv is None:  # the process entry: exit then skips the collector's teardown, and
        gc.freeze()  # loses nothing, as every output file is closed and stdout is flushed
    args = build_parser().parse_args(argv)
    try:
        with _outputs(args) as (out, csv_file, stream, sidecar):
            args.stream = stream  # simulate --out samples into it as it runs
            _emit(args.func(args), out, csv_file, sidecar)  # each command builds its document
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

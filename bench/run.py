"""Fresh-process benchmark of the qchaos CLI.

Usage, from the repository root::

    python3 bench/run.py --workload {golden_replay,bulk_docs,stochastic} \\
        --seed N --seconds S --trace {0,1}

Every invocation is ``python -m qchaos.cli ...`` with ``src`` on
``PYTHONPATH``, run as a fresh child process, one at a time, from this single
parent process, so import cost is part of every number.  The workload's
invocation list runs in passes until ``--seconds`` is used up (at least one
pass); each output document is checked, and a nonzero exit, a timeout or a
failed check counts as a failure.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
invocation twice in each pass, plain and through ``trace_child.py``, and
reports the per-layer metrics, each command's span self times and the
tracing overhead (traced minus untraced wall time).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
from workloads import WORKLOADS, Invocation

BENCH_DIR = Path(__file__).resolve().parent
#: ``setup_s`` is the median of fresh-process set-ups taken one every
#: SETUP_EVERY_S seconds through the run, and at least SETUP_MIN_SAMPLES.
SETUP_EVERY_S = 6.0
SETUP_MIN_SAMPLES = 5
SETUP_CODE = "import qchaos.cli; qchaos.cli.build_parser()"
#: One invocation may take at most this long before it is killed.
INVOCATION_TIMEOUT_S = 60.0
#: No invocation starts after this much of the run, so the run ends in 180 s.
RUN_DEADLINE_S = 140.0


@dataclass
class Outcome:
    """What one child process did."""

    wall_s: float
    cpu_s: float
    rss_kb: int
    errors: list[str]
    doc_bytes: int = 0
    layers: dict = field(default_factory=dict)
    absent: set = field(default_factory=set)
    spans: dict = field(default_factory=dict)


class Runner:
    """Runs children one at a time and waits for each before the next starts."""

    def __init__(self, root: Path, tmp: Path):
        self.root = root
        self.tmp = tmp
        self.started = time.perf_counter()
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(root / "src") + (
            os.pathsep + path if path else ""))

    def spawn(self, argv: list[str], stderr_path: Path) -> tuple[int | None, float, float, int]:
        """(exit code or None on timeout, wall s, user+sys CPU s, peak RSS KiB).

        Rusage comes from ``os.wait4`` on this child alone; RUSAGE_CHILDREN
        would give a running maximum over every child so far.
        """
        remaining = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            return None, 0.0, 0.0, 0
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
        killed = threading.Event()

        def kill():
            killed.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(min(INVOCATION_TIMEOUT_S, remaining + 25.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if killed.is_set() else proc.returncode
        return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss

    def prepare(self, inv: Invocation) -> tuple[Path, list[str], dict]:
        """A fresh directory for the invocation, its argv and its check spec."""
        work = Path(tempfile.mkdtemp(dir=self.tmp))
        for name, text in inv.files.items():
            (work / name).write_text(text)

        def sub(v):
            return v.replace("{tmp}", str(work)) if isinstance(v, str) else v

        argv = [sub(a) for a in inv.argv] + ["--json", str(work / "out.json")]
        return work, argv, {k: sub(v) for k, v in inv.check.items()}

    def run(self, inv: Invocation, traced: bool) -> Outcome:
        work, argv, spec = self.prepare(inv)
        try:
            if traced:
                cmd = [sys.executable, "-X", "importtime", str(BENCH_DIR / "trace_child.py"),
                       str(work / "trace.json"), *argv]
            else:
                cmd = [sys.executable, "-m", "qchaos.cli", *argv]
            code, wall, cpu, rss = self.spawn(cmd, work / "stderr.txt")
            stderr = (work / "stderr.txt").read_text(errors="replace")
            out = work / "out.json"
            if code is None:
                errors = ["timed out or not started before the run deadline"]
            elif code != 0:
                tail = [ln for ln in stderr.splitlines() if not ln.startswith("import time:")]
                errors = [f"exit code {code}: {' / '.join(tail[-3:])}"]
            elif not out.exists():
                errors = ["no output document"]
            else:
                errors = checks.check_document(spec, out.read_text())
            outcome = Outcome(wall, cpu, rss, errors,
                              out.stat().st_size if out.exists() else 0)
            if traced and (work / "trace.json").exists():
                trace = json.loads((work / "trace.json").read_text())
                outcome.layers, outcome.absent = layers.command_layers(
                    trace, stderr, outcome.doc_bytes)
                outcome.spans = layers.span_times(trace["spans"])
            elif traced and not errors:
                outcome.errors = ["traced child wrote no trace"]
            return outcome
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def setup_time(self) -> float:
        """Wall time of a fresh process that imports the CLI and builds its parser."""
        code, wall, _, _ = self.spawn([sys.executable, "-c", SETUP_CODE],
                                      self.tmp / "setup_stderr.txt")
        if code != 0:
            err = (self.tmp / "setup_stderr.txt").read_text(errors="replace")
            raise RuntimeError(f"importing qchaos.cli failed: {err.strip()[-500:]}")
        return wall


class SetupSampler:
    """Set-up times spread over the run, so they see the same machine load as
    the invocations rather than only the load of its first seconds."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.times: list[float] = []
        self.last = time.perf_counter()

    def take(self) -> None:
        self.times.append(self.runner.setup_time())
        self.last = time.perf_counter()

    def between(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.take()

    def top_up(self) -> list[float]:
        while len(self.times) < SETUP_MIN_SAMPLES:
            self.take()
        return self.times


def run_passes(invs: list[Invocation], seconds: float, run_one, between) -> list:
    """Whole passes until the next one would overrun ``seconds``; at least one.

    ``between`` runs after every invocation, inside the time budget.
    """
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t = time.perf_counter()
        one_pass = []
        for inv in invs:
            one_pass.append(run_one(inv))
            between()
        passes.append(one_pass)
        longest = max(longest, time.perf_counter() - t)
        if time.perf_counter() - start + longest > seconds:
            return passes


def provenance(root: Path, args, invs: list[Invocation]) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (root / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **{pkg: version(pkg) for pkg in ("numpy", "scipy", "mpmath", "jsonschema")},
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "commands": [{"name": inv.name, "size": inv.size, "argv": inv.argv} for inv in invs],
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_report(invs, passes, setup) -> tuple[dict, list[str]]:
    names = [inv.name for inv in invs]
    per_cmd = {n: [p[i] for p in passes] for i, n in enumerate(names)}
    walls = [o.wall_s for p in passes for o in p]
    attempted = len(walls)
    failed = sum(1 for p in passes for o in p if o.errors)
    metrics = {
        # each command's median, summed over the list: robust with few passes
        "wall_s": _metric(sum(statistics.median(o.wall_s for o in per_cmd[n])
                              for n in names), "s"),
        "cmd_p50_s": _metric(statistics.median(walls), "s"),
        "cpu_s": _metric(sum(statistics.median(o.cpu_s for o in per_cmd[n])
                             for n in names), "s"),
        "peak_rss_mb": _metric(max(o.rss_kb for p in passes for o in p) / 1024.0, "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "ok_frac": _metric(1.0 - failed / attempted, "fraction"),
    }
    lines = [f"{'command':<22}{'n':>3}{'wall_s p50':>12}{'cpu_s p50':>11}{'rss_mb':>9}",
             *(f"{n:<22}{len(per_cmd[n]):>3}"
               f"{statistics.median(o.wall_s for o in per_cmd[n]):>12.4f}"
               f"{statistics.median(o.cpu_s for o in per_cmd[n]):>11.4f}"
               f"{max(o.rss_kb for o in per_cmd[n]) / 1024.0:>9.1f}" for n in names),
             f"passes: {len(passes)}  pass walls: "
             + " ".join(f"{sum(o.wall_s for o in p):.3f}" for p in passes),
             f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}"]
    for key, m in metrics.items():
        extra = f" (n={attempted})" if key == "cmd_p50_s" else ""
        lines.append(f"{key} = {m['value']:.6g} {m['unit']}{extra}")
    lines.append(f"fail_frac = {failed / attempted:.6g} fraction "
                 f"({failed} of {attempted} invocations)")
    lines += [f"FAILED {n}: {e}" for n in names for o in per_cmd[n] for e in o.errors]
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, lines


def traced_report(invs, passes) -> tuple[dict, list[str]]:
    """Per-layer metrics: each command's median over passes, summed over commands."""
    names = [inv.name for inv in invs]
    plain = {n: [p[i][0] for p in passes] for i, n in enumerate(names)}
    traced = {n: [p[i][1] for p in passes] for i, n in enumerate(names)}
    outcomes = [o for p in passes for pair in p for o in pair]
    failed = sum(1 for o in outcomes if o.errors)
    per_cmd, lines, absent = [], [], set()
    for n in names:
        keys = {k for o in traced[n] for k in o.layers}
        med = {k: statistics.median(o.layers.get(k, 0.0) for o in traced[n]) for k in keys}
        t_wall = statistics.median(o.wall_s for o in traced[n])
        p_wall = statistics.median(o.wall_s for o in plain[n])
        med["trace.overhead_s"] = t_wall - p_wall
        per_cmd.append(med)
        cmd_absent = set().union(*(o.absent for o in traced[n]))
        absent |= cmd_absent
        lines.append(f"== {n}: untraced {p_wall:.4f} s, traced {t_wall:.4f} s, "
                     f"overhead {t_wall - p_wall:+.4f} s, "
                     f"import {med.get('import.total_s', 0.0):.4f} s")
        for span in sorted({s for o in traced[n] for s in o.spans}):
            rows = [o.spans.get(span, {"n": 0, "total_s": 0.0, "self_s": 0.0})
                    for o in traced[n]]
            lines.append(f"   {span:<24} n={statistics.median(r['n'] for r in rows):<4g}"
                         f" total {statistics.median(r['total_s'] for r in rows):.4f} s"
                         f"  self {statistics.median(r['self_s'] for r in rows):.4f} s")
        if cmd_absent:
            lines.append(f"   absent: {', '.join(sorted(cmd_absent))}")
    total = layers.combine(per_cmd)
    metrics = {name: _metric(total.get(name, 0.0), unit) for name, unit in layers.PER_LAYER}
    lines.append(f"absent seams: {', '.join(sorted(absent)) or 'none'}")
    lines += [f"FAILED {n}: {e}" for n in names for o in plain[n] + traced[n]
              for e in o.errors]
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}"
                     + (" (absent)" if name in absent else ""))
    return {"attempted": len(outcomes), "failed": failed, "metrics": metrics}, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    for needed in ("src/qchaos/cli.py", "tests/golden/cases.json"):
        if not (root / needed).is_file():
            print(f"error: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    (root / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=root / ".bench_tmp"))
    try:
        invs = WORKLOADS[args.workload](args.seed, root)
        runner = Runner(root, tmp)
        print(json.dumps({"provenance": provenance(root, args, invs)}), flush=True)
        try:
            if args.trace:
                passes = run_passes(invs, args.seconds, lambda inv: (
                    runner.run(inv, False), runner.run(inv, True)), lambda: None)
                result, lines = traced_report(invs, passes)
            else:
                setup = SetupSampler(runner)
                setup.take()
                passes = run_passes(invs, args.seconds, lambda inv: runner.run(inv, False),
                                    setup.between)
                result, lines = untraced_report(invs, passes, setup.top_up())
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps({"correct": result["failed"] == 0, **result}), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

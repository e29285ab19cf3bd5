"""Per-layer metrics from one traced invocation: import tree plus spans.

``trace_child.py`` writes the spans; ``-X importtime`` writes the import tree
to the child's stderr.  ``command_layers`` turns both into the per-layer
metrics of one command, ``combine`` sums commands into a pass and derives the
per-unit ratios from the sums.
"""

from __future__ import annotations

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    ("import.total_s", "s"), ("import.numpy_s", "s"),
    ("import.scipy_linalg_s", "s"), ("import.scipy_optimize_s", "s"),
    ("import.mpmath_s", "s"), ("import.jsonschema_s", "s"),
    ("cli.resolve_s", "s"), ("cli.round_s", "s"), ("cli.validate_s", "s"),
    ("cli.dumps_s", "s"), ("cli.write_s", "s"), ("cli.doc_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("constructions.build_s", "s"), ("constructions.builds", "count"),
    ("chaoticity.scan_exact_s", "s"), ("chaoticity.scan_float_s", "s"),
    ("chaoticity.orders", "count"), ("chaoticity.ns_per_order", "ns"),
    ("chaoticity.idempotency_s", "s"),
    ("entropy.optimize_s", "s"), ("entropy.objective_evals", "count"),
    ("entropy.us_per_eval", "us"), ("entropy.useful_restart_frac", "fraction"),
    ("simulate.sample_s", "s"), ("simulate.sample_ns_per_step", "ns"),
    ("simulate.estimate_s", "s"), ("simulate.census_s", "s"),
    ("simulate.census_ns_per_trial", "ns"), ("simulate.noise_s", "s"),
    ("simulate.noise_ns_per_step", "ns"), ("simulate.stream_write_s", "s"),
    ("rng.streams", "count"),
    ("trace.overhead_s", "s"),
)

#: Modules whose cumulative import time is reported; jsonschema is imported
#: lazily, at the first validation, and shows up in the tree at that point.
IMPORTED = {"numpy": "import.numpy_s", "scipy.linalg": "import.scipy_linalg_s",
            "scipy.optimize": "import.scipy_optimize_s", "mpmath": "import.mpmath_s",
            "jsonschema": "import.jsonschema_s"}

#: Span name -> the metrics that read it; they are absent when the span is.
SPAN_METRICS = {
    "cli.main": ("cli.self_s",),
    "cli.resolve": ("cli.resolve_s",),
    "cli.round": ("cli.round_s",),
    "cli.validate": ("cli.validate_s",),
    "cli.dumps": ("cli.dumps_s",),
    "cli.write": ("cli.write_s",),
    "constructions.build": ("constructions.build_s", "constructions.builds"),
    "chaoticity.scan": ("chaoticity.scan_exact_s", "chaoticity.scan_float_s",
                        "chaoticity.orders", "chaoticity.ns_per_order"),
    "chaoticity.idempotency": ("chaoticity.idempotency_s",),
    "entropy.optimize": ("entropy.optimize_s", "entropy.objective_evals",
                         "entropy.us_per_eval", "entropy.useful_restart_frac"),
    "simulate.sample": ("simulate.sample_s", "simulate.sample_ns_per_step"),
    "simulate.estimate": ("simulate.estimate_s",),
    "simulate.census": ("simulate.census_s", "simulate.census_ns_per_trial"),
    "simulate.noise": ("simulate.noise_s", "simulate.noise_ns_per_step"),
    "simulate.stream_write": ("simulate.stream_write_s",),
    "rng.streams": ("rng.streams",),
}

#: Span name -> the metric that holds its summed duration.
SPAN_TOTALS = {
    "cli.resolve": "cli.resolve_s", "cli.round": "cli.round_s",
    "cli.validate": "cli.validate_s", "cli.dumps": "cli.dumps_s", "cli.write": "cli.write_s",
    "constructions.build": "constructions.build_s",
    "chaoticity.idempotency": "chaoticity.idempotency_s",
    "entropy.optimize": "entropy.optimize_s",
    "simulate.sample": "simulate.sample_s", "simulate.estimate": "simulate.estimate_s",
    "simulate.census": "simulate.census_s", "simulate.noise": "simulate.noise_s",
    "simulate.stream_write": "simulate.stream_write_s",
}

#: Ratio metric -> (numerator metric, denominator work count, scale).
RATIOS = {
    "chaoticity.ns_per_order": ("chaoticity.scan_s", "chaoticity.orders", 1e9),
    "simulate.sample_ns_per_step": ("simulate.sample_s", "simulate.sample_steps", 1e9),
    "simulate.census_ns_per_trial": ("simulate.census_s", "simulate.census_trials", 1e9),
    "simulate.noise_ns_per_step": ("simulate.noise_s", "simulate.noise_steps", 1e9),
    "entropy.us_per_eval": ("entropy.optimize_s", "entropy.objective_evals", 1e6),
    "entropy.useful_restart_frac": ("entropy.useful_restarts", "entropy.restarts", 1.0),
}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import metrics, in seconds, from ``python -X importtime`` output.

    ``import.total_s`` is the summed cumulative time of the top-level imports
    of ``qchaos`` and its submodules; each module metric is the cumulative
    time on that module's line, 0 when the process never imported it.
    """
    out = {name: 0.0 for name in IMPORTED.values()}
    out["import.total_s"] = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, field = line.split("|", 2)
        name = field[1:].lstrip(" ")
        top_level = len(field) - 1 == len(name)
        try:
            seconds = int(cumulative) * 1e-6
        except ValueError:  # the header line
            continue
        if top_level and (name == "qchaos" or name.startswith("qchaos.")):
            out["import.total_s"] += seconds
        if name in IMPORTED:
            out[IMPORTED[name]] = seconds
    return out


def span_times(spans: list) -> dict[str, dict]:
    """Total and self time, in seconds, and call count of each span name.

    A span's self time is its duration minus that of its direct children;
    spans of one process are properly nested because the CLI is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "n": 0})
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        row["n"] += 1
    return out


def command_layers(trace: dict, importtime: str, doc_bytes: int) -> tuple[dict, set]:
    """Per-layer sums for one traced command, and the metrics whose seams are absent.

    The sums include work counts (orders, steps, trials, restarts) that
    ``combine`` turns into the per-unit ratios.
    """
    m = parse_importtime(importtime)
    m["cli.doc_bytes"] = float(doc_bytes)
    times = span_times(trace["spans"])
    m["cli.self_s"] = times.get("cli.main", {}).get("self_s", 0.0)
    for span, metric in SPAN_TOTALS.items():
        m[metric] = times.get(span, {}).get("total_s", 0.0)
    m["constructions.builds"] = float(times.get("constructions.build", {}).get("n", 0))
    m["rng.streams"] = float(trace["counts"].get("rng.streams", 0))

    work = {key: 0.0 for key in ("chaoticity.scan_exact_s", "chaoticity.scan_float_s",
                                 "chaoticity.orders", "simulate.sample_steps",
                                 "simulate.noise_steps", "simulate.census_trials",
                                 "entropy.objective_evals", "entropy.useful_restarts",
                                 "entropy.restarts")}
    for name, start, end, _, attrs in trace["spans"]:
        if name == "chaoticity.scan":
            key = "chaoticity.scan_exact_s" if attrs.get("exact") else "chaoticity.scan_float_s"
            work[key] += end - start
            work["chaoticity.orders"] += attrs.get("orders", 0)
        elif name == "simulate.sample":
            work["simulate.sample_steps"] += attrs.get("steps", 0)
        elif name == "simulate.noise":
            work["simulate.noise_steps"] += attrs.get("steps", 0)
        elif name == "simulate.census":
            work["simulate.census_trials"] += attrs.get("trials", 0)
        elif name == "entropy.optimize" and attrs.get("optima"):
            best = max(attrs["optima"])
            work["entropy.objective_evals"] += attrs["nfev"]
            work["entropy.restarts"] += len(attrs["optima"])
            work["entropy.useful_restarts"] += sum(
                v >= best - attrs["match_tol"] for v in attrs["optima"])
    m.update(work)

    # a span is absent when every seam that records it is
    absent_spans = {a["span"] for a in trace["absent"]} - set(trace["installed"])
    absent = {metric for span in absent_spans for metric in SPAN_METRICS.get(span, ())}
    return m, absent


def combine(per_command: list[dict]) -> dict[str, float]:
    """Sum commands into one pass and derive the ratios from the sums."""
    keys = {k for m in per_command for k in m}
    total = {k: sum(m.get(k, 0.0) for m in per_command) for k in keys}
    total["chaoticity.scan_s"] = (total.get("chaoticity.scan_exact_s", 0.0)
                                  + total.get("chaoticity.scan_float_s", 0.0))
    for metric, (num, den, scale) in RATIOS.items():
        total[metric] = total.get(num, 0.0) * scale / total[den] if total.get(den) else 0.0
    return total

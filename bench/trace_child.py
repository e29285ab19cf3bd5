"""Run one qchaos CLI command with spans recorded around its layers.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python -X importtime bench/trace_child.py TRACE.json CLI_ARG...

The command goes through ``qchaos.cli.main`` in this fresh process.  Before
``main`` runs, the public functions it calls are wrapped where ``qchaos.cli``
binds them (``cli.py`` imports names directly, so the binding in that
namespace is the one called), and ``stream_generator`` where
``qchaos.simulate`` and ``qchaos.entropy`` bind it.  ``qchaos`` itself is not
edited.  A seam that a later change removes or renames is reported as absent
rather than failing the run.  The spans, counts and absent seams are written
to TRACE.json; ``-X importtime`` writes the import tree to stderr.

Only ``sys`` and ``time`` are imported before ``qchaos.cli``, so the import
tree of ``qchaos`` is the one a user's process sees.
"""

import sys
import time

#: (module, attribute, span name).  A dotted attribute wraps a function held
#: by a module or class that the module binds.  Several seams may share a span
#: name; a span nested inside an open span of the same name is not recorded,
#: so recursive ``_round_floats`` and ``parse_phase`` inside ``resolve_source``
#: count once, at their outermost call.
SEAMS = (
    ("qchaos.cli", "main", "cli.main"),
    ("qchaos.cli", "resolve_source", "cli.resolve"),
    ("qchaos.cli", "parse_phase", "cli.resolve"),
    ("qchaos.cli", "_round_floats", "cli.round"),
    ("qchaos.cli", "_validate_output", "cli.validate"),
    ("qchaos.cli", "json.dumps", "cli.dumps"),
    ("qchaos.cli", "Path.write_text", "cli.write"),
    ("qchaos.cli", "build_quadratic_unitary", "constructions.build"),
    ("qchaos.cli", "build_rational_unitary", "constructions.build"),
    ("qchaos.cli", "build_chaotic_order", "constructions.build"),
    ("qchaos.cli", "QuadraticRecipe.build", "constructions.build"),
    ("qchaos.cli", "chaoticity_scan", "chaoticity.scan"),
    ("qchaos.cli", "idempotency_order", "chaoticity.idempotency"),
    ("qchaos.cli", "projective_idempotency_order", "chaoticity.idempotency"),
    ("qchaos.cli", "pvm_entropy_optimize", "entropy.optimize"),
    ("qchaos.cli", "sample_trajectory", "simulate.sample"),
    ("qchaos.cli", "empirical_entropy_rate", "simulate.estimate"),
    ("qchaos.cli", "monte_carlo_chaotic_fraction", "simulate.census"),
    ("qchaos.cli", "noisy_phase_walk", "simulate.noise"),
    ("qchaos.cli", "write_trajectory_outputs", "simulate.stream_write"),
)
#: (module, attribute, counter): calls are counted, not timed.
COUNTERS = (
    ("qchaos.simulate", "stream_generator", "rng.streams"),
    ("qchaos.entropy", "stream_generator", "rng.streams"),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _span_attrs(name, args, kwargs):
    """Work counts read from a seam's arguments, for per-unit ratios."""
    if name == "chaoticity.scan":
        return {"orders": _arg(args, kwargs, 1, "k_max"),
                "exact": type(_arg(args, kwargs, 0, "u")).__name__ == "ExactUnitarySpec"}
    if name == "simulate.sample":
        return {"steps": _arg(args, kwargs, 0, "cfg").steps}
    if name == "simulate.noise":
        return {"steps": _arg(args, kwargs, 1, "cfg").steps}
    if name == "simulate.census":
        return {"trials": _arg(args, kwargs, 0, "n_trials")}
    if name == "entropy.optimize":
        opts = kwargs.get("opts", args[1] if len(args) > 1 else None)
        # the CLI default; OptimizerOptions may lose the field in a later change
        return {"match_tol": getattr(opts, "match_tol", 1e-3), "nfev": 0, "optima": []}
    return {}


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, attrs]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counts = {}
        self.absent = []
        self.installed = set()

    def innermost(self, name):
        for idx in reversed(self.stack):
            if self.spans[idx][0] == name:
                return self.spans[idx]
        return None

    def wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.innermost(name) is not None:
                return fn(*args, **kwargs)
            try:
                attrs = _span_attrs(name, args, kwargs)
            except (AttributeError, IndexError, KeyError, TypeError):
                attrs = {}
            parent = tracer.stack[-1] if tracer.stack else None
            span = [name, tracer.clock(), None, parent, attrs]
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                tracer.stack.pop()

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, name):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, seams, counters=(), modules=None):
        """Wrap every seam that exists; record the ones that do not as absent."""
        for module_name, attr, name in [*seams, *counters]:
            make = self.counter if (module_name, attr, name) in counters else self.wrap
            module = (modules or sys.modules).get(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, fn_name, None) if owner is not None else None
            if not callable(fn):
                self.absent.append({"seam": f"{module_name}:{attr}", "span": name})
                continue
            wrapped = make(fn, name)
            self.installed.add(name)
            if owner_name and isinstance(owner, type(sys)):
                # a module the CLI binds (json): give the CLI its own copy so
                # no other caller of that module is traced
                proxy = type(owner)(owner.__name__)
                proxy.__dict__.update(owner.__dict__)
                setattr(proxy, fn_name, wrapped)
                setattr(module, owner_name, proxy)
            else:
                # functions, and methods patched on the class in place so
                # isinstance checks against it keep working
                setattr(owner, fn_name, wrapped)

    def count_restarts(self, minimize):
        """Wrap scipy.optimize.minimize: sum nfev and keep each restart's optimum."""
        tracer = self

        def counted(*args, **kwargs):
            res = minimize(*args, **kwargs)
            span = tracer.innermost("entropy.optimize")
            if span is not None and "nfev" in span[4]:
                span[4]["nfev"] += int(res.nfev)
                span[4]["optima"].append(-float(res.fun))
            return res

        counted.__wrapped__ = minimize
        counted.counts_restarts = True
        return counted

    def to_json(self):
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent,
                "installed": sorted(self.installed)}


def _hook_minimize(tracer):
    """Wrap minimize when the optimizer first runs, so tracing imports nothing
    the command would not import itself."""
    cli = sys.modules["qchaos.cli"]
    optimize = getattr(cli, "pvm_entropy_optimize", None)
    if optimize is None:
        return

    def hooked(*args, **kwargs):
        import scipy.optimize

        if not getattr(scipy.optimize.minimize, "counts_restarts", False):
            scipy.optimize.minimize = tracer.count_restarts(scipy.optimize.minimize)
        return optimize(*args, **kwargs)

    cli.pvm_entropy_optimize = hooked


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    import qchaos.cli

    tracer = Tracer()
    _hook_minimize(tracer)
    tracer.install(SEAMS, COUNTERS)
    code = 1
    try:
        code = qchaos.cli.main(cli_args)
    finally:
        import json

        with open(trace_path, "w") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

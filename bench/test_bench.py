"""Tests of the benchmark's own checker, input generator and tracer.

Run from the repository root: ``PYTHONPATH=src python -m pytest -q bench``.
"""

import json
import math
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import layers
import trace_child
import workloads

ROOT = Path(__file__).resolve().parent.parent


def cli_doc(tmp_path, *args):
    from qchaos.cli import main

    out = tmp_path / "out.json"
    assert main([*args, "--json", str(out)]) == 0
    return out.read_text()


class TestRowReference:
    def test_exact_theta_matches_fraction_arithmetic(self):
        for k in (1, 2, 7, 5000, 10**12 + 3):
            t, big = checks.exact_theta_over_pi(131, 181, 508, 263, k)
            d = abs(k * Fraction(131, 181) % 2 - k * Fraction(508, 263) % 2)
            assert Fraction(t, big) == min(d, 2 - d)

    def test_accepts_real_scans(self, tmp_path):
        spec = {"kind": "scan_exact", "phases": [[131, 181], [508, 263]], "k_max": 300}
        text = cli_doc(tmp_path, "scan", "--phi", "131/181", "--psi", "508/263",
                       "--k-max", "300")
        assert checks.check_document(spec, text) == []
        spec = {"kind": "scan_float", "phi": "0.2687284882", "psi": "1.6948674739",
                "k_max": 300}
        text = cli_doc(tmp_path, "scan", "--phi", spec["phi"], "--psi", spec["psi"],
                       "--k-max", "300")
        assert checks.check_document(spec, text) == []

    def test_rejects_corrupted_theta(self, tmp_path):
        spec = {"kind": "scan_exact", "phases": [[131, 181], [508, 263]], "k_max": 50}
        doc = json.loads(cli_doc(tmp_path, "scan", "--phi", "131/181", "--psi", "508/263",
                                 "--k-max", "50"))
        doc["scan"][17]["theta"] += 1e-7
        errors = checks.check_document(spec, json.dumps(doc))
        assert len(errors) == 1 and "K=18: theta" in errors[0]

    @pytest.mark.parametrize("kind", ["scan_exact", "scan_float"])
    def test_rejects_corrupted_verdict(self, tmp_path, kind):
        phi, psi = ("131/181", "508/263") if kind == "scan_exact" else ("0.21", "1.79")
        spec = {"kind": kind, "phases": [[131, 181], [508, 263]], "phi": phi, "psi": psi,
                "k_max": 50}
        doc = json.loads(cli_doc(tmp_path, "scan", "--phi", phi, "--psi", psi,
                                 "--k-max", "50"))
        row = doc["scan"][9]
        row["verdict"] = "chaotic" if row["verdict"] == "non_chaotic" else "non_chaotic"
        errors = checks.check_document(spec, json.dumps(doc))
        assert len(errors) == 1 and "K=10: verdict" in errors[0]

    def test_float_verdict_is_not_judged_inside_the_band(self):
        assert checks._float_verdict(math.sqrt(2.0) + 1e-9) is None
        assert checks._float_verdict(math.sqrt(2.0) + 1e-6) == "non_chaotic"

    def test_rejects_missing_rows_and_bad_entropy(self, tmp_path):
        spec = {"kind": "scan_float", "phi": "0.21", "psi": "1.79", "k_max": 12}
        doc = json.loads(cli_doc(tmp_path, "scan", "--phi", "0.21", "--psi", "1.79",
                                 "--k-max", "12"))
        doc["scan"][3]["H"] = 1.5
        assert "H = 1.5" in checks.check_document(spec, json.dumps(doc))[0]
        doc["scan"].pop()
        assert "expected 12 scan rows" in checks.check_document(spec, json.dumps(doc))[0]

    def test_quadratic_reference_accepts_the_build(self, tmp_path):
        spec = {"kind": "construct_quadratic", "a": -2, "b": -101, "t": 8, "k_max": 400}
        text = cli_doc(tmp_path, "construct", "quadratic", "--a", "-2", "--b", "-101",
                       "--t", "8", "--k-max", "400")
        assert checks.check_document(spec, text) == []
        doc = json.loads(text)
        doc["analysis"]["phases"]["phi"] += 1e-9
        assert "phase phi" in checks.check_document(spec, json.dumps(doc))[0]


class TestGoldenComparison:
    def golden(self, tmp_path):
        args = json.loads((ROOT / "tests/golden/cases.json").read_text())["scan_float_pair"]
        return (cli_doc(tmp_path, *args),
                (ROOT / "tests/golden/scan_float_pair.json").read_text())

    def test_ignores_the_timestamp(self, tmp_path):
        text, golden = self.golden(tmp_path)
        assert checks.check_golden(text, golden) == []
        doc = json.loads(text)
        doc["manifest"]["timestamp"] = "1999-01-01T00:00:00+00:00"
        assert checks.check_golden(checks.canonical(doc), golden) == []

    def test_rejects_any_other_difference(self, tmp_path):
        text, golden = self.golden(tmp_path)
        doc = json.loads(text)
        doc["manifest"]["version"] = "0.0.0"
        assert checks.check_golden(checks.canonical(doc), golden) != []
        doc = json.loads(text)
        doc["scan"][0]["H"] = float(f"{doc['scan'][0]['H']:.11g}") + 1e-12
        assert checks.check_golden(checks.canonical(doc), golden) != []
        assert checks.check_golden(json.dumps(json.loads(text)), golden) != []
        doc = json.loads(text)
        del doc["manifest"]["timestamp"]
        assert checks.check_golden(checks.canonical(doc), golden) != []


class TestStochasticChecks:
    def test_census_band(self):
        n = 10**6
        hw = 3.0 * math.sqrt(0.25 / n)
        spec = {"kind": "census", "n": n}

        def doc(count):
            return json.dumps({"census": {"n_trials": n, "chaotic_count": count,
                                          "fraction": count / n, "half_width_3sigma": hw}})

        assert checks.check_document(spec, doc(n // 2 + 2000)) == []
        assert "5 sigma" in checks.check_document(spec, doc(n // 2 + 3000))[0]

    def test_optimize_value_range(self):
        spec = {"kind": "optimize", "d": 3}
        basis = [[[1.0 if i == j else 0.0, 0.0] for i in range(3)] for j in range(3)]
        doc = {"optimize": {"d": 3, "value_bits": 1.0, "basis": basis},
               "manifest": {"parameters": {"match_tol": 1e-3}}}
        assert checks.check_document(spec, json.dumps(doc)) == []
        doc["optimize"]["value_bits"] = math.log2(3) + 1e-6
        assert "outside [0, log2 3]" in checks.check_document(spec, json.dumps(doc))[0]


class TestInputs:
    def test_same_seed_same_invocations(self):
        for make in (workloads.bulk_docs, workloads.stochastic):
            first = [(i.argv, i.files) for i in make(5, ROOT)]
            assert first == [(i.argv, i.files) for i in make(5, ROOT)]
            assert first != [(i.argv, i.files) for i in make(6, ROOT)]

    def test_quadratic_seeds_meet_the_construction_preconditions(self):
        rng = random.Random(0)
        for _ in range(200):
            a, b, t = workloads.quadratic_seed(rng)
            disc = a * a - 4 * b
            s = [2, -a]
            for _ in range(t - 1):
                s.append(-a * s[-1] - b * s[-2])
            assert a < 0 and b < 0 and math.isqrt(disc) ** 2 != disc and s[t] % 2 == 0

    def test_haar_unitary_is_unitary(self):
        u = workloads.haar_unitary(random.Random(3))
        for i in range(3):
            for j in range(3):
                dot = sum(u[r][i].conjugate() * u[r][j] for r in range(3))
                assert abs(dot - (i == j)) < 1e-13

    def test_golden_replay_reads_every_case(self):
        invs = workloads.golden_replay(1, ROOT)
        cases = json.loads((ROOT / "tests/golden/cases.json").read_text())
        assert sorted(i.name for i in invs) == sorted(cases)


class TestTracing:
    def fake_cli(self):
        cli = types.ModuleType("fake_cli")
        cli.main = lambda argv: cli._round_floats({"x": [1.0, {"y": 2.0}]})

        def round_floats(obj):
            if isinstance(obj, dict):
                return {k: cli._round_floats(v) for k, v in obj.items()}
            if isinstance(obj, list):
                return [cli._round_floats(v) for v in obj]
            return obj

        cli._round_floats = round_floats
        return cli

    def test_missing_seam_is_reported_absent(self):
        tracer = trace_child.Tracer()
        seams = (("fake_cli", "main", "cli.main"),
                 ("fake_cli", "_round_floats", "cli.round"),
                 ("fake_cli", "_validate_output", "cli.validate"))
        cli = self.fake_cli()
        tracer.install(seams, modules={"fake_cli": cli})
        cli.main([])
        trace = json.loads(json.dumps(tracer.to_json()))
        assert trace["absent"] == [{"seam": "fake_cli:_validate_output",
                                    "span": "cli.validate"}]
        metrics, absent = layers.command_layers(trace, "", 10)
        assert absent == {"cli.validate_s"}
        assert metrics["cli.validate_s"] == 0.0

    def test_recursive_seam_counts_its_outermost_call(self):
        tracer = trace_child.Tracer()
        cli = self.fake_cli()
        tracer.install((("fake_cli", "main", "cli.main"),
                        ("fake_cli", "_round_floats", "cli.round")),
                       modules={"fake_cli": cli})
        cli.main([])
        assert [s[0] for s in tracer.spans] == ["cli.main", "cli.round"]
        assert tracer.spans[1][3] == 0

    def test_seam_shared_by_two_functions_is_present_if_either_is(self):
        trace = {"spans": [], "counts": {}, "installed": ["cli.resolve"],
                 "absent": [{"seam": "m:resolve_source", "span": "cli.resolve"}]}
        assert layers.command_layers(trace, "", 0)[1] == set()

    def test_module_seam_is_scoped_to_the_binding_module(self):
        tracer = trace_child.Tracer()
        cli = types.ModuleType("fake_cli")
        cli.json = json
        tracer.install((("fake_cli", "json.dumps", "cli.dumps"),),
                       modules={"fake_cli": cli})
        assert cli.json.dumps([1]) == "[1]" and json.dumps is not cli.json.dumps
        assert [s[0] for s in tracer.spans] == ["cli.dumps"]

    def test_self_time_subtracts_children(self):
        spans = [["cli.main", 0.0, 10.0, None, {}], ["cli.validate", 1.0, 4.0, 0, {}],
                 ["cli.dumps", 5.0, 6.0, 0, {}]]
        times = layers.span_times(spans)
        assert times["cli.main"]["self_s"] == pytest.approx(6.0)
        assert times["cli.validate"]["self_s"] == pytest.approx(3.0)

    def test_parse_importtime(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | encodings",
            "import time:      1000 |     145534 |       numpy",
            "import time:       741 |     806846 |   qchaos",
            "import time:      7122 |     813968 | qchaos.cli",
            "import time:       500 |      58000 | jsonschema",
        ])
        m = layers.parse_importtime(text)
        assert m["import.total_s"] == pytest.approx(0.813968)
        assert m["import.numpy_s"] == pytest.approx(0.145534)
        assert m["import.jsonschema_s"] == pytest.approx(0.058)
        assert m["import.mpmath_s"] == 0.0


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_traced_child_runs_a_real_command(tmp_path):
    trace_path = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(ROOT / "bench/trace_child.py"), str(trace_path),
                          "scan", "--phi", "0.21", "--psi", "1.79", "--k-max", "20",
                          "--json", str(tmp_path / "out.json")], env=env, timeout=120)
    assert res.returncode == 0
    trace = json.loads(trace_path.read_text())
    assert trace["absent"] == []
    names = {s[0] for s in trace["spans"]}
    assert {"cli.main", "cli.resolve", "chaoticity.scan", "cli.round", "cli.validate",
            "cli.dumps", "cli.write"} <= names

"""End-to-end CLI behavior: documents, schemas, determinism, exit codes.

The CLI does not validate its output at run time; ``run_cli`` checks every
document a command writes against the output schema instead.
"""

import argparse
import ast
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qchaos.cli
import qchaos.jsontext
from qchaos.cli import _NO_ORDER_REASON, _emit, _outputs, main, parse_phase
from qchaos import (EigenphasePair, ExactUnitarySpec, QuadraticRecipe, RationalPhase, eta,
                    order_verdicts)

from helpers import random_unitary

SRC = Path(__file__).parent.parent / "src"
SCHEMA = json.loads((SRC / "qchaos" / "schemas" / "output.schema.json").read_text())


def run_cli(args, tmp_path, name="out.json"):
    """Run a command writing JSON to a temp file; return (exit code, doc).

    Every document of a successful run is validated against the schema."""
    dest = tmp_path / name
    code = main([*args, "--json", str(dest)])
    doc = json.loads(dest.read_text()) if dest.exists() else None
    if code == 0:
        jsonschema.validate(doc, SCHEMA)
    return code, doc


@pytest.fixture
def int_text_limit():
    """Python's default limit of 4300 digits on an int written as text, for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python writes integers of any length as text")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def stripped(doc):
    """Document with the volatile timestamp removed, as canonical bytes."""
    doc = json.loads(json.dumps(doc))
    doc["manifest"].pop("timestamp")
    return json.dumps(doc, sort_keys=True)


class TestParsePhase:
    def test_rational(self):
        assert parse_phase("1/2") == RationalPhase(1, 2)
        assert parse_phase("17/32") == RationalPhase(17, 32)
        assert parse_phase("3") == RationalPhase(3, 1)

    def test_decimal_is_float(self):
        v = parse_phase("0.5")
        assert isinstance(v, float)
        assert v == pytest.approx(math.pi / 2)

    def test_radians_prefix(self):
        assert parse_phase("rad:1.5") == pytest.approx(1.5)


class TestAnalyze:
    def test_pauli_x_document(self, tmp_path):
        code, doc = run_cli(["analyze", "--phi", "0", "--psi", "1", "--k-max", "4"],
                            tmp_path)
        assert code == 0
        assert doc["rationality"] == "rational"
        assert doc["idempotency"]["order"] == 2
        verdicts = [row["verdict"] for row in doc["scan"]]
        assert verdicts == ["chaotic", "non_chaotic", "chaotic", "non_chaotic"]
        assert doc["scan"][1]["H"] == 0.0 and doc["scan"][3]["H"] == 0.0

    def test_d8_document(self, tmp_path):
        code, doc = run_cli(["analyze", "--phi", "1/32", "--psi", "17/32",
                             "--global-phase", "23/32", "--k-max", "8"], tmp_path)
        assert code == 0
        assert doc["idempotency"]["order"] == 8
        assert doc["scan"][0]["theta"] == pytest.approx(math.pi / 2, abs=1e-11)
        assert doc["scan"][0]["H"] == 1.0
        assert doc["scan"][7]["verdict"] == "non_chaotic"
        assert doc["scan"][7]["trace_mag"] == 2.0

    def test_identity(self, tmp_path):
        code, doc = run_cli(["analyze", "--phi", "0", "--psi", "0", "--k-max", "3"],
                            tmp_path)
        assert code == 0
        assert doc["entropy_bits"] == 0.0
        assert all(r["H"] == 0.0 for r in doc["scan"])
        assert doc["idempotency"]["order"] == 1

    def test_large_prime_orders(self, tmp_path):
        # the strict order, 2 * 101 * 103, beside the inner denominators' lcm
        code, doc = run_cli(["analyze", "--phi", "1/101", "--psi", "1/103"], tmp_path)
        assert code == 0
        assert doc["idempotency"] == {"order": 2 * 101 * 103, "reason": None,
                                      "inner_denominator_lcm": 101 * 103}

    def test_float_pair_is_unknown(self, tmp_path):
        code, doc = run_cli(["analyze", "--phi", "0.21", "--psi", "1.79"], tmp_path)
        assert code == 0
        assert doc["rationality"] == "unknown"
        assert doc["idempotency"]["order"] is None

    def test_quadratic_spec_json(self, tmp_path):
        src = tmp_path / "src.json"
        src.write_text(json.dumps({"kind": "quadratic", "a": -1, "b": -1, "t": 3}))
        code, doc = run_cli(["analyze", "--spec-json", str(src), "--k-max", "4"],
                            tmp_path)
        assert code == 0
        assert doc["rationality"] == "irrational_certified"
        assert doc["idempotency"]["reason"] == "irrational_phase"
        assert doc["quadratic_build"]["classification"] == "converging_to_identity"
        assert doc["phases"]["phi"] == pytest.approx(0.7416, abs=5e-4)

    def test_missing_source_fails_validation(self, tmp_path):
        code, _ = run_cli(["analyze"], tmp_path)
        assert code == 2

    def test_csv_round_trip(self, tmp_path):
        csv_path = tmp_path / "scan.csv"
        code, doc = run_cli(["analyze", "--psi", "1/2", "--k-max", "6",
                             "--csv", str(csv_path)], tmp_path)
        assert code == 0
        rows = list(csv.DictReader(csv_path.open()))
        assert len(rows) == 6
        for row, jrow in zip(rows, doc["scan"]):
            assert int(row["K"]) == jrow["K"]
            # CSV carries full precision; JSON is rounded to 12 significant digits
            assert abs(float(row["theta"]) - jrow["theta"]) <= 1e-12
            assert abs(float(row["H"]) - jrow["H"]) <= 1e-12
            assert abs(float(row["trace_mag"]) - jrow["trace_mag"]) <= 1e-12
            assert row["verdict"] == jrow["verdict"]


class TestScan:
    def test_rows_only(self, tmp_path):
        code, doc = run_cli(["scan", "--psi", "1/2", "--k-max", "5"], tmp_path)
        assert code == 0
        assert len(doc["scan"]) == 5
        assert "rationality" not in doc

    def test_quadratic_spec_json_records_recipe(self, tmp_path):
        src = tmp_path / "src.json"
        src.write_text(json.dumps({"kind": "quadratic", "a": -1, "b": -1, "t": 3}))
        code, doc = run_cli(["scan", "--spec-json", str(src), "--k-max", "4"], tmp_path)
        assert code == 0
        source = doc["manifest"]["parameters"]["source"]
        assert source["kind"] == "quadratic"
        assert (source["spec"]["a"], source["spec"]["b"], source["spec"]["t"]) == (-1, -1, 3)
        # the rows are those of the built float pair
        _, ref = run_cli(["analyze", "--spec-json", str(src), "--k-max", "4"],
                         tmp_path, "ref.json")
        assert doc["scan"] == ref["scan"]


class TestConstruct:
    def test_chaotic_order_5(self, tmp_path):
        code, doc = run_cli(["construct", "chaotic-order-k", "-K", "5",
                             "--k-max", "5"], tmp_path)
        assert code == 0
        assert doc["construction"]["prime"] == 2
        assert doc["construction"]["source"]["m2"] == 1
        assert doc["construction"]["source"]["p2"] == 2
        row = doc["analysis"]["scan"][4]
        assert row["verdict"] == "chaotic"
        assert row["theta"] == pytest.approx(math.pi, abs=1e-12)

    def test_quadratic_paper_example(self, tmp_path):
        code, doc = run_cli(["construct", "quadratic", "--a", "-2", "--b", "-101",
                             "--t", "8"], tmp_path)
        assert code == 0
        assert doc["construction"]["s_t"] == 277376354
        psi = doc["analysis"]["phases"]["psi"]
        assert abs(math.cos(psi)) == pytest.approx(0.387, abs=5e-3)
        assert doc["analysis"]["scan"][0]["verdict"] == "chaotic"
        assert doc["construction"]["classification"] == "traversing"

    def test_rational_d4(self, tmp_path):
        code, doc = run_cli(["construct", "rational", "1/4", "5/4",
                             "--global-phase", "1/4"], tmp_path)
        assert code == 0
        assert doc["analysis"]["idempotency"]["order"] == 4
        assert doc["analysis"]["scan"][0]["theta"] == pytest.approx(math.pi)

    def test_odd_sum_is_validation_error(self, tmp_path, capsys):
        code, _ = run_cli(["construct", "quadratic", "--a", "-1", "--b", "-1",
                           "--t", "4"], tmp_path)
        assert code == 2
        assert "odd" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "scan"])
    def test_odd_sum_spec_json_is_validation_error(self, command, tmp_path, capsys):
        src = tmp_path / "src.json"
        src.write_text(json.dumps({"kind": "quadratic", "a": -1, "b": -1, "t": 4}))
        code, doc = run_cli([command, "--spec-json", str(src)], tmp_path)
        assert code == 2 and doc is None
        assert "odd" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["construct", "analyze"])
    def test_integer_past_the_text_limit_is_exit_2(self, command, tmp_path, capsys,
                                                   int_text_limit):
        """s_t of t = 21000 has 4389 digits: the command names t and the limit,
        and leaves no file."""
        (tmp_path / "src.json").write_text('{"kind": "quadratic", "a": -1, "b": -1, "t": 21000}')
        args = {"construct": ["construct", "quadratic", "--a=-1", "--b=-1", "--t", "21000"],
                "analyze": ["analyze", "--spec-json", str(tmp_path / "src.json")]}[command]
        code, doc = run_cli([*args, "--k-max", "1"], tmp_path)
        assert code == 2 and doc is None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["src.json"]
        err = capsys.readouterr().err
        assert "t=21000" in err and f"{int_text_limit} digits" in err and "set_int" not in err

    def test_odd_sum_past_the_text_limit_names_t(self, tmp_path, capsys, int_text_limit):
        code, _ = run_cli(["construct", "quadratic", "--a=-1", "--b=-1", "--t", "20602"],
                          tmp_path)
        assert code == 2
        assert capsys.readouterr().err == (
            "error: s_t is odd at t=20602; the pair would not be unimodular\n")

    def test_without_a_text_limit_s_t_is_written(self, tmp_path, monkeypatch, int_text_limit):
        """A Python without sys.get_int_max_str_digits (before 3.10.7) has no limit."""
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        sys.set_int_max_str_digits(0)
        (tmp_path / "src.json").write_text('{"kind": "quadratic", "a": -1, "b": -1, "t": 21000}')
        code, doc = run_cli(["analyze", "--spec-json", str(tmp_path / "src.json"), "--k-max",
                             "1"], tmp_path)
        assert code == 0
        assert doc["quadratic_build"]["s_t"] == QuadraticRecipe(-1, -1, 21000).s_t

    def test_quadratic_is_built_once(self, tmp_path, monkeypatch):
        calls = []
        build = QuadraticRecipe.__post_init__

        def counted(recipe):
            calls.append((recipe.a, recipe.b, recipe.t))
            build(recipe)

        monkeypatch.setattr(QuadraticRecipe, "__post_init__", counted)
        code, doc = run_cli(["construct", "quadratic", "--a", "-1", "--b", "-1",
                             "--t", "3"], tmp_path)
        assert code == 0
        assert len(calls) == 1
        assert doc["construction"]["s_t"] == doc["analysis"]["quadratic_build"]["s_t"] == 4
        src = tmp_path / "src.json"
        src.write_text(json.dumps(doc["construction"]["source"]))
        calls.clear()
        assert run_cli(["analyze", "--spec-json", str(src)], tmp_path, "a.json")[0] == 0
        assert len(calls) == 1


class TestSourceSchema:
    SOURCES = (EigenphasePair, ExactUnitarySpec, QuadraticRecipe)

    def test_input_kinds_are_the_source_kinds(self):
        enum = SCHEMA["$defs"]["input_block"]["properties"]["kind"]["enum"]
        assert set(enum) == {cls.kind for cls in self.SOURCES} and len(enum) == 3

    def test_rationalities_are_the_source_rationalities(self):
        enum = SCHEMA["$defs"]["analysis_body"]["properties"]["rationality"]["enum"]
        assert set(enum) == {cls.rationality for cls in self.SOURCES} and len(enum) == 3

    def test_every_inexact_rationality_has_a_no_order_reason(self):
        inexact = {cls.rationality for cls in self.SOURCES} - {"rational"}
        assert set(_NO_ORDER_REASON) == inexact


class TestFlags:
    @pytest.mark.parametrize("args", [
        ["analyze", "--psi", "1/2", "--precision-bits", "3"],
        ["analyze", "--psi", "1/2", "--out", "zz"],
        ["scan", "--psi", "1/2", "--seed", "1"],
        ["analyze", "--psi", "1/2", "--threads", "2"],
        ["scan", "--psi", "1/2", "--threads", "2"],
        ["construct", "rational", "1/4", "5/4", "--threads", "2"],
        ["construct", "chaotic-order-k", "-K", "5", "--threads", "2"],
        ["construct", "quadratic", "--a", "-1", "--b", "-1", "--t", "3", "--threads", "2"],
        ["optimize", "--psi", "1/3", "--threads", "2"],
        ["simulate", "--psi", "1/2", "--steps", "100", "--threads", "2"],
        ["noise", "--psi", "1/2", "--epsilon", "0.1", "--threads", "2"],
        ["census", "--n", "100", "--threads", "2"],
        ["optimize", "--psi", "1/3", "--global-phase", "1/4"],
        ["simulate", "--psi", "1/2", "--steps", "100", "--global-phase", "1/4"],
        ["noise", "--psi", "1/2", "--epsilon", "0.1", "--global-phase", "1/4"],
    ], ids=["analyze-precision-bits", "analyze-out", "scan-seed", "analyze-threads",
            "scan-threads", "construct-rational-threads", "construct-order-k-threads",
            "construct-quadratic-threads", "optimize-threads", "simulate-threads",
            "noise-threads", "census-threads", "optimize-global-phase", "simulate-global-phase",
            "noise-global-phase"])
    def test_inapplicable_flag_is_exit_2(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("args,flag", [
        (["simulate", "--psi", "1/2", "--steps", "100", "--out", ""], "--out"),
        (["scan", "--psi", "1/2", "--csv", ""], "--csv"),
        (["analyze", "--psi", "1/2", "--csv", ""], "--csv"),
        (["noise", "--psi", "1/2", "--epsilon", "0.1", "--json", ""], "--json"),
        (["census", "--n", "10", "--json", ""], "--json"),
    ], ids=["simulate-out", "scan-csv", "analyze-csv", "noise-json", "census-json"])
    def test_empty_output_path_is_exit_2(self, args, flag, capsys, tmp_path, monkeypatch):
        # an empty path names no file: it used to write nothing (or stdout) and exit 0
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert f"argument {flag}: an output path must not be empty" in err
        assert out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args,message", [
        (["noise", "--psi", "1/2", "--epsilon", "nan"], "epsilon must be >= 0"),
        (["noise", "--psi", "1/2", "--epsilon", "inf"], "epsilon must be >= 0"),
        (["noise", "--psi", "1/2", "--epsilon", "1e308"], "epsilon must be >= 0"),
        (["optimize", "--psi", "1/3", "--match-tol", "nan"], "match-tol must be finite"),
        (["optimize", "--psi", "1/3", "--match-tol", "inf"], "match-tol must be finite"),
        (["optimize", "--psi", "1/3", "--match-tol", "-0.001"], "match-tol must be finite"),
        (["optimize", "--psi", "1/3", "--restarts", "0"], "restarts must be >= 1"),
        (["optimize", "--psi", "1/3", "--max-iters", "0"], "max_iters must be >= 1"),
        (["analyze", "--phi", "1/3", "--psi", "2/3", "--global-phase", "0.25"],
         "--global-phase needs"),
        (["analyze", "--phi", "0.2", "--psi", "0.5", "--global-phase", "1/4"],
         "--global-phase needs"),
        (["scan", "--psi", "0.5", "--global-phase", "1/4"], "--global-phase needs"),
        (["analyze", "--psi", "1/2", "--global-phase", "rad:0.5"], "--global-phase needs"),
        (["construct", "rational", "0.25", "5/4"],
         "phase1 must be an exact rational phase, got '0.25'"),
        (["construct", "rational", "1/4", "5/4", "--global-phase", "0.25"],
         "global_phase must be an exact rational phase, got '0.25'"),
        (["census", "--n", "100", "--seed", "-1"], "must lie in [0, 2**64)"),
        (["census", "--n", "100", "--seed", str(2 ** 64)], "must lie in [0, 2**64)"),
        (["analyze", "--psi", "0.3", "--n-cap", "-5"], "n_cap must be >= 1, got -5"),
        (["analyze", "--psi", "1/3", "--n-cap", "0"], "n_cap must be >= 1, got 0"),
        (["construct", "quadratic", "--a", "-1", "--b", "-1", "--t", "3", "--n-cap", "-5"],
         "n_cap must be >= 1, got -5"),
        (["construct", "chaotic-order-k", "-K", "5", "--n-cap", "0"],
         "n_cap must be >= 1, got 0"),
    ], ids=["noise-epsilon-nan", "noise-epsilon-inf", "noise-epsilon-huge",
            "optimize-match-tol-nan", "optimize-match-tol-inf", "optimize-match-tol-negative",
            "optimize-restarts-0", "optimize-max-iters-0", "analyze-float-global-phase",
            "analyze-float-phases-global-phase", "scan-float-completion-global-phase",
            "analyze-radian-global-phase", "construct-rational-float-phase",
            "construct-rational-float-global-phase", "census-seed-negative",
            "census-seed-2-64", "analyze-float-n-cap-negative", "analyze-exact-n-cap-0",
            "construct-quadratic-n-cap-negative", "construct-order-k-n-cap-0"])
    def test_out_of_range_value_is_exit_2(self, args, message, tmp_path, capsys):
        code, doc = run_cli(args, tmp_path)
        assert code == 2 and doc is None
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,text,message", [
        ("scan", "--spec-json", '{"kind": "rational", "m1": 1, "p1": 4, "m2": 5}',
         "rational source is missing the field 'p2'"),
        ("analyze", "--spec-json", '[{"kind": "quadratic", "a": -1, "b": -1, "t": 3}]',
         "a source must be a JSON object, got list"),
        ("scan", "--spec-json", '"rational"', "a source must be a JSON object, got str"),
        ("scan", "--spec-json", '{"kind": "quadratic", "a": -1, "b": -1, "t": 3.7}',
         "quadratic source field 't' must be an integer, got 3.7"),
        ("scan", "--spec-json", '{"kind": "quadratic", "a": -1, "b": -1, "t": true}',
         "quadratic source field 't' must be an integer, got True"),
        ("analyze", "--spec-json", '{"kind": "rational", "m1": "1", "p1": 4, "m2": 5, "p2": 4}',
         "rational source field 'm1' must be an integer, got '1'"),
        ("analyze", "--spec-json", '{"kind": "rational", "m1": 1, "p1": 4, "m2": 5, "p2": 4, '
         '"g_m": null}', "rational source field 'g_m' must be an integer, got None"),
        ("scan", "--spec-json", '{"kind": "quadratic", "a": -1, "b": -1, "t": 3',
         "error: --spec-json PATH: Expecting"),
        ("optimize", "--unitary-json", "[[[1, 0], [0, 0]], [[0, 0], [1,",
         "error: --unitary-json PATH: Expecting"),
        ("optimize", "--unitary-json", "[[[1, 0], [0, 0]], [[0]]]", "d x d nested list"),
        ("optimize", "--unitary-json", "[[[1, 0], [0, 0]]]", "d x d nested list"),
        ("optimize", "--unitary-json", '[[[1, 0], [0, 0]], [[0, 0], ["1", 0]]]',
         "d x d nested list"),
        ("optimize", "--unitary-json", '{"re": 1}', "d x d nested list"),
        ("optimize", "--unitary-json", "[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]",
         "matrix is not unitary: residual nan"),
    ], ids=["spec-missing-key", "spec-list", "spec-string", "spec-float-t", "spec-bool-t",
            "spec-string-field", "spec-null-field", "spec-truncated", "unitary-truncated",
            "unitary-ragged", "unitary-not-square", "unitary-string-entry", "unitary-object",
            "unitary-nan"])
    def test_malformed_source_file_is_exit_2(self, command, flag, text, message, tmp_path,
                                             capsys):
        """A syntax error names the flag and the file (PATH in ``message``)."""
        (tmp_path / "source.json").write_text(text)
        code, doc = run_cli([command, flag, str(tmp_path / "source.json")], tmp_path)
        assert code == 2 and doc is None
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message.replace("PATH", str(tmp_path / "source.json")) in err

    @settings(max_examples=150, deadline=None)
    @given(doc=st.recursive(
        st.none() | st.booleans() | st.integers(-50, 50) | st.floats(-50.0, 50.0)
        | st.sampled_from(["rational", "quadratic", "1", ""]),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
            st.sampled_from(["kind", "m1", "p1", "m2", "p2", "g_m", "g_p", "a", "b", "t",
                             "extra"]), inner, max_size=8),
        max_leaves=12))
    @example(doc={"kind": "quadratic", "a": -1, "b": -1, "t": True})
    @example(doc=[{"kind": "rational"}])
    def test_any_json_spec_file_is_exit_0_or_2(self, doc):
        """Whatever JSON value a --spec-json file holds, scan returns 0 or 2: an
        exception escaping main() is the traceback and exit 1 of a process."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["scan", "--spec-json", str(path), "--k-max", "4"])
        assert code in (0, 2)
        assert (code == 2) == err.getvalue().startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["analyze", "--spec-json", "{spec}", "--psi", "1/7"],
        ["optimize", "--unitary-json", "{unitary}", "--psi", "1/3"],
        ["scan", "--spec-json", "{spec}", "--phi", "1/3", "--global-phase", "1/4"],
        ["optimize", "--spec-json", "{spec}", "--unitary-json", "{unitary}"],
    ], ids=["analyze-spec-json-psi", "optimize-unitary-json-psi",
            "scan-spec-json-phi-global-phase", "optimize-spec-json-unitary-json"])
    def test_flag_beside_a_file_source_is_exit_2(self, args, tmp_path, capsys):
        files = {"{spec}": tmp_path / "spec.json", "{unitary}": tmp_path / "u.json"}
        files["{spec}"].write_text(json.dumps(
            {"kind": "rational", "m1": 1, "p1": 4, "m2": 5, "p2": 4}))
        files["{unitary}"].write_text(json.dumps([[[0, 0], [1, 0]], [[1, 0], [0, 0]]]))
        code, doc = run_cli([str(files.get(a, a)) for a in args], tmp_path)
        assert code == 2 and doc is None
        assert "cannot be combined with" in capsys.readouterr().err
        for flag, path in zip(args, args[1:]):  # each file alone is a valid source
            if path in files:
                assert run_cli([args[0], flag, str(files[path])], tmp_path)[0] == 0

    @pytest.mark.parametrize("args,spec", [
        (["analyze", "--psi", "1/2", "--global-phase", "1/4"],
         {"m1": 3, "p1": 2, "m2": 1, "p2": 2, "g_m": 1, "g_p": 4}),
        (["scan", "--phi", "1/3", "--psi", "2/3", "--global-phase", "-1"],
         {"m1": 1, "p1": 3, "m2": 2, "p2": 3, "g_m": 1, "g_p": 1}),
    ], ids=["analyze-completion", "scan-pair"])
    def test_exact_global_phase_reaches_the_document(self, args, spec, tmp_path):
        code, doc = run_cli(args, tmp_path)
        assert code == 0
        assert doc["manifest"]["parameters"]["source"]["spec"] == {"kind": "rational", **spec}

    def test_non_finite_float_is_never_dumped(self, tmp_path):
        with pytest.raises(ValueError):
            with _outputs(argparse.Namespace(json=str(tmp_path / "x.json"))) as files:
                _emit({"value": math.nan}, *files[:2])
        assert not (tmp_path / "x.json").exists()

    def test_failed_argument_check_removes_an_existing_json_file(self, tmp_path, capsys):
        # every output is opened before the command runs, so one that was
        # there before is truncated, then removed with the rest
        dest = tmp_path / "out.json"
        dest.write_text("an older document\n")
        code, doc = run_cli(["census", "--n", "0", "--seed", "1"], tmp_path)
        assert code == 2 and doc is None
        assert "n_trials must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["scan", "analyze"])
    def test_unwritable_csv_path_writes_no_document(self, command, tmp_path, capsys):
        # both outputs are opened before either is written: the document was
        # written in full before the --csv path failed
        code = main([command, "--psi", "1/2", "--k-max", "3", "--json", str(tmp_path / "y.json"),
                     "--csv", str(tmp_path / "missing" / "x.csv")])
        assert code == 2 and "No such file or directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["scan", "analyze"])
    def test_non_finite_in_a_later_row_block_leaves_no_files(self, command, tmp_path,
                                                             monkeypatch):
        scan = qchaos.cli.chaoticity_scan

        def poisoned(source, k_max):  # a NaN in the last row, after two written pieces
            for block in scan(source, k_max):
                block.entropy_bits[-1] = math.nan
                yield block

        written = []

        def write(doc, file):  # the document's length at the error
            try:
                qchaos.jsontext.write(doc, file)
            finally:
                written.append(file.tell())

        monkeypatch.setattr(qchaos.cli, "chaoticity_scan", poisoned)
        monkeypatch.setattr(qchaos.cli, "write", write)
        code = main([command, "--phi", "0.21", "--psi", "1.79", "--k-max", "3000",
                     "--json", str(tmp_path / "y.json"), "--csv", str(tmp_path / "x.csv")])
        assert code == 2 and written[0] > 2 * 1024 * 100  # two pieces of rows
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args,flags", [
        (["scan", "--psi", "1/3", "--k-max", "3", "--json", "F", "--csv", "F"], "--json and --csv"),
        (["scan", "--psi", "1/3", "--k-max", "3", "--json", "F", "--csv", "link"],
         "--json and --csv"),
        (["simulate", "--psi", "1/2", "--steps", "1000", "--out", "P", "--json", "P.stream"],
         "--json and --out"),
        (["simulate", "--psi", "1/2", "--steps", "1000", "--out", "P", "--json", "P.json"],
         "--json and --out"),
        (["scan", "--psi", "1/3", "--k-max", "3", "--json", "F", "--csv", "./F"],
         "--json and --csv"),
    ], ids=["scan-json-csv", "scan-csv-symlink", "simulate-json-stream", "simulate-json-sidecar",
            "scan-csv-dot-path"])
    def test_two_outputs_in_one_file_are_exit_2(self, args, flags, tmp_path, monkeypatch,
                                                capsys):
        # checked before the command runs, so neither output is begun
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link").symlink_to("F")
        assert main(args) == 2
        assert f"{flags} name one file" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["link"]

    @pytest.mark.parametrize("args,files", [
        (["scan", "--psi", "1/3", "--k-max", "3", "--json", "-", "--csv", "F"], ["F"]),
        (["simulate", "--psi", "1/2", "--steps", "1000", "--out", "P", "--json", "P.doc"],
         ["P.doc", "P.json", "P.stream"]),
    ], ids=["scan-stdout-json", "simulate-own-json"])
    def test_distinct_outputs_are_all_written(self, args, files, tmp_path, monkeypatch,
                                              capsys):
        # "-" is stdout, not a file, and a --json beside PREFIX.* is its own file
        monkeypatch.chdir(tmp_path)
        assert main(args) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == files
        assert all((tmp_path / name).stat().st_size > 0 for name in files)


class TestBoundedMemory:
    """Each table is written a piece of rows at a time as its blocks are
    computed, so no command holds a whole table, column or document text.  In
    process, each of these peaked at about 60 MB of traced memory when the
    document was built whole."""

    @pytest.mark.parametrize("args", [
        ["scan", "--phi", "0.21", "--psi", "1.79", "--k-max", "100000", "--csv", "{csv}"],
        ["analyze", "--phi", "3/101", "--psi", "7/997", "--global-phase", "1/2",
         "--n-cap", "10000000000", "--k-max", "100000"],
        ["noise", "--psi", "0.77", "--epsilon", "0.1", "--steps", "100000", "--seed", "5",
         "--full"],
    ], ids=["scan-csv", "analyze-exact", "noise-full"])
    def test_long_table_peaks_below_10_mb(self, args, tmp_path):
        args = [a.replace("{csv}", str(tmp_path / "scan.csv")) for a in args]
        tracemalloc.start()
        try:
            code = main([*args, "--json", str(tmp_path / "doc.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and (tmp_path / "doc.json").stat().st_size > 10 ** 7
        assert peak < 10 * 10 ** 6


class TestCensus:
    def test_band_and_schema(self, tmp_path):
        code, doc = run_cli(["census", "--n", "100000", "--seed", "1"], tmp_path)
        assert code == 0
        assert 0.4953 <= doc["census"]["fraction"] <= 0.5047


class TestSimulate:
    def test_uniform_chain(self, tmp_path):
        code, doc = run_cli(["simulate", "--phi", "0", "--psi", "1/2", "--basis", "x",
                             "--steps", "100000", "--seed", "7", "--block-len", "6"],
                            tmp_path)
        assert code == 0
        assert doc["predicted_rate"] == 1.0
        assert abs(doc["empirical_rate"] - 1.0) < 0.01

    def test_writes_stream_and_sidecar(self, tmp_path):
        prefix = tmp_path / "run"
        code, doc = run_cli(["simulate", "--phi", "0", "--psi", "1",
                             "--basis", "computational", "--steps", "64",
                             "--seed", "3", "--out", str(prefix)], tmp_path)
        assert code == 0
        stream = (tmp_path / "run.stream").read_bytes()
        assert len(stream) == 64
        sidecar = json.loads((tmp_path / "run.json").read_text())
        assert sidecar["seed"] == 3
        assert sidecar["config"]["steps"] == 64

    @pytest.mark.parametrize("bad", [["--steps", "0"], ["--seed", "-1"], ["--period", "0"],
                                     ["--block-len", "0"], ["--out", "missing/run"]],
                             ids=lambda a: a[0][2:])
    def test_failed_run_writes_no_files(self, bad, tmp_path):
        # every output is opened before the run's checks and removed when they
        # fail; a missing directory of --out is not made
        args = {"--steps": "100", "--seed": "1", "--period": "1", "--block-len": "4",
                "--out": "run"}
        args.update([bad])
        args["--out"] = str(tmp_path / args["--out"])
        code, doc = run_cli(["simulate", "--psi", "1/2", *(x for kv in args.items() for x in kv)],
                            tmp_path)
        assert code == 2 and doc is None
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_json_removes_the_stream_and_sidecar(self, tmp_path, monkeypatch,
                                                            capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--psi", "1/2", "--steps", "100", "--out", "Q",
                     "--json", "nodir/x.json"]) == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_estimator_failure_after_written_blocks_leaves_no_files(self, tmp_path,
                                                                    monkeypatch, capsys):
        written = []

        def fail(counts, d):  # the stream's blocks are all written by now
            written.append((tmp_path / "run.stream").stat().st_size)
            raise ValueError("estimator failed")

        monkeypatch.setattr("qchaos.simulate._rate_of_counts", fail)
        code, doc = run_cli(["simulate", "--psi", "0.3", "--steps", "40000", "--seed", "1",
                             "--out", str(tmp_path / "run")], tmp_path)
        assert code == 2 and doc is None
        assert capsys.readouterr().err == "error: estimator failed\n"
        assert written[0] > 0
        assert list(tmp_path.iterdir()) == []

    def test_dotted_prefixes_keep_their_whole_name(self, tmp_path):
        # PREFIX.stream and PREFIX.json: seed.7 and seed.8 must not share seed.json
        for seed in ("7", "8"):
            code, _ = run_cli(["simulate", "--phi", "0", "--psi", "1/2", "--steps", "64",
                               "--seed", seed, "--out", str(tmp_path / f"seed.{seed}")],
                              tmp_path)
            assert code == 0
        assert sorted(p.name for p in tmp_path.glob("seed*")) == [
            "seed.7.json", "seed.7.stream", "seed.8.json", "seed.8.stream"]
        for seed in (7, 8):
            assert json.loads((tmp_path / f"seed.{seed}.json").read_text())["seed"] == seed

    def test_period_two_pauli_x_is_silent(self, tmp_path):
        code, doc = run_cli(["simulate", "--phi", "0", "--psi", "1",
                             "--basis", "computational", "--steps", "30000",
                             "--period", "2", "--seed", "3", "--block-len", "4"],
                            tmp_path)
        assert code == 0
        assert doc["empirical_rate"] == 0.0
        assert doc["predicted_rate"] == 0.0

    @pytest.mark.parametrize("source,basis,stream,rates", [
        ("--phi 0.3 --psi 1/3", "computational", "b473271113c7461a",
         (0.0, 1.60171325191e-16, 1.60171325191e-16)),
        ("--phi 0.3 --psi 1/3", "x", "88627dbe3762b589",
         (0.167201355888, 0.165860559097, 0.00134079679136)),
        ("--phi 0.3 --psi 1/3", "optimized", "88627dbe3762b589",
         (0.167201355888, 0.165860559097, 0.00134079679136)),
        ("--psi 0.3", "computational", "b473271113c7461a",
         (0.0, 1.60171325191e-16, 1.60171325191e-16)),
        ("--psi 0.3", "x", "672712665b47988c",
         (0.454596669048, 0.454538851472, 5.78175767431e-05)),
        ("--psi 0.3", "optimized", "672712665b47988c",
         (0.454596669048, 0.454538851472, 5.78175767431e-05)),
    ], ids=["pair-computational", "pair-x", "pair-optimized", "completion-computational",
            "completion-x", "completion-optimized"])
    def test_every_basis_at_period_three(self, source, basis, stream, rates, tmp_path):
        """Outcomes (a sha256 prefix of the stream) and the three rates, pinned
        for each basis with the optimized basis seeded by --seed and fitted to
        U^3; the source --psi 0.3 has theta >= pi/2, where the optimized basis
        of U is not x, but U^3 has theta_3 < pi/2, where it is."""
        code, doc = run_cli(["simulate", *source.split(), "--basis", basis, "--steps", "20000",
                             "--seed", "5", "--block-len", "4", "--period", "3",
                             "--out", str(tmp_path / "run")], tmp_path)
        assert code == 0
        digest = hashlib.sha256((tmp_path / "run.stream").read_bytes()).hexdigest()
        assert digest[:16] == stream
        assert (doc["empirical_rate"], doc["predicted_rate"], doc["abs_diff"]) == rates

    @pytest.mark.parametrize("steps", ["10", "200"])
    def test_invalid_block_len_is_exit_2_at_any_step_count(self, steps, tmp_path, capsys):
        """The check runs before the estimator's step-count gate: 10 steps,
        too few for any estimate, once wrote "block_len": -3 and exited 0."""
        code, doc = run_cli(["simulate", "--psi", "1/2", "--seed", "1", "--steps", steps,
                             "--block-len", "-3"], tmp_path)
        assert code == 2 and doc is None
        assert capsys.readouterr().err == "error: block length must be >= 1, got -3\n"

    @pytest.mark.parametrize("period", [10 ** 5, 10 ** 9])
    @pytest.mark.parametrize("phi,psi", [("0.3", "1.1"), ("rad:0.3", "rad:1.1")])
    def test_large_period_predicts_the_closed_form(self, phi, psi, period, tmp_path):
        """U^P comes from the reduced phases: repeated squaring once drifted
        past the unitarity check at P = 10^5 and exited 2."""
        code, doc = run_cli(["simulate", "--phi", phi, "--psi", psi, "--steps", "1000",
                             "--period", str(period)], tmp_path)
        assert code == 0
        pair = EigenphasePair(parse_phase(phi), parse_phase(psi))
        half = float(order_verdicts(pair, [period]).theta[0]) / 2.0
        expected = eta(math.cos(half) ** 2) + eta(math.sin(half) ** 2)
        assert doc["predicted_rate"] == pytest.approx(expected, rel=1e-9, abs=1e-14)


class TestNoise:
    def test_alternation_near_window_edge(self, tmp_path):
        code, doc = run_cli(["noise", "--psi", "3/4", "--epsilon", "0.1",
                             "--steps", "1000", "--seed", "3"], tmp_path)
        assert code == 0
        counts = doc["noise"]["verdict_counts"]
        assert counts["chaotic"] > 0 and counts["non_chaotic"] > 0
        assert sum(counts.values()) == 1000

    def test_full_walk_preserves_unimodularity(self, tmp_path):
        code, doc = run_cli(["noise", "--psi", "1/2", "--epsilon", "0.05",
                             "--steps", "50", "--seed", "11", "--full"], tmp_path)
        assert code == 0
        for step in doc["noise"]["walk"]:
            total = (step["phi"] + step["psi"]) % (2 * math.pi)
            assert min(total, 2 * math.pi - total) < 1e-9  # 12-digit JSON rounding


class TestOptimize:
    def test_matches_closed_form(self, tmp_path):
        code, doc = run_cli(["optimize", "--phi", "0", "--psi", "1/3",
                             "--restarts", "8", "--seed", "1"], tmp_path)
        assert code == 0
        body = doc["optimize"]
        assert body["matches_closed_form"] is True
        assert body["abs_diff"] <= 1e-3

    def test_unitary_json_input_d3(self, tmp_path):
        m = [[[0, 0], [1, 0], [0, 0]],
             [[0, 0], [0, 0], [1, 0]],
             [[1, 0], [0, 0], [0, 0]]]  # cyclic permutation of 3 elements
        path = tmp_path / "u.json"
        path.write_text(json.dumps(m))
        code, doc = run_cli(["optimize", "--unitary-json", str(path),
                             "--restarts", "6", "--seed", "2"], tmp_path)
        assert code == 0
        assert doc["optimize"]["d"] == 3
        assert doc["optimize"]["value_bits"] >= 1.0 - 1e-6  # beats the swap chain


class TestDeterminism:
    COMMANDS = [
        ["analyze", "--psi", "1/2", "--k-max", "8"],
        ["scan", "--phi", "0.21", "--psi", "1.79", "--k-max", "16"],
        ["construct", "chaotic-order-k", "-K", "7"],
        ["construct", "quadratic", "--a", "-1", "--b", "-1", "--t", "3"],
        ["census", "--n", "50000", "--seed", "9"],
        ["simulate", "--phi", "0", "--psi", "1/2", "--basis", "x",
         "--steps", "50000", "--seed", "21", "--block-len", "6"],
        ["noise", "--psi", "3/4", "--epsilon", "0.1", "--steps", "500", "--seed", "2"],
        ["optimize", "--phi", "0", "--psi", "1/3", "--restarts", "4", "--seed", "8"],
    ]

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_repeat_runs_are_bit_identical(self, args, tmp_path):
        _, a = run_cli(args, tmp_path, "a.json")
        _, b = run_cli(args, tmp_path, "b.json")
        assert stripped(a) == stripped(b)


IMPORT_PROBE = """
import sys
import qchaos.cli

def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "jsonschema", "csv", "fractions"))

after_import = heavy()
code = qchaos.cli.main(sys.argv[1:])
print(repr((code, after_import, heavy())))
"""


def fresh_python(*argv, **env):
    """Run ``python argv...`` in a fresh process with src on the path and
    OPENBLAS_NUM_THREADS unset unless given in ``env``; return it finished."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, *argv], env=dict(base, PYTHONPATH=str(SRC), **env),
                          capture_output=True, text=True, timeout=60, check=True)


def heavy_modules(args):
    """(exit code, scipy/jsonschema/csv/fractions modules after import, and after the command)."""
    return fresh_python("-c", IMPORT_PROBE, *args).stdout.strip()


FREEZE_PROBE = """
import gc
import sys
import qchaos.cli
sys.argv = ["qchaos", *sys.argv[1:]]
code = qchaos.cli.main()
print(repr((code, gc.get_freeze_count())))
"""


#: The package's public names, in the order of its submodules.
PUBLIC_NAMES = """
    EigenphasePair ExactUnitarySpec RationalPhase TWO_PI UNITARY_TOL
    eigenphases_of mod_2pi rational_phase_order
    require_unitary EntropyResult PvmBasis
    basis_from_angles eta markov_entropy_rate
    pvm_entropy_optimize transition_matrix BOUNDARY_TOL ChaoticityReport
    IdempotencyCapError OrderVerdicts SQRT2 VERDICT_LABELS
    boundary_half_width chaotic_order_fraction chaoticity_scan exact_theta_fraction
    first_nonchaotic_order idempotency_order order_verdicts projective_idempotency_order
    qubit_entropy_closed QuadraticRecipe build_chaotic_order quadratic_trace_sequence
    source_from_json CensusResult EntropyRateExperiment
    InsufficientDataError empirical_entropy_rate
    entropy_rate_experiment monte_carlo_chaotic_fraction
    noisy_phase_walk sample_trajectory stream_generator
""".split()

EXPORTS_PROBE = """
import sys
import qchaos
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "qchaos"))
names = list(qchaos.__all__)
for name in names:
    getattr(qchaos, name)  # AttributeError if a name does not resolve
print(repr((loaded, names, set(names) <= set(dir(qchaos)), hasattr(qchaos, "no_such_name"))))
"""

THREADS_PROBE = """
import os
import qchaos.cli
status = dict(line.split(":", 1) for line in open("/proc/self/status"))
print(repr((os.environ["OPENBLAS_NUM_THREADS"], int(status["Threads"]))))
"""


class TestImports:
    def test_cli_loads_neither_scipy_nor_jsonschema(self, tmp_path):
        """scipy and jsonschema are test oracles: the package imports neither.
        Nor does it import csv, which only --csv uses, or fractions, which
        only exact_theta_fraction uses."""
        args = ["analyze", "--psi", "1/2", "--json", str(tmp_path / "a.json")]
        assert heavy_modules(args) == repr((0, [], []))

    @pytest.mark.parametrize("case", ["pair", "unitary-json-d3", "unitary-json-d2"])
    def test_optimize_loads_no_scipy(self, case, tmp_path):
        """The optimizer runs its own Nelder-Mead, and a non-diagonal 2x2 is
        diagonalized in closed form: no scipy for a pair or a unitary."""
        if case == "pair":
            args = ["optimize", "--phi", "0", "--psi", "1/3"]
        else:
            path = tmp_path / "u.json"
            u = random_unitary(np.random.default_rng(4), 3 if case.endswith("d3") else 2)
            assert abs(u[0, 1]) > 0.1  # eigenphases_of takes its non-diagonal branch
            path.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in u]))
            args = ["optimize", "--unitary-json", str(path), "--restarts", "2"]
        assert heavy_modules([*args, "--json", str(tmp_path / "a.json")]) == repr((0, [], []))

    def test_import_qchaos_loads_no_numpy(self):
        """The package loads each submodule on first use, and so no numpy."""
        loaded, *_ = ast.literal_eval(fresh_python("-c", EXPORTS_PROBE).stdout)
        assert loaded == ["qchaos"]

    def test_exports_the_public_names(self):
        _, names, listed, unknown = ast.literal_eval(fresh_python("-c", EXPORTS_PROBE).stdout)
        assert len(PUBLIC_NAMES) == 44
        assert names == PUBLIC_NAMES  # and each one resolved in the probe
        assert listed and not unknown

    def test_cli_runs_openblas_on_one_thread(self):
        """The CLI sets OPENBLAS_NUM_THREADS=1 before numpy loads, so OpenBLAS
        starts no worker thread; a value the user set is kept."""
        if not Path("/proc/self/status").exists():
            pytest.skip("no /proc/self/status to count threads")
        assert fresh_python("-c", THREADS_PROBE).stdout.strip() == repr(("1", 1))
        preset = ast.literal_eval(fresh_python("-c", THREADS_PROBE, OPENBLAS_NUM_THREADS="2").stdout)
        assert preset[0] == "2"

    def test_process_entry_freezes_the_collector(self, tmp_path):
        """main() with no argument list, as the script runs it, freezes every
        object so that exit skips the collector's teardown; the document is
        whole when the process ends."""
        dest = tmp_path / "a.json"
        run = fresh_python("-c", FREEZE_PROBE, "analyze", "--psi", "1/2", "--json", str(dest))
        code, frozen = ast.literal_eval(run.stdout)
        assert code == 0 and frozen > 0
        assert json.loads(dest.read_text())["manifest"]["command"] == "analyze"

    def test_in_process_main_leaves_the_collector_alone(self, tmp_path):
        before = gc.get_freeze_count()
        assert run_cli(["analyze", "--psi", "1/2"], tmp_path)[0] == 0
        assert gc.get_freeze_count() == before

    def test_module_entry_replays_a_golden_before_numpy(self, tmp_path):
        """``python -m qchaos.cli``, the benchmark's entry, writes a golden's
        bytes, and the package import ends before numpy starts to load."""
        name = "analyze_su2_half"
        args = json.loads((GOLDEN_DIR / "cases.json").read_text())[name]
        dest = tmp_path / "out.json"
        run = fresh_python("-X", "importtime", "-m", "qchaos.cli", *args, "--json", str(dest))
        text = dest.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        del doc["manifest"]["timestamp"]
        assert (json.dumps(doc, indent=2, sort_keys=True) + "\n"
                == (GOLDEN_DIR / f"{name}.json").read_text())
        imported = [line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
                    if line.startswith("import time:")]
        assert imported.index("qchaos") < imported.index("numpy")


GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_cases():
    manifest = json.loads((GOLDEN_DIR / "cases.json").read_text())
    return [(name, args) for name, args in manifest.items()]


class TestGoldenFiles:
    @pytest.mark.parametrize("name,args", golden_cases(), ids=lambda v: str(v)[:40])
    def test_matches_pinned_output(self, name, args, tmp_path):
        """The written bytes, with only manifest.timestamp dropped, equal the golden file."""
        code, doc = run_cli(args, tmp_path)
        assert code == 0
        text = (tmp_path / "out.json").read_text()
        canonical = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert text == canonical  # so re-dumping drops the timestamp line and nothing else
        del doc["manifest"]["timestamp"]
        assert (json.dumps(doc, indent=2, sort_keys=True) + "\n"
                == (GOLDEN_DIR / f"{name}.json").read_text())

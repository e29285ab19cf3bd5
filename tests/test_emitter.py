"""The document emitter against the ``json.dumps`` oracle it replaces.

Every CLI document goes through ``qchaos.jsontext.write`` (via ``cli._emit``),
to --json and to the ``simulate --out`` sidecar alike.  The text must equal
``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\\n"`` after
rounding every float to 12 significant digits and expanding every table, which
``tests/helpers.py`` keeps as ``reference_dumps``, however a table's rows are
split into blocks; scan and walk rows must equal the ones the old per-record
path built, and the streamed scan CSV the old per-record ``csv.writer`` output.
"""

import argparse
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import qchaos.cli
from qchaos.cli import _emit, _outputs, build_parser, main, resolve_source
from qchaos import jsontext
from qchaos.jsontext import Rows, _column, write

from helpers import (SCAN_KEYS, reference_csv, reference_dumps, reference_noise_walk,
                     reference_scan_rows)


def emitted(doc) -> str:
    buf = io.StringIO()
    _emit(doc, buf)
    return buf.getvalue()


_special_floats = st.sampled_from([
    -0.0, 0.0, 1e-5, 1e16, 1e-4, 1e12, 123456789012345.0, 0.1, 5e-324,
    2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308])
_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _special_floats)
_non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
_text = st.one_of(st.text(max_size=8), st.sampled_from(
    ['"', "\\", "%s", "%%", "%(K)s", "\n\t\r\x00", "é", "日本", " ", "\U0001f600"]))
_scalars = st.one_of(st.none(), st.booleans(), st.integers(), _floats, _text)


def _blocks(columns: dict, cuts: list) -> Rows:
    """A table of ``columns`` given as column blocks, split where ``cuts`` say."""
    n = len(next(iter(columns.values()), ()))
    ends = sorted({0, n, *(c % (n + 1) for c in cuts)})
    return Rows([{k: col[lo:hi] for k, col in columns.items()}
                 for lo, hi in zip(ends, ends[1:])])


def _tables(cells, sizes=(0, 1, 2, 7)):
    """Rows tables of ``sizes`` rows in producer blocks of random sizes; each
    column is one scalar kind or mixed, its drawn values repeated to length."""
    def of_size(n):
        column = st.one_of(*(st.lists(kind, min_size=1, max_size=8).map(lambda xs: (xs * n)[:n])
                             for kind in (_floats, st.integers(), _text, st.booleans(), cells)))
        return st.builds(_blocks, st.dictionaries(_text, column, max_size=5),
                         st.lists(st.integers(0, n), max_size=4))
    return st.sampled_from(sizes).flatmap(of_size)


def _documents(scalars):
    return st.recursive(
        st.one_of(scalars, _tables(scalars)),
        lambda inner: st.one_of(st.lists(inner, max_size=4),
                                st.dictionaries(_text, inner, max_size=4)),
        max_leaves=24)


class TestEmitterProperty:
    @settings(max_examples=400, deadline=None)
    @given(doc=_documents(_scalars))
    def test_equals_json_dumps(self, doc):
        assert emitted(doc) == reference_dumps(doc)

    @settings(max_examples=200, deadline=None)
    @given(doc=_documents(st.one_of(_scalars, _non_finite)))
    def test_non_finite_raises_like_json_dumps(self, doc):
        try:
            expected = reference_dumps(doc)
        except ValueError:
            with pytest.raises(ValueError):
                emitted(doc)
        else:
            assert emitted(doc) == expected


class TestEmitterExamples:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_in_a_float_column_writes_nothing(self, bad, tmp_path):
        dest = tmp_path / "x.json"
        table = Rows([{"theta": [0.5, bad, 1.0], "K": [1, 2, 3]}])
        with pytest.raises(ValueError):
            with _outputs(argparse.Namespace(json=str(dest))) as files:
                _emit({"scan": table}, *files[:2])
        assert not dest.exists()

    def test_ragged_columns_are_rejected(self):
        with pytest.raises(ValueError):
            emitted({"rows": Rows([{"a": [1, 2], "b": [1]}])})


_PIECE = jsontext._PIECE


class TestPieces:
    """Tables across the writer's pieces of _PIECE rows and the producer's blocks."""

    @settings(max_examples=60, deadline=None)
    @given(doc=st.fixed_dictionaries({
        "head": _scalars,
        "table": _tables(_scalars,
                         sizes=(0, 1, _PIECE - 1, _PIECE, _PIECE + 1, 3 * _PIECE + 5)),
        "tail": st.lists(_scalars, max_size=3)}))
    def test_written_pieces_join_to_dumps(self, doc):
        pieces = []

        class File(io.StringIO):
            def write(self, piece):
                pieces.append(piece)
                return super().write(piece)

        write(doc, file := File())
        assert file.getvalue() == "".join(pieces) == reference_dumps(doc)
        assert len(pieces) > 1

    def test_rows_are_formatted_a_piece_at_a_time(self, monkeypatch):
        seen = []

        def spy(col, level):
            seen.append(len(col))
            return _column(col, level)

        monkeypatch.setattr(jsontext, "_column", spy)
        table = Rows(iter([{"K": list(range(5)), "x": [0.5] * 5},
                           {"K": list(range(3 * _PIECE + 2)), "x": [1.5] * (3 * _PIECE + 2)}]))
        text = emitted({"t": table})
        assert seen == [5, 5, *[_PIECE] * 6, 2, 2]
        assert text.count('"K"') == 3 * _PIECE + 7


def _rounded(col):
    return [repr(float(f"{v:.12g}")) for v in col]


#: Mantissas at the 12-digit rounding edges, where %.12g may carry into the
#: next decade (9.9999999999995 -> 10), and a full-precision one.
_MANTISSAS = [1.0, 9.9999999999995, 9.99999999999949, 9.9999999999996, 5.0,
              1.23456789012345, 2.5, 7.777777777777777]


class TestColumnRounding:
    """The batched rounding of a float column against the per-value rounding."""

    def test_every_decimal_exponent_both_signs(self):
        col = [sign * m * 10.0 ** e for e in range(-324, 309) for m in _MANTISSAS
               for sign in (1.0, -1.0)]
        col = [v for v in col if math.isfinite(v)]
        assert len(col) > 10_000
        assert _column(col, 0) == _rounded(col)

    def test_subnormals_zeros_and_integers(self):
        tiny = 2.2250738585072014e-308
        subnormals = [5e-324 * k for k in (1, 2, 3, 7, 10, 99, 12345, 2 ** 40)]
        subnormals += [math.nextafter(tiny, 0.0), tiny / 3, tiny / 1e10]
        integers = [float(k * 10 ** e + d) for e in range(18) for k in (1, 3, 9)
                    for d in (-1, 0, 1) if k * 10 ** e + d <= 10 ** 17]
        integers += [2.0 ** 53, 2.0 ** 53 + 2, 999999999999.0, 999999999999.5]
        col = [s * v for v in [0.0, *subnormals, *integers] for s in (1.0, -1.0)]
        assert "-0.0" in _column(col, 0) and "1.0" in _column(col, 0)
        assert _column(col, 0) == _rounded(col)

    @settings(max_examples=300, deadline=None)
    @given(col=st.lists(st.one_of(
        st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-324, 308)),
        st.integers(-10 ** 17, 10 ** 17).map(float)), min_size=1, max_size=30))
    def test_random_decades(self, col):
        col = [v for v in col if math.isfinite(v)] or [0.0]
        assert _column(col, 0) == _rounded(col)


def _target(args):
    """The source a scan command runs on, resolved as the CLI resolves it."""
    return resolve_source(build_parser().parse_args(["scan", *args]))


SOURCES = {
    "float": ["--phi", "0.21", "--psi", "1.79"],
    "exact": ["--phi", "3/101", "--psi", "7/997", "--global-phase", "1/2"],
    "quadratic": ["--spec-json", "{spec}"],
}


@pytest.fixture
def source_args(request, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "quadratic", "a": -1, "b": -1, "t": 3}))
    return [a.replace("{spec}", str(spec)) for a in SOURCES[request.param]]


@pytest.fixture
def captured(monkeypatch):
    """The documents handed to the writer, in order; their tables are read
    as they are written."""
    docs = []
    monkeypatch.setattr(qchaos.cli, "write", lambda doc, file: docs.append(doc) or write(doc, file))
    return docs


@pytest.mark.parametrize("source_args", list(SOURCES), indirect=True)
def test_large_scan_is_byte_identical_to_per_record_rows(source_args, captured, tmp_path):
    k_max = 20_000
    dest = tmp_path / "scan.json"
    assert main(["scan", *source_args, "--k-max", str(k_max), "--json", str(dest)]) == 0
    old = dict(captured[0])
    old["scan"] = [dict(zip(SCAN_KEYS, row))
                   for row in reference_scan_rows(_target(source_args), k_max)]
    assert dest.read_text() == reference_dumps(old)


def test_full_noise_walk_is_byte_identical_to_per_step_rows(captured, tmp_path):
    dest = tmp_path / "noise.json"
    assert main(["noise", "--psi", "0.77", "--epsilon", "0.1", "--steps", "20000",
                 "--seed", "5", "--full", "--json", str(dest)]) == 0
    walk = reference_noise_walk(_target(["--psi", "0.77"]), epsilon=0.1, steps=20_000, seed=5)
    labels = ["chaotic", "boundary", "non_chaotic"]
    old = dict(captured[0])
    old["noise"] = dict(old["noise"], walk=[
        {"phi": p, "psi": q, "trace_mag": tm, "verdict": labels[c]}
        for p, q, tm, c in zip(walk.phi.tolist(), walk.psi.tolist(),
                               walk.trace_mag.tolist(), walk.codes.tolist())])
    assert dest.read_text() == reference_dumps(old)


@pytest.mark.parametrize("command", ["scan", "analyze"])
@pytest.mark.parametrize("source_args", list(SOURCES), indirect=True)
def test_csv_is_byte_identical_to_per_record_writer(command, source_args, tmp_path):
    k_max = 20_000  # across the scan's blocks of orders and the writer's pieces
    dest = tmp_path / "scan.csv"
    assert main([command, *source_args, "--k-max", str(k_max), "--csv", str(dest),
                 "--json", str(tmp_path / "doc.json")]) == 0
    assert dest.read_text() == reference_csv(_target(source_args), k_max)


def test_simulate_sidecar_equals_document_and_oracle(captured, tmp_path):
    doc_path = tmp_path / "doc.json"
    assert main(["simulate", "--phi", "0.3", "--psi", "1/2", "--steps", "30000",
                 "--seed", "3", "--out", str(tmp_path / "run"),
                 "--json", str(doc_path)]) == 0
    sidecar = (tmp_path / "run.json").read_text()
    assert sidecar == reference_dumps(captured[0])
    assert sidecar == doc_path.read_text()

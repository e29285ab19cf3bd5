"""The one JSON writer of qchaos documents: for string-keyed ``doc``, ``dumps(doc)``
equals ``json.dumps(doc', indent=2, sort_keys=True, allow_nan=False) + "\\n"``,
doc' being doc with every float rounded to 12 significant digits and every
``Rows`` table expanded into its row objects.  A table is written from its columns:
one %-template per row, one %.12g format per float column.  NaN and inf raise ValueError."""

import json
import math

_scalar = json.JSONEncoder(allow_nan=False).encode  # str, int, bool, None, float


class Rows(dict):
    """A JSON list of flat objects held as columns: key -> one value per row."""


def _column(col: list, level: int) -> list[str]:
    """JSON texts of a column.  A finite float column is %.12g-formatted at once: a piece
    is repr(float(piece)) unless it has an exponent (%g and repr part ways at 1e12, 1e16
    and on subnormals) or lacks repr's '.' (1.0, -0.0)."""
    kinds = set(map(type, col))
    if kinds == {float} and all(map(math.isfinite, col)):
        return [repr(float(s)) if "e" in s else s if "." in s else s + ".0"
                for s in ("%.12g\n" * len(col) % tuple(col)).split()]
    if kinds == {str}:
        return list(map({s: _scalar(s) for s in set(col)}.__getitem__, col))
    if kinds == {int}:
        return list(map(int.__repr__, col))
    return [_value(v, level) for v in col]


def _join(items: list[str], level: int, ends: str) -> str:
    pad = "\n" + "  " * (level + 1)
    return ends[0] + pad + ("," + pad).join(items) + pad[:-2] + ends[1] if items else ends


def _value(obj, level: int) -> str:
    if isinstance(obj, Rows):  # one template, itself an object of %s values, per row
        keys = sorted(obj)
        row = _join([_scalar(k).replace("%", "%%") + ": %s" for k in keys], level + 1, "{}")
        cells = zip(*(_column(obj[k], level + 2) for k in keys), strict=True)
        return _join(list(map(row.__mod__, cells)), level, "[]")
    if isinstance(obj, dict):
        return _join([_scalar(k) + ": " + _value(v, level + 1)
                      for k, v in sorted(obj.items())], level, "{}")
    if isinstance(obj, (list, tuple)):
        return _join([_value(v, level + 1) for v in obj], level, "[]")
    return _scalar(float(f"{obj:.12g}") if isinstance(obj, float) else obj)


def dumps(doc) -> str:
    """The document's text: two-space indent, sorted keys, final newline."""
    return _value(doc, 0) + "\n"

"""The one JSON writer of qchaos documents: ``write(doc, file)`` writes the text
of ``doc`` in pieces.  For string-keyed doc that is ``json.dumps(doc', indent=2,
sort_keys=True, allow_nan=False) + "\\n"``, doc' being doc with every float
rounded to 12 significant digits and every ``Rows`` table expanded into its
rows.  A table is written _PIECE rows at a time, one %-template a piece, so no
table, column or text is held whole.  NaN and inf raise ValueError."""

import json
import math
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

_scalar = json.JSONEncoder(allow_nan=False).encode  # str, int, bool, None, float
#: Rows formatted at a time: the writer holds one piece of a table as text.
_PIECE = 1 << 10


class Rows(NamedTuple):
    """A JSON list of flat objects as column blocks (key -> one value per row, a
    list or an array) whose rows follow one another; read once, when written."""

    blocks: Iterable[dict]


def row_pieces(blocks: Iterable[dict]) -> Iterator[dict[str, list]]:
    """The rows of column blocks as Python values, at most _PIECE rows a piece."""
    for block in blocks:
        n = len(next(iter(block.values()), ()))
        if any(len(col) != n for col in block.values()):
            raise ValueError("the columns of a table must have equal lengths")
        for lo in range(0, n, _PIECE):
            piece = {k: col[lo:lo + _PIECE] for k, col in block.items()}
            yield {k: p.tolist() if hasattr(p, "tolist") else list(p) for k, p in piece.items()}


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
    return ["".join(_pieces(v, level)) for v in col]


def cells(columns: list[list]) -> tuple:
    """The cells of equal-length columns row by row, for one template of the rows."""
    return tuple(chain.from_iterable(zip(*columns)))


def _rows(piece: dict[str, list], level: int) -> str:
    """A piece of a table's rows as text, filled into one template."""
    keys, n = sorted(piece), len(next(iter(piece.values())))
    pad = "\n" + "  " * (level + 2)
    row = "{" + pad + ("," + pad).join(_scalar(k).replace("%", "%%") + ": %s" for k in keys)
    text = [_column(piece[k], level + 2) for k in keys]
    return (",\n" + "  " * (level + 1)).join([row + pad[:-2] + "}"] * n) % cells(text)


def _pieces(obj, level: int) -> Iterator[str]:
    """The text of ``obj`` in order: a container's items one by one, a table's
    rows a piece at a time."""
    if isinstance(obj, Rows):
        items = ((_rows(piece, level), ()) for piece in row_pieces(obj.blocks))
    elif isinstance(obj, dict):
        items = ((_scalar(k) + ": ", _pieces(v, level + 1)) for k, v in sorted(obj.items()))
    elif isinstance(obj, (list, tuple)):
        items = (("", _pieces(v, level + 1)) for v in obj)
    else:
        yield _scalar(float(f"{obj:.12g}") if isinstance(obj, float) else obj)
        return
    pad, ends = "\n" + "  " * (level + 1), "{}" if isinstance(obj, dict) else "[]"
    sep = ends[0] + pad
    for head, tail in items:
        yield sep + head
        yield from tail
        sep = "," + pad
    yield pad[:-2] + ends[1] if sep[0] == "," else ends


def write(doc, file) -> None:
    """Write the document's text to ``file`` piece by piece; a ValueError leaves
    the pieces before it written."""
    file.writelines(_pieces(doc, 0))
    file.write("\n")

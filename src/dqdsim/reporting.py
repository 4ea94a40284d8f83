"""Deterministic JSON/CSV emission for reports and sweeps.

All floats are rendered with 17 significant digits, enough to round-trip
IEEE doubles exactly, so identical runs produce byte-identical files and
golden-file comparisons are lossless.  The standard ``json`` module does
not allow customizing float rendering, hence the small renderer here.
Reports deliberately carry no timestamps.
"""

from __future__ import annotations

import csv
import io
import math
import os
from typing import Iterable, Sequence

import numpy as np

__all__ = ["format_float", "render_json", "render_csv", "write_text"]


def format_float(value: float) -> str:
    """17-significant-digit decimal form of a finite float."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot emit non-finite value {value!r}")
    return format(value, ".17g")


def _render(value: object, indent: int) -> str:
    # Plain values by their exact type first: the bulk of every report.
    # Subclasses and numpy scalars take the checks below.
    kind = type(value)
    if kind is float:
        return format_float(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{inner}{_quote(key)}: {_render(item, indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        items = [f"{inner}{_render(item, indent + 1)}" for item in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, str):
        return _quote(value)
    raise TypeError(f"cannot render {type(value).__name__} in a report")


# JSON string escapes: the quote, the backslash and the control characters.
_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{c: f"\\u{c:04x}" for c in range(0x20)}}


def _quote(text: str) -> str:
    """``text`` as a JSON string.  Text with nothing to escape, as report
    keys and labels are, skips the table's per-character lookups: the
    control characters are not printable, and the quote and the backslash
    are checked on their own."""
    if text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    return f'"{text.translate(_ESCAPES)}"'


def render_json(payload: object) -> str:
    """Render a report as pretty JSON with exact float round-trip."""
    return _render(payload, 0) + "\n"


def _render_cell(cell: object) -> str:
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        return format_float(float(cell))
    return str(cell)


# Rows per formatting pass of a float array: bounds the temporaries of
# floattext.format_rows (about 250 bytes per cell) at about 1 MB for 4 columns.
_CHUNK_ROWS = 1024


def render_csv(header: Sequence[str], rows: Iterable[Sequence[object]] | np.ndarray) -> str:
    """Render a sweep table as CSV with exact float round-trip.

    Floats are pre-formatted to 17 significant digits before the stdlib
    writer quotes whatever needs quoting; the line terminator is a bare
    newline on every platform so repeated runs stay byte-identical.  A
    table of floats, such as a readout trace, may come as one ``(n, width)``
    float array: one ``isfinite`` checks it, and ``floattext.format_rows``
    writes the ``%.17g`` text of its rows, ``_CHUNK_ROWS`` at a time, which
    gives the writer's bytes because such a cell holds no delimiter, quote
    or newline.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    if isinstance(rows, np.ndarray):
        if rows.dtype != np.float64 or rows.shape[1:] != (len(header),):
            raise ValueError(f"expected an (n, {len(header)}) float array, got {rows.dtype} "
                             f"{rows.shape}")
        finite = np.isfinite(rows)
        if not finite.all():
            format_float(rows[~finite][0])  # raises, naming the first non-finite value
        from .floattext import format_rows  # loaded by the first float table, not on import
        for start in range(0, len(rows), _CHUNK_ROWS):
            buffer.write(format_rows(rows[start:start + _CHUNK_ROWS]))
        return buffer.getvalue()
    for row in rows:
        cells = [_render_cell(c) for c in row]
        if len(cells) != len(header):
            raise ValueError(f"row width {len(cells)} != header width {len(header)}")
        writer.writerow(cells)
    return buffer.getvalue()


def write_text(text: str, out: str | os.PathLike[str] | None) -> None:
    """Write to a file, or stdout when no path is given.

    The file is opened as ``Path(out).write_text(text)`` opens it, with the
    default encoding and newline translation, without building the ``Path``.
    """
    if out is None:
        print(text, end="")
    else:
        with open(os.fspath(out), "w") as fh:
            fh.write(text)

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
from itertools import islice
from pathlib import Path
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
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(f'{inner}"{_escape(key)}": {_render(item, indent + 1)}')
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
        return f'"{_escape(value)}"'
    raise TypeError(f"cannot render {type(value).__name__} in a report")


def _escape(text: str) -> str:
    out = []
    for ch in text:
        if ch in ('"', "\\"):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


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


# Rows per formatting pass: bounds the row tuples and strings held at once.
_CHUNK_ROWS = 4096


def _finite_floats(column: tuple) -> bool:
    return all(isinstance(c, float) for c in column) and all(map(math.isfinite, column))


def render_csv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a sweep table as CSV with exact float round-trip.

    Floats are pre-formatted to 17 significant digits before the stdlib
    writer quotes whatever needs quoting; the line terminator is a bare
    newline on every platform so repeated runs stay byte-identical.  Rows
    of finite floats only are formatted a whole row at a time: a ``.17g``
    float holds no delimiter, quote or newline, so none of their cells
    needs the writer.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    template = ",".join(["%.17g"] * len(header)) + "\n"
    rows = iter(rows)
    while chunk := [tuple(row) for row in islice(rows, _CHUNK_ROWS)]:
        if all(len(row) == len(header) for row in chunk) and all(
                map(_finite_floats, zip(*chunk))):
            buffer.write("".join(map(template.__mod__, chunk)))
            continue
        for row in chunk:
            cells = [_render_cell(c) for c in row]
            if len(cells) != len(header):
                raise ValueError(f"row width {len(cells)} != header width {len(header)}")
            writer.writerow(cells)
    return buffer.getvalue()


def write_text(text: str, out: str | Path | None) -> None:
    """Write to a file, or stdout when no path is given."""
    if out is None:
        print(text, end="")
    else:
        Path(out).write_text(text)

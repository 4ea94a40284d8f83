from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dqdsim.reporting import format_float, render_csv, render_json


def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(9)
    for _ in range(200):
        x = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
        assert float(format_float(x)) == x


def test_format_float_rejects_non_finite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            format_float(bad)


def test_render_json_is_stdlib_compatible():
    report = {
        "name": "sweep",
        "passed": True,
        "values": [1.0 / 3.0, 2, None],
        "nested": {"pi": np.pi, "flag": np.bool_(False)},
    }
    text = render_json(report)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["nested"]["pi"] == np.pi  # exact, thanks to 17 digits
    assert parsed["passed"] is True
    assert parsed["values"][2] is None


def test_render_json_rejects_unserializable():
    with pytest.raises(TypeError):
        render_json({"oops": object()})


def test_render_csv_quotes_commas():
    text = render_csv(("row", "label"), [(0, "+-,+-")])
    assert text.splitlines()[1] == '0,"+-,+-"'


def test_render_csv_floats_round_trip():
    x = 0.1 + 0.2
    text = render_csv(("x",), [(x,)])
    assert float(text.splitlines()[1]) == x


def test_render_csv_checks_row_width():
    with pytest.raises(ValueError):
        render_csv(("a", "b"), [(1,)])


# ---------------------------------------------------------------------------
# Byte pin: render_csv against the stdlib writer fed one formatted cell at a
# time, as the renderer was first written.

def _reference_csv(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("true" if cell else "false")
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            elif isinstance(cell, (float, np.floating)):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        writer.writerow(cells)
    return buffer.getvalue()


_EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
                1.7976931348623157e308, 0.1, 1.0 / 3.0)
_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_FLOATS))
_FLOAT_CELLS = st.one_of(_FLOATS, _FLOATS.map(np.float64))
_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\n\r\'\t')), max_size=5)
_CELLS = st.one_of(
    _TEXT,
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    _FLOAT_CELLS,
)


@st.composite
def _tables(draw, cells):
    width = draw(st.integers(1, 5))
    header = draw(st.lists(_TEXT, min_size=width, max_size=width))
    row = st.lists(cells, min_size=width, max_size=width)
    rows = draw(st.lists(st.one_of(row, row.map(tuple)), max_size=12))
    return header, rows


@given(st.one_of(_tables(_CELLS), _tables(_FLOAT_CELLS)))
def test_render_csv_is_the_stdlib_writer_over_formatted_cells(table):
    header, rows = table
    assert render_csv(header, rows) == _reference_csv(header, rows)
    assert render_csv(header, iter(rows)) == _reference_csv(header, rows)


@given(_tables(_FLOAT_CELLS), st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
def test_render_csv_rejects_non_finite_floats(table, bad, data):
    header, rows = table
    rows = [list(row) for row in rows] or [[0.0] * len(header)]
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(header) - 1))
    rows[i][j] = data.draw(st.sampled_from([bad, np.float64(bad)]))
    with pytest.raises(ValueError, match="cannot emit non-finite value"):
        render_csv(header, rows)


@given(_tables(_FLOATS), st.data())
def test_render_csv_of_a_float_array_is_the_stdlib_writer_over_formatted_cells(table, data):
    header, rows = table
    array = np.array(rows, dtype=float).reshape(len(rows), len(header))
    assert render_csv(header, array) == _reference_csv(header, rows)
    if rows:
        bad = array.copy()
        i = data.draw(st.integers(0, bad.size - 1))
        bad.flat[i] = value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(ValueError, match=f"cannot emit non-finite value {value!r}"):
            render_csv(header, bad)


def test_render_csv_passes_meet_at_chunk_edges():
    # 1,024 rows per pass: 4,096 rows make four full passes, 9,000 eight and a short one
    rows = [(i * 0.1, -i / 3.0, _EDGE_FLOATS[i % len(_EDGE_FLOATS)]) for i in range(9000)]
    header = ("a", "b", "c")
    for n in (0, 1, 4095, 4096, 4097, 8192, 9000):
        table = np.array(rows[:n]).reshape(n, 3)
        assert render_csv(header, table) == _reference_csv(header, rows[:n])
    # the first non-finite value is named, whichever pass it falls in
    for at, values, message in ((2, (np.nan, np.inf), "nan"), (4096, (1.0, -np.inf), "-inf"),
                                (8999, (np.inf, np.nan), "inf")):
        bad = np.array(rows)
        bad[at, 1:] = values
        with pytest.raises(ValueError, match=f"non-finite value {message}$"):
            render_csv(header, bad)
    for wrong in (np.zeros((3, 2)), np.zeros(3), np.zeros((3, 3), dtype=int)):
        with pytest.raises(ValueError, match=r"expected an \(n, 3\) float array"):
            render_csv(header, wrong)


def test_render_csv_mixed_rows_keep_their_error_order():
    rows = [(i * 0.1, -i / 3.0) for i in range(9000)]
    rows[4100] = ("x,y", 1.0)
    assert render_csv(("a", "b"), iter(rows)) == _reference_csv(("a", "b"), rows)
    for bad_rows, message in (
        (rows[:2] + [(np.nan, 1.0)] + [(1.0,)] * 3, "non-finite value nan"),
        (rows[:2] + [(1.0,)] + [(np.inf, 1.0)], "row width 1"),
        (rows[:5000] + [(1.0, -np.inf)], "non-finite value -inf"),
    ):
        with pytest.raises(ValueError, match=message):
            render_csv(("a", "b"), bad_rows)


# ---------------------------------------------------------------------------
# JSON round trip: every finite double comes back bit for bit, and strings
# come back unchanged, however they are nested.

_JSON_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGE_FLOATS + (-1.7976931348623157e308, 1e22, -1.0, 1.0)),
)
_JSON_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from(list('"\\\x00\x08\x1f\n\r\t\x7f')), st.characters()),
    max_size=8,
)
_JSON_VALUES = st.recursive(
    st.one_of(_JSON_FLOATS, _JSON_TEXT),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(_JSON_TEXT, children, max_size=4)
    ),
    max_leaves=12,
)


def _bits(value):
    """``value`` with each float replaced by its IEEE bit pattern, dicts as item lists."""
    if isinstance(value, float):
        return ("float", np.float64(value).view(np.uint64).item())
    if isinstance(value, dict):
        return ("dict", [(key, _bits(item)) for key, item in value.items()])
    if isinstance(value, list):
        return ("list", [_bits(item) for item in value])
    return (type(value).__name__, value)


@given(_JSON_VALUES)
def test_render_json_round_trips_doubles_and_strings(value):
    parsed = json.loads(render_json(value), parse_int=float)
    assert _bits(parsed) == _bits(value)


def _reference_escape(text):
    """The character loop the escape table replaced, as the oracle for its bytes."""
    out = []
    for ch in text:
        if ch in ('"', "\\"):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


@given(_JSON_TEXT, _JSON_TEXT)
def test_render_json_escapes_strings_as_the_character_loop_did(key, value):
    expected = f'{{\n  "{_reference_escape(key)}": "{_reference_escape(value)}"\n}}\n'
    assert render_json({key: value}) == expected


def _isinstance_render(value, indent=0):
    """The renderer before plain values were looked up by their exact type:
    one ``isinstance`` chain for every value, the oracle for its bytes."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{inner}"{_reference_escape(k)}": {_isinstance_render(v, indent + 1)}'
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        items = [f"{inner}{_isinstance_render(item, indent + 1)}" for item in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return f'"{_reference_escape(value)}"'


class _Int(int):
    def __str__(self):
        return "not the integer"


class _Float(float):
    pass


class _Text(str):
    pass


# Plain values, numpy scalars and subclasses of the plain types, which must
# take the isinstance chain rather than the exact-type lookup.
_REPORT_SCALARS = st.one_of(
    _JSON_FLOATS, _JSON_TEXT, st.booleans(), st.integers(), st.none(),
    _JSON_FLOATS.map(np.float64), st.booleans().map(np.bool_),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers().map(_Int),
    _JSON_FLOATS.map(_Float), _JSON_TEXT.map(_Text),
)


@given(st.recursive(
    _REPORT_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_JSON_TEXT, children, max_size=4)),
    max_leaves=12,
))
def test_render_json_is_the_isinstance_chain_renderer(value):
    assert render_json(value) == _isinstance_render(value) + "\n"

"""The vectorised ``%.17g`` of float tables against ``'%.17g' %``, cell by cell."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from dqdsim.floattext import format_rows
from dqdsim.reporting import _CHUNK_ROWS, render_csv

_FAMILY = 250_000  # doubles per family of the sweep; five families make > 10**6


def _reference(table: np.ndarray) -> str:
    template = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return (template * len(table)) % tuple(table.ravel().tolist())


def _assert_cells_match(values: np.ndarray, width: int = 4) -> None:
    values = values[np.isfinite(values)]
    values = np.concatenate((values, np.zeros(-len(values) % width)))
    table = values.reshape(-1, width)
    got = render_csv(["c"] * width, table).split("\n", 1)[1]
    if got != _reference(table):
        cells = got.replace("\n", ",").split(",")
        bad = [("%.17g" % x, cell) for x, cell in zip(values, cells) if "%.17g" % x != cell]
        raise AssertionError(f"{len(bad)} cells differ from %.17g, first {bad[:5]}")


def _random_signs(rng: np.random.Generator, values: np.ndarray) -> np.ndarray:
    return np.where(rng.random(len(values)) < 0.5, -values, values)


def _dyadic_ties(rng: np.random.Generator, n: int) -> np.ndarray:
    # m / 2**k with m odd has exactly k fraction digits, the last a 5; with
    # k = 17 - E it has 18 significant digits, so its 17-digit rounding is a
    # tie that goes to the even neighbour.  Here E runs over -4..14, where
    # such m stay below 2**53.
    e = rng.integers(-4, 15, n)
    k = 17 - e
    lo = np.ceil(np.ldexp(10.0 ** e, k))
    hi = np.floor(np.ldexp(10.0 ** (e + 1), k))
    m = (lo + np.floor(rng.random(n) * (hi - lo))).astype(np.int64) | 1
    return _random_signs(rng, np.ldexp(m.astype(float), -k))


def _powers_of_ten() -> np.ndarray:
    # every power of ten from 1e-5 to 1e17, both signs, and four ulps either side
    powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
    near = [powers]
    up = down = powers
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        near += [up, down]
    near = np.concatenate(near)
    return np.concatenate((near, -near))


def test_sweep_of_a_million_doubles_matches_percent_17g():
    rng = np.random.default_rng(20240917)
    bits = rng.integers(0, 2**64, _FAMILY, dtype=np.uint64).view(np.float64)
    log_uniform = _random_signs(rng, 10.0 ** rng.uniform(-6.0, 18.0, _FAMILY))
    integers = _random_signs(rng, rng.integers(0, 2**56, _FAMILY, endpoint=True).astype(float))
    ties = _dyadic_ties(rng, _FAMILY)
    for family in (bits, log_uniform, ties, integers, _powers_of_ten()):
        _assert_cells_match(family)


def test_ties_are_ties():
    # The tie family really sits halfway: its 18-digit text ends in 5.
    ties = _dyadic_ties(np.random.default_rng(1), 1000)
    assert all(("%.17e" % x).split("e")[0].endswith("5") for x in ties)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64), st.integers(1, 4))
def test_bit_patterns_match_percent_17g(patterns, width):
    _assert_cells_match(np.array(patterns, dtype=np.uint64).view(np.float64), width)


def test_chunks_and_widths_keep_the_bytes():
    rng = np.random.default_rng(3)
    values = _random_signs(rng, 10.0 ** rng.uniform(-6.0, 18.0, 3 * _CHUNK_ROWS + 7))
    for width in (1, 2, 3, 5):
        _assert_cells_match(values, width)
    assert format_rows(np.zeros((3, 0))) == "\n\n\n"
    assert format_rows(np.zeros((0, 2))) == ""

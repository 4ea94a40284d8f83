"""Exact ``%.17g`` text of float tables, in a few numpy passes per table.

``'%.17g' % x`` rounds ``x`` to 17 significant digits through the bignum
dtoa path, several hundred ns per cell.  For 1e-4 <= |x| < 1e17, exactly
the cells it prints without an exponent, :func:`format_rows` computes the
same digits vectorised:

* E = floor(log10 |x|), and N = |x| * 10**(16 - E) rounded half-even to an
  integer.  10**s is an exact double for s <= 22, so Dekker's TwoProduct
  with Veltkamp's split (Numer. Math. 18, 1971) gives the product exactly
  as ``p + err``.  p >= 1e16 > 2**53 is an even integer, so
  N = p + rint(err), ties to even included.
* Where the exact product lies outside [1e16, 1e17), log10 put E one off
  next to a power of ten; E is corrected and the product recomputed.  N
  never rounds up to 10**17: that takes a double below a power of ten by
  less than 5e-18 of it.  From 1 to 1e17 the powers are doubles, and
  their neighbours lie 1.1e-16 of them away or more; the doubles nearest
  1e-3, 1e-2 and 1e-1 lie above them, and the next ones below lie 8e-17
  of them away or more.  The tests sweep four doubles either side of each.
* Each cell is five 8-byte words: sign, ``0.`` and the zeros of E < 0, the
  leading digit, then four 4-digit groups from one table.  Every digit is
  followed by a slot for the decimal point of E >= 0.  One byte mask per
  (E, last significant digit) keeps the point, the digits through the last
  significant one (through E at least) and clears the rest to NUL.  The
  last slot holds the separator, and one ``bytes.translate`` drops the NULs.

Every other cell (0, -0, |x| < 1e-4, |x| >= 1e17) keeps ``'%.17g' % x``.
The tables are built on first use; importing this module builds nothing.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

__all__ = ["format_rows"]

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles
_E_MIN, _E_MAX = -4, 16  # the decimal exponents that %.17g prints unscaled
_WORDS = 5  # 8-byte words per cell


class _Tables(NamedTuple):
    pow10: np.ndarray  # 10**0 .. 10**22, each exact
    pow10_hi: np.ndarray  # their Veltkamp halves
    pow10_lo: np.ndarray
    rank: np.ndarray  # (10000,): place 1..4 of a group's last nonzero digit, 0 for 0000
    digits: np.ndarray  # (10000,) words: a group's four digits, each followed by '.'
    head: np.ndarray  # (21 * 2 * 10,) words by (E, sign, leading digit)
    keep: np.ndarray  # (21 * 17, 5) byte masks by (E, last significant digit)


def _words(chars: np.ndarray) -> np.ndarray:
    """Eight bytes along the last axis as one native uint64 word holding them in order."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint64)[..., 0]


@cache
def _tables() -> _Tables:
    pow10 = np.concatenate(([1.0], np.cumprod(np.full(22, 10.0))))
    c = pow10 * _SPLIT
    pow10_hi = c - (c - pow10)

    places = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # row i: the digits of i
    rank = ((places != 0) * np.arange(1, 5, dtype=np.int8)).max(axis=1)
    digits = np.full((10000, 8), ord("."), np.uint8)
    digits[:, ::2] = places + ord("0")

    # Head word: sign; '0.' and -E-1 zeros when E < 0; the leading digit;
    # the slot of a point after it.
    e = np.arange(_E_MIN, _E_MAX + 1)
    head = np.zeros((len(e), 2, 10, 8), np.uint8)
    head[:, 1, :, 0] = ord("-")
    prefix = np.arange(5) < np.where(e < 0, 1 - e, 0)[:, None]
    head[..., 1:6] = np.where(prefix, np.frombuffer(b"0.000", np.uint8), 0)[:, None, None]
    head[..., 6] = ord("0") + np.arange(10)
    head[..., 7] = ord(".")

    # A cell's byte mask: the head bytes are kept; digit i sits at byte
    # 6 + 2i and is kept through max(last, E); the slot after it, at 7 + 2i,
    # is kept only for the point of E >= 0 when a fraction digit follows.
    e = e[:, None, None]
    significant = np.arange(17)[:, None]
    i = np.arange(17)
    keep = np.zeros((len(e), 17, 8 * _WORDS), np.uint8)
    keep[..., :6] = 0xFF
    keep[..., 6::2] = np.where(i <= np.maximum(significant, e), 0xFF, 0)
    keep[..., 7::2] = np.where((i == e) & (significant > e), 0xFF, 0)
    return _Tables(pow10, pow10_hi, pow10 - pow10_hi, rank, _words(digits),
                   _words(head.reshape(-1, 8)), _words(keep.reshape(-1, _WORDS, 8)))


@cache
def _separators(width: int) -> np.ndarray:
    """Last word of each of ``width`` columns' cells: ',' or '\\n' in its last slot."""
    chars = np.zeros((width, 8), np.uint8)
    chars[:, 7] = ord(",")
    chars[-1, 7] = ord("\n")
    return _words(chars)


def _scaled(a: np.ndarray, e: np.ndarray, t: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - e)`` exactly, as the rounded product and its error."""
    s = 16 - e
    p = a * t.pow10[s]
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = t.pow10_hi[s], t.pow10_lo[s]
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _decade_step(p: np.ndarray, err: np.ndarray) -> np.ndarray:
    """+1 where the exact product ``p + err`` is >= 1e17, -1 where < 1e16, else 0."""
    return (((p > 1e17) | ((p == 1e17) & (err >= 0))).astype(np.intp)
            - ((p < 1e16) | ((p == 1e16) & (err < 0))))


def format_rows(rows: np.ndarray) -> str:
    """CSV lines of a finite ``(n, width)`` float64 array: ``%.17g`` cells,
    ``,`` between them and ``\\n`` after each row."""
    n, width = rows.shape
    if not width:
        return "\n" * n
    t = _tables()
    x = rows.ravel()
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e17)
    a = np.where(fast, ax, 1.0)
    # log10 of the largest cells may round to 17; 10**(16 - E) stays exact
    e = np.minimum(np.floor(np.log10(a)), _E_MAX).astype(np.intp)
    p, err = _scaled(a, e, t)
    off = ((p <= 1e16) | (p >= 1e17)).nonzero()[0]  # few: near a power of ten
    while off.size:
        step = _decade_step(p[off], err[off])
        off, step = off[step != 0], step[step != 0]
        e[off] += step
        p[off], err[off] = _scaled(a[off], e[off], t)
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)

    # N as its leading digit and four 4-digit groups, one row per group; a
    # scalar divisor divides fast, and % does not.
    upper = digits // 10**8
    first = upper // 10**8
    halves = np.stack((upper - first * 10**8, digits - upper * 10**8))
    groups = np.empty((2, 2, len(x)), np.intp)
    groups[:, 0] = halves // 10**4
    groups[:, 1] = halves - groups[:, 0] * 10**4
    groups = groups.reshape(4, -1)
    # The last significant digit: group k's digits are 4k + 1 .. 4k + 4.
    rank = t.rank.take(groups)
    last = np.maximum(np.maximum(rank[0], rank[1] + 4 * (rank[1] > 0)),
                      np.maximum(rank[2] + 8 * (rank[2] > 0), rank[3] + 12 * (rank[3] > 0)))

    e -= _E_MIN
    cells = np.empty((len(x), _WORDS), np.uint64)
    cells[:, 0] = t.head.take(e * 20 + 10 * (x < 0) + first)
    cells[:, 1:] = t.digits.take(groups).T
    cells &= t.keep.take(e * 17 + last, axis=0)
    cells.reshape(n, width, _WORDS)[:, :, -1] |= _separators(width)
    text = cells.view(np.uint8)
    slow = (~fast).nonzero()[0]
    if slow.size:
        plain = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=f"S{8 * _WORDS - 1}")
        text[slow, :-1] = plain.view(np.uint8).reshape(len(slow), -1)
    return text.tobytes().translate(None, b"\0").decode("ascii")

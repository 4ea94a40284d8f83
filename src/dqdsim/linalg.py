"""Dense complex linear algebra shared by the simulator modules.

The workhorse is a max-entry distance between matrices that quotients out a
global phase, the natural equivalence for pulse-generated gates; beside it
sit the residual norm and the input checks the modules share.  The distance
and :func:`monomial` run in Python numbers, so the compile path loads no
numpy; the other helpers take numpy arrays and import numpy when called.  No
matrix exponential lives here: the pulse and readout generators each have a
closed-form one (:mod:`dqdsim.pulses`, :mod:`dqdsim.readout`).
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

#: A matrix as a tuple of rows of Python numbers, as the gate catalog and the compiler hold it.
Rows = tuple[tuple[complex, ...], ...]

__all__ = [
    "monomial",
    "max_abs_diff",
    "is_unitary",
    "require_normalized",
    "require_count",
    "require_float",
    "dist_up_to_global_phase",
]


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise ``|a - b|``; the residual norm used throughout."""
    import numpy as np
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def is_unitary(u: np.ndarray, atol: float = 1e-12) -> bool:
    import numpy as np
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return max_abs_diff(u.conj().T @ u, np.eye(u.shape[0])) <= atol


def require_normalized(v: np.ndarray) -> np.ndarray:
    """Return ``v`` as a complex vector, raising if its 2-norm is not within 1e-9 of 1."""
    import numpy as np
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state vector is not normalized: norm = {norm!r}")
    return v


def require_count(name: str, value: object, lo: int, hi: int) -> int:
    """``value`` as an ``int`` in ``lo..hi``; bools and non-integers raise, numpy integers pass."""
    np = sys.modules.get("numpy")  # no value is a numpy integer before numpy is loaded
    if isinstance(value, bool) or not isinstance(value, (int, np.integer) if np else int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in {lo}..{hi}, got {value!r}")
    return int(value)


def require_float(name: str, value: object) -> float:
    """``value`` as a ``float`` (inf and nan pass); strings and out-of-range integers raise."""
    if isinstance(value, (str, bytes)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer beyond the float range") from None


def monomial(columns: Sequence[int], entries: Iterable[complex] | None = None) -> Rows:
    """Rows with ``entries[i]`` (default 1) in column ``columns[i]`` of row ``i``, else 0."""
    return tuple(tuple(x if j == c else 0 for j in range(len(columns)))
                 for c, x in zip(columns, entries or [1] * len(columns)))


def _entries(m: object) -> tuple[tuple[int, ...], list[complex]]:
    """Shape and row-major entries of a matrix, a numpy array or a sequence of rows."""
    rows = m.tolist() if hasattr(m, "tolist") else m
    return (len(rows), *{len(row) for row in rows}), [x for row in rows for x in row]


def _quotient(x: float, y: float) -> float:
    """``x / y`` in IEEE arithmetic: a zero ``y`` gives a signed inf, or nan for ``0 / 0``."""
    if y:
        return x / y
    return math.copysign(math.inf, x) * math.copysign(1.0, y) if x and x == x else math.nan


def dist_up_to_global_phase(u: Sequence | np.ndarray, v: Sequence | np.ndarray) -> float:
    """``min over |c| = 1`` of the max-entry norm of ``u - c * v``, in closed form.

    Each entry of ``|u - e^{i phi} v|^2`` is a sinusoid in ``phi``, so the
    minimum of the largest one lies at one sinusoid's minimum or where two
    of them cross; those phases are the only candidates.  They are found
    in the frame of the trace alignment ``e^{i phi0} = tr(v^dag u) /
    |tr(v^dag u)|`` (1 where the trace vanishes): with ``w = e^{i phi0} v``,
    ``r = u - w`` and ``delta = phi - phi0``, entry k is
    ``|r_k|^2 + P_k (1 - cos delta) + Q_k sin delta``, and two entries cross
    at the roots of a quadratic in ``tan(delta / 2)``, taken in the stable
    (citardauq) form.  An entry is dropped first if even its largest value,
    ``(|u_k| + |v_k|)^2``, is below another's smallest, ``(|u_j| - |v_j|)^2``.
    Each candidate, and ``delta = 0``, is evaluated as
    ``max |r - 2i sin(delta/2) e^{i delta/2} w|``, which keeps the digits of
    a residual near roundoff.  The least value is the minimum up to
    roundoff, symmetric in the arguments and blind to a global phase on
    either; a nan or inf entry gives nan.  The arithmetic is Python's, in
    row-major order, the same on every CPU; ``u`` and ``v`` are arrays or
    sequences of rows.
    """
    (shape_u, u), (shape_v, v) = _entries(u), _entries(v)
    if shape_u != shape_v:
        raise ValueError(f"shape mismatch: {shape_u} vs {shape_v}")
    overlap = sum(y.conjugate() * x for x, y in zip(u, v))
    size_u, size_v = [abs(x) for x in u], [abs(x) for x in v]
    gap = max(abs(x - y) for x, y in zip(size_u, size_v))
    keep = [k for k, (x, y) in enumerate(zip(size_u, size_v)) if not x + y < gap]
    phase = overlap * (1.0 / abs(overlap)) if overlap else 1 + 0j  # numpy's complex / real
    w = [phase * v[k] for k in keep]
    r = [u[k] - wk for k, wk in zip(keep, w)]
    rw = [rk.conjugate() * wk for rk, wk in zip(r, w)]
    a = [rk.real * rk.real + rk.imag * rk.imag for rk in r]
    p = [2.0 * (wk.real * wk.real + wk.imag * wk.imag + x.real) for wk, x in zip(w, rw)]
    q = [2.0 * x.imag for x in rw]

    # Entries j and k cross where lead * t^2 + 2 * half * t + da = 0, t = tan(delta / 2).
    delta = [0.0] + [math.atan2(-qk, pk) for qk, pk in zip(q, p)]
    for j, k in itertools.combinations(range(len(a)), 2):
        da = a[j] - a[k]
        lead = da + 2.0 * (p[j] - p[k])
        half = q[j] - q[k]
        disc = half * half - lead * da
        s = -(half + math.copysign(math.sqrt(disc) if disc >= 0.0 else math.nan, half))
        delta += [2.0 * math.atan(_quotient(s, lead)), 2.0 * math.atan(_quotient(da, s))]
    turns = (2j * math.sin(d / 2.0) * cmath.exp(0.5j * d) for d in set(delta) if d == d)
    return min(max(abs(rk - g * wk) for rk, wk in zip(r, w)) for g in turns)

"""Dense complex linear algebra shared by the simulator modules.

Everything operates on plain ``numpy`` arrays in ``complex128``.  The
workhorse is a max-entry distance between matrices that quotients out a
global phase, the natural equivalence for pulse-generated gates; beside it
sit the residual norm and the input checks the modules share.  No matrix
exponential lives here: the pulse and readout generators each have a
closed-form one (:mod:`dqdsim.pulses`, :mod:`dqdsim.readout`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "max_abs_diff",
    "is_unitary",
    "require_normalized",
    "require_count",
    "require_float",
    "dist_up_to_global_phase",
]


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise ``|a - b|``; the residual norm used throughout."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def is_unitary(u: np.ndarray, atol: float = 1e-12) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return max_abs_diff(u.conj().T @ u, np.eye(u.shape[0])) <= atol


def require_normalized(v: np.ndarray) -> np.ndarray:
    """Return ``v`` as a complex vector, raising if its 2-norm is not within 1e-9 of 1."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state vector is not normalized: norm = {norm!r}")
    return v


def require_count(name: str, value: object, lo: int, hi: int) -> int:
    """``value`` as an ``int`` in ``lo..hi``; bools and non-integers raise, numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
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


def dist_up_to_global_phase(u: np.ndarray, v: np.ndarray) -> float:
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
    either.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    size_u, size_v = np.abs(u), np.abs(v)
    keep = ~(size_u + size_v < np.max(np.abs(size_u - size_v)))  # nan keeps every entry
    overlap = np.vdot(v, u)
    w = (overlap / abs(overlap) if overlap else 1.0) * v[keep]
    r = u[keep] - w
    rw = r.conj() * w
    a = r.real**2 + r.imag**2
    p = 2.0 * (w.real**2 + w.imag**2 + rw.real)
    q = 2.0 * rw.imag

    # Entries j and k cross where lead * t^2 + 2 * half * t + da = 0, t = tan(delta / 2).
    j, k = np.triu_indices(a.size, 1)
    da = a[j] - a[k]
    lead = da + 2.0 * (p[j] - p[k])
    half = q[j] - q[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -(half + np.copysign(np.sqrt(half * half - lead * da), half))
        t = np.concatenate((s / lead, da / s))
    delta = np.concatenate(([0.0], np.arctan2(-q, p), 2.0 * np.arctan(t)))
    delta = delta[~np.isnan(delta)]
    g = 2j * np.sin(delta / 2.0) * np.exp(0.5j * delta)
    return float(np.abs(r - g[:, None] * w).max(axis=1).min())

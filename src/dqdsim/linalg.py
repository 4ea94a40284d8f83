"""Dense complex linear algebra shared by the simulator modules.

Everything operates on plain ``numpy`` arrays in ``complex128``.  The two
workhorses are an eigendecomposition-based matrix exponential for Hermitian
generators (exactly unitary up to roundoff, no integrator step-size to tune)
and a max-entry distance between matrices that quotients out a global phase,
which is the natural equivalence for pulse-generated gates.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HERMITIAN_ATOL",
    "max_abs_diff",
    "is_unitary",
    "require_normalized",
    "require_count",
    "expm_hermitian",
    "dist_up_to_global_phase",
]

#: How far from self-adjoint a generator may be before it is rejected.
HERMITIAN_ATOL = 1e-12

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


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


def expm_hermitian(h: np.ndarray, angle: float | np.ndarray) -> np.ndarray:
    """``exp(-1j * angle * h)`` for Hermitian ``h`` via eigendecomposition.

    Exact up to roundoff for any angle, so long piecewise-constant
    evolutions stay unitary without step-size control.  A stack of
    matrices takes one Hermitian check and one ``eigh`` for the whole
    stack; each unitary in it is bitwise the one a single-matrix call
    gives, because LAPACK and BLAS see the same per-matrix operands.

    Args:
        h: Hermitian matrix ``(n, n)`` or stack ``(..., n, n)`` (checked
            against :data:`HERMITIAN_ATOL`).
        angle: dimensionless rotation angle multiplying the spectrum; for a
            stack, one angle per matrix (shape ``h.shape[:-2]``).

    Returns:
        The unitary ``exp(-1j * angle * h)``, or the stack of them.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {h.shape}")
    angle = np.asarray(angle, dtype=float)
    if angle.shape != h.shape[:-2]:
        raise ValueError(f"expected angles of shape {h.shape[:-2]}, got {angle.shape}")
    if max_abs_diff(h, np.swapaxes(h.conj(), -1, -2)) > HERMITIAN_ATOL:
        raise ValueError("generator is not Hermitian within 1e-12")
    eigvals, p = np.linalg.eigh(h)
    d = np.exp((-1j * angle)[..., None] * eigvals)
    return (p * d[..., None, :]) @ np.swapaxes(p.conj(), -1, -2)


def _phase_residual(u: np.ndarray, v: np.ndarray, phi: float) -> float:
    return float(np.max(np.abs(u - np.exp(1j * phi) * v)))


def dist_up_to_global_phase(u: np.ndarray, v: np.ndarray) -> float:
    """``min over |c| = 1`` of the max-entry norm of ``u - c * v``.

    Candidate phases are seeded from the largest-magnitude entry of ``v``,
    the trace alignment ``tr(v^dag u)`` and a coarse grid, then polished by
    golden-section search within 0.11 rad of the best seed.  The value is
    the residual at the best phase tried, never below the minimum.
    Matrices equal up to a global phase give
    roundoff, and near that equivalence the value is symmetric in its
    arguments and blind to a global phase on either to ~1e-12.  Far from
    it the polish is local: on random complex pairs the value sat up to ~1%
    above a dense phase scan and moved by as much when the arguments were
    swapped or one was rephased.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    flat_u = u.ravel()
    flat_v = v.ravel()
    if float(np.max(np.abs(flat_v))) == 0.0:
        return float(np.max(np.abs(flat_u))) if flat_u.size else 0.0

    candidates = []
    k = int(np.argmax(np.abs(flat_v)))
    candidates.append(float(np.angle(flat_u[k] / flat_v[k])))
    overlap = complex(np.vdot(flat_v, flat_u))
    if overlap != 0:
        candidates.append(float(np.angle(overlap)))

    # Coarse vectorized scan guards against a misleading seed when the
    # matrices are far from phase-equivalent.
    grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    scan = np.abs(u[None, :, :] - np.exp(1j * grid)[:, None, None] * v[None, :, :])
    scan = scan.reshape(grid.size, -1).max(axis=1)
    candidates.append(float(grid[int(np.argmin(scan))]))

    best_phi = min(candidates, key=lambda phi: _phase_residual(u, v, phi))
    best = _phase_residual(u, v, best_phi)

    # Golden-section polish around the best candidate.
    lo, hi = best_phi - 0.11, best_phi + 0.11
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = _phase_residual(u, v, c), _phase_residual(u, v, d)
    while hi - lo > 1e-10:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = _phase_residual(u, v, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = _phase_residual(u, v, d)
    return min(best, fc, fd)

"""Two-qubit gate constructions from phase gates and the swap square root.

The conditional phase flip and CNOT can be compiled from the square root
of swap plus single-qubit phase (z) gates.  In four dimensions the recipe
is fixed once a sign convention for ``Z(theta)`` is chosen; in the full
six-configuration space the z gates also need phases on the two leakage
rows, and nothing in the gate catalog pins those down.  This module treats
the leakage phases as a small parameterized family
(``exp(1j*(k*theta/2 + offset))`` per gate and leakage row) and finds, by
exhaustive deterministic search, the member under which the compiled
product lands on the catalog phase gate.

The conventions and residuals are surfaced in a decomposition report
rather than hard-coded, so a failure to reproduce the catalog gate is
reported explicitly instead of being patched over.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .basis import COMPUTATIONAL_ROWS
from .gates import GateId, gate_matrix
from .linalg import dist_up_to_global_phase, require_count

__all__ = [
    "PhaseEmbedding",
    "TRIVIAL_EMBEDDING",
    "z_gate",
    "build_pi",
    "build_cnot",
    "MAX_OFFSETS",
    "search_embedding",
    "verify_xor_4dim",
    "decomposition_report",
]

#: 4-dim square root of swap on (|00>, |01>, |10>, |11>).
SQRT_SWAP_4 = np.array(
    [
        [1, 0, 0, 0],
        [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
        [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

#: 4-dim conditional phase flip.
CZ_4 = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

# Diagonal phase patterns of the two z-gate sign conventions, 4-dim.
# "minus_half_on_zero": qubit value 0 gets exp(-1j*theta/2), value 1 the
# conjugate; "plus_half_on_zero" is the mirrored convention.
_XOR_CONVENTIONS = ("minus_half_on_zero", "plus_half_on_zero")

# Qubit value carried by each computational row (rows 0,2,3,5), per qubit.
_QUBIT_VALUE = {
    1: {0: 0, 2: 0, 3: 1, 5: 1},
    2: {0: 0, 2: 1, 3: 0, 5: 1},
}
_LEAK_PP_ROW = 1  # both DQDs of qubit 1 in "+"
_LEAK_MM_ROW = 4  # both DQDs of qubit 1 in "-"


@dataclass(frozen=True, order=True)
class PhaseEmbedding:
    """Leakage-row phase assignment for the six-dimensional z gates.

    For gate ``Z_q(theta)`` the leakage rows acquire
    ``exp(1j * (k * theta / 2 + offset))`` where ``k`` and ``offset`` are
    per-gate, per-row parameters.  The computational rows always follow
    the fixed convention ``exp(-1j*theta/2)`` on qubit value 0 and
    ``exp(+1j*theta/2)`` on value 1.
    """

    k_z1_pp: int = 0
    k_z1_mm: int = 0
    k_z2_pp: int = 0
    k_z2_mm: int = 0
    offset_z1: float = 0.0
    offset_z2: float = 0.0


TRIVIAL_EMBEDDING = PhaseEmbedding()


def _z_phases(qubit: int, theta: float, k_pp, k_mm, offset) -> np.ndarray:
    """Diagonal of ``Z_qubit(theta)``, shape ``(..., 6)``.

    ``k_pp``, ``k_mm`` and ``offset`` may be arrays; they broadcast over the
    leading axes, one diagonal per embedding.
    """
    half = theta / 2.0
    k_pp, k_mm, offset = np.broadcast_arrays(k_pp, k_mm, offset)
    angles = np.empty(k_pp.shape + (6,))
    for row, value in _QUBIT_VALUE[qubit].items():
        angles[..., row] = half if value else -half
    angles[..., _LEAK_PP_ROW] = k_pp * half + offset
    angles[..., _LEAK_MM_ROW] = k_mm * half + offset
    return np.exp(1j * angles)


def z_gate(qubit: int, theta: float, emb: PhaseEmbedding = TRIVIAL_EMBEDDING) -> np.ndarray:
    """Six-dimensional phase gate on one qubit.

    Diagonal and unitary for every embedding; the embedding only chooses
    the phases of the two leakage rows.
    """
    if qubit not in (1, 2):
        raise ValueError(f"qubit must be 1 or 2, got {qubit}")
    if qubit == 1:
        k_pp, k_mm, offset = emb.k_z1_pp, emb.k_z1_mm, emb.offset_z1
    else:
        k_pp, k_mm, offset = emb.k_z2_pp, emb.k_z2_mm, emb.offset_z2
    return np.diag(_z_phases(qubit, float(theta), k_pp, k_mm, offset))


def build_pi(emb: PhaseEmbedding = TRIVIAL_EMBEDDING) -> np.ndarray:
    """Conditional phase flip compiled from swap square roots and z gates.

    The product is ``[(Z1(pi/2) Z2(-pi/2)) S]^2 (Z1(pi)) S`` where ``S``
    is the six-dimensional swap square root.  Whether it reproduces the
    catalog phase gate depends on the leakage-phase embedding; see
    :func:`search_embedding`.
    """
    s = gate_matrix(GateId.SQRT_SWAP)
    da = z_gate(1, np.pi / 2.0, emb) @ z_gate(2, -np.pi / 2.0, emb)
    db = z_gate(1, np.pi, emb)
    das = da @ s
    return (das @ das) @ (db @ s)


def build_cnot(emb: PhaseEmbedding) -> np.ndarray:
    """CNOT compiled as Hadamard-conjugated conditional phase flip."""
    h2 = gate_matrix(GateId.HADAMARD_Q2)
    return h2 @ (build_pi(emb) @ h2)


#: Largest offset-grid size :func:`search_embedding` accepts.  The search
#: screens ``625 * n**2`` candidates, 2.56 million at the cap.
MAX_OFFSETS = 64

# Candidates screened per batch; keeps the (chunk, 6, 6) stacks small so
# memory does not grow with the grid.
_SCREEN_CHUNK = 128

# Margin of the screen over the smallest upper bound.  It covers the
# roundoff between the stacked products and build_pi and is far wider
# than the 1e-14 tie window of the exact pass.
_SCREEN_SLACK = 1e-12

_K_VALUES = np.arange(-2, 3)


def _candidates(index, offsets: np.ndarray) -> tuple:
    """Parameters ``(k1p, k1m, k2p, k2m, o1, o2)`` of lexicographic candidates."""
    n = offsets.size
    k1p, k1m, k2p, k2m, i1, i2 = np.unravel_index(index, (_K_VALUES.size,) * 4 + (n, n))
    return (_K_VALUES[k1p], _K_VALUES[k1m], _K_VALUES[k2p], _K_VALUES[k2m],
            offsets[i1], offsets[i2])


def _embedding_at(index: int, offsets: np.ndarray) -> PhaseEmbedding:
    k1p, k1m, k2p, k2m, o1, o2 = _candidates(index, offsets)
    return PhaseEmbedding(int(k1p), int(k1m), int(k2p), int(k2m), float(o1), float(o2))


def _stacked_pi(params: tuple) -> np.ndarray:
    """:func:`build_pi` for a batch of embeddings, shape ``(n, 6, 6)``."""
    k1p, k1m, k2p, k2m, o1, o2 = params
    s = gate_matrix(GateId.SQRT_SWAP)
    a = _z_phases(1, np.pi / 2.0, k1p, k1m, o1) * _z_phases(2, -np.pi / 2.0, k2p, k2m, o2)
    b = _z_phases(1, np.pi, k1p, k1m, o1)
    a_s = a[:, :, None] * s
    return (a_s @ a_s) @ (b[:, :, None] * s)


def _screen_bounds(products: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-product bounds ``lb <= dist_up_to_global_phase(p, target) <= ub``.

    ``lb`` compares magnitudes only, which no global phase can change;
    ``ub`` is the residual at the trace-aligned phase, one of the phases
    the exact distance tries (phase 1 where the trace vanishes, which its
    coarse scan also covers).
    """
    lb = np.abs(np.abs(products) - np.abs(target)).max(axis=(1, 2))
    overlap = np.einsum("ij,nij->n", target.conj(), products)
    size = np.abs(overlap)
    phase = np.divide(overlap, size, out=np.ones_like(overlap), where=size > 0)
    ub = np.abs(products - phase[:, None, None] * target).max(axis=(1, 2))
    return lb, ub


def search_embedding(n_offsets: int = 4) -> tuple[PhaseEmbedding, float]:
    """Exhaustive search for the leakage-phase embedding of the z gates.

    Scans ``k in {-2..2}`` per gate and leakage row and per-gate offsets on
    the grid of ``n_offsets`` equal steps per turn (an integer in
    ``1..``:data:`MAX_OFFSETS`), and returns the embedding
    minimizing the global-phase-insensitive distance between
    :func:`build_pi` and the catalog phase gate, together with that
    residual.

    The candidates are screened in fixed-size batches of stacked
    products.  Each gets a lower bound ``max| |P| - |T| |`` (valid because
    ``| |u| - |t| | <= |u - c t|`` for ``|c| = 1``) and an upper bound, the
    residual at the trace-aligned phase ``tr(T^H P) / |tr(T^H P)|``.  Only
    candidates whose lower bound is within a slack of ``1e-12`` of the
    smallest upper bound are evaluated exactly, with
    :func:`dist_up_to_global_phase` on :func:`build_pi`, in lexicographic
    order; a candidate replaces the best only when it improves the
    residual by more than ``1e-14``.  A dropped candidate misses the
    minimum by more than the slack less roundoff, far beyond that tie
    window, so it is never the one this in-order rule settles on.  The
    result is deterministic, with ties broken to the smallest parameter
    tuple in lexicographic order.
    """
    n_offsets = require_count("offset-grid size", n_offsets, 1, MAX_OFFSETS)
    offsets = np.arange(n_offsets) * (2.0 * np.pi / n_offsets)
    target = gate_matrix(GateId.PHASE)

    total = _K_VALUES.size**4 * offsets.size**2
    survivors = np.empty(0, dtype=np.intp)
    survivor_lb = np.empty(0)
    best_ub = np.inf
    for start in range(0, total, _SCREEN_CHUNK):
        index = np.arange(start, min(start + _SCREEN_CHUNK, total))
        lb, ub = _screen_bounds(_stacked_pi(_candidates(index, offsets)), target)
        best_ub = min(best_ub, float(ub.min()))
        survivors = np.concatenate((survivors, index))
        survivor_lb = np.concatenate((survivor_lb, lb))
        keep = survivor_lb <= best_ub + _SCREEN_SLACK
        survivors, survivor_lb = survivors[keep], survivor_lb[keep]

    best: PhaseEmbedding | None = None
    best_residual = np.inf
    for index in survivors:
        emb = _embedding_at(index, offsets)
        residual = dist_up_to_global_phase(build_pi(emb), target)
        if residual < best_residual - 1e-14:
            best, best_residual = emb, residual
    assert best is not None
    return best, float(best_residual)


def _z4(qubit: int, theta: float, convention: str) -> np.ndarray:
    """:func:`z_gate` on the computational rows, in either sign convention."""
    sign = 1.0 if convention == "minus_half_on_zero" else -1.0
    return np.diag(_z_phases(qubit, sign * theta, 0, 0, 0.0)[list(COMPUTATIONAL_ROWS)])


def verify_xor_4dim() -> dict[str, float]:
    """Reconstruct the 4-dim controlled phase from swap square roots.

    Computes ``Z1(pi/2) Z2(-pi/2) S Z1(pi) S`` in both z-gate sign
    conventions and compares against ``diag(1,1,1,-1)`` up to a global
    phase.  One convention reproduces it exactly; the other does not, and
    both are returned, ``{convention: residual}`` in ``_XOR_CONVENTIONS``
    order, so the winning convention is documented rather than assumed.
    """
    s = SQRT_SWAP_4
    residuals: dict[str, float] = {}
    for convention in _XOR_CONVENTIONS:
        da = _z4(1, np.pi / 2.0, convention) @ _z4(2, -np.pi / 2.0, convention)
        db = _z4(1, np.pi, convention)
        u = da @ s @ db @ s
        residuals[convention] = dist_up_to_global_phase(u, CZ_4)
    return residuals


def decomposition_report(n_offsets: int = 4) -> dict[str, object]:
    """Residuals and conventions of every compiled two-qubit construction."""
    emb, best_residual = search_embedding(n_offsets)
    trivial_residual = dist_up_to_global_phase(build_pi(TRIVIAL_EMBEDDING), gate_matrix(GateId.PHASE))
    cnot_residual = dist_up_to_global_phase(build_cnot(emb), gate_matrix(GateId.CNOT))
    xor = verify_xor_4dim()
    convention = min(_XOR_CONVENTIONS, key=xor.__getitem__)
    report: dict[str, object] = {
        "phase_gate_best_residual": best_residual,
        "phase_gate_trivial_residual": trivial_residual,
        "phase_gate_reproduced": best_residual <= 1e-10,
        "cnot_residual": cnot_residual,
        "xor_4dim_residual": xor[convention],
        "xor_4dim_convention": convention,
        "xor_4dim_residuals": xor,
        "embedding": asdict(emb),
    }
    if best_residual > 1e-10:
        report["message"] = "identity not reproduced"
    return report

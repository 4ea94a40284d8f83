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

# Per qubit, the sign of each row's computational phase in Z_q(theta): -1 on
# rows where the qubit is 0, +1 where it is 1 (rows 0, 2, 3, 5), and 0 on
# the leakage rows 1 (both DQDs of qubit 1 in "+") and 4 (both in "-").
_ROW_SIGN = {
    1: np.array([-1.0, 0.0, -1.0, 1.0, 0.0, 1.0]),
    2: np.array([-1.0, 0.0, 1.0, -1.0, 0.0, 1.0]),
}
_LEAK = _ROW_SIGN[1] == 0.0
_LEAK_PP = np.arange(6) == 1


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
    slope = np.where(_LEAK_PP, np.asarray(k_pp)[..., None], np.asarray(k_mm)[..., None])
    angles = np.where(_LEAK, slope * half + np.asarray(offset)[..., None], _ROW_SIGN[qubit] * half)
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


#: Largest offset-grid size :func:`search_embedding` accepts.  The grid has
#: ``625 * n**2`` candidates, 2.56 million at the cap.  At every size up to
#: the cap the search stops after screening the first batch (even ``n``,
#: 4,096 candidates at the cap) or the first 25 k-tuples (odd ``n``,
#: ``25 * n**2``, 99,225 at ``n = 63``).
MAX_OFFSETS = 64

# Margin of the screen over the smallest upper bound and over the 1e-14
# stop level.  It covers the roundoff between the factored products and
# build_pi and is far wider than the 1e-14 tie window of the exact pass.
_SCREEN_SLACK = 1e-12

# Fewest candidates per screen batch.
_BATCH_CANDIDATES = 125

_K_VALUES = np.arange(-2, 3)


def _embedding_at(index: int, offsets: np.ndarray) -> PhaseEmbedding:
    """The candidate at ``index`` in the lexicographic order of ``(k1p, k1m, k2p, k2m, o1, o2)``."""
    *ks, i1, i2 = np.unravel_index(index, (_K_VALUES.size,) * 4 + (offsets.size,) * 2)
    return PhaseEmbedding(*(int(_K_VALUES[k]) for k in ks), float(offsets[i1]), float(offsets[i2]))


def _screen_batches(offsets: np.ndarray):
    """:func:`build_pi` of every candidate, in lexicographic order.

    A batch is a run of consecutive k-tuples ``(k_z1_pp, k_z1_mm, k_z2_pp,
    k_z2_mm)`` over all ``n**2`` offset pairs, at least
    ``_BATCH_CANDIDATES`` candidates.  With ``a1``, ``a2`` the two ``pi/2``
    z-gate diagonals and ``b1`` the qubit-1 ``pi`` diagonal, a product is
    ``diag(a1 a2) S diag(a1 a2) (S diag(b1) S)``: row ``i`` of it is
    ``a2[i]`` times ``sum_k a2[k] W[k, i, :]``, where ``W[k, i, j] = a1[i]
    S[i, k] a1[k] (S diag(b1) S)[k, j]`` depends on the qubit-1 triple
    ``(k_z1_pp, k_z1_mm, offset_z1)`` alone.  So one matrix product per
    qubit-1 triple, ``(n, 6) @ (6, 36)``, gives the products of all its
    ``n`` qubit-2 offsets.  Yields the lexicographic index of each batch's
    first candidate and the batch's products, shape ``(m * n**2, 6, 6)``.
    """
    n = offsets.size
    k = _K_VALUES.size
    s = gate_matrix(GateId.SQRT_SWAP)
    per_batch = -(-_BATCH_CANDIDATES // (n * n))  # k-tuples per batch
    # Diagonals per (k_pp, k_mm) pair and offset: shape (25, n, 6).
    grid = (_K_VALUES[:, None, None], _K_VALUES[:, None], offsets)
    a1 = _z_phases(1, np.pi / 2.0, *grid).reshape(k * k, n, 6)
    a2 = _z_phases(2, -np.pi / 2.0, *grid).reshape(k * k, n, 6)
    b1 = _z_phases(1, np.pi, *grid).reshape(k * k, n, 6)
    for start in range(0, k**4, per_batch):
        q1, q2 = np.divmod(np.arange(start, min(start + per_batch, k**4)), k * k)
        lo, hi = q1[0], q1[-1] + 1  # the batch's qubit-1 (k_pp, k_mm) pairs
        heads = a1[lo:hi, :, None, :] * s.T * a1[lo:hi, :, :, None]  # [k, i] = a1[i] S[i, k] a1[k]
        tails = s @ (b1[lo:hi, :, :, None] * s)
        w = (heads[..., None] * tails[..., None, :]).reshape(hi - lo, n, 6, 36)
        products = (a2[q2, None] @ w[q1 - lo]).reshape(q1.size, n, n, 6, 6)
        products *= a2[q2, None, :, :, None]
        yield start * n * n, products.reshape(-1, 6, 6)


def _lower_bounds(products: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``max| |P| - |T| |`` per product, at most ``dist_up_to_global_phase(P, T)``.

    It compares magnitudes only, which no global phase can change.
    """
    residual = np.abs(products)
    residual -= np.abs(target)
    return np.abs(residual, out=residual).max(axis=(1, 2))


def _upper_bounds(products: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Residual per product at one phase, at least ``dist_up_to_global_phase(P, T)``.

    The phase is the trace-aligned one (1 where the trace vanishes), so the
    residual is at least the minimum over all phases that the exact
    distance returns.
    """
    overlap = np.einsum("ij,nij->n", target.conj(), products)
    size = np.abs(overlap)
    phase = np.divide(overlap, size, out=np.ones_like(overlap), where=size > 0)
    diff = phase[:, None, None] * target
    return np.abs(np.subtract(products, diff, out=diff)).max(axis=(1, 2))


def search_embedding(
    n_offsets: int = 4, *, counts: dict[str, int] | None = None
) -> tuple[PhaseEmbedding, float]:
    """Exhaustive search for the leakage-phase embedding of the z gates.

    Scans ``k in {-2..2}`` per gate and leakage row and per-gate offsets on
    the grid of ``n_offsets`` equal steps per turn (an integer in
    ``1..``:data:`MAX_OFFSETS`), and returns the embedding
    minimizing the global-phase-insensitive distance between
    :func:`build_pi` and the catalog phase gate, together with that
    residual.  If ``counts`` is a dict, it receives ``screened_candidates``
    and ``exact_evaluations``.

    The exact residual is :func:`dist_up_to_global_phase` on
    :func:`build_pi`, taken in lexicographic order of ``(k_z1_pp, k_z1_mm,
    k_z2_pp, k_z2_mm, offset_z1, offset_z2)``; a candidate replaces the best
    only when it improves the residual by more than ``1e-14``, so ties go to
    the smallest tuple.  Residuals are never negative, so once the best is
    within ``1e-14`` of zero no later candidate can replace it.

    The candidates are screened in that order, in batches (see
    :func:`_screen_batches`), with a lower bound ``max| |P| - |T| |`` (valid
    because ``| |u| - |t| | <= |u - c t|`` for ``|c| = 1``).  Those whose
    bound is within a slack of ``1e-12`` of the ``1e-14`` stop level get the
    exact residual at once, and the search returns at the first best within
    ``1e-14``.  Any other candidate misses zero by more than the slack, far
    beyond the tie window, so it never decides where the in-order rule
    stops.  Without a stop, the search keeps the candidates whose lower
    bound is within the slack of the smallest upper bound, the residual at
    the trace-aligned phase ``tr(T^H P) / |tr(T^H P)|``, and takes their
    exact residuals in order, reusing those already computed; a dropped
    candidate misses the minimum by more than the slack less roundoff.
    """
    n_offsets = require_count("offset-grid size", n_offsets, 1, MAX_OFFSETS)
    offsets = np.arange(n_offsets) * (2.0 * np.pi / n_offsets)
    target = gate_matrix(GateId.PHASE)
    residuals: dict[int, float] = {}  # exact residual by candidate index

    def in_order(indices, best=None, best_residual=np.inf):
        """The in-order rule over ``indices``, from ``best``; stops within 1e-14 of zero."""
        for index in indices:
            if index not in residuals:
                emb = _embedding_at(index, offsets)
                residuals[index] = dist_up_to_global_phase(build_pi(emb), target)
            if residuals[index] < best_residual - 1e-14:
                best, best_residual = index, residuals[index]
                if best_residual <= 1e-14:
                    break  # residuals are >= 0: no later candidate can improve by 1e-14
        return best, best_residual

    screened = 0
    survivors = np.empty(0, dtype=np.intp)
    survivor_lb = np.empty(0)
    best_ub = np.inf
    best, best_residual = None, np.inf
    for start, products in _screen_batches(offsets):
        lb = _lower_bounds(products, target)
        screened += lb.size
        stoppers = start + np.flatnonzero(lb <= 1e-14 + _SCREEN_SLACK)
        best, best_residual = in_order(stoppers.tolist(), best, best_residual)
        if best_residual <= 1e-14:
            break
        # Only these candidates can survive or lower the best upper bound: ub >= lb.
        kept = np.flatnonzero(lb <= best_ub + _SCREEN_SLACK)
        if kept.size:
            best_ub = min(best_ub, float(_upper_bounds(products[kept], target).min()))
        survivors = np.concatenate((survivors, start + kept))
        survivor_lb = np.concatenate((survivor_lb, lb[kept]))
        keep = survivor_lb <= best_ub + _SCREEN_SLACK
        survivors, survivor_lb = survivors[keep], survivor_lb[keep]
    else:
        # A list sort: numpy's sort kernels would add their code pages to the peak RSS.
        best, best_residual = in_order(sorted(survivors.tolist()))
    assert best is not None
    if counts is not None:
        counts.update(screened_candidates=screened, exact_evaluations=len(residuals))
    return _embedding_at(best, offsets), float(best_residual)


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
    counts: dict[str, int] = {}
    emb, best_residual = search_embedding(n_offsets, counts=counts)
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
        "search_screened_candidates": counts["screened_candidates"],
        "search_exact_evaluations": counts["exact_evaluations"],
        "offset_grid_size": n_offsets,
    }
    if best_residual > 1e-10:
        report["message"] = "identity not reproduced"
    return report

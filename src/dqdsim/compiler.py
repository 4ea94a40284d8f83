"""Two-qubit gate constructions from phase gates and the swap square root.

The conditional phase flip and CNOT can be compiled from the square root
of swap plus single-qubit phase (z) gates (Loss & DiVincenzo, PRA 57, 120,
1998).  In four dimensions the recipe is fixed once a sign convention for
``Z(theta)`` is chosen; in the full six-configuration space the z gates
also need phases on the two leakage rows, and nothing in the gate catalog
pins those down.  This module treats the leakage phases as a small
parameterized family (``exp(1j*(k*theta/2 + offset))`` per gate and
leakage row, ``k`` in ``-2..2``, offsets on a grid of ``n`` steps per
turn) and solves for the members under which the compiled product lands
on the catalog phase gate.

The product is ``(D S)^2 E S`` with ``D = Z1(pi/2) Z2(-pi/2)``, ``E =
Z1(pi)`` and ``S`` the six-dimensional swap square root.  ``S`` mixes only
rows 1-4, the target is diagonal and the computational rows of ``D`` and
``E`` are fixed, so the product is the target up to a global phase when
the four leakage phases, rows 1 and 4 of ``D`` and of ``E``, are all
``pi`` (mod ``2*pi``).  With offsets ``2*pi*j/n`` and angles in units of
``pi/(4n)``, a turn is ``8n`` and the four conditions are congruences mod
``8n`` in integers (``k1p`` is ``k_z1_pp``, ``k2m`` is ``k_z2_mm``)::

    2n*k1p + 8*j1 = 4n                  2n*k1m + 8*j1 = 4n
    n*(k1p - k2p) + 8*(j1 + j2) = 4n    n*(k1m - k2m) + 8*(j1 + j2) = 4n

Each k-tuple fixes ``j1`` and then ``j2``, so the solutions are found
without a search over offsets.  The reported residual is still the exact
distance of the chosen embedding, so a wrong solution would fail the
check.  That the four leakage phases at ``pi`` are the only ones that
work, for any unit phases and not just those on a grid, is checked in
exact arithmetic (sympy) by ``tests/test_compiler.py::
test_phase_gate_embedding_is_unique_in_exact_arithmetic``.
The tests also keep the numeric search this replaced as an oracle: at
``n <= 3`` the solutions are exactly the candidates within 1e-14 of the
target, and at every ``n <= 64`` the first solution is the old search's
answer, offsets and residual bit for bit.

The conventions and residuals are surfaced in a decomposition report
rather than hard-coded; the caller holds the residuals to its tolerance,
so a failure to reproduce the catalog gate is reported explicitly instead
of being patched over.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .basis import COMPUTATIONAL_ROWS, LEAKAGE_ROWS, LOGICAL_Z
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

#: 4-dim conditional phase flip: the catalog phase gate on the computational rows.
CZ_4 = gate_matrix(GateId.PHASE)[np.ix_(COMPUTATIONAL_ROWS, COMPUTATIONAL_ROWS)]

# Diagonal phase patterns of the two z-gate sign conventions, 4-dim.
# "minus_half_on_zero": qubit value 0 gets exp(-1j*theta/2), value 1 the
# conjugate; "plus_half_on_zero" is the mirrored convention.
_XOR_CONVENTIONS = ("minus_half_on_zero", "plus_half_on_zero")

# Per qubit, the sign of each computational row's phase in Z_q(theta): -1 on
# rows where the qubit is 0, +1 where it is 1, the negated logical z.
_ROW_SIGN = {q: -z for q, z in LOGICAL_Z.items()}


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


def _z_phases(qubit: int, theta: float, k_pp: int, k_mm: int, offset: float) -> np.ndarray:
    """Diagonal of ``Z_qubit(theta)``, shape ``(6,)``, for one embedding."""
    half = theta / 2.0
    angles = _ROW_SIGN[qubit] * half
    pp_row, mm_row = LEAKAGE_ROWS  # qubit 1's DQDs both in "+", both in "-"
    angles[pp_row] = k_pp * half + offset
    angles[mm_row] = k_mm * half + offset
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


#: Largest offset-grid size :func:`search_embedding` accepts.  Solving the
#: congruences costs the same at every size, so the cap only bounds the input.
MAX_OFFSETS = 64


def _solutions(n: int):
    """Every ``(k_z1_pp, k_z1_mm, k_z2_pp, k_z2_mm, j1, j2)`` with ``k`` in
    ``-2..2`` and offsets ``2*pi*j/n`` that solves the four congruences, in
    lexicographic order.

    Angles are in units of ``pi/(4n)``: a turn is ``8n`` and ``pi`` is
    ``4n``.  Row 1 of ``Z1(pi)`` gives ``j1`` and row 1 of ``Z1(pi/2)
    Z2(-pi/2)`` then gives ``j2``; a k-tuple has a solution when both are
    on the grid and rows 4 of the two gates are at ``pi`` too.
    """
    turn, pi = 8 * n, 4 * n
    for k1p, k1m, k2p, k2m in itertools.product(range(-2, 3), repeat=4):
        eight_j1 = (pi - 2 * n * k1p) % turn
        eight_j2 = (pi - n * (k1p - k2p) - eight_j1) % turn
        if eight_j1 % 8 or eight_j2 % 8:
            continue
        if (2 * n * k1m + eight_j1 - pi) % turn or (
                n * (k1m - k2m) + eight_j1 + eight_j2 - pi) % turn:
            continue
        yield k1p, k1m, k2p, k2m, eight_j1 // 8, eight_j2 // 8


def search_embedding(n_offsets: int = 4) -> tuple[PhaseEmbedding, float]:
    """The leakage-phase embedding of the z gates on an offset grid, and its residual.

    ``n_offsets`` is the number of equal offset steps per turn, an integer
    in ``1..``:data:`MAX_OFFSETS`.  Returns the lexicographically first
    solution of the congruences (see :func:`_solutions`) and
    :func:`dist_up_to_global_phase` between its :func:`build_pi` and the
    catalog phase gate.  The residual is that one exact distance, so a
    wrong solution would show as a large residual and a failed check.
    ``(-2, -2, 2, 2, 0, 0)`` is a solution at every ``n``.
    """
    n_offsets = require_count("offset-grid size", n_offsets, 1, MAX_OFFSETS)
    *ks, j1, j2 = next(_solutions(n_offsets))
    step = 2.0 * np.pi / n_offsets
    emb = PhaseEmbedding(*ks, j1 * step, j2 * step)
    return emb, dist_up_to_global_phase(build_pi(emb), gate_matrix(GateId.PHASE))


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
    """Residuals and conventions of every compiled two-qubit construction.

    Whether a residual is small enough is the caller's check: the CLI holds
    the phase-gate, CNOT and 4-dim XOR residuals to its ``--tolerance``.
    """
    emb, best_residual = search_embedding(n_offsets)
    trivial_residual = dist_up_to_global_phase(build_pi(TRIVIAL_EMBEDDING), gate_matrix(GateId.PHASE))
    cnot_residual = dist_up_to_global_phase(build_cnot(emb), gate_matrix(GateId.CNOT))
    xor = verify_xor_4dim()
    convention = min(_XOR_CONVENTIONS, key=xor.__getitem__)
    return {
        "phase_gate_best_residual": best_residual,
        "phase_gate_trivial_residual": trivial_residual,
        "cnot_residual": cnot_residual,
        "xor_4dim_residual": xor[convention],
        "xor_4dim_convention": convention,
        "xor_4dim_residuals": xor,
        "embedding": asdict(emb),
        "offset_grid_size": n_offsets,
    }

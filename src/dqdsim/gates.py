"""Six-dimensional gate catalog for the DQD space-state qubit pair.

The single- and two-qubit gates below are written directly in the extended
six-configuration basis of :mod:`dqdsim.basis`, leakage rows included, as
exact matrix literals.  The nontrivial entries are algebraic numbers:
``(1 - 1j)/2 = 1/sqrt(2j)`` and ``(1 + 1j)/2 = 1j/sqrt(2j)`` in the NOT
square roots, ``+-1j/2`` and ``1/2`` in the SWAP square root, ``1/sqrt(2)``
in the Hadamard.

:func:`verify_catalog_identities` cross-checks the catalog: square roots
square to the full gates, the qubit-exchange operation conjugates
single-qubit gates into each other, and the controlled gates factor through
the phase gate.  Every check returns a max-entry residual, so a corrupted
literal is pinpointed rather than merely detected.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping

import numpy as np

from .linalg import max_abs_diff

__all__ = [
    "GateId",
    "gate_matrix",
    "verify_catalog_identities",
]

_SQ2 = 1.0 / np.sqrt(2.0)
_A = (1.0 - 1.0j) / 2.0  # 1/sqrt(2j): diagonal entry of the NOT square roots
_B = (1.0 + 1.0j) / 2.0  # 1j/sqrt(2j): off-diagonal entry of the NOT square roots

# Logical X on qubit 1: exchanges the |0x> and |1x> rows, fixes leakage.
_NOT1 = np.array(
    [
        [0, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 0],
    ],
    dtype=complex,
)

# Logical X on qubit 2.
_NOT2 = np.array(
    [
        [0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0],
    ],
    dtype=complex,
)

# Exchange of the two inner DQDs; maps |00> into the first leakage
# configuration and |11> into the second, and is a Hermitian involution.
_EXCHANGE = np.array(
    [
        [0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0],
    ],
    dtype=complex,
)

# Full qubit swap: |01> <-> |10>, leakage configurations exchanged.
_SWAP = np.array(
    [
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
    ],
    dtype=complex,
)

_SQRT_NOT1 = np.array(
    [
        [_A, 0, 0, _B, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, _A, 0, 0, _B],
        [_B, 0, 0, _A, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, _B, 0, 0, _A],
    ],
    dtype=complex,
)

_SQRT_NOT2 = np.array(
    [
        [_A, 0, _B, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [_B, 0, _A, 0, 0, 0],
        [0, 0, 0, _A, 0, _B],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, _B, 0, _A],
    ],
    dtype=complex,
)

_SQRT_SWAP = np.array(
    [
        [1, 0, 0, 0, 0, 0],
        [0, -0.5j, 0.5, 0.5, 0.5j, 0],
        [0, 0.5, -0.5j, 0.5j, 0.5, 0],
        [0, 0.5, 0.5j, -0.5j, 0.5, 0],
        [0, 0.5j, 0.5, 0.5, -0.5j, 0],
        [0, 0, 0, 0, 0, 1],
    ],
    dtype=complex,
)

# Conditional phase flip: |11> acquires a sign, everything else is fixed.
_PHASE = np.diag([1, 1, 1, 1, 1, -1]).astype(complex)

# Hadamard on qubit 2 (identity on qubit 1 and on the leakage rows).
_HADAMARD_Q2 = np.array(
    [
        [_SQ2, 0, _SQ2, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [_SQ2, 0, -_SQ2, 0, 0, 0],
        [0, 0, 0, _SQ2, 0, _SQ2],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, _SQ2, 0, -_SQ2],
    ],
    dtype=complex,
)

# Controlled NOT (qubit 1 controls): |10> <-> |11>, leakage fixed.
_CNOT = np.array(
    [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0],
    ],
    dtype=complex,
)

_IDENTITY = np.eye(6, dtype=complex)


class GateId(Enum):
    """Names of the catalog gates; values double as CLI spellings."""

    IDENTITY = "identity"
    NOT1 = "not1"
    NOT2 = "not2"
    SQRT_NOT1 = "sqrt_not1"
    SQRT_NOT2 = "sqrt_not2"
    EXCHANGE = "exchange"
    SWAP = "swap"
    SQRT_SWAP = "sqrt_swap"
    PHASE = "phase"
    HADAMARD_Q2 = "hadamard_q2"
    CNOT = "cnot"


_CATALOG: dict[GateId, np.ndarray] = {
    GateId.IDENTITY: _IDENTITY,
    GateId.NOT1: _NOT1,
    GateId.NOT2: _NOT2,
    GateId.SQRT_NOT1: _SQRT_NOT1,
    GateId.SQRT_NOT2: _SQRT_NOT2,
    GateId.EXCHANGE: _EXCHANGE,
    GateId.SWAP: _SWAP,
    GateId.SQRT_SWAP: _SQRT_SWAP,
    GateId.PHASE: _PHASE,
    GateId.HADAMARD_Q2: _HADAMARD_Q2,
    GateId.CNOT: _CNOT,
}


def gate_matrix(gate: GateId) -> np.ndarray:
    """Fresh copy of a catalog gate (callers may mutate freely)."""
    if not isinstance(gate, GateId):
        raise TypeError(f"expected a GateId, got {type(gate).__name__}")
    return _CATALOG[gate].copy()


def verify_catalog_identities(
    override: Mapping[GateId, np.ndarray] | None = None,
) -> dict[str, float]:
    """Max-entry residuals of the algebraic identities tying the catalog together.

    All residuals are ~1e-16 or exactly zero for the shipped literals.
    ``override`` substitutes matrices for selected gates (used by the CLI
    self-check tests to confirm that a corrupted literal is caught and
    named).
    """
    g = dict(_CATALOG)
    if override:
        for gid, m in override.items():
            g[gid] = np.asarray(m, dtype=complex)

    eye = np.eye(6)
    ex = g[GateId.EXCHANGE]
    not1, not2 = g[GateId.NOT1], g[GateId.NOT2]
    sq1, sq2 = g[GateId.SQRT_NOT1], g[GateId.SQRT_NOT2]
    swap, sqswap = g[GateId.SWAP], g[GateId.SQRT_SWAP]
    phase, had2, cnot = g[GateId.PHASE], g[GateId.HADAMARD_Q2], g[GateId.CNOT]

    report: dict[str, float] = {}
    for gid, m in g.items():
        report[f"unitary[{gid.value}]"] = max_abs_diff(m.conj().T @ m, eye)

    report["exchange_squares_to_identity"] = max_abs_diff(ex @ ex, eye)
    report["not1_commutes_with_not2"] = max_abs_diff(not1 @ not2, not2 @ not1)
    report["sqrt_not1_commutes_with_sqrt_not2"] = max_abs_diff(sq1 @ sq2, sq2 @ sq1)
    report["sqrt_not1_squares_to_not1"] = max_abs_diff(sq1 @ sq1, not1)
    report["sqrt_not2_squares_to_not2"] = max_abs_diff(sq2 @ sq2, not2)
    report["swap_factors_through_exchange"] = max_abs_diff(swap, ex @ (not1 @ (not2 @ ex)))
    report["sqrt_swap_factors_through_exchange"] = max_abs_diff(sqswap, ex @ (sq1 @ (sq2 @ ex)))
    report["sqrt_swap_squares_to_swap"] = max_abs_diff(sqswap @ sqswap, swap)
    report["cnot_factors_through_phase"] = max_abs_diff(cnot, had2 @ (phase @ had2))
    report["cnot_squares_to_identity"] = max_abs_diff(cnot @ cnot, eye)
    return report

from __future__ import annotations

import numpy as np
import pytest

from dqdsim import gates
from dqdsim.basis import COMPUTATIONAL_ROWS
from dqdsim.gates import (
    GateId,
    gate_matrix,
    verify_catalog_identities,
)
from dqdsim.linalg import is_unitary, max_abs_diff

TOL = 1e-12


def test_catalog_is_complete_and_unitary():
    for gate_id in GateId:
        matrix = gate_matrix(gate_id)
        assert matrix.shape == (6, 6), gate_id
        assert is_unitary(matrix), gate_id


def test_gate_matrix_returns_a_copy():
    m = gate_matrix(GateId.NOT1)
    m[0, 0] = 99.0
    assert gate_matrix(GateId.NOT1)[0, 0] != 99.0


def test_gate_matrix_rejects_strings():
    with pytest.raises(TypeError):
        gate_matrix("not1")  # type: ignore[arg-type]


def test_not_gates_permute_computational_rows():
    not1 = gate_matrix(GateId.NOT1)
    # first-qubit flip exchanges 00<->10 and 01<->11
    for a, b in ((0, 3), (2, 5)):
        assert not1[a, b] == 1.0
        assert not1[b, a] == 1.0
    not2 = gate_matrix(GateId.NOT2)
    for a, b in ((0, 2), (3, 5)):
        assert not2[a, b] == 1.0


def test_sqrt_not_entries_frozen():
    m = gate_matrix(GateId.SQRT_NOT1)
    a = (1.0 - 1.0j) / 2
    b = (1.0 + 1.0j) / 2
    assert m[0, 0] == a and m[3, 3] == a
    assert m[0, 3] == b and m[3, 0] == b
    # leakage rows stay untouched
    assert m[1, 1] == 1.0 and m[4, 4] == 1.0


def test_phase_gate_only_flips_11():
    m = gate_matrix(GateId.PHASE)
    assert np.allclose(m, np.diag([1, 1, 1, 1, 1, -1]))


def test_cnot_swaps_target_when_control_set():
    m = gate_matrix(GateId.CNOT)
    expected = np.eye(6, dtype=complex)
    expected[[3, 5]] = expected[[5, 3]]
    assert max_abs_diff(m, expected) == 0.0


def test_sqrt_swap_squares_to_swap():
    s = gate_matrix(GateId.SQRT_SWAP)
    assert max_abs_diff(s @ s, gate_matrix(GateId.SWAP)) < TOL


def test_sqrt_not_squares():
    for half, full in (
        (GateId.SQRT_NOT1, GateId.NOT1),
        (GateId.SQRT_NOT2, GateId.NOT2),
    ):
        h = gate_matrix(half)
        assert max_abs_diff(h @ h, gate_matrix(full)) < TOL


def test_exchange_is_involution():
    e = gate_matrix(GateId.EXCHANGE)
    assert max_abs_diff(e @ e, np.eye(6)) < TOL


def test_swap_equals_nots_conjugated_by_exchange():
    e = gate_matrix(GateId.EXCHANGE)
    n1 = gate_matrix(GateId.NOT1)
    n2 = gate_matrix(GateId.NOT2)
    assert max_abs_diff(e @ n1 @ n2 @ e, gate_matrix(GateId.SWAP)) < TOL


def test_hadamard_q2_squares_to_identity_on_computational_rows():
    h = gate_matrix(GateId.HADAMARD_Q2)
    sq = (h @ h)[np.ix_(COMPUTATIONAL_ROWS, COMPUTATIONAL_ROWS)]
    assert max_abs_diff(sq, np.eye(4)) < TOL


def test_identity_report_all_green():
    report = verify_catalog_identities()
    worst = max(report.values())
    assert worst < 1e-14, f"worst residual {worst}"


def test_identity_report_catches_corruption(monkeypatch):
    bad = gate_matrix(GateId.SQRT_SWAP)
    bad[3, 3] = 0.9 * bad[3, 3]
    monkeypatch.setitem(gates._CATALOG, GateId.SQRT_SWAP, bad)
    report = verify_catalog_identities()
    assert max(report.values()) > TOL
    assert report["unitary[sqrt_swap]"] > 1e-3
    assert report["sqrt_swap_squares_to_swap"] > 1e-3
    # untouched identities still pass
    assert report["not1_commutes_with_not2"] < TOL

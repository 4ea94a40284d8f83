from __future__ import annotations

import itertools

import numpy as np
import pytest

from dqdsim.compiler import (
    CZ_4,
    MAX_OFFSETS,
    SQRT_SWAP_4,
    TRIVIAL_EMBEDDING,
    PhaseEmbedding,
    _candidates,
    _embedding_at,
    _screen_bounds,
    _stacked_pi,
    build_cnot,
    build_pi,
    decomposition_report,
    search_embedding,
    verify_xor_4dim,
    z_gate,
)
from dqdsim.gates import GateId, gate_matrix
from dqdsim.linalg import dist_up_to_global_phase, is_unitary, max_abs_diff

SQRT2 = float(np.sqrt(2.0))

# frozen result of the exhaustive search over integer leakage-phase slopes
# k in {-2..2} and offsets on the quarter-turn grid; re-derived from scratch
# whenever the search runs, pinned here so regressions are loud
EXPECTED_EMBEDDING = PhaseEmbedding(
    k_z1_pp=-2,
    k_z1_mm=-2,
    k_z2_pp=-2,
    k_z2_mm=-2,
    offset_z1=0.0,
    offset_z2=float(np.pi),
)


def test_four_dim_literals():
    assert max_abs_diff(SQRT_SWAP_4 @ SQRT_SWAP_4 @ SQRT_SWAP_4 @ SQRT_SWAP_4, np.eye(4)) < 1e-12
    swap4 = SQRT_SWAP_4 @ SQRT_SWAP_4
    expected = np.eye(4, dtype=complex)
    expected[[1, 2]] = expected[[2, 1]]
    assert max_abs_diff(swap4, expected) < 1e-12
    assert np.allclose(CZ_4, np.diag([1, 1, 1, -1]))


def test_z_gate_is_diagonal_unitary():
    u = z_gate(1, 0.731, EXPECTED_EMBEDDING)
    assert is_unitary(u)
    assert max_abs_diff(u, np.diag(np.diag(u))) == 0.0


def test_z_gate_computational_action():
    theta = 0.5
    u = z_gate(1, theta, TRIVIAL_EMBEDDING)
    lo, hi = np.exp(-0.5j * theta), np.exp(0.5j * theta)
    # qubit 1 is 0 on rows 0 and 2, 1 on rows 3 and 5
    assert abs(u[0, 0] - lo) < 1e-15 and abs(u[2, 2] - lo) < 1e-15
    assert abs(u[3, 3] - hi) < 1e-15 and abs(u[5, 5] - hi) < 1e-15
    # trivial embedding leaves the leaked rows alone
    assert u[1, 1] == 1.0 and u[4, 4] == 1.0


def test_z_gates_on_different_qubits_commute():
    a = z_gate(1, 0.3, EXPECTED_EMBEDDING)
    b = z_gate(2, 1.1, EXPECTED_EMBEDDING)
    assert max_abs_diff(a @ b, b @ a) < 1e-14


def test_xor_identity_holds_in_four_dims():
    residuals = verify_xor_4dim()
    assert list(residuals) == ["minus_half_on_zero", "plus_half_on_zero"]
    assert residuals["minus_half_on_zero"] < 1e-12
    # the opposite sign convention misses by a hard sqrt(2)
    assert abs(residuals["plus_half_on_zero"] - SQRT2) < 1e-9


def test_search_finds_frozen_embedding():
    emb, residual = search_embedding()
    assert emb == EXPECTED_EMBEDDING
    assert residual < 1e-10


def test_search_is_deterministic():
    first = search_embedding()
    second = search_embedding()
    assert first == second


@pytest.mark.parametrize("n_offsets", [0, -1, MAX_OFFSETS + 1, 2.0, True])
def test_search_rejects_offset_counts_outside_the_cap(n_offsets):
    with pytest.raises(ValueError, match="offset-grid size"):
        search_embedding(n_offsets)


def sequential_search(n_offsets: int) -> tuple[PhaseEmbedding, float]:
    """Reference: every candidate evaluated exactly, in lexicographic order."""
    grid = 2.0 * np.pi / n_offsets
    offsets = [i * grid for i in range(n_offsets)]
    ks = range(-2, 3)
    target = gate_matrix(GateId.PHASE)
    best, best_residual = None, np.inf
    for params in itertools.product(ks, ks, ks, ks, offsets, offsets):
        emb = PhaseEmbedding(*params)
        residual = dist_up_to_global_phase(build_pi(emb), target)
        if residual < best_residual - 1e-14:
            best, best_residual = emb, residual
    return best, float(best_residual)


@pytest.mark.parametrize(
    "n_offsets, embedding",
    [
        (1, PhaseEmbedding(-2, -2, 2, 2, 0.0, 0.0)),
        (2, EXPECTED_EMBEDDING),
        (3, PhaseEmbedding(-2, -2, 2, 2, 0.0, 0.0)),
    ],
    ids=["n1", "n2", "n3"],
)
def test_screened_search_matches_sequential_reference(n_offsets, embedding):
    expected = sequential_search(n_offsets)
    assert expected == (embedding, 2.83276944882399e-16)
    assert search_embedding(n_offsets) == expected


def test_screen_bounds_bracket_the_exact_distance():
    # Roundoff between the stacked products and build_pi reaches ~2e-16,
    # well inside the search's 1e-12 screening slack.
    target = gate_matrix(GateId.PHASE)
    offsets = np.zeros(1)
    index = np.arange(5**4)
    lb, ub = _screen_bounds(_stacked_pi(_candidates(index, offsets)), target)
    for i in index:
        d = dist_up_to_global_phase(build_pi(_embedding_at(i, offsets)), target)
        assert lb[i] - 1e-14 <= d <= ub[i] + 1e-14


def test_stacked_products_match_build_pi():
    offsets = np.arange(4) * (np.pi / 2.0)
    index = np.random.default_rng(5).choice(5**4 * 4**2, size=64, replace=False)
    stack = _stacked_pi(_candidates(index, offsets))
    for i, product in zip(index, stack):
        assert max_abs_diff(product, build_pi(_embedding_at(i, offsets))) <= 1e-14


def test_pi_construction_with_frozen_embedding():
    pi = build_pi(EXPECTED_EMBEDDING)
    target = gate_matrix(GateId.PHASE)
    assert max_abs_diff(pi, -1j * target) < 1e-13
    assert dist_up_to_global_phase(pi, target) < 1e-10


def test_pi_construction_fails_without_leakage_phases():
    pi = build_pi(TRIVIAL_EMBEDDING)
    d = dist_up_to_global_phase(pi, gate_matrix(GateId.PHASE))
    assert abs(d - SQRT2) < 1e-9


def test_cnot_construction():
    cnot = build_cnot(EXPECTED_EMBEDDING)
    assert dist_up_to_global_phase(cnot, gate_matrix(GateId.CNOT)) < 1e-10


def test_decomposition_report_contents():
    report = decomposition_report()
    assert report["phase_gate_reproduced"] is True
    assert report["phase_gate_best_residual"] < 1e-10
    assert abs(report["phase_gate_trivial_residual"] - SQRT2) < 1e-9
    assert report["cnot_residual"] < 1e-10
    assert report["xor_4dim_residual"] < 1e-12
    assert report["xor_4dim_convention"] == "minus_half_on_zero"
    emb = report["embedding"]
    assert emb["k_z1_pp"] == -2 and emb["offset_z2"] == pytest.approx(np.pi)

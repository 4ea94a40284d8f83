from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from dqdsim import compiler
from dqdsim.compiler import (
    CZ_4,
    MAX_OFFSETS,
    SQRT_SWAP_4,
    TRIVIAL_EMBEDDING,
    PhaseEmbedding,
    _solutions,
    _z_phases,
    build_cnot,
    build_pi,
    decomposition_report,
    search_embedding,
    verify_xor_4dim,
    z_gate,
)
from dqdsim.gates import GateId, gate_matrix
from dqdsim.linalg import dist_up_to_global_phase, is_unitary, max_abs_diff, require_count

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


_QUBIT_VALUE = {1: {0: 0, 2: 0, 3: 1, 5: 1}, 2: {0: 0, 2: 1, 3: 0, 5: 1}}


def oracle_z_phases(qubit, theta, k_pp, k_mm, offset):
    """The slice-store construction ``_z_phases`` replaced, kept as its oracle."""
    half = theta / 2.0
    k_pp, k_mm, offset = np.broadcast_arrays(k_pp, k_mm, offset)
    angles = np.empty(k_pp.shape + (6,))
    for row, value in _QUBIT_VALUE[qubit].items():
        angles[..., row] = half if value else -half
    angles[..., 1] = k_pp * half + offset
    angles[..., 4] = k_mm * half + offset
    return np.exp(1j * angles)


K = np.arange(-2, 3)


@pytest.mark.parametrize("qubit, theta, k_pp, k_mm, offset", [
    (1, np.pi / 2, K[:, None, None], K[:, None], np.arange(7) * (2 * np.pi / 7)),
    (2, -np.pi / 2, K[:, None], K, np.arange(3)[:, None, None] * 2.1),
    (1, np.pi, -2, K, 0.75),
    (2, 0.0, 0, 0, 0.0),
    (1, -0.0, 1, -1, -0.0),
    (2, 0.731, 3, -2, -1.25),
])
def test_z_phases_match_the_slice_store_oracle(qubit, theta, k_pp, k_mm, offset):
    # _z_phases takes one embedding; the oracle broadcasts over arrays of them.
    expected = oracle_z_phases(qubit, theta, k_pp, k_mm, offset)
    grid = expected.shape[:-1]
    for index in np.ndindex(grid):
        embedding = [np.broadcast_to(a, grid)[index].item() for a in (k_pp, k_mm, offset)]
        got = _z_phases(qubit, theta, *embedding)
        assert got.shape == (6,)
        assert got.tobytes() == expected[index].tobytes()


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


def bits(result: tuple[PhaseEmbedding, float]) -> tuple:
    """A search result with every float as its bit pattern."""
    emb, residual = result
    return tuple(x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(emb)), residual.hex()


def frozen_pattern(n_offsets: int) -> PhaseEmbedding:
    """The winner at every grid size: its ``offset_z2`` at even ``n`` is grid point ``n/2``.

    That point is pi up to roundoff: at n = 50 it is 3.1415926535897936, an ulp above.
    """
    if n_offsets % 2:
        return PhaseEmbedding(-2, -2, 2, 2, 0.0, 0.0)
    return PhaseEmbedding(-2, -2, -2, -2, 0.0, float((n_offsets // 2) * (2.0 * np.pi / n_offsets)))


def test_search_stops_at_the_frozen_pattern_at_every_grid_size():
    for n in range(1, MAX_OFFSETS + 1):
        assert search_embedding(n) == (frozen_pattern(n), 2.220446049250313e-16), n


# --- The numeric search before the congruence solver, kept as its oracle:
# every candidate screened, 125 at a time, then the in-order exact pass.

def embedding_at(index, offsets):
    """The candidate at ``index`` in the lexicographic order of ``(k1p, k1m, k2p, k2m, o1, o2)``."""
    *ks, i1, i2 = np.unravel_index(index, (K.size,) * 4 + (offsets.size,) * 2)
    return PhaseEmbedding(*(int(K[k]) for k in ks), float(offsets[i1]), float(offsets[i2]))


def oracle_screen_products(offsets):
    n = offsets.size
    k = 5
    s = gate_matrix(GateId.SQRT_SWAP)
    a2 = oracle_z_phases(2, -np.pi / 2.0, K[:, None], K, offsets[:, None, None])
    a2 = a2.reshape(n, k * k, 6)
    block = np.arange(k**3) * (n * n)
    for p, k1p in enumerate(K):
        for i1, o1 in enumerate(offsets):
            a1 = oracle_z_phases(1, np.pi / 2.0, k1p, K, o1)[:, None]
            tails = (s @ (oracle_z_phases(1, np.pi, k1p, K, o1)[:, :, None] * s))[:, None]
            for i2 in range(n):
                a = (a1 * a2[i2]).reshape(-1, 6)
                products = a[:, :, None] * s
                products *= a[:, None, :]
                products = products.reshape(k, k * k, 6, 6) @ tails
                yield block + ((p * k**3 * n + i1) * n + i2), products.reshape(-1, 6, 6)


def oracle_screen_bounds(products, target):
    residual = np.abs(products)
    residual -= np.abs(target)
    lb = np.abs(residual, out=residual).max(axis=(1, 2))
    overlap = np.einsum("ij,nij->n", target.conj(), products)
    size = np.abs(overlap)
    phase = np.divide(overlap, size, out=np.ones_like(overlap), where=size > 0)
    diff = phase[:, None, None] * target
    ub = np.abs(np.subtract(products, diff, out=diff), out=residual).max(axis=(1, 2))
    return lb, ub


def oracle_search(n_offsets):
    n_offsets = require_count("offset-grid size", n_offsets, 1, MAX_OFFSETS)
    offsets = np.arange(n_offsets) * (2.0 * np.pi / n_offsets)
    target = gate_matrix(GateId.PHASE)
    survivors = np.empty(0, dtype=np.intp)
    survivor_lb = np.empty(0)
    best_ub = np.inf
    for index, products in oracle_screen_products(offsets):
        lb, ub = oracle_screen_bounds(products, target)
        best_ub = min(best_ub, float(ub.min()))
        survivors = np.concatenate((survivors, index))
        survivor_lb = np.concatenate((survivor_lb, lb))
        keep = survivor_lb <= best_ub + 1e-12
        survivors, survivor_lb = survivors[keep], survivor_lb[keep]
    best, best_residual = None, np.inf
    for index in sorted(survivors.tolist()):
        emb = embedding_at(index, offsets)
        residual = dist_up_to_global_phase(build_pi(emb), target)
        if residual < best_residual - 1e-14:
            best, best_residual = emb, residual
            if best_residual <= 1e-14:
                break
    return best, float(best_residual)


@pytest.mark.parametrize("n_offsets", [1, 2, 3, 4, 5, 6, 7, 8, 16])
def test_search_is_bitwise_the_full_screen_oracle(n_offsets):
    assert bits(search_embedding(n_offsets)) == bits(oracle_search(n_offsets))


def sequential_search(n_offsets: int) -> tuple[PhaseEmbedding, float]:
    """Reference: candidates evaluated exactly, one at a time, in lexicographic order.

    Residuals are never negative, so a best within 1e-14 of zero is final.
    """
    grid = 2.0 * np.pi / n_offsets
    offsets = [i * grid for i in range(n_offsets)]
    ks = range(-2, 3)
    target = compiler.gate_matrix(GateId.PHASE)
    best, best_residual = None, np.inf
    for params in itertools.product(ks, ks, ks, ks, offsets, offsets):
        emb = PhaseEmbedding(*params)
        residual = dist_up_to_global_phase(build_pi(emb), target)
        if residual < best_residual - 1e-14:
            best, best_residual = emb, residual
            if best_residual <= 1e-14:
                break
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
    assert expected == (embedding, 2.220446049250313e-16)
    assert search_embedding(n_offsets) == expected

    # The congruences' solutions are exactly the candidates the exact
    # distance puts at zero, and every other candidate misses by far more
    # than roundoff.
    step = 2.0 * np.pi / n_offsets
    target = gate_matrix(GateId.PHASE)
    residuals = {}
    for *ks, j1, j2 in itertools.product(*[range(-2, 3)] * 4, *[range(n_offsets)] * 2):
        emb = PhaseEmbedding(*ks, j1 * step, j2 * step)
        residuals[(*ks, j1, j2)] = dist_up_to_global_phase(build_pi(emb), target)
    solutions = set(_solutions(n_offsets))
    assert solutions == {c for c, r in residuals.items() if r <= 1e-14}
    assert min(r for c, r in residuals.items() if c not in solutions) > 0.19


def test_exact_pass_stops_at_a_residual_within_the_tie_window(monkeypatch):
    calls = []

    def counting(u, v):
        calls.append(1)
        return dist_up_to_global_phase(u, v)

    monkeypatch.setattr(compiler, "dist_up_to_global_phase", counting)
    assert search_embedding(4) == (EXPECTED_EMBEDDING, 2.220446049250313e-16)
    assert len(calls) == 1


def test_pi_construction_with_frozen_embedding():
    pi = build_pi(EXPECTED_EMBEDDING)
    target = gate_matrix(GateId.PHASE)
    assert max_abs_diff(pi, -1j * target) < 1e-13
    assert dist_up_to_global_phase(pi, target) < 1e-10


def test_pi_construction_fails_without_leakage_phases():
    pi = build_pi(TRIVIAL_EMBEDDING)
    d = dist_up_to_global_phase(pi, gate_matrix(GateId.PHASE))
    assert abs(d - SQRT2) < 1e-9


def test_phase_gate_embedding_is_unique_in_exact_arithmetic():
    # D S D S E S with D = Z1(pi/2) Z2(-pi/2), E = Z1(pi) and S the catalog
    # swap square root, in exact arithmetic, with free leakage phases a1, a4
    # (rows 1 and 4 of D) and b1, b4 (of E).  Matching the phase gate up to
    # the global phase of entry (0, 0) has one solution: all four at -1.
    # This holds for every phase, not only those on an offset grid.
    import sympy

    def exact(matrix):
        return sympy.Matrix(6, 6, lambda i, j: sympy.Rational(matrix[i, j].real)
                            + sympy.I * sympy.Rational(matrix[i, j].imag))

    def z(qubit, theta, leak_1, leak_4):
        phases = [sympy.exp(sympy.I * int(sign) * theta / 2) for sign in compiler._ROW_SIGN[qubit]]
        phases[1], phases[4] = leak_1, leak_4
        return sympy.diag(*phases)

    a1, a4, b1, b4 = sympy.symbols("a1 a4 b1 b4")
    s = exact(gate_matrix(GateId.SQRT_SWAP))
    d = z(1, sympy.pi / 2, a1, a4) * z(2, -sympy.pi / 2, 1, 1)
    e = z(1, sympy.pi, b1, b4)
    product = sympy.expand(d * s * d * s * e * s)
    assert product[0, 0] == -sympy.I
    mismatch = [x for x in product - product[0, 0] * exact(gate_matrix(GateId.PHASE)) if x != 0]
    assert sympy.solve(mismatch, [a1, a4, b1, b4], dict=True) == [{a1: -1, a4: -1, b1: -1, b4: -1}]


def test_cnot_construction():
    cnot = build_cnot(EXPECTED_EMBEDDING)
    assert dist_up_to_global_phase(cnot, gate_matrix(GateId.CNOT)) < 1e-10


def test_decomposition_report_contents():
    report = decomposition_report()
    # whether the residuals pass is the caller's check, not the report's
    assert "phase_gate_reproduced" not in report and "message" not in report
    assert report["phase_gate_best_residual"] < 1e-10
    assert abs(report["phase_gate_trivial_residual"] - SQRT2) < 1e-9
    assert report["cnot_residual"] < 1e-10
    assert report["xor_4dim_residual"] < 1e-12
    assert report["xor_4dim_convention"] == "minus_half_on_zero"
    emb = report["embedding"]
    assert emb["k_z1_pp"] == -2 and emb["offset_z2"] == pytest.approx(np.pi)

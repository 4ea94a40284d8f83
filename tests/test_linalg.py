from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from dqdsim.compiler import MAX_OFFSETS, search_embedding
from dqdsim.decoherence import (
    MAX_RESOLUTION,
    MAX_SELECTION_RESOLUTION,
    DotGeometry,
    Environment,
    coulomb_selection_rule,
)
from dqdsim.linalg import (
    dist_up_to_global_phase,
    expm_hermitian,
    is_unitary,
    max_abs_diff,
    require_normalized,
)
from dqdsim.readout import MAX_BIAS_SAMPLES, scan_bias


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (z + z.conj().T) / 2


def test_is_unitary_random():
    rng = np.random.default_rng(7)
    for n in (2, 4, 6):
        u = random_unitary(n, rng)
        assert is_unitary(u)
        assert not is_unitary(u * 1.001)


def test_require_normalized():
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    require_normalized(v)
    with pytest.raises(ValueError):
        require_normalized(2 * v)


# Every count the library takes, as (name in its messages, call, lo, hi,
# an accepted value).  The selection rule raises its convergence
# RuntimeError at 16 nodes, so it is accepted at 800.
COUNT_SITES = {
    "search_embedding": ("offset-grid size", search_embedding, 1, MAX_OFFSETS, 1),
    "Environment": ("resolution", lambda n: Environment(temperature_K=0.3, resolution=n),
                    8, MAX_RESOLUTION, 8),
    "coulomb_selection_rule": ("resolution", lambda n: coulomb_selection_rule(DotGeometry(), n),
                               16, MAX_SELECTION_RESOLUTION, 800),
    "scan_bias": ("n_bias", lambda n: scan_bias(5.0, 0.4, 0.0005, n_bias=n),
                  2, MAX_BIAS_SAMPLES, 2),
}


@pytest.mark.parametrize("site", list(COUNT_SITES))
def test_every_count_site_applies_one_rule(site):
    name, call, lo, hi, accepted = COUNT_SITES[site]
    for value in (True, 2.0, "4", None):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{name} must be an integer, got {value!r}"
    for value in (lo - 1, hi + 1):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{name} must be in {lo}..{hi}, got {value!r}"
    call(np.int64(accepted))


def test_expm_hermitian_matches_series():
    rng = np.random.default_rng(3)
    h = random_hermitian(4, rng)
    angle = 0.37
    # brute-force Taylor series as an independent reference
    m = -1j * angle * h
    term = np.eye(4, dtype=complex)
    total = np.eye(4, dtype=complex)
    for k in range(1, 60):
        term = term @ m / k
        total = total + term
    u = expm_hermitian(h, angle)
    assert max_abs_diff(u, total) < 1e-12
    assert is_unitary(u)


@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1), st.floats(-5.0, 5.0))
def test_expm_hermitian_matches_scipy_expm(n, stack, seed, angle_scale):
    # scipy's Pade scaling-and-squaring is an independent route to exp(-i a H)
    rng = np.random.default_rng(seed)
    h = np.stack([random_hermitian(n, rng) for _ in range(stack)])
    angles = angle_scale * rng.uniform(-1.0, 1.0, size=stack)
    stacked = expm_hermitian(h, angles)
    for k in range(stack):
        expected = scipy.linalg.expm(-1j * angles[k] * h[k])
        scale = 1.0 + abs(angles[k]) * np.linalg.norm(h[k], 2)
        assert max_abs_diff(stacked[k], expected) <= 2e-15 * n * scale
        assert max_abs_diff(expm_hermitian(h[k], float(angles[k])), expected) <= 2e-15 * n * scale


def test_expm_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_stacked_expm_is_bitwise_the_per_matrix_calls():
    rng = np.random.default_rng(5)
    for n, batch in ((2, 1), (2, 37), (6, 128)):
        h = np.stack([random_hermitian(n, rng) for _ in range(batch)])
        angles = rng.normal(size=batch) * 10.0 ** rng.uniform(-3, 3, size=batch)
        stacked = expm_hermitian(h, angles)
        assert stacked.shape == h.shape
        for k in range(batch):
            assert np.array_equal(stacked[k], expm_hermitian(h[k], float(angles[k])))
    grid = np.stack([[random_hermitian(4, rng) for _ in range(3)] for _ in range(2)])
    angles = rng.normal(size=(2, 3))
    stacked = expm_hermitian(grid, angles)
    assert np.array_equal(stacked[1, 2], expm_hermitian(grid[1, 2], angles[1, 2]))


def test_stacked_expm_rejects_one_non_hermitian_member():
    rng = np.random.default_rng(6)
    h = np.stack([random_hermitian(3, rng) for _ in range(5)])
    h[3, 0, 1] += 1e-9
    with pytest.raises(ValueError, match="not Hermitian"):
        expm_hermitian(h, np.ones(5))


def test_stacked_expm_needs_one_angle_per_matrix():
    h = np.stack([np.eye(2)] * 3)
    with pytest.raises(ValueError, match="angles"):
        expm_hermitian(h, 1.0)
    with pytest.raises(ValueError, match="angles"):
        expm_hermitian(np.eye(2), np.ones(2))
    with pytest.raises(ValueError, match="square"):
        expm_hermitian(np.ones((2, 3)), 1.0)


def test_expm_pauli_x_rotation():
    # exp(-i theta sx) = cos(theta) I - i sin(theta) sx, a textbook identity
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    theta = 1.234
    expected = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * sx
    assert max_abs_diff(expm_hermitian(sx, theta), expected) < 1e-14


def test_phase_distance_zero_for_pure_phase():
    rng = np.random.default_rng(11)
    u = random_unitary(6, rng)
    for phase in (1.0, 1j, np.exp(0.763j), -1.0):
        assert dist_up_to_global_phase(u, phase * u) < 1e-10


def test_phase_distance_detects_real_difference():
    rng = np.random.default_rng(12)
    u = random_unitary(4, rng)
    v = random_unitary(4, rng)
    d = dist_up_to_global_phase(u, v)
    assert d > 0.1
    # for this pair both argument orders find the same minimum
    assert abs(d - dist_up_to_global_phase(v, u)) < 1e-8


_PHASES = st.floats(0.0, 2.0 * np.pi)


@given(st.integers(1, 6), st.integers(0, 2**32 - 1), _PHASES, _PHASES, st.floats(0.0, 1e-3))
def test_phase_distance_is_symmetric_and_phase_blind_near_equivalence(n, seed, a, b, eps):
    # the polish is local, so these hold near phase equivalence, not for far pairs
    rng = np.random.default_rng(seed)
    u = random_unitary(n, rng)
    c, c2 = np.exp(1j * a), np.exp(1j * b)
    assert dist_up_to_global_phase(u, c * u) <= 1e-15
    e = rng.uniform(-1.0, 1.0, size=(n, n)) + 1j * rng.uniform(-1.0, 1.0, size=(n, n))
    v = c * u + eps * e
    d = dist_up_to_global_phase(u, v)
    assert abs(dist_up_to_global_phase(v, u) - d) <= 1e-10
    assert abs(dist_up_to_global_phase(u, c2 * v) - d) <= 1e-10
    assert abs(dist_up_to_global_phase(c2 * u, v) - d) <= 1e-10
    # and no phase within 0.01 rad of the trace alignment does better
    grid = np.angle(np.vdot(v, u)) + np.linspace(-1e-2, 1e-2, 20001)
    scan = np.abs(u - np.exp(1j * grid)[:, None, None] * v).reshape(grid.size, -1).max(axis=1)
    assert d <= scan.min() + 1e-10


def test_phase_distance_diag_sign_flip():
    # diag(1,1,1,-1) differs from the identity by sqrt(2) once the best
    # global phase is factored out; hand computation: the elementwise-max
    # metric balances |1 - phi| against |1 + phi| at phi = +-i, where both
    # equal sqrt(2).
    u = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    d = dist_up_to_global_phase(u, np.eye(4, dtype=complex))
    assert abs(d - np.sqrt(2.0)) < 1e-9

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
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
    is_unitary,
    max_abs_diff,
    require_normalized,
)
from dqdsim.readout import MAX_BIAS_SAMPLES, scan_bias


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
    # both argument orders give the same minimum
    assert abs(d - dist_up_to_global_phase(v, u)) <= 1e-13 * d


_PHASES = st.floats(0.0, 2.0 * np.pi)
_SCAN = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 1 << 14, endpoint=False))


@given(st.integers(1, 6), st.integers(0, 2**32 - 1), _PHASES, _PHASES, st.floats(0.0, 1e-3),
       st.booleans())
# eps = 6e-8 puts crossings where an arccos of the phase would lose half its digits
@example(n=6, seed=31, a=1.0, b=2.0, eps=6e-8, far=False)
def test_phase_distance_is_symmetric_phase_blind_and_minimal(n, seed, a, b, eps, far):
    # v is a rephased u plus noise of size eps, or (far) the noise alone
    rng = np.random.default_rng(seed)
    u = random_unitary(n, rng)
    c, c2 = np.exp(1j * a), np.exp(1j * b)
    assert dist_up_to_global_phase(u, c * u) <= 1e-15
    e = rng.uniform(-1.0, 1.0, size=(n, n)) + 1j * rng.uniform(-1.0, 1.0, size=(n, n))
    v = e if far else c * u + eps * e
    d = dist_up_to_global_phase(u, v)
    # 1e-13 relative, above the ~1e-16 roundoff of the unit-sized entries
    tol = 1e-13 * d + 1e-15
    assert abs(dist_up_to_global_phase(v, u) - d) <= tol
    assert abs(dist_up_to_global_phase(u, c2 * v) - d) <= tol
    assert abs(dist_up_to_global_phase(c2 * u, v) - d) <= tol
    # A dense scan is never below the minimum (up to roundoff, for a scan
    # that hits the best phase) and misses it by at most max|v| * pi / N:
    # some scanned phase is within pi / N of the best one.
    scan = np.abs(u - _SCAN[:, None, None] * v).reshape(_SCAN.size, -1).max(axis=1).min()
    assert scan - np.abs(v).max() * np.pi / _SCAN.size <= d <= scan + tol
    # and no phase within 0.01 rad of the trace alignment does better
    grid = np.angle(np.vdot(v, u)) + np.linspace(-1e-2, 1e-2, 20001)
    near = np.abs(u - np.exp(1j * grid)[:, None, None] * v).reshape(grid.size, -1).max(axis=1)
    assert d <= near.min() + tol


def test_phase_distance_diag_sign_flip():
    # diag(1,1,1,-1) differs from the identity by sqrt(2) once the best
    # global phase is factored out; hand computation: the elementwise-max
    # metric balances |1 - phi| against |1 + phi| at phi = +-i, where both
    # equal sqrt(2).
    u = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    d = dist_up_to_global_phase(u, np.eye(4, dtype=complex))
    assert abs(d - np.sqrt(2.0)) < 1e-9

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
    PhononBranch,
    coulomb_selection_rule,
    two_phonon_rates_per_s,
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
# RuntimeError at 16 nodes, so it is accepted at 800.  The two-phonon rate
# takes an empty temperature grid, whose resolution is checked all the same.
COUNT_SITES = {
    "search_embedding": ("offset-grid size", search_embedding, 1, MAX_OFFSETS, 1),
    "two_phonon_rates_per_s": ("resolution", lambda n: two_phonon_rates_per_s(
        0.1, PhononBranch("deformation"), [], DotGeometry(), resolution=n), 8, MAX_RESOLUTION, 8),
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


def oracle_dist_up_to_global_phase(u, v):
    """The numpy form of the closed-form distance, kept as the oracle of its Python-float port."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    size_u, size_v = np.abs(u), np.abs(v)
    keep = ~(size_u + size_v < np.max(np.abs(size_u - size_v)))  # nan keeps every entry
    overlap = np.vdot(v, u)
    w = (overlap / abs(overlap) if overlap else 1.0) * v[keep]
    r = u[keep] - w
    rw = r.conj() * w
    a = r.real**2 + r.imag**2
    p = 2.0 * (w.real**2 + w.imag**2 + rw.real)
    q = 2.0 * rw.imag
    j, k = np.triu_indices(a.size, 1)
    da = a[j] - a[k]
    lead = da + 2.0 * (p[j] - p[k])
    half = q[j] - q[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -(half + np.copysign(np.sqrt(half * half - lead * da), half))
        t = np.concatenate((s / lead, da / s))
    delta = np.concatenate(([0.0], np.arctan2(-q, p), 2.0 * np.arctan(t)))
    delta = delta[~np.isnan(delta)]
    g = 2j * np.sin(delta / 2.0) * np.exp(0.5j * delta)
    return float(np.abs(r - g[:, None] * w).max(axis=1).min())


def assert_matches_the_oracle(u, v):
    """The port is the oracle to within 16 eps M, M = max|u| + max|v|.

    Both do the same operations in the same order but three.  BLAS sums the
    trace overlap in its own order, which only turns the frame the
    candidate phases are expressed in.  numpy's SIMD kernels round ``|z|``,
    and may round sin, arctan, arctan2 and exp, differently from libm (SVML
    documents 4 ulp).  Every candidate value is an entry of size at most M
    after about ten roundings, each a few ulps of M at most, and it moves
    with the phase at a rate of at most M, so the two minima differ by at
    most 16 eps M.  The largest difference seen in 22,800 random 4x4 and 6x6
    pairs (dense, sparse, near-equal, rephased, unitary, scaled) is 3.5 eps M.
    """
    got = dist_up_to_global_phase(u, v)
    with np.errstate(invalid="ignore"):  # a nan entry
        expected = oracle_dist_up_to_global_phase(u, v)
    if np.isnan(expected):
        assert np.isnan(got)
        return
    bound = 16.0 * np.finfo(float).eps * (np.abs(u).max() + np.abs(v).max())
    assert abs(got - expected) <= bound, (got, expected, bound)


@given(st.sampled_from([4, 6]), st.integers(0, 2**32 - 1),
       st.sampled_from(["dense", "sparse", "near", "rephased"]), st.floats(-17.0, -3.0))
def test_phase_distance_is_the_numpy_oracle_within_its_rounding_bound(n, seed, kind, log_eps):
    rng = np.random.default_rng(seed)

    def gaussian():
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    if kind == "dense":
        u, v = gaussian(), gaussian()
    elif kind == "sparse":
        u, v = (gaussian() * (rng.random((n, n)) < 0.3) for _ in range(2))
    else:
        u = random_unitary(n, rng)
        v = np.exp(2j * np.pi * rng.random()) * u
        if kind == "near":
            v = v + 10.0**log_eps * gaussian()
    assert_matches_the_oracle(u, v)
    assert_matches_the_oracle(v, u)


@pytest.mark.parametrize("n", [4, 6])
def test_phase_distance_is_the_numpy_oracle_on_edge_inputs(n):
    rng = np.random.default_rng(n)
    u = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    # Complementary supports: the trace overlap is exactly zero, so both take phase 1.
    mask = rng.random((n, n)) < 0.5
    assert np.vdot(v * ~mask, u * mask) == 0
    assert_matches_the_oracle(u * mask, v * ~mask)
    # Exact entries, where crossings have lead or s at zero: identity against a permutation.
    assert_matches_the_oracle(np.eye(n), np.eye(n)[::-1])
    assert_matches_the_oracle(np.eye(n), np.diag([1.0] * (n - 1) + [-1.0]))
    # A nan entry makes the distance nan.
    for side in (0, 1):
        pair = [u.copy(), v.copy()]
        pair[side][1, 2] = np.nan
        assert np.isnan(dist_up_to_global_phase(*pair))
        assert_matches_the_oracle(*pair)
    # A shape mismatch raises the oracle's message.
    for other in (np.eye(n + 1), np.ones((n, n + 1))):
        with pytest.raises(ValueError) as expected:
            oracle_dist_up_to_global_phase(u, other)
        with pytest.raises(ValueError) as got:
            dist_up_to_global_phase(u, other)
        assert str(got.value) == str(expected.value)

from __future__ import annotations

import collections
import json
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import roots_legendre

from dqdsim import decoherence
from dqdsim.cli import main
from dqdsim.constants import HBAR_UEV_NS, K_B_UEV_PER_K
from dqdsim.decoherence import (
    HBAR_C_UEV_NM,
    LEGENDRE_CACHE_SIZE,
    MAX_RESOLUTION,
    LENGTH_RANGE_NM,
    MAX_SELECTION_RESOLUTION,
    MIN_TEMPERATURE_K,
    Q_CUTOFF_PER_NM,
    DotGeometry,
    PhononBranch,
    angular_flip_weight,
    bose_einstein,
    coulomb_selection_rule,
    fit_scaling_exponent,
    single_phonon_tau_s,
    _legendre_nodes,
    two_phonon_rates_per_s,
    validity_edge_K,
)


# ---------------------------------------------------------------------------
# thermal occupation
# ---------------------------------------------------------------------------

def test_bose_einstein_frozen_values():
    T = 1.0
    kT = K_B_UEV_PER_K * T
    # at eps = kT ln2 the occupation is exactly one
    assert bose_einstein(kT * np.log(2.0), T) == pytest.approx(1.0, abs=1e-12)
    assert bose_einstein(kT, T) == pytest.approx(0.5819767068693265, abs=1e-15)
    # 1/(e^10 - 1), a touch above the Boltzmann tail e^-10
    assert bose_einstein(10 * kT, T) == pytest.approx(4.5401991009687765e-05, rel=1e-12)


def test_bose_einstein_classical_limit():
    # n -> kT/eps for eps << kT
    T = 4.0
    kT = K_B_UEV_PER_K * T
    eps = kT * 1e-6
    assert bose_einstein(eps, T) == pytest.approx(kT / eps, rel=1e-5)


def test_bose_einstein_array_matches_scalar():
    T = 0.35
    eps = np.array([0.01, 0.1, 1.0, 10.0])
    vec = bose_einstein(eps, T)
    assert isinstance(vec, np.ndarray) and vec.shape == eps.shape
    for e, n in zip(eps, vec):
        scalar = bose_einstein(float(e), T)
        assert isinstance(scalar, float)
        assert n == pytest.approx(scalar, rel=1e-14)


def test_bose_einstein_rejects_nonpositive_energy():
    with pytest.raises(ValueError):
        bose_einstein(0.0, 1.0)
    with pytest.raises(ValueError):
        bose_einstein(-1.0, 1.0)
    with pytest.raises(ValueError):
        bose_einstein(np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        bose_einstein(1.0, 0.0)


# ---------------------------------------------------------------------------
# one-phonon lifetimes
# ---------------------------------------------------------------------------

def test_single_phonon_anchor_values():
    assert single_phonon_tau_s(1.0, PhononBranch("deformation")) == 1e-6
    assert single_phonon_tau_s(1.0, PhononBranch("piezoelectric")) == 1e-2


def test_single_phonon_scaling_exponents():
    deps = np.geomspace(0.2, 20.0, 9)
    for branch, expected in (
        (PhononBranch("deformation"), -5.0),
        (PhononBranch("piezoelectric"), -3.0),
    ):
        samples = [(float(d), single_phonon_tau_s(float(d), branch)) for d in deps]
        slope = fit_scaling_exponent(samples)
        assert slope == pytest.approx(expected, abs=1e-12)


def test_branch_coupling_shapes():
    df = PhononBranch("deformation")
    pz = PhononBranch("piezoelectric")
    assert df.coupling_sq(2.0) == 2.0
    assert pz.coupling_sq(2.0) == 0.5
    assert df.tau_exponent == 5
    assert pz.tau_exponent == 3
    with pytest.raises(ValueError, match="kind"):
        PhononBranch("optical")


def _rate(temperature_K, resolution=256, deps=0.1, branch=PhononBranch("deformation"),
          mode="reduced"):
    """The rate of a one-temperature grid."""
    (rate,) = two_phonon_rates_per_s(deps, branch, [temperature_K], DotGeometry(), mode,
                                     resolution)
    return rate


def test_environment_derived_quantities(monkeypatch):
    windows = []
    gauss_legendre = decoherence._gauss_legendre

    def recording(lo, hi, n):
        windows.append(hi)
        return gauss_legendre(lo, hi, n)

    monkeypatch.setattr(decoherence, "_gauss_legendre", recording)
    _rate(0.25)
    # the spectral window ends at 40 kT, with kT = T k_B
    assert [hi.tolist() for hi in windows] == [[[40.0 * (0.25 * K_B_UEV_PER_K)]]] * 2
    # hbar * c with c in m/s numerically equal to nm/ns
    assert HBAR_C_UEV_NM == pytest.approx(HBAR_UEV_NS * 5000.0, rel=1e-15)


@pytest.mark.parametrize("resolution", [256.0, True, "256", np.float64(256.0)])
def test_environment_resolution_must_be_an_integer(resolution):
    with pytest.raises(ValueError, match="integer"):
        _rate(0.3, resolution=resolution)


def test_environment_accepts_numpy_integer_resolution():
    assert _rate(0.3, resolution=np.int64(256)) == _rate(0.3, resolution=256)


def test_environment_temperature_floor():
    # the reduced denominator (n / kT)**2 stays finite at the floor
    assert np.isfinite((2.0 / (MIN_TEMPERATURE_K * K_B_UEV_PER_K)) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # far below the validity edge
        _rate(MIN_TEMPERATURE_K)
    with pytest.raises(ValueError, match="temperature_K"):
        _rate(MIN_TEMPERATURE_K / 2.0)


@pytest.mark.parametrize("d_nm, a_nm", [
    (1e300, 5.0), (22.0, 1e300), (22.0, 1e-300), (0.0, 5.0), (np.inf, 5.0), (22.0, np.nan),
])
def test_geometry_outside_the_length_range_is_rejected(d_nm, a_nm):
    with pytest.raises(ValueError, match="nm"):
        DotGeometry(d_nm=d_nm, a_nm=a_nm)


def test_geometry_overlap_is_finite_and_below_one_wherever_accepted():
    lo, hi = LENGTH_RANGE_NM
    lengths = np.geomspace(lo, hi, 19)
    accepted = 0
    for d in lengths:
        for a in lengths:
            try:
                geom = DotGeometry(d_nm=float(d), a_nm=float(a))
            except ValueError as exc:
                assert "coincide" in str(exc)
                continue
            accepted += 1
            assert 0.0 <= geom.overlap < 1.0
    assert 0 < accepted < lengths.size**2
    with pytest.raises(ValueError, match="coincide"):
        DotGeometry(d_nm=lo, a_nm=hi)


# ---------------------------------------------------------------------------
# form factors, checked against direct numerical integration; their
# orientation average is the oracle of angular_flip_weight
# ---------------------------------------------------------------------------

def form_factor(
    q_per_nm: float,
    cos_theta: float,
    geom: DotGeometry,
    pair: str,
) -> complex:
    """Plane-wave matrix element between the space states of one DQD.

    The oracle of :func:`angular_flip_weight`, which is its orientation
    average in closed form.

    ``pair`` selects bra and ket, e.g. ``"+-"`` for the symmetric bra and
    antisymmetric ket.  ``cos_theta`` is the angle cosine between the
    phonon wavevector and the DQD axis; the Gaussian envelope sees the full
    magnitude while the interference factor sees the axis projection.
    Closed forms for Gaussian orbitals of width ``a`` centered at
    ``+-d/2``, exact at every overlap.
    """
    if q_per_nm < 0.0:
        raise ValueError(f"q must be >= 0, got {q_per_nm!r}")
    if not -1.0 <= cos_theta <= 1.0:
        raise ValueError(f"cos_theta must lie in [-1, 1], got {cos_theta!r}")
    if len(pair) != 2 or any(c not in "+-" for c in pair):
        raise ValueError(f"pair must be two of '+'/'-', got {pair!r}")
    s = geom.overlap
    q_par = q_per_nm * cos_theta
    envelope = np.exp(-(q_per_nm * geom.a_nm) ** 2 / 4.0)
    half = q_par * geom.d_nm / 2.0
    bra, ket = pair
    if bra == ket:
        sign = 1.0 if bra == "+" else -1.0
        return complex(envelope * (np.cos(half) + sign * s) / (1.0 + sign * s))
    return complex(-1j * np.sin(half) * envelope / np.sqrt(1.0 - s * s))


def _oracle_form_factor(q: float, cos_theta: float, geom: DotGeometry, pair: str) -> complex:
    """Brute-force the axis integral on a dense grid; transverse directions
    integrate to the Gaussian envelope analytically."""
    a, d = geom.a_nm, geom.d_nm
    x = np.linspace(-6 * a - d, 6 * a + d, 40001)
    gauss_l = np.exp(-((x + d / 2) ** 2) / (2 * a * a))
    gauss_r = np.exp(-((x - d / 2) ** 2) / (2 * a * a))
    norm = (np.pi * a * a) ** 0.25
    s = geom.overlap
    plus = (gauss_l + gauss_r) / (norm * np.sqrt(2 * (1 + s)))
    minus = (gauss_l - gauss_r) / (norm * np.sqrt(2 * (1 - s)))
    waves = {"+": plus, "-": minus}
    q_par = q * cos_theta
    q_perp_sq = q * q * (1.0 - cos_theta * cos_theta)
    axis = np.trapezoid(waves[pair[0]] * np.exp(1j * q_par * x) * waves[pair[1]], x)
    return complex(axis * np.exp(-q_perp_sq * a * a / 4.0))


@pytest.mark.parametrize("pair", ["++", "--", "+-", "-+"])
@pytest.mark.parametrize("q,cos_theta", [(0.05, 1.0), (0.3, 0.6), (1.0, -0.25)])
def test_form_factor_matches_quadrature(pair: str, q: float, cos_theta: float):
    geom = DotGeometry()
    closed = form_factor(q, cos_theta, geom, pair)
    numeric = _oracle_form_factor(q, cos_theta, geom, pair)
    assert closed == pytest.approx(numeric, abs=1e-9)


def test_form_factor_limits():
    geom = DotGeometry()
    # q -> 0: diagonal elements approach 1, the flip element vanishes
    assert form_factor(1e-12, 0.5, geom, "++") == pytest.approx(1.0, abs=1e-9)
    assert abs(form_factor(1e-12, 0.5, geom, "+-")) < 1e-9
    # perpendicular phonons cannot flip the space state at any q
    assert abs(form_factor(0.7, 0.0, geom, "+-")) == 0.0


def test_form_factor_validation():
    geom = DotGeometry()
    with pytest.raises(ValueError):
        form_factor(-1.0, 0.5, geom, "+-")
    with pytest.raises(ValueError):
        form_factor(1.0, 2.0, geom, "+-")
    with pytest.raises(ValueError):
        form_factor(1.0, 0.5, geom, "ab")


def test_angular_flip_weight_is_direction_average():
    geom = DotGeometry()
    for q in (0.05, 0.4, 1.3):
        c = np.linspace(-1.0, 1.0, 20001)
        sq = np.array([abs(form_factor(q, float(ci), geom, "+-")) ** 2 for ci in c])
        numeric = np.trapezoid(sq, c) / 2.0
        assert angular_flip_weight(q, geom) == pytest.approx(numeric, rel=1e-7)


def test_angular_flip_weight_small_q_suppression():
    geom = DotGeometry()
    # dipole-forbidden at long wavelength: weight ~ q^2 d^2 / 12
    w1 = float(angular_flip_weight(1e-3, geom))
    w2 = float(angular_flip_weight(2e-3, geom))
    assert w2 / w1 == pytest.approx(4.0, rel=1e-3)


# ---------------------------------------------------------------------------
# two-phonon rates
# ---------------------------------------------------------------------------

def _decade_slope(branch: PhononBranch, mode: str, resolution: int = 256) -> float:
    t_min = validity_edge_K(0.1)
    samples = []
    # the decade starts at the validity edge kT = 10 * splitting, which is inside
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for T in np.geomspace(t_min, 10 * t_min, 7):
            rate = _rate(float(T), resolution, branch=branch, mode=mode).rate_per_s
            samples.append((float(T), rate))
    return fit_scaling_exponent(samples)


def test_two_phonon_rate_positive_and_increasing():
    branch = PhononBranch("deformation")
    rates = []
    for T in (0.05, 0.1, 0.2, 0.4):
        rates.append(_rate(T, branch=branch).rate_per_s)
    assert all(r > 0 for r in rates)
    assert all(b > a for a, b in zip(rates, rates[1:]))


# Deep in the low-temperature regime the reduced-mode integrand is
# eps^m n(n+1) times a constant: q^4 of phase space, q^(+-2) from the squared
# coupling and ((q d)^2 / 12)^2 from the squared flip form factor give m = 10
# (deformation) and m = 6 (piezoelectric).  Integrating over eps gives
# R -> C Gamma(m+1) zeta(m) (kT)^(m-1) with
# C = (2 pi / hbar) 1e9 d^4 4 / (144 (1 - S^2)^2 (hbar c_s)^(m+2)).
@pytest.mark.parametrize("kind, m", [("deformation", 10), ("piezoelectric", 6)])
@pytest.mark.parametrize("kT_ueV", [0.001, 0.01])
def test_two_phonon_rate_matches_low_temperature_closed_form(kind, m, kT_ueV):
    geom = DotGeometry()
    s = geom.overlap
    c = (2.0 * np.pi / HBAR_UEV_NS * 1e9 * geom.d_nm**4 * 4.0
         / (144.0 * (1.0 - s * s) ** 2 * HBAR_C_UEV_NM ** (m + 2)))
    with mpmath.workdps(30):
        gamma_zeta = float(mpmath.gamma(m + 1) * mpmath.zeta(m))
    closed_form = c * gamma_zeta * kT_ueV ** (m - 1)
    rate = _rate(kT_ueV / K_B_UEV_PER_K, 256, deps=1e-4, branch=PhononBranch(kind)).rate_per_s
    assert rate / closed_form == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("mode", ["reduced", "exact"])
@pytest.mark.parametrize("kind, ratio", [("deformation", 32.0), ("piezoelectric", 2.0)])
def test_two_phonon_rate_scales_with_splitting_temperature_and_size(kind, ratio, mode):
    """Metamorphic relation (deps, T, d, a) -> (deps/2, T/2, 2d, 2a), exact in floats.

    Every step scales by a power of two: kT, the spectral window and the
    nodes eps halve, q = eps / (hbar c) halves, eps / kT and so n(n+1) stay,
    q d and q a stay, so the flip weight and the overlap stay.  The phase
    space q^4 gives 1/16, the node weights 1/2 and the squared denominator
    (2/kT)^2, or |sum 1/(+-deps - eps + 0.01 i kT)|^2, gives 4.  The squared
    coupling q^2 gives 1/4 for deformation and (1/q)^2 gives 4 for
    piezoelectric.  So the rate falls by 16 * 2 / 4 * 4 = 32 and by
    16 * 2 / 4 / 4 = 2, bit for bit (40 kT stays below the phonon cutoff).
    """
    branch = PhononBranch(kind)
    before = two_phonon_rates_per_s(0.1, branch, [0.02, 0.05], DotGeometry(22.0, 5.0), mode)
    after = two_phonon_rates_per_s(0.05, branch, [0.01, 0.025], DotGeometry(44.0, 10.0), mode)
    assert [r.rate_per_s / ratio for r in before] == [r.rate_per_s for r in after]


# At moderate kT the asymptote above no longer holds, so an adaptive quadrature
# of the reduced integrand, rebuilt from the public pieces over the rate's own
# spectral window, checks the Gauss-Legendre rate independently of its nodes.
@pytest.mark.parametrize("kind", ["deformation", "piezoelectric"])
@pytest.mark.parametrize("kT_over_deps", [20.0, 200.0])
def test_two_phonon_rate_matches_adaptive_quadrature(kind, kT_over_deps):
    deps = 1.0
    kT = kT_over_deps * deps
    temperature = kT / K_B_UEV_PER_K
    geom = DotGeometry()
    branch = PhononBranch(kind)

    def integrand(eps: float) -> float:
        q = eps / HBAR_C_UEV_NM
        n = bose_einstein(eps, temperature)
        return float(q**4 / HBAR_C_UEV_NM**2 * branch.coupling_sq(q) ** 2
                     * angular_flip_weight(q, geom) ** 2 * n * (n + 1.0) * (2.0 / kT) ** 2)

    eps_hi = min(40.0 * kT, HBAR_C_UEV_NM * Q_CUTOFF_PER_NM)
    integral, _ = quad(integrand, 1e-9 * kT, eps_hi, epsabs=0.0, epsrel=1e-13, limit=200)
    expected = 2.0 * np.pi / HBAR_UEV_NS * integral * 1e9
    rate = _rate(temperature, deps=deps, branch=branch).rate_per_s
    # quad's own error estimate is below 4e-14 relative; the rates agree to ~1e-15
    assert rate == pytest.approx(expected, rel=1e-12)


def test_two_phonon_deep_dipole_exponents_reduced_mode():
    # measured on the decade starting at kT = 10 * level splitting; the
    # frozen values sit close to the analytic small-q counting of 9 and 5
    assert _decade_slope(PhononBranch("deformation"), "reduced") == pytest.approx(
        8.966984, abs=0.02
    )
    assert _decade_slope(PhononBranch("piezoelectric"), "reduced") == pytest.approx(
        4.986108, abs=0.02
    )


def test_two_phonon_exact_denominators_agree_with_reduced_scaling():
    assert _decade_slope(PhononBranch("deformation"), "exact") == pytest.approx(
        8.977359, abs=0.02
    )
    assert _decade_slope(PhononBranch("piezoelectric"), "exact") == pytest.approx(
        4.991865, abs=0.02
    )


def test_two_phonon_quadrature_converged_in_resolution():
    branch = PhononBranch("piezoelectric")
    r256 = _rate(0.3, 256, branch=branch)
    r512 = _rate(0.3, 512, branch=branch)
    assert r256.rate_per_s == pytest.approx(r512.rate_per_s, rel=1e-6)
    # resolution n returns the 2n-node rate; its error estimate is the
    # difference to the n-node rate, which resolution n/2 returns, or 1e-13
    # of the rate where that difference is rounding noise (here it is 0)
    difference = abs(r512.rate_per_s - r256.rate_per_s)
    assert r512.est_error_per_s == max(difference, 1e-13 * r512.rate_per_s)
    assert 0.0 < r256.est_error_per_s < 1e-6 * r256.rate_per_s


def test_two_phonon_error_estimate_is_floored_at_rounding():
    # At 128 nodes the deformation rate at T = 0.0348 K is converged to an ulp:
    # its node-doubling difference (1.9e-32 of 2.7e-18) is rounding noise.
    rate = _rate(0.034813554365236761, 128, deps=0.3)
    assert rate.est_error_per_s == 1e-13 * rate.rate_per_s


def test_two_phonon_rejects_unconverged_quadrature():
    with pytest.raises(RuntimeError):
        _rate(0.3, 8)
    with pytest.raises(ValueError):
        _rate(0.3, 4)


def test_two_phonon_warns_when_kt_comparable_to_splitting():
    with pytest.warns(RuntimeWarning):
        _rate(0.005)


def _loop_integral(deps, branch, temperature_K, geom, mode, n_nodes) -> float:
    """One temperature's rate integral in plain floats: the loop the stacked rows must match."""
    kT = temperature_K * K_B_UEV_PER_K
    eps, weights = decoherence._gauss_legendre(
        1e-9 * kT, min(40.0 * kT, HBAR_C_UEV_NM * Q_CUTOFF_PER_NM), n_nodes)
    q = eps / HBAR_C_UEV_NM
    n = bose_einstein(eps, temperature_K)
    if mode == "reduced":
        denom = (2.0 / kT) ** 2 * np.ones_like(eps)
    else:
        amplitude = np.zeros(eps.shape, dtype=complex)
        for eps_z in (-deps, deps):
            amplitude += 1.0 / (eps_z - eps + 1j * (0.01 * kT))
        denom = np.abs(amplitude) ** 2
    c, w = branch.coupling_sq(q), angular_flip_weight(q, geom)
    integrand = q**2 * q**2 / HBAR_C_UEV_NM**2 * (c * c) * (w * w) * ((n + 1.0) * n) * denom
    return float(np.sum(weights * integrand))


def _rates_and_warnings(call) -> tuple[list[tuple[str, str]], str | None, list[str]]:
    """What ``call`` returns (as float hex), the error it raises, and its warnings."""
    rates, error = [], None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rates = [(r.rate_per_s.hex(), r.est_error_per_s.hex()) for r in call()]
        except RuntimeError as exc:
            error = str(exc)
    return rates, error, [str(w.message) for w in caught]


# A stacked grid gives each row bitwise as its one-temperature call, in any
# temperature order, below the validity edge (warnings) and at resolutions
# too coarse to converge (the error of the first unconverged temperature);
# each stacked integral is bitwise the per-temperature loop's.
@given(
    deps=st.floats(0.01, 1.0),
    edges=st.lists(st.floats(0.5, 30.0), min_size=1, max_size=6),
    resolution=st.sampled_from([8, 12, 16, 64, 128]),
    mode=st.sampled_from(["reduced", "exact"]),
    kind=st.sampled_from(["deformation", "piezoelectric"]),
)
def test_stacked_rates_equal_one_temperature_calls(deps, edges, resolution, mode, kind):
    temperatures = [e * validity_edge_K(deps) for e in edges]
    branch, geom = PhononBranch(kind), DotGeometry()

    def one_at_a_time():
        for t in temperatures:
            yield from two_phonon_rates_per_s(deps, branch, [t], geom, mode, resolution)

    stacked = _rates_and_warnings(
        lambda: two_phonon_rates_per_s(deps, branch, temperatures, geom, mode, resolution))
    assert stacked == _rates_and_warnings(one_at_a_time)
    column = np.array(temperatures)[:, None]
    for n_nodes in (resolution, 2 * resolution):
        rows = decoherence._two_phonon_integrals(deps, branch, column, geom, mode, n_nodes)
        assert [r.hex() for r in rows.tolist()] == [
            _loop_integral(deps, branch, t, geom, mode, n_nodes).hex() for t in temperatures]


def test_validity_edge_is_ten_splittings():
    assert validity_edge_K(0.4) * K_B_UEV_PER_K == pytest.approx(4.0, rel=1e-15)


@pytest.mark.parametrize("deps", [0.0, -1.0, np.nan, np.inf])
def test_splitting_must_be_finite_and_positive(deps):
    with pytest.raises(ValueError, match="delta_eps_ueV"):
        validity_edge_K(deps)
    with pytest.raises(ValueError, match="delta_eps_ueV"):
        _rate(0.3, deps=deps)


# ---------------------------------------------------------------------------
# Gauss-Legendre nodes
# ---------------------------------------------------------------------------

def _legendre_moments(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``sum(w * P_k(x))`` for k = 0..2n-1, each ``P_k`` by its recurrence."""
    n = x.size
    moments = np.empty(2 * n)
    p_prev, p = np.ones_like(x), x
    moments[0], moments[1] = w.sum(), w @ x
    for k in range(1, 2 * n - 1):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        moments[k + 1] = w @ p
    return moments


@pytest.mark.parametrize("n", [8, 9, 200, 1600, 3200])
def test_rule_integrates_legendre_polynomials_up_to_degree_2n_minus_1(n):
    x, w = _legendre_nodes(n)
    exact = np.zeros(2 * n)
    exact[0] = 2.0
    # a few ulp of the total weight 2
    np.testing.assert_allclose(_legendre_moments(x, w), exact, rtol=0.0, atol=2e-15)


@pytest.mark.parametrize("n", [1, 2, 8, 9, 200, 201, 3200])
def test_nodes_ascend_and_mirror_exactly(n):
    x, w = _legendre_nodes(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        middle = x[n // 2]
        assert middle == 0.0 and not np.signbit(middle)


def test_cached_nodes_are_read_only():
    x, w = _legendre_nodes(16)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0
    assert _legendre_nodes(16)[1].sum() == pytest.approx(2.0, abs=1e-14)


def test_each_node_count_is_built_once_per_process(monkeypatch, capsys):
    cached = decoherence._legendre_nodes
    builds = collections.Counter()

    def counting(n):
        misses = cached.cache_info().misses
        rule = cached(n)
        builds[n] += cached.cache_info().misses - misses
        return rule

    cached.cache_clear()
    monkeypatch.setattr(decoherence, "_legendre_nodes", counting)
    for _ in range(2):
        main(["decohere", "--sweep", "rate"])
        main(["decohere", "--sweep", "selection"])
    capsys.readouterr()
    # rate: n = 256 and its 2n check; selection: n = 800, and its reference
    # takes the rate's 256 and 512 from the cache
    assert builds == {256: 1, 512: 1, 800: 1}


def test_unconverged_nodes_are_a_usage_error(monkeypatch, capsys):
    _legendre_nodes.cache_clear()
    monkeypatch.setattr(decoherence, "_NEWTON_STEPS", 0)
    assert main(["decohere", "--sweep", "selection"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: Gauss-Legendre nodes not converged for n = 800\n"


@pytest.mark.parametrize("n", [8, 9, 64, 200, 512, 1024, 1600, 2048, 3200])
def test_nodes_match_scipy_roots_legendre(n):
    x, _ = _legendre_nodes(n)
    x_ref, _ = roots_legendre(n)
    # a few ulp of the interval [-1, 1]
    np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("n", [16, 64])
def test_nodes_match_mpmath_roots_of_the_legendre_polynomial(n):
    """Each node against the root of P_n that mpmath finds from it at 40 digits,
    and each weight against 2 (1 - x^2) / (n P_{n-1}(x))^2 at that root
    (P_n'(x) = n P_{n-1}(x) / (1 - x^2) where P_n(x) = 0).  The n roots
    found must be distinct, so they are all the roots.  Measured: nodes
    within 0.55 ulp, weights within 5.7e-14 relative."""
    x, w = _legendre_nodes(n)
    with mpmath.workdps(40):
        roots = [mpmath.findroot(lambda t: mpmath.legendre(n, t), mpmath.mpf(float(xi)))
                 for xi in x]
        assert len(set(roots)) == n
        for xi, wi, root in zip(x, w, roots):
            assert abs(mpmath.mpf(float(xi)) - root) <= np.spacing(abs(xi))
            weight = 2 * (1 - root * root) / (n * mpmath.legendre(n - 1, root)) ** 2
            assert abs(mpmath.mpf(float(wi)) / weight - 1) <= 1e-13


@pytest.mark.parametrize("n", [8, 32])
def test_rule_integrates_polynomials_up_to_degree_2n_minus_1(n):
    x, w = _legendre_nodes(n)
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert np.sum(w * x**k) == pytest.approx(exact, abs=1e-13), k


def test_node_cache_is_bounded():
    for n in range(8, 8 + LEGENDRE_CACHE_SIZE + 8):
        _legendre_nodes(n)
        assert _legendre_nodes.cache_info().currsize <= LEGENDRE_CACHE_SIZE
    assert _legendre_nodes.cache_info().currsize == LEGENDRE_CACHE_SIZE


def test_quadratures_hold_no_n_by_n_array():
    # one n x n float array at n = 3200 takes 82 MB; the selection rule
    # builds the 256- and 512-node rules of its reference in the traced window
    mb = 1 << 20
    _legendre_nodes.cache_clear()
    tracemalloc.start()
    try:
        _legendre_nodes(3200)
        nodes_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        coulomb_selection_rule(DotGeometry(d_nm=22.0, a_nm=5.0), resolution=3200)
        selection_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nodes_peak < 1 * mb
    assert selection_peak < 16 * mb


# ---------------------------------------------------------------------------
# exponent fitting
# ---------------------------------------------------------------------------

def test_fit_scaling_exponent_recovers_pure_power_law():
    xs = np.geomspace(1.0, 100.0, 12)
    samples = [(float(x), 7.3 * float(x) ** -2.5) for x in xs]
    assert fit_scaling_exponent(samples) == pytest.approx(-2.5, abs=1e-12)


def test_fit_scaling_exponent_needs_two_points():
    with pytest.raises(ValueError):
        fit_scaling_exponent([(1.0, 2.0)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1])
def test_fit_scaling_exponent_rejects_non_finite_samples(capfd, bad, axis):
    # Rejected before the fit: LAPACK prints DLASCL errors for a non-finite x,
    # and a non-finite y gives a nan slope.
    samples = [[1.0, 1.0], [2.0, 4.0], [4.0, 16.0]]
    samples[1][axis] = bad
    with pytest.raises(ValueError, match="finite and positive"):
        fit_scaling_exponent(samples)
    assert capfd.readouterr() == ("", "")


@given(xs=st.lists(st.sampled_from([0.5, 1.0, 1.0 + 2.0 ** -52, 3.0, 1e300]), min_size=2,
                   max_size=6),
       ys=st.lists(st.floats(1e-300, 1e300), min_size=6, max_size=6))
def test_fit_scaling_exponent_needs_distinct_x_exactly_as_numpy_unique_says(xs, ys):
    samples = list(zip(xs, ys))
    if np.unique(xs).size < 2:
        with pytest.raises(ValueError, match="distinct x"):
            fit_scaling_exponent(samples)
    else:
        assert np.isfinite(fit_scaling_exponent(samples))


# ---------------------------------------------------------------------------
# Coulomb selection rule
# ---------------------------------------------------------------------------

def test_selection_rule_forbidden_elements_vanish():
    table = coulomb_selection_rule(DotGeometry())
    assert table["allowed_abs"] == pytest.approx(0.2201125, abs=1e-4)
    # even densities against an odd potential: each mirror pair cancels exactly
    assert table["forbidden_pp_abs"] == table["forbidden_mm_abs"] == 0.0
    assert table["ratio_allowed_to_bound"] > 1e3
    assert table["forbidden_pp_abs"] < table["error_bound"]
    assert coulomb_selection_rule(DotGeometry(), np.int64(800)) == table


@pytest.mark.parametrize("d_nm, a_nm", [(22.0, 5.0), (18.5, 4.7)])
def test_selection_rule_halves_when_the_geometry_doubles(d_nm, a_nm):
    """Metamorphic relation (d, a) -> (2d, 2a).

    Doubling every length doubles the nodes x, their weights and the kernel
    width a/10, so the kernel 1/sqrt((x - x')^2 + (a/10)^2) halves.  Each
    orbital's norm (pi a^2)^(-1/4) falls by sqrt(2) while the weight doubles,
    so the weighted flip density stays, and the allowed element, density x
    kernel x density, halves.  The norm's factor is rounded, so the ratio is
    2 within rounding (1.9999999999999996 at 18.5/4.7 nm).  The reference's
    sinh-mapped nodes and exponents are ratios of lengths and do not change,
    and its Gaussians' 1/a prefactor halves, so it halves exactly.  The
    forbidden elements stay exactly 0.
    """
    table = coulomb_selection_rule(DotGeometry(d_nm, a_nm))
    doubled = coulomb_selection_rule(DotGeometry(2.0 * d_nm, 2.0 * a_nm))
    assert table["allowed_abs"] / doubled["allowed_abs"] == pytest.approx(2.0, rel=1e-15)
    assert table["allowed_reference_abs"] / 2.0 == doubled["allowed_reference_abs"]
    assert doubled["forbidden_pp_abs"] == doubled["forbidden_mm_abs"] == 0.0


def _dense_elements(geom: DotGeometry, n: int) -> tuple[float, float, float]:
    """The three elements from the whole n x n kernel, by plain matrix products."""
    half = geom.d_nm / 2.0 + 8.0 * geom.a_nm
    x, wq = decoherence._gauss_legendre(-half, half, n)
    a = geom.a_nm
    left = np.exp(-((x + geom.d_nm / 2.0) ** 2) / (2.0 * a * a))
    right = np.exp(-((x - geom.d_nm / 2.0) ** 2) / (2.0 * a * a))
    norm = (np.pi * a * a) ** -0.25
    plus = norm * (left + right) / np.sqrt(2.0 * (1.0 + geom.overlap))
    minus = norm * (left - right) / np.sqrt(2.0 * (1.0 - geom.overlap))
    kernel = 1.0 / np.sqrt((x[:, None] - x[None, :]) ** 2 + (a / 10.0) ** 2)
    flip = wq * plus * minus
    return (flip @ kernel @ flip, (wq * plus * plus) @ kernel @ flip,
            (wq * minus * minus) @ kernel @ flip)


def test_blocked_kernel_matches_the_dense_kernel(monkeypatch):
    # fourteen columns a block over the 200 rows of the negative nodes, with
    # a ragged last block; at n = 401 the middle node x = 0 has no mirror
    monkeypatch.setattr(decoherence, "_KERNEL_ELEMENTS", 7 * 400 + 5)
    geom = DotGeometry(d_nm=18.5, a_nm=4.7)
    for n in (400, 401):
        allowed, pp, mm = _dense_elements(geom, n)
        table = coulomb_selection_rule(geom, resolution=n)
        # summation order differs: a few ulp of the allowed element
        assert table["allowed_abs"] == pytest.approx(abs(allowed), rel=4 * np.finfo(float).eps)
        error = abs(table["allowed_abs"] - table["allowed_reference_abs"])
        assert table["error_bound"] == max(error, 1e-13 * table["allowed_abs"])
        assert 1e-9 < error < 1e-4 * table["allowed_abs"]
        assert table["forbidden_pp_abs"] == table["forbidden_mm_abs"] == 0.0
        # the dense kernel leaves rounding noise where the mirror pairs cancel
        assert abs(pp) < 1e-15 and abs(mm) < 1e-15


# The reference integrates C(u) K(u) with no cancellation; here quad
# integrates the textbook form 2G(u) - G(u-d) - G(u+d) against the kernel
# itself, split at the kernel's width, the orbital width and the far peak.
@pytest.mark.parametrize("d_nm, a_nm", [
    (22.0, 5.0), (18.5, 4.7), (18.0, 4.5), (18.0, 5.5), (26.0, 4.5), (26.0, 5.5), (21.3, 4.9),
])
def test_selection_reference_matches_adaptive_quadrature(d_nm, a_nm):
    geom = DotGeometry(d_nm=d_nm, a_nm=a_nm)
    w, s = a_nm / 10.0, geom.overlap

    def gauss(u: float) -> float:
        return np.exp(-u * u / (2.0 * a_nm * a_nm)) / (a_nm * np.sqrt(2.0 * np.pi))

    def integrand(u: float) -> float:
        c = (2.0 * gauss(u) - gauss(u - d_nm) - gauss(u + d_nm)) / (4.0 * (1.0 - s * s))
        return c / np.sqrt(u * u + w * w)

    edges = [0.0, w, a_nm, d_nm - 3.0 * a_nm, d_nm, d_nm + 3.0 * a_nm, d_nm + 20.0 * a_nm]
    expected = 2.0 * sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                         for lo, hi in zip(edges, edges[1:]))
    for n in (256, 512):
        assert decoherence._selection_reference(geom, n) == pytest.approx(expected, rel=1e-13)
    table = coulomb_selection_rule(geom, resolution=1600)
    assert table["allowed_reference_abs"] == decoherence._selection_reference(geom, 256)
    # at n = 1600 the 2D sum has converged to the reference's last digits
    assert table["allowed_abs"] == pytest.approx(expected, rel=1e-13)


def test_non_odd_flip_density_raises(monkeypatch, capsys):
    densities = decoherence._selection_densities

    def tilted(x, wq, geom):
        flip, stay_p, stay_m = densities(x, wq, geom)
        return flip * (1.0 + 1e-12 * x), stay_p, stay_m  # even part of order 1e-12

    monkeypatch.setattr(decoherence, "_selection_densities", tilted)
    with pytest.raises(RuntimeError, match="flip density is not odd"):
        coulomb_selection_rule(DotGeometry())
    assert main(["decohere", "--sweep", "selection"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "flip density is not odd" in err


def test_asymmetric_bra_density_fails_the_selection_check(monkeypatch, capsys):
    densities = decoherence._selection_densities

    def shifted_plus(x, wq, geom):
        # |+> of a DQD moved 0.5 nm along the axis: no longer even
        flip, _, stay_m = densities(x, wq, geom)
        _, stay_p, _ = densities(x - 0.5, wq, geom)
        return flip, stay_p, stay_m

    monkeypatch.setattr(decoherence, "_selection_densities", shifted_plus)
    assert main(["decohere", "--sweep", "selection", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ratio_forbidden_pp"] > 1e-3
    assert report["forbidden_mm_abs"] == 0.0
    assert report["passed"] is False


def test_quadrature_resolutions_are_capped():
    # an empty grid checks its resolution too
    assert two_phonon_rates_per_s(0.1, PhononBranch("deformation"), [], DotGeometry(),
                                  resolution=MAX_RESOLUTION) == []
    with pytest.raises(ValueError, match=str(MAX_RESOLUTION)):
        _rate(0.3, MAX_RESOLUTION + 1)
    # raises before building the n x n kernel
    with pytest.raises(ValueError, match=str(MAX_SELECTION_RESOLUTION)):
        coulomb_selection_rule(DotGeometry(), resolution=MAX_SELECTION_RESOLUTION + 1)


@pytest.mark.parametrize("resolution", [800.5, 801.9, True, "800", np.float64(800.0)])
def test_selection_rule_resolution_must_be_an_integer(resolution):
    with pytest.raises(ValueError, match="integer"):
        coulomb_selection_rule(DotGeometry(), resolution=resolution)


@pytest.mark.parametrize("drift, raises", [(1e-12, True), (1e-14, False)])
def test_selection_reference_must_agree_with_its_512_node_rule(monkeypatch, drift, raises):
    # The 256-node reference must match the 512-node one to 1e-13.
    reference = decoherence._selection_reference

    def drifting(geom, n):
        return reference(geom, n) * (1.0 + drift * (n == 512))

    monkeypatch.setattr(decoherence, "_selection_reference", drifting)
    if raises:
        with pytest.raises(RuntimeError, match="selection-rule reference not converged"):
            coulomb_selection_rule(DotGeometry(), resolution=400)
    else:
        coulomb_selection_rule(DotGeometry(), resolution=400)


def test_selection_rule_convergence_gate():
    with pytest.raises(RuntimeError):
        coulomb_selection_rule(DotGeometry(), resolution=16)
    with pytest.raises(ValueError):
        coulomb_selection_rule(DotGeometry(), resolution=8)

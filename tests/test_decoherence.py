from __future__ import annotations

import numpy as np
import pytest

from dqdsim.constants import HBAR_UEV_NS, K_B_UEV_PER_K
from dqdsim.decoherence import (
    MAX_RESOLUTION,
    LENGTH_RANGE_NM,
    MAX_SELECTION_RESOLUTION,
    MIN_TEMPERATURE_K,
    DotGeometry,
    Environment,
    PhononBranch,
    TransitionSpec,
    angular_flip_weight,
    bose_einstein,
    coulomb_selection_rule,
    fit_scaling_exponent,
    single_phonon_tau_s,
    two_phonon_rate_per_s,
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
    assert single_phonon_tau_s(1.0, PhononBranch.deformation()) == 1e-6
    assert single_phonon_tau_s(1.0, PhononBranch.piezoelectric()) == 1e-2


def test_single_phonon_scaling_exponents():
    deps = np.geomspace(0.2, 20.0, 9)
    for branch, expected in (
        (PhononBranch.deformation(), -5.0),
        (PhononBranch.piezoelectric(), -3.0),
    ):
        samples = [(float(d), single_phonon_tau_s(float(d), branch)) for d in deps]
        slope = fit_scaling_exponent(samples)
        assert slope == pytest.approx(expected, abs=1e-12)


def test_branch_coupling_shapes():
    df = PhononBranch.deformation(coupling_constant=3.0)
    pz = PhononBranch.piezoelectric(coupling_constant=3.0)
    assert df.coupling_sq(2.0) == 6.0
    assert pz.coupling_sq(2.0) == 1.5
    assert df.tau_exponent == 5
    assert pz.tau_exponent == 3
    with pytest.raises(ValueError):
        PhononBranch(kind="deformation", coupling_constant=-1.0, tau_anchor_s=1e-6)


def test_environment_derived_quantities():
    env = Environment(temperature_K=0.25)
    assert env.kT_ueV == pytest.approx(0.25 * K_B_UEV_PER_K, rel=1e-15)
    # hbar * c with c in m/s numerically equal to nm/ns
    assert env.hbar_c_ueV_nm == pytest.approx(HBAR_UEV_NS * 5000.0, rel=1e-15)


@pytest.mark.parametrize("field", ["tau_anchor_s", "anchor_deps_ueV"])
def test_branch_rejects_infinite_anchors(field):
    with pytest.raises(ValueError, match="finite"):
        PhononBranch("deformation", **{field: np.inf})


@pytest.mark.parametrize("resolution", [256.0, True, "256", np.float64(256.0)])
def test_environment_resolution_must_be_an_integer(resolution):
    with pytest.raises(ValueError, match="integer"):
        Environment(temperature_K=0.3, resolution=resolution)


def test_environment_accepts_numpy_integer_resolution():
    assert Environment(temperature_K=0.3, resolution=np.int64(256)).resolution == 256


def test_environment_temperature_floor():
    env = Environment(temperature_K=MIN_TEMPERATURE_K)
    # the reduced denominator (n / kT)**2 stays finite at the floor
    assert np.isfinite((2.0 / env.kT_ueV) ** 2)
    with pytest.raises(ValueError, match="temperature_K"):
        Environment(temperature_K=MIN_TEMPERATURE_K / 2.0)


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
    deps = 0.1
    t_min = 10.0 * deps / K_B_UEV_PER_K
    geom = DotGeometry()
    transition = TransitionSpec(delta_eps_ueV=deps)
    samples = []
    with pytest.warns(RuntimeWarning):
        for T in np.geomspace(t_min, 10 * t_min, 7):
            env = Environment(temperature_K=float(T), resolution=resolution)
            samples.append((float(T), two_phonon_rate_per_s(transition, branch, env, geom, mode=mode)))
    return fit_scaling_exponent(samples)


def test_two_phonon_rate_positive_and_increasing():
    geom = DotGeometry()
    transition = TransitionSpec()
    branch = PhononBranch.deformation()
    rates = []
    for T in (0.05, 0.1, 0.2, 0.4):
        env = Environment(temperature_K=T)
        rates.append(two_phonon_rate_per_s(transition, branch, env, geom))
    assert all(r > 0 for r in rates)
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_two_phonon_zero_coupling_gives_zero_rate():
    env = Environment(temperature_K=0.2)
    rate = two_phonon_rate_per_s(
        TransitionSpec(),
        PhononBranch.deformation(coupling_constant=0.0),
        env,
        DotGeometry(),
    )
    assert rate == 0.0


def test_two_phonon_deep_dipole_exponents_reduced_mode():
    # measured on the decade starting at kT = 10 * level splitting; the
    # frozen values sit close to the analytic small-q counting of 9 and 5
    assert _decade_slope(PhononBranch.deformation(), "reduced") == pytest.approx(
        8.966984, abs=0.02
    )
    assert _decade_slope(PhononBranch.piezoelectric(), "reduced") == pytest.approx(
        4.986108, abs=0.02
    )


def test_two_phonon_exact_denominators_agree_with_reduced_scaling():
    assert _decade_slope(PhononBranch.deformation(), "exact") == pytest.approx(
        8.977359, abs=0.02
    )
    assert _decade_slope(PhononBranch.piezoelectric(), "exact") == pytest.approx(
        4.991865, abs=0.02
    )


def test_two_phonon_quadrature_converged_in_resolution():
    geom = DotGeometry()
    transition = TransitionSpec()
    branch = PhononBranch.piezoelectric()
    r256 = two_phonon_rate_per_s(transition, branch, Environment(temperature_K=0.3, resolution=256), geom)
    r512 = two_phonon_rate_per_s(transition, branch, Environment(temperature_K=0.3, resolution=512), geom)
    assert r256 == pytest.approx(r512, rel=1e-6)


def test_two_phonon_rejects_unconverged_quadrature():
    env = Environment(temperature_K=0.3, resolution=8)
    with pytest.raises(RuntimeError):
        two_phonon_rate_per_s(TransitionSpec(), PhononBranch.deformation(), env, DotGeometry())
    with pytest.raises(ValueError):
        Environment(temperature_K=0.3, resolution=4)


def test_two_phonon_warns_when_kt_comparable_to_splitting():
    env = Environment(temperature_K=0.005)
    with pytest.warns(RuntimeWarning):
        two_phonon_rate_per_s(TransitionSpec(), PhononBranch.deformation(), env, DotGeometry())


def test_transition_spec_fills_intermediate_energies():
    transition = TransitionSpec(delta_eps_ueV=0.4)
    assert transition.intermediates == ("++", "--")
    assert transition.eps_intermediates_ueV == (-0.4, 0.4)


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


# ---------------------------------------------------------------------------
# Coulomb selection rule
# ---------------------------------------------------------------------------

def test_selection_rule_forbidden_elements_vanish():
    table = coulomb_selection_rule(DotGeometry())
    assert table["allowed_abs"] == pytest.approx(0.2201125, abs=1e-4)
    assert table["forbidden_pp_abs"] < 1e-15
    assert table["forbidden_mm_abs"] < 1e-15
    assert table["ratio_allowed_to_bound"] > 1e3
    # the forbidden elements sit far below the quadrature error bound
    assert table["forbidden_pp_abs"] < table["error_bound"]


def test_quadrature_resolutions_are_capped():
    Environment(temperature_K=0.3, resolution=MAX_RESOLUTION)
    with pytest.raises(ValueError, match=str(MAX_RESOLUTION)):
        Environment(temperature_K=0.3, resolution=MAX_RESOLUTION + 1)
    # raises before building the n x n kernel
    with pytest.raises(ValueError, match=str(MAX_SELECTION_RESOLUTION)):
        coulomb_selection_rule(DotGeometry(), resolution=MAX_SELECTION_RESOLUTION + 1)


def test_selection_rule_convergence_gate():
    with pytest.raises(RuntimeError):
        coulomb_selection_rule(DotGeometry(), resolution=16)
    with pytest.raises(ValueError):
        coulomb_selection_rule(DotGeometry(), resolution=8)

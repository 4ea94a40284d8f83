"""Phonon decoherence of DQD space-state qubits, and the Coulomb selection rule.

The logical states couple to acoustic phonons through the electron
density.  Three layers of model are exposed:

* Pure scaling laws: the single-phonon relaxation time falls off as the
  fifth (deformation coupling) or third (piezoelectric) power of the level
  splitting, with the absolute scale fixed by a per-kind calibration anchor.
* A microscopic second-order (two-phonon) transition rate, evaluated by
  Gauss-Legendre quadrature over the phonon spectrum with closed-form
  Gaussian-orbital form factors.  The virtual-state denominators can be
  kept exact (with a small regularizing level width) or replaced by the
  thermal energy, which is the high-temperature shortcut often quoted with
  the rate's temperature power law.
* A reduced two-electron Coulomb matrix-element table demonstrating the
  selection rule that protects the logical subspace: transitions that
  flip a single DQD are parity-forbidden, while the simultaneous flip of
  both DQDs is allowed.

Units: energies ueV, lengths nm, temperatures K, output rates 1/s.
Absolute two-phonon rates carry a unit coupling prefactor; the quantities
this module asserts are ratios, scalings and selection rules.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .constants import HBAR_UEV_NS, K_B_UEV_PER_K
from .linalg import require_count

__all__ = [
    "MAX_RESOLUTION",
    "MAX_SELECTION_RESOLUTION",
    "LEGENDRE_CACHE_SIZE",
    "MIN_TEMPERATURE_K",
    "LENGTH_RANGE_NM",
    "SOUND_SPEED_M_PER_S",
    "HBAR_C_UEV_NM",
    "Q_CUTOFF_PER_NM",
    "TAU_ANCHOR_S",
    "PhononBranch",
    "Environment",
    "DotGeometry",
    "validity_edge_K",
    "bose_einstein",
    "single_phonon_tau_s",
    "angular_flip_weight",
    "TwoPhononRate",
    "two_phonon_rate_per_s",
    "fit_scaling_exponent",
    "coulomb_selection_rule",
]

#: Largest two-phonon quadrature resolution; the convergence check runs
#: ``2 * resolution`` Gauss-Legendre nodes, whose O(n^3) ``leggauss`` setup
#: is paid once per node count (see ``LEGENDRE_CACHE_SIZE``).
MAX_RESOLUTION = 1024

#: Largest selection-rule resolution; the quadrature holds an n x n kernel.
MAX_SELECTION_RESOLUTION = 3200

#: Node counts whose Gauss-Legendre rule stays cached.  Holds with room to
#: spare the eight counts of rate sweeps at n = 128..512 and selection sweeps
#: at n = 400..1600, and bounds the cache at 32 * 3200 * 16 B, about 1.6 MB,
#: however many resolutions a process sweeps.
LEGENDRE_CACHE_SIZE = 32

#: Lowest temperature; keeps ``(n / kT)**2`` of the reduced quadrature finite.
MIN_TEMPERATURE_K = 1e-6

#: Range of the dot separation and orbital width; keeps their squares finite.
LENGTH_RANGE_NM = (1e-3, 1e6)

#: Sound speed of the host crystal.
SOUND_SPEED_M_PER_S = 5000.0

#: hbar * sound speed: converts phonon wavevector (1/nm) to energy (ueV).
HBAR_C_UEV_NM = HBAR_UEV_NS * SOUND_SPEED_M_PER_S  # m/s equals nm/ns

#: Upper end of the phonon spectrum.
Q_CUTOFF_PER_NM = 10.0

#: Single-phonon lifetime of each coupling kind at a 1 ueV level splitting;
#: a calibration, not a prediction.
TAU_ANCHOR_S = {"deformation": 1e-6, "piezoelectric": 1e-2}


@dataclass(frozen=True)
class PhononBranch:
    """One acoustic coupling channel.

    The squared electron-phonon coupling is ``|F_q|^2 = q`` for deformation
    coupling and ``1 / q`` for piezoelectric, with a unit prefactor: the
    absolute rate scale is not a prediction of the model.  The
    single-phonon lifetime is anchored by :data:`TAU_ANCHOR_S`.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("deformation", "piezoelectric"):
            raise ValueError(f"kind must be 'deformation' or 'piezoelectric', got {self.kind!r}")

    @property
    def tau_exponent(self) -> int:
        """Power of the level splitting in the single-phonon lifetime."""
        return 5 if self.kind == "deformation" else 3

    def coupling_sq(self, q_per_nm: np.ndarray | float) -> np.ndarray | float:
        """Squared coupling ``|F_q|^2`` in ueV^2 at wavevector ``q`` (1/nm)."""
        q = np.asarray(q_per_nm, dtype=float)
        return q if self.kind == "deformation" else 1.0 / q


@dataclass(frozen=True)
class Environment:
    """Temperature of the host crystal and the quadrature resolution."""

    temperature_K: float
    resolution: int = 256

    def __post_init__(self) -> None:
        if not MIN_TEMPERATURE_K <= self.temperature_K < np.inf:
            raise ValueError(f"temperature_K must be finite and at least {MIN_TEMPERATURE_K}, "
                             f"got {self.temperature_K!r}")
        require_count("resolution", self.resolution, 8, MAX_RESOLUTION)

    @property
    def kT_ueV(self) -> float:
        return self.temperature_K * K_B_UEV_PER_K


@dataclass(frozen=True)
class DotGeometry:
    """One double quantum dot: two Gaussian orbitals on a common axis."""

    d_nm: float = 22.0
    a_nm: float = 5.0

    def __post_init__(self) -> None:
        lo, hi = LENGTH_RANGE_NM
        if not (lo <= self.d_nm <= hi and lo <= self.a_nm <= hi):
            raise ValueError(
                f"dot separation and orbital width must be in {lo:g}..{hi:g} nm"
            )
        if not self.overlap < 1.0:
            raise ValueError("dot separation too small against the orbital width: "
                             "the two site orbitals coincide")

    @property
    def overlap(self) -> float:
        """Overlap of the two site orbitals, exp(-d^2 / (4 a^2))."""
        return float(np.exp(-self.d_nm**2 / (4.0 * self.a_nm**2)))


def validity_edge_K(delta_eps_ueV: float) -> float:
    """Lowest temperature of the two-phonon regime ``kT >= 10 * delta_eps``.

    The regime is tested in temperature, so the edge itself is inside.
    """
    if not (np.isfinite(delta_eps_ueV) and delta_eps_ueV > 0.0):
        raise ValueError("delta_eps_ueV must be positive")
    return 10.0 * delta_eps_ueV / K_B_UEV_PER_K


def bose_einstein(eps_ueV: np.ndarray | float, temperature_K: float) -> np.ndarray | float:
    """Thermal phonon occupation at energy ``eps`` (a scalar or an array)."""
    if not temperature_K > 0.0:
        raise ValueError(f"temperature must be positive, got {temperature_K!r}")
    x = np.asarray(eps_ueV, dtype=float) / (K_B_UEV_PER_K * temperature_K)
    if not np.all(x > 0.0):
        raise ValueError(f"eps must be positive, got {eps_ueV!r}")
    n = 1.0 / np.expm1(x)
    return float(n) if n.ndim == 0 else n


def single_phonon_tau_s(deps_ueV: float, branch: PhononBranch) -> float:
    """Spontaneous one-phonon relaxation time, pure power law in the splitting.

    ``tau = TAU_ANCHOR_S[kind] * (deps / 1 ueV) ** (-5 or -3)``.  A splitting
    whose lifetime overflows or underflows the float range is rejected.
    """
    if not deps_ueV > 0.0:
        raise ValueError(f"deps must be positive, got {deps_ueV!r}")
    with np.errstate(all="ignore"):
        tau = float(TAU_ANCHOR_S[branch.kind] * np.float64(deps_ueV) ** (-branch.tau_exponent))
    if not 0.0 < tau < np.inf:
        raise ValueError(f"deps = {float(deps_ueV)!r} ueV gives a lifetime outside the float range")
    return tau


def angular_flip_weight(q_per_nm: np.ndarray | float, geom: DotGeometry) -> np.ndarray | float:
    """Orientation average of ``|<+|exp(iqr)|->|^2`` over phonon directions.

    Closed form: ``exp(-q^2 a^2 / 2) * (1 - sinc(q d)) / (2 (1 - S^2))``.
    """
    q = np.asarray(q_per_nm, dtype=float)
    s = geom.overlap
    envelope = np.exp(-(q * geom.a_nm) ** 2 / 2.0)
    interference = 0.5 * (1.0 - np.sinc(q * geom.d_nm / np.pi))
    return envelope * interference / (1.0 - s * s)


@functools.lru_cache(maxsize=LEGENDRE_CACHE_SIZE)
def _legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and shared."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_legendre(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _legendre_nodes(int(n))
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _two_phonon_integral(
    delta_eps_ueV: float,
    branch: PhononBranch,
    env: Environment,
    geom: DotGeometry,
    mode: str,
    n_nodes: int,
) -> float:
    kT = env.kT_ueV
    eps_lo = 1e-9 * kT
    eps_hi = min(40.0 * kT, HBAR_C_UEV_NM * Q_CUTOFF_PER_NM)
    if eps_hi <= eps_lo:
        raise ValueError("spectral cutoff below the emission threshold")
    # The final state is degenerate with the initial one, so the emitted
    # phonon carries the absorbed energy and both vertices share each factor.
    eps, weights = _gauss_legendre(eps_lo, eps_hi, n_nodes)
    q = eps / HBAR_C_UEV_NM
    n = bose_einstein(eps, env.temperature_K)
    occupation = (n + 1.0) * n
    c = branch.coupling_sq(q)
    w = angular_flip_weight(q, geom)

    if mode == "reduced":
        denom = (2.0 / kT) ** 2 * np.ones_like(eps)
    else:
        amplitude = np.zeros(eps.shape, dtype=complex)
        for eps_z in (-delta_eps_ueV, delta_eps_ueV):
            amplitude += 1.0 / (eps_z - eps + 1j * (0.01 * kT))
        denom = np.abs(amplitude) ** 2

    phase_space = q**2 * q**2 / HBAR_C_UEV_NM**2
    integrand = phase_space * (c * c) * (w * w) * occupation * denom
    return float(np.sum(weights * integrand))


class TwoPhononRate(NamedTuple):
    """Two-phonon rate at ``2 * resolution`` nodes and its quadrature error.

    ``est_error_per_s`` is the difference between the rates at ``2 * resolution``
    and at ``resolution`` nodes.
    """

    rate_per_s: float
    est_error_per_s: float


def two_phonon_rate_per_s(
    delta_eps_ueV: float,
    branch: PhononBranch,
    env: Environment,
    geom: DotGeometry,
    mode: str = "reduced",
) -> TwoPhononRate:
    """Second-order two-phonon transition rate by quadrature.

    The transition is the two-DQD flip ``|+-> -> |-+>`` between degenerate
    configurations, through the virtual ``|++>`` and ``|-->`` at
    ``-delta_eps_ueV`` and ``+delta_eps_ueV``.  One thermal phonon is
    absorbed and one emitted; the energy-conserving delta collapses the
    emitted radial integral, leaving a single integral over the absorbed
    phonon energy with the three-dimensional acoustic density of states,
    the squared couplings of ``branch``, the orientation-averaged flip form
    factors, thermal occupations, and the virtual-state denominators.

    ``mode="reduced"`` replaces each denominator by the thermal energy
    (the high-temperature shortcut); ``mode="exact"`` keeps the
    denominators ``eps_z - eps_emitted`` with an imaginary level width of
    one percent of kT regularizing the on-shell crossing.

    The result is checked for quadrature convergence by doubling the node
    count; disagreement beyond 1% raises, and the difference is returned as
    the error estimate.  A warning flags temperatures below
    :func:`validity_edge_K`, where the high-temperature reduction is
    dubious; the edge itself is inside.
    """
    if mode not in ("reduced", "exact"):
        raise ValueError(f"mode must be 'reduced' or 'exact', got {mode!r}")
    if env.temperature_K < validity_edge_K(delta_eps_ueV):
        warnings.warn(
            "two-phonon model assumes kT >> level splitting; "
            f"kT/deps = {env.kT_ueV / delta_eps_ueV:.3g}",
            RuntimeWarning,
            stacklevel=2,
        )
    coarse = _two_phonon_integral(delta_eps_ueV, branch, env, geom, mode, env.resolution)
    fine = _two_phonon_integral(delta_eps_ueV, branch, env, geom, mode, 2 * env.resolution)
    scale = max(abs(fine), abs(coarse))
    if scale > 0.0 and abs(fine - coarse) > 0.01 * scale:
        raise RuntimeError(
            f"two-phonon quadrature not converged at resolution {env.resolution}: "
            f"{coarse!r} vs {fine!r}"
        )
    # 2*pi/hbar in 1/(ueV ns) times 1e9 ns/s.
    rate = float(2.0 * np.pi / HBAR_UEV_NS * fine * 1e9)
    rate_coarse = float(2.0 * np.pi / HBAR_UEV_NS * coarse * 1e9)
    return TwoPhononRate(rate, abs(rate - rate_coarse))


def fit_scaling_exponent(samples: Iterable[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    pairs = [(float(x), float(y)) for x, y in samples]
    if len(pairs) < 2:
        raise ValueError("need at least two samples")
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("samples must be positive to fit a power law")
    if np.unique(xs).size < 2:
        raise ValueError("need at least two distinct x values")
    slope, _ = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope)


def coulomb_selection_rule(
    geom: DotGeometry,
    resolution: int = 800,
) -> dict[str, float]:
    """Two-electron Coulomb matrix elements of the reduced 1-dim model.

    Each electron lives on its own DQD axis with Gaussian site orbitals at
    ``+-d/2``; the electrons interact through the softened kernel
    ``1/sqrt((x1-x2)^2 + w^2)`` with ``w = a/10``.  Transitions that
    flip a single DQD (``|+-> -> |++>`` or ``|-->``) integrate an odd
    function and vanish within quadrature error; the double flip
    (``|+-> -> |-+>``) survives.  Convergence is certified by halving the
    resolution; the reported error bound covers both elements.
    """
    resolution = require_count("resolution", resolution, 16, MAX_SELECTION_RESOLUTION)
    w = geom.a_nm / 10.0

    def elements(n: int) -> tuple[float, float, float]:
        x, wq = _gauss_legendre(-(geom.d_nm / 2.0 + 8.0 * geom.a_nm),
                                geom.d_nm / 2.0 + 8.0 * geom.a_nm, n)
        a = geom.a_nm
        norm = (np.pi * a * a) ** -0.25
        left = norm * np.exp(-((x + geom.d_nm / 2.0) ** 2) / (2.0 * a * a))
        right = norm * np.exp(-((x - geom.d_nm / 2.0) ** 2) / (2.0 * a * a))
        s = geom.overlap
        plus = (left + right) / np.sqrt(2.0 * (1.0 + s))
        minus = (left - right) / np.sqrt(2.0 * (1.0 - s))
        kernel = 1.0 / np.sqrt((x[:, None] - x[None, :]) ** 2 + w * w)
        flip = wq * plus * minus       # odd density driving a single-DQD flip
        stay_p = wq * plus * plus      # even densities of the unflipped bra
        stay_m = wq * minus * minus
        allowed = float(flip @ kernel @ flip)
        forbidden_pp = float(stay_p @ kernel @ flip)
        forbidden_mm = float(stay_m @ kernel @ flip)
        return allowed, forbidden_pp, forbidden_mm

    allowed, forbidden_pp, forbidden_mm = elements(resolution)
    allowed_lo, _, _ = elements(resolution // 2)
    drift = abs(allowed - allowed_lo)
    if abs(allowed) == 0.0 or drift > 0.01 * abs(allowed):
        raise RuntimeError(
            f"selection-rule quadrature not converged at resolution {resolution}"
        )
    error_bound = max(drift, 1e-13 * abs(allowed))
    return {
        "allowed_abs": abs(allowed),
        "forbidden_pp_abs": abs(forbidden_pp),
        "forbidden_mm_abs": abs(forbidden_mm),
        "error_bound": error_bound,
        "ratio_allowed_to_bound": abs(allowed) / error_bound,
        "resolution": float(resolution),
    }

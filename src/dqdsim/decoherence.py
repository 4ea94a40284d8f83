"""Phonon decoherence of DQD space-state qubits, and the Coulomb selection rule.

The logical states couple to acoustic phonons through the electron
density.  Three layers of model are exposed:

* Pure scaling laws: the single-phonon relaxation time falls off as the
  fifth (deformation coupling) or third (piezoelectric) power of the level
  splitting, with the absolute scale supplied as a calibration anchor.
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
Absolute two-phonon rates carry the configurable coupling prefactor; the
quantities this module asserts are ratios, scalings and selection rules.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .constants import HBAR_UEV_NS, K_B_UEV_PER_K

__all__ = [
    "MAX_RESOLUTION",
    "MAX_SELECTION_RESOLUTION",
    "MIN_TEMPERATURE_K",
    "LENGTH_RANGE_NM",
    "PhononBranch",
    "Environment",
    "DotGeometry",
    "TransitionSpec",
    "bose_einstein",
    "single_phonon_tau_s",
    "angular_flip_weight",
    "two_phonon_rate_per_s",
    "fit_scaling_exponent",
    "coulomb_selection_rule",
]

_DQD_STATES = ("+-", "-+", "++", "--")

#: Largest two-phonon quadrature resolution; the convergence check runs
#: ``2 * resolution`` Gauss-Legendre nodes, whose setup is O(n^2) memory.
MAX_RESOLUTION = 1024

#: Largest selection-rule resolution; the quadrature holds an n x n kernel.
MAX_SELECTION_RESOLUTION = 3200

#: Lowest temperature; keeps ``(n / kT)**2`` of the reduced quadrature finite.
MIN_TEMPERATURE_K = 1e-6

#: Range of the dot separation and orbital width; keeps their squares finite.
LENGTH_RANGE_NM = (1e-3, 1e6)


@dataclass(frozen=True)
class PhononBranch:
    """One acoustic coupling channel.

    ``coupling_constant`` is the squared electron-phonon coupling prefactor
    (``|F_q|^2 = coupling_constant * q`` for deformation coupling and
    ``coupling_constant / q`` for piezoelectric); it absorbs the bath
    normalization and is a configuration input, not a prediction.  The
    relaxation-time anchor plays the same role for the single-phonon
    power law.
    """

    kind: str
    coupling_constant: float = 1.0
    tau_anchor_s: float = 1.0
    anchor_deps_ueV: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("deformation", "piezoelectric"):
            raise ValueError(f"kind must be 'deformation' or 'piezoelectric', got {self.kind!r}")
        if not (np.isfinite(self.coupling_constant) and self.coupling_constant >= 0.0):
            raise ValueError("coupling_constant must be >= 0")
        if not (0.0 < self.tau_anchor_s < np.inf and 0.0 < self.anchor_deps_ueV < np.inf):
            raise ValueError("tau anchor and its reference splitting must be finite and positive")

    @property
    def tau_exponent(self) -> int:
        """Power of the level splitting in the single-phonon lifetime."""
        return 5 if self.kind == "deformation" else 3

    def coupling_sq(self, q_per_nm: np.ndarray | float) -> np.ndarray | float:
        """Squared coupling ``|F_q|^2`` in ueV^2 at wavevector ``q`` (1/nm)."""
        q = np.asarray(q_per_nm, dtype=float)
        return self.coupling_constant * (q if self.kind == "deformation" else 1.0 / q)

    @classmethod
    def deformation(cls, coupling_constant: float = 1.0, tau_anchor_s: float = 1e-6,
                    anchor_deps_ueV: float = 1.0) -> "PhononBranch":
        return cls("deformation", coupling_constant, tau_anchor_s, anchor_deps_ueV)

    @classmethod
    def piezoelectric(cls, coupling_constant: float = 1.0, tau_anchor_s: float = 1e-2,
                      anchor_deps_ueV: float = 1.0) -> "PhononBranch":
        return cls("piezoelectric", coupling_constant, tau_anchor_s, anchor_deps_ueV)


@dataclass(frozen=True)
class Environment:
    """Thermal and acoustic parameters of the host crystal."""

    temperature_K: float
    sound_speed_m_per_s: float = 5000.0
    q_cutoff_per_nm: float = 10.0
    resolution: int = 256

    def __post_init__(self) -> None:
        for name in ("temperature_K", "sound_speed_m_per_s", "q_cutoff_per_nm"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")
        if not self.temperature_K >= MIN_TEMPERATURE_K:
            raise ValueError(
                f"temperature_K must be at least {MIN_TEMPERATURE_K}, got {self.temperature_K!r}"
            )
        if isinstance(self.resolution, bool) or not isinstance(self.resolution, (int, np.integer)):
            raise ValueError(f"resolution must be an integer, got {self.resolution!r}")
        if not 8 <= self.resolution <= MAX_RESOLUTION:
            raise ValueError(f"resolution must be in 8..{MAX_RESOLUTION}, got {self.resolution!r}")

    @property
    def kT_ueV(self) -> float:
        return self.temperature_K * K_B_UEV_PER_K

    @property
    def hbar_c_ueV_nm(self) -> float:
        """hbar * sound speed: converts phonon wavevector (1/nm) to energy (ueV)."""
        return HBAR_UEV_NS * self.sound_speed_m_per_s  # m/s equals nm/ns


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


@dataclass(frozen=True)
class TransitionSpec:
    """A two-DQD transition with its virtual intermediate states.

    Energies are relative to the initial configuration.  By default the
    two logical configurations are degenerate and the doubly-symmetric /
    doubly-antisymmetric intermediates sit one level splitting below and
    above.
    """

    initial: str = "+-"
    final: str = "-+"
    intermediates: tuple[str, ...] = ("++", "--")
    delta_eps_ueV: float = 0.1
    eps_intermediates_ueV: tuple[float, ...] = field(default=())
    eps_final_ueV: float = 0.0

    def __post_init__(self) -> None:
        for state in (self.initial, self.final, *self.intermediates):
            if state not in _DQD_STATES:
                raise ValueError(f"unknown two-DQD state {state!r}")
        if not self.intermediates:
            raise ValueError("at least one intermediate state is required")
        if not (np.isfinite(self.delta_eps_ueV) and self.delta_eps_ueV > 0.0):
            raise ValueError("delta_eps_ueV must be positive")
        if not self.eps_intermediates_ueV:
            defaults = {"++": -self.delta_eps_ueV, "--": +self.delta_eps_ueV}
            energies = tuple(defaults.get(z, 0.0) for z in self.intermediates)
            object.__setattr__(self, "eps_intermediates_ueV", energies)
        if len(self.eps_intermediates_ueV) != len(self.intermediates):
            raise ValueError("one intermediate energy per intermediate state is required")
        if not all(np.isfinite(e) for e in (*self.eps_intermediates_ueV, self.eps_final_ueV)):
            raise ValueError("energies must be finite")


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

    ``tau = tau_anchor * (deps / anchor_deps) ** (-5 or -3)``; the anchor is
    a calibration input (see :class:`PhononBranch`).
    """
    if not deps_ueV > 0.0:
        raise ValueError(f"deps must be positive, got {deps_ueV!r}")
    ratio = deps_ueV / branch.anchor_deps_ueV
    return float(branch.tau_anchor_s * ratio ** (-branch.tau_exponent))


def angular_flip_weight(q_per_nm: np.ndarray | float, geom: DotGeometry) -> np.ndarray | float:
    """Orientation average of ``|<+|exp(iqr)|->|^2`` over phonon directions.

    Closed form: ``exp(-q^2 a^2 / 2) * (1 - sinc(q d)) / (2 (1 - S^2))``.
    """
    q = np.asarray(q_per_nm, dtype=float)
    s = geom.overlap
    envelope = np.exp(-(q * geom.a_nm) ** 2 / 2.0)
    interference = 0.5 * (1.0 - np.sinc(q * geom.d_nm / np.pi))
    return envelope * interference / (1.0 - s * s)


def _gauss_legendre(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(int(n))
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _two_phonon_integral(
    transition: TransitionSpec,
    branch: PhononBranch,
    env: Environment,
    geom: DotGeometry,
    mode: str,
    level_width_ueV: float,
    n_nodes: int,
) -> float:
    kT = env.kT_ueV
    hbar_c = env.hbar_c_ueV_nm
    eps_lo = max(transition.eps_final_ueV, 0.0) + 1e-9 * kT
    eps_hi = min(40.0 * kT, hbar_c * env.q_cutoff_per_nm)
    if eps_hi <= eps_lo:
        raise ValueError("spectral cutoff below the emission threshold")
    absorbed, weights = _gauss_legendre(eps_lo, eps_hi, n_nodes)

    emitted = absorbed - transition.eps_final_ueV  # energy conservation
    q_abs = absorbed / hbar_c
    q_em = emitted / hbar_c
    occupation = (bose_einstein(emitted, env.temperature_K) + 1.0) * bose_einstein(
        absorbed, env.temperature_K
    )
    coupling = np.asarray(branch.coupling_sq(q_em) * branch.coupling_sq(q_abs), dtype=float)
    vertices = angular_flip_weight(q_em, geom) * angular_flip_weight(q_abs, geom)

    if mode == "reduced":
        denom = (len(transition.intermediates) / kT) ** 2 * np.ones_like(absorbed)
    else:
        amplitude = np.zeros(absorbed.shape, dtype=complex)
        for eps_z in transition.eps_intermediates_ueV:
            amplitude += 1.0 / (eps_z - emitted + 1j * level_width_ueV)
        denom = np.abs(amplitude) ** 2

    phase_space = q_em**2 * q_abs**2 / hbar_c**2
    integrand = phase_space * coupling * vertices * occupation * denom
    return float(np.sum(weights * integrand))


def two_phonon_rate_per_s(
    transition: TransitionSpec,
    branch: PhononBranch,
    env: Environment,
    geom: DotGeometry,
    mode: str = "reduced",
    level_width_ueV: float | None = None,
) -> float:
    """Second-order two-phonon transition rate by quadrature.

    One thermal phonon is absorbed and one emitted; the energy-conserving
    delta collapses the emitted radial integral, leaving a single integral
    over the absorbed phonon energy with the three-dimensional acoustic
    density of states, the squared couplings of ``branch``, the
    orientation-averaged flip form factors, thermal occupations, and the
    virtual-state denominators.

    ``mode="reduced"`` replaces each denominator by the thermal energy
    (the high-temperature shortcut); ``mode="exact"`` keeps the
    denominators ``eps_z - eps_emitted`` with a small imaginary level
    width regularizing the on-shell crossing (default one percent of kT).

    The result is checked for quadrature convergence by doubling the node
    count; disagreement beyond 1% raises.  A warning flags the regime
    ``kT < 10 * delta_eps`` where the high-temperature reduction is dubious.
    """
    if mode not in ("reduced", "exact"):
        raise ValueError(f"mode must be 'reduced' or 'exact', got {mode!r}")
    kT = env.kT_ueV
    if kT < 10.0 * transition.delta_eps_ueV:
        warnings.warn(
            f"two-phonon model assumes kT >> level splitting; kT/deps = {kT / transition.delta_eps_ueV:.3g}",
            RuntimeWarning,
            stacklevel=2,
        )
    if branch.coupling_constant == 0.0:
        return 0.0
    width = 0.01 * kT if level_width_ueV is None else float(level_width_ueV)
    if mode == "exact" and width <= 0.0:
        raise ValueError("exact mode needs a positive level width")

    coarse = _two_phonon_integral(transition, branch, env, geom, mode, width, env.resolution)
    fine = _two_phonon_integral(transition, branch, env, geom, mode, width, 2 * env.resolution)
    scale = max(abs(fine), abs(coarse))
    if scale > 0.0 and abs(fine - coarse) > 0.01 * scale:
        raise RuntimeError(
            f"two-phonon quadrature not converged at resolution {env.resolution}: "
            f"{coarse!r} vs {fine!r}"
        )
    # 2*pi/hbar in 1/(ueV ns) times 1e9 ns/s.
    return float(2.0 * np.pi / HBAR_UEV_NS * fine * 1e9)


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
    softening_nm: float | None = None,
) -> dict[str, float]:
    """Two-electron Coulomb matrix elements of the reduced 1-dim model.

    Each electron lives on its own DQD axis with Gaussian site orbitals at
    ``+-d/2``; the electrons interact through the softened kernel
    ``1/sqrt((x1-x2)^2 + w^2)`` (default ``w = a/10``).  Transitions that
    flip a single DQD (``|+-> -> |++>`` or ``|-->``) integrate an odd
    function and vanish within quadrature error; the double flip
    (``|+-> -> |-+>``) survives.  Convergence is certified by halving the
    resolution; the reported error bound covers both elements.
    """
    if not 16 <= resolution <= MAX_SELECTION_RESOLUTION:
        raise ValueError(
            f"resolution must be in 16..{MAX_SELECTION_RESOLUTION}, got {resolution!r}"
        )
    w = geom.a_nm / 10.0 if softening_nm is None else float(softening_nm)
    if w <= 0.0:
        raise ValueError("softening width must be positive")

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

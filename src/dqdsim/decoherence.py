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

from .constants import HBAR_UEV_NS, K_B_UEV_PER_K, MAX_RESOLUTION, MAX_SELECTION_RESOLUTION
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
    "DotGeometry",
    "validity_edge_K",
    "bose_einstein",
    "single_phonon_tau_s",
    "angular_flip_weight",
    "TwoPhononRate",
    "two_phonon_rates_per_s",
    "fit_scaling_exponent",
    "coulomb_selection_rule",
]

#: Node counts whose Gauss-Legendre rule stays cached.  Holds with room to
#: spare the counts of rate sweeps at n = 128..512 (n and 2n each), of
#: selection sweeps at n = 400..1600 and of the selection reference (256 and
#: 512, shared with the default rate sweep), each of which takes an O(n^2)
#: Newton build (about 20 ms at n = 800), and bounds the cache at
#: 32 * 3200 * 16 B, about 1.6 MB, however many resolutions a process sweeps.
LEGENDRE_CACHE_SIZE = 32

#: Newton steps ``_legendre_nodes`` may take; from Tricomi's guesses it
#: stops within four at every n up to 3200.
_NEWTON_STEPS = 10

#: Relative size below which a quadrature's change with resolution is
#: rounding noise: once a rule has converged, node changes of an ulp moved
#: the two-phonon difference by up to 45x.  Both error estimates are
#: floored at this fraction of the value they bound.
_ROUNDING_FLOOR = 1e-13

#: Kernel elements per column block of ``coulomb_selection_rule``; bounds each
#: block at 1 MB whatever the resolution.  Selection time was flat from 2**16
#: to 2**21 elements.
_KERNEL_ELEMENTS = 1 << 17

#: Node counts of the selection rule's one-dimensional reference and of the
#: finer rule it must agree with: the default rate sweep's two counts, so a
#: process that has run one builds no nodes for the other.
_REFERENCE_NODES = (256, 512)

#: Orbital widths past the far peak ``u = d`` where the reference integral
#: stops; the autocorrelation there is below exp(-50) of its peak.
_REFERENCE_SPAN = 10.0

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


def bose_einstein(eps_ueV: np.ndarray | float,
                  temperature_K: np.ndarray | float) -> np.ndarray | float:
    """Thermal phonon occupation at energy ``eps``; both may be arrays that broadcast."""
    if not np.all(np.asarray(temperature_K) > 0.0):
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
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only and shared.

    Newton iteration on ``P_n``, evaluated by its three-term recurrence and
    vectorised over the ``ceil(n/2)`` nonnegative nodes, started from
    Tricomi's asymptotic guesses (Hale & Townsend, SIAM J. Sci. Comput.
    35(2), 2013).  Once a step moves no node by more than 2 eps, one more
    recurrence pass gives ``P_n'`` at the converged nodes and the weights
    ``2 / ((1 - x^2) P_n'(x)^2)``.  The negative half is the exact mirror;
    for odd ``n`` the middle node is 0.0.  O(n^2) time, O(n) memory.  Raises
    ``RuntimeError`` naming ``n`` if ``_NEWTON_STEPS`` steps do not converge.
    """
    m = (n + 1) // 2
    theta = np.pi * (4 * np.arange(m, 0, -1) - 1) / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)) \
        * np.cos(theta)
    if n % 2:
        x[0] = 0.0  # a root of every odd P_n, which the iteration keeps
    step = np.inf
    # Each pass evaluates P_n at x; the pass after a step of at most 2 eps
    # only feeds the weights.
    for _ in range(_NEWTON_STEPS + 1):
        p_prev, p = np.ones_like(x), x
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        one_minus_sq = (1.0 - x) * (1.0 + x)
        slope = n * (p_prev - x * p)  # (1 - x^2) P_n'(x)
        if np.max(np.abs(step)) <= 2.0 * np.finfo(float).eps:
            break
        step = p * one_minus_sq / slope
        x = x - step
    else:
        raise RuntimeError(f"Gauss-Legendre nodes not converged for n = {n}")
    w = 2.0 * one_minus_sq / (slope * slope)
    x = np.concatenate([-x[n % 2:][::-1], x])
    w = np.concatenate([w[n % 2:][::-1], w])
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_legendre(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _legendre_nodes(int(n))
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _two_phonon_integrals(
    delta_eps_ueV: float,
    branch: PhononBranch,
    temperature_K: np.ndarray,
    geom: DotGeometry,
    mode: str,
    n_nodes: int,
) -> np.ndarray:
    """The rate integral at every temperature of the ``(T, 1)`` column, one row each.

    Every row takes the same floating-point operations as a one-row column.
    """
    kT = temperature_K * K_B_UEV_PER_K
    eps_lo = 1e-9 * kT
    eps_hi = np.minimum(40.0 * kT, HBAR_C_UEV_NM * Q_CUTOFF_PER_NM)
    if np.any(eps_hi <= eps_lo):
        raise ValueError("spectral cutoff below the emission threshold")
    # The final state is degenerate with the initial one, so the emitted
    # phonon carries the absorbed energy and both vertices share each factor.
    eps, weights = _gauss_legendre(eps_lo, eps_hi, n_nodes)
    q = eps / HBAR_C_UEV_NM
    n = bose_einstein(eps, temperature_K)
    occupation = (n + 1.0) * n
    c = branch.coupling_sq(q)
    w = angular_flip_weight(q, geom)

    if mode == "reduced":
        # Python's float power, as on a lone float: numpy's ** 2 squares, which can round apart
        denom = np.array([(2.0 / k) ** 2 for k in kT[:, 0].tolist()])[:, None]
    else:
        width = 1j * (0.01 * kT)
        amplitude = np.zeros(eps.shape, dtype=complex)
        for eps_z in (-delta_eps_ueV, delta_eps_ueV):
            amplitude += 1.0 / (eps_z - eps + width)
        denom = np.abs(amplitude) ** 2

    phase_space = q**2 * q**2 / HBAR_C_UEV_NM**2
    integrand = phase_space * (c * c) * (w * w) * occupation * denom
    return np.sum(weights * integrand, axis=-1)


class TwoPhononRate(NamedTuple):
    """Two-phonon rate at ``2 * resolution`` nodes and its quadrature error.

    ``est_error_per_s`` is the difference between the rates at ``2 * resolution``
    and at ``resolution`` nodes, floored at ``1e-13`` of the rate: a smaller
    difference is rounding noise, not a quadrature error the rule resolves.
    """

    rate_per_s: float
    est_error_per_s: float


def two_phonon_rates_per_s(
    delta_eps_ueV: float,
    branch: PhononBranch,
    temperatures_K: Iterable[float],
    geom: DotGeometry,
    mode: str = "reduced",
    resolution: int = 256,
) -> list[TwoPhononRate]:
    """Second-order two-phonon transition rates over a temperature grid.

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

    The inputs are checked once, before anything is integrated, also for an
    empty grid: ``mode``, ``delta_eps_ueV``, each temperature in grid order
    (finite and at least :data:`MIN_TEMPERATURE_K`), then ``resolution``.
    The grid is one ``(T, resolution)`` and one ``(T, 2 * resolution)``
    array; each row is bitwise the rate of a one-temperature grid.  Each
    rate is checked for quadrature convergence by doubling the node count;
    disagreement beyond 1% raises, and the difference, floored at 1e-13 of
    the rate, is returned as the error estimate.  A warning flags
    temperatures below :func:`validity_edge_K`, where the high-temperature
    reduction is dubious; the edge itself is inside.  Warnings and the
    convergence check go in grid order.
    """
    if mode not in ("reduced", "exact"):
        raise ValueError(f"mode must be 'reduced' or 'exact', got {mode!r}")
    edge = validity_edge_K(delta_eps_ueV)
    temperatures = list(temperatures_K)
    for t in temperatures:
        if not MIN_TEMPERATURE_K <= t < np.inf:
            raise ValueError(f"temperature_K must be finite and at least {MIN_TEMPERATURE_K}, "
                             f"got {t!r}")
    resolution = require_count("resolution", resolution, 8, MAX_RESOLUTION)
    if not temperatures:
        return []
    column = np.array(temperatures, dtype=float)[:, None]
    coarse_rows = _two_phonon_integrals(delta_eps_ueV, branch, column, geom, mode, resolution)
    fine_rows = _two_phonon_integrals(delta_eps_ueV, branch, column, geom, mode, 2 * resolution)
    rates = []
    for t, coarse, fine in zip(temperatures, coarse_rows.tolist(), fine_rows.tolist()):
        if t < edge:
            warnings.warn(
                "two-phonon model assumes kT >> level splitting; "
                f"kT/deps = {t * K_B_UEV_PER_K / delta_eps_ueV:.3g}",
                RuntimeWarning,
                stacklevel=2,
            )
        scale = max(abs(fine), abs(coarse))
        if scale > 0.0 and abs(fine - coarse) > 0.01 * scale:
            raise RuntimeError(
                f"two-phonon quadrature not converged at resolution {resolution}: "
                f"{coarse!r} vs {fine!r}"
            )
        # 2*pi/hbar in 1/(ueV ns) times 1e9 ns/s.
        rate = float(2.0 * np.pi / HBAR_UEV_NS * fine * 1e9)
        rate_coarse = float(2.0 * np.pi / HBAR_UEV_NS * coarse * 1e9)
        rates.append(TwoPhononRate(rate, max(abs(rate - rate_coarse), _ROUNDING_FLOOR * abs(rate))))
    return rates


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


def _selection_densities(
    x: np.ndarray, wq: np.ndarray, geom: DotGeometry
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted densities at the nodes: the flip ``wq plus minus``, odd, and the
    unflipped bra's ``wq plus^2`` and ``wq minus^2``, even.

    On nodes that mirror exactly, ``right`` is ``left`` reversed bit for bit,
    so ``plus`` is bitwise even and ``minus`` bitwise odd.
    """
    a = geom.a_nm
    norm = (np.pi * a * a) ** -0.25
    left = norm * np.exp(-((x + geom.d_nm / 2.0) ** 2) / (2.0 * a * a))
    right = norm * np.exp(-((x - geom.d_nm / 2.0) ** 2) / (2.0 * a * a))
    s = geom.overlap
    plus = (left + right) / np.sqrt(2.0 * (1.0 + s))
    minus = (left - right) / np.sqrt(2.0 * (1.0 - s))
    return wq * plus * minus, wq * plus * plus, wq * minus * minus


def _selection_reference(geom: DotGeometry, n: int) -> float:
    """The allowed element as a one-dimensional integral, on ``n`` nodes.

    The flip density is ``(g(x + d/2) - g(x - d/2)) / (2 sqrt(1 - S^2))``
    with ``g`` a normalized Gaussian of variance ``a^2 / 2``, so its
    autocorrelation is ``C(u) = [2G(u) - G(u-d) - G(u+d)] / (4 (1 - S^2))``,
    ``G`` the normalized Gaussian of variance ``a^2``, and the allowed
    element is ``2 * int_0^inf C(u) / sqrt(u^2 + w^2) du``.  The sinh
    substitution ``u = w sinh t`` (Johnston & Elliott, IJNME 62, 2005) turns
    the kernel's peak into ``du / sqrt(u^2 + w^2) = dt``; the range stops
    ``_REFERENCE_SPAN`` widths past ``u = d``, and dots more than twice that
    apart get one panel per peak, skipping the stretch where C is nil.  Each
    difference of Gaussians is the larger one times an ``expm1`` of the
    exponents' difference, and ``1 - S^2 = -expm1(-d^2 / (2 a^2))``, so no
    step cancels, however close the dots.
    """
    d, a = geom.d_nm, geom.a_nm
    w = a / 10.0
    span = _REFERENCE_SPAN * a
    ranges = [(0.0, d + span)] if d <= 2.0 * span else [(0.0, span), (d - span, d + span)]
    two_a_sq = 2.0 * a * a

    def gauss(v: np.ndarray) -> np.ndarray:
        return np.exp(-v * v / two_a_sq) / (a * np.sqrt(2.0 * np.pi))

    total = 0.0
    for lo, hi in ranges:
        t, wt = _gauss_legendre(float(np.arcsinh(lo / w)), float(np.arcsinh(hi / w)), n)
        u = w * np.sinh(t)
        g = gauss(u)
        z = d * (2.0 * u - d) / two_a_sq  # G(u - d) = G(u) exp(z)
        near = -g * np.expm1(np.minimum(z, 0.0)) + gauss(u - d) * np.expm1(-np.maximum(z, 0.0))
        far = -g * np.expm1(-d * (2.0 * u + d) / two_a_sq)  # G(u) - G(u + d), as u >= 0
        total += float(wt @ (near + far))  # near + far = 2G(u) - G(u - d) - G(u + d)
    return 2.0 * total / (-4.0 * np.expm1(-d * d / two_a_sq))


def coulomb_selection_rule(
    geom: DotGeometry,
    resolution: int = 800,
) -> dict[str, float]:
    """Two-electron Coulomb matrix elements of the reduced 1-dim model.

    Each electron lives on its own DQD axis with Gaussian site orbitals at
    ``+-d/2``; the electrons interact through the softened kernel
    ``1/sqrt((x1-x2)^2 + w^2)`` with ``w = a/10``.  The double flip
    (``|+-> -> |-+>``) is the allowed element; transitions that flip a
    single DQD (``|+-> -> |++>`` or ``|-->``) integrate an odd function and
    are forbidden.

    The Gauss-Legendre nodes mirror exactly and the flip density is odd
    (``RuntimeError`` if it is not, bit for bit), so the potential of the
    flip density is odd too.  One pass over the kernel rows of the ``n // 2``
    negative nodes, in column blocks of at most ``_KERNEL_ELEMENTS``
    elements, gives it: memory grows as n and time as n^2 / 2.  The allowed
    element is twice the half sum.  Each mirror pair adds
    ``(stay_i - stay_mirror_i) * potential_i`` to a forbidden element, which
    is therefore exactly 0 for the even densities of the unflipped bra and
    nonzero for an asymmetric one.

    ``error_bound`` is the true error of the allowed element against its
    one-dimensional reduction (:func:`_selection_reference`, on the 256-node
    rule, which must agree with the 512-node rule to 1e-13), floored at
    1e-13 of the allowed element; an error above 1% raises.  The report
    carries the reference as ``allowed_reference_abs``.
    """
    resolution = require_count("resolution", resolution, 16, MAX_SELECTION_RESOLUTION)
    n, h = resolution, resolution // 2
    half_width = geom.d_nm / 2.0 + 8.0 * geom.a_nm
    x, wq = _gauss_legendre(-half_width, half_width, n)
    flip, stay_p, stay_m = _selection_densities(x, wq, geom)
    if not np.array_equal(flip, -flip[::-1]):
        raise RuntimeError("selection-rule flip density is not odd on the mirrored nodes")
    w = geom.a_nm / 10.0
    potential = np.zeros(h)  # of the flip density, at the nodes x < 0
    cols = max(1, _KERNEL_ELEMENTS // h)
    buffer = np.empty(h * min(cols, n))  # one block's kernel, filled in place
    for lo in range(0, n, cols):
        hi = min(lo + cols, n)
        kernel = buffer[:h * (hi - lo)].reshape(h, hi - lo)  # contiguous, as a fresh array
        np.subtract(x[:h, None], x[None, lo:hi], out=kernel)
        np.multiply(kernel, kernel, out=kernel)
        kernel += w * w
        np.sqrt(kernel, out=kernel)
        np.divide(1.0, kernel, out=kernel)  # 1 / sqrt((x_i - x_j)^2 + w^2)
        potential += kernel @ flip[lo:hi]
    allowed = 2.0 * float(flip[:h] @ potential)
    forbidden_pp = float((stay_p[:h] - stay_p[::-1][:h]) @ potential)
    forbidden_mm = float((stay_m[:h] - stay_m[::-1][:h]) @ potential)

    reference, fine = (_selection_reference(geom, m) for m in _REFERENCE_NODES)
    if abs(reference - fine) > _ROUNDING_FLOOR * abs(fine):
        raise RuntimeError(f"selection-rule reference not converged: {reference!r} vs {fine!r}")
    error = abs(allowed - reference)
    if abs(allowed) == 0.0 or error > 0.01 * abs(allowed):
        raise RuntimeError(
            f"selection-rule quadrature not converged at resolution {resolution}"
        )
    error_bound = max(error, _ROUNDING_FLOOR * abs(allowed))
    return {
        "allowed_abs": abs(allowed),
        "allowed_reference_abs": abs(reference),
        "forbidden_pp_abs": abs(forbidden_pp),
        "forbidden_mm_abs": abs(forbidden_mm),
        "error_bound": error_bound,
        "ratio_allowed_to_bound": abs(allowed) / error_bound,
        "resolution": float(resolution),
    }

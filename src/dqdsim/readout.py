"""Charge readout and initialization of a single DQD space-state qubit.

To measure which of ``|+>`` / ``|->`` a DQD occupies, the readout pulse
tilts the double dot (bias) while keeping a tunnel coupling on, so the
space states beat against the localized dot states and the charge
distribution starts to oscillate; a charge sensor then distinguishes the
electron sitting in the left versus right dot.  In the dot basis
``{|L>, |R>}`` the readout Hamiltonian is

    H = t_c * sigma_x + (bias / 2) * sigma_z

with ``|+> = (|L> + |R>)/sqrt(2)`` and ``|-> = (|L> - |R>)/sqrt(2)``.
Everything here is the closed-form dynamics of that two-level system,
evaluated on a sampling grid, so traces are grid-independent: halving the
timestep reproduces the same values at shared sample times to roundoff.

Initialization runs the readout unitary backwards: starting from a charge
eigenstate (prepared by letting the biased DQD relax), the inverse of the
readout evolution maps it onto the wanted space state with exactly the
fidelity the forward readout would resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import HBAR_UEV_NS, MAX_BIAS_SAMPLES, MAX_TRACE_SAMPLES
from .linalg import require_count, require_float

__all__ = [
    "MAX_TRACE_SAMPLES",
    "MAX_BIAS_SAMPLES",
    "ReadoutConfig",
    "rabi_frequency",
    "readout_unitary",
    "readout_traces",
    "propagator_error",
    "OptimalReadout",
    "ReadoutTraces",
    "scan_bias",
    "InitPlan",
    "init_by_reversed_readout",
]

#: Transformation from the space-state basis (+,-) to the dot basis (L,R), and back.
_TO_DOT_BASIS = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

_INITIAL_SPACE_STATES = ("plus", "minus")  # the populations' plus/minus axis

# How far scan_bias lets the kernel's contrast exceed its closed-form bound
# (_contrast_bounds).  The two share E and the ratios bit for bit, so the
# excess is the roundoff of 1/2 +/- x (at most 1.1e-16 over 3,000 random
# scans); the slack is far above it.
_SCREEN_SLACK = 1e-12


@dataclass(frozen=True)
class ReadoutConfig:
    """Readout pulse parameters; energies ueV, times ns."""

    tunnel_coupling_ueV: float
    bias_ueV: float
    duration_ns: float
    timestep_ns: float

    def __post_init__(self) -> None:
        # Scalar math: float products and math.hypot overflow to inf silently.
        values = []
        for name in ("tunnel_coupling_ueV", "bias_ueV", "duration_ns", "timestep_ns"):
            values.append(require_float(name, getattr(self, name)))
            if not math.isfinite(values[-1]):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        tunnel_coupling, bias, duration, _ = values
        if tunnel_coupling < 0.0:
            raise ValueError("tunnel coupling must be >= 0")
        omega = 2.0 * math.hypot(tunnel_coupling, bias / 2.0) / HBAR_UEV_NS
        if not math.isfinite(omega):
            raise ValueError(
                f"tunnel_coupling_ueV = {self.tunnel_coupling_ueV!r} and bias_ueV = "
                f"{self.bias_ueV!r} give a Rabi frequency outside the float range"
            )
        if not duration > 0.0:
            raise ValueError("duration must be positive")
        if not math.isfinite(omega * duration):
            raise ValueError(
                f"duration_ns = {self.duration_ns!r} gives a readout phase outside the float range"
            )
        if not 0.0 < self.timestep_ns <= self.duration_ns:
            raise ValueError("timestep must be positive and at most the duration")
        # _sample_times takes floor(duration / timestep + 1e-9) + 1 samples.
        if not self.duration_ns / self.timestep_ns + 1e-9 < MAX_TRACE_SAMPLES:
            raise ValueError(
                f"duration_ns / timestep_ns gives more than {MAX_TRACE_SAMPLES} samples"
            )


def _mixing(tunnel_coupling_ueV: float, biases_ueV: np.ndarray | float) -> tuple:
    """Level energy ``E = hypot(t_c, bias / 2)`` (half the level splitting,
    ueV) and the ratios ``t_c / E`` and ``(bias / 2) / E``, per bias.

    Each ratio is at most one, so nothing overflows.  At ``E = 0`` both
    ratios are 0: the Hamiltonian vanishes and nothing evolves.  One float
    bias gives three Python floats, bitwise the entries an array of biases
    gives: ``E`` still comes from ``np.hypot``, whose last bit ``math.hypot``
    does not always match.
    """
    if isinstance(biases_ueV, float):
        half_bias = float(biases_ueV) / 2.0
        energy = float(np.hypot(tunnel_coupling_ueV, half_bias))
        scale = energy if energy > 0.0 else 1.0
        return energy, float(tunnel_coupling_ueV) / scale, half_bias / scale
    half_bias = np.asarray(biases_ueV, dtype=float) / 2.0
    energy = np.hypot(tunnel_coupling_ueV, half_bias)
    scale = np.where(energy > 0.0, energy, 1.0)
    return energy, tunnel_coupling_ueV / scale, half_bias / scale


def rabi_frequency(config: ReadoutConfig) -> float:
    """Angular frequency (rad/ns) of the charge oscillation."""
    return 2.0 * _mixing(config.tunnel_coupling_ueV, float(config.bias_ueV))[0] / HBAR_UEV_NS


def _sample_times(config: ReadoutConfig) -> np.ndarray:
    n = math.floor(config.duration_ns / config.timestep_ns + 1e-9)
    return np.arange(n + 1) * config.timestep_ns


def readout_unitary(config: ReadoutConfig, t_ns: float) -> np.ndarray:
    """Propagator in the dot basis after ``t_ns`` of readout evolution.

    ``H`` is traceless with ``H^2 = E^2 I``, so ``exp(-i H t / hbar)`` is
    ``cos(theta) I - i sin(theta) H / E`` with ``theta = E t / hbar``; at
    ``E = 0`` it is the identity.  The entries are Python floats from
    ``math.cos`` and ``math.sin``, in the products numpy's
    ``cos * eye(2) - 1j * sin * (H / E)`` takes, and equal it entry for entry.
    """
    energy, coupling, half_bias = _mixing(config.tunnel_coupling_ueV, float(config.bias_ueV))
    theta = energy * t_ns / HBAR_UEV_NS
    cos, i_sin = math.cos(theta), 1j * math.sin(theta)
    off_diagonal = -(i_sin * coupling)
    return np.array([[cos - i_sin * half_bias, off_diagonal],
                     [off_diagonal, cos - i_sin * -half_bias]])


def _left_populations(tunnel_coupling_ueV: float, bias_ueV: float, times: np.ndarray) -> np.ndarray:
    """Left-dot populations of ``|+>`` and ``|->`` under one readout Hamiltonian.

    In closed form ``P_L(+/-) = 1/2 +/- x`` with
    ``x = (t_c / E) ((bias / 2) / E) sin^2(E t / hbar)``; ``E`` and the
    ratios are Python floats from :func:`_mixing`.  Every value is computed
    on its own, so it is bitwise that of a one-state evaluation.  A readout
    pulse, an init and each bias a scan evaluates take this one pass.

    Args:
        tunnel_coupling_ueV: tunnel coupling.
        bias_ueV: bias.
        times: sample times (ns), shape ``(n_t,)``.

    Returns:
        ``p_left`` of shape ``(2, n_t)``, plus then minus.
    """
    energy, coupling, half_bias = _mixing(tunnel_coupling_ueV, float(bias_ueV))
    sine = np.sin(energy * times / HBAR_UEV_NS)
    swing = coupling * half_bias * (sine * sine)
    p_left = np.empty((2, len(times)))
    np.add(0.5, swing, out=p_left[0])
    np.subtract(0.5, swing, out=p_left[1])
    return p_left


class OptimalReadout(NamedTuple):
    time_ns: float
    distinguishability: float

    @property
    def degenerate(self) -> bool:
        """Whether the readout cannot tell the states apart: contrast below 1e-12."""
        return self.distinguishability < 1e-12


class ReadoutTraces(NamedTuple):
    """One pulse's readout: sample times, the left-dot populations of
    ``|+>`` and ``|->`` (rows of ``p_left``, shape ``(2, n)``), the best
    measurement and the index of its sample."""

    times_ns: np.ndarray
    p_left: np.ndarray
    best: OptimalReadout
    best_sample: int


def _optimum(times: np.ndarray, p_left: np.ndarray) -> tuple[int, OptimalReadout]:
    """Index and optimum of the earliest largest ``|P_L(+) - P_L(-)|`` of one
    Hamiltonian's populations, shape ``(2, n_t)``."""
    contrast = np.abs(p_left[0] - p_left[1])
    k = int(contrast.argmax())
    return k, OptimalReadout(float(times[k]), float(contrast[k]))


def readout_traces(config: ReadoutConfig) -> ReadoutTraces:
    """Both space states' traces and their optimum, in closed form.

    The optimum is the sample time maximizing the left-dot occupation
    contrast ``|P_L(plus) - P_L(minus)|``; ties resolve to the earliest
    sample.  With zero bias both space states are stationary and the
    contrast is identically zero (degenerate readout).
    """
    times = _sample_times(config)
    p_left = _left_populations(config.tunnel_coupling_ueV, config.bias_ueV, times)
    k, best = _optimum(times, p_left)
    return ReadoutTraces(times, p_left, best, k)


def propagator_error(config: ReadoutConfig, traces: ReadoutTraces) -> float:
    """Largest ``|P_L - |(U psi)_L|^2|`` over ``|+>`` and ``|->`` at the measurement time.

    ``P_L`` is ``traces``' populations at the optimum's sample and ``U`` is
    :func:`readout_unitary` there: the kernel's populations against the
    propagator's, two ways to the same number.
    """
    left = np.abs((readout_unitary(config, traces.best.time_ns) @ _TO_DOT_BASIS)[0]) ** 2
    return float(np.abs(traces.p_left[:, traces.best_sample] - left).max())


def _contrast_bounds(
    tunnel_coupling_ueV: float, biases_ueV: np.ndarray, window_ns: float
) -> np.ndarray:
    """Largest contrast each bias reaches over ``[0, window_ns]``, in closed form.

    The contrast is ``K sin^2(E t / hbar)`` with ``E`` the level energy and
    ``K = 2 (t_c / E) (|bias| / 2 / E)``, twice the kernel's ``|x|`` factor;
    ``sin^2`` grows until ``E t / hbar = pi / 2``.
    """
    energy, coupling, half_bias = _mixing(tunnel_coupling_ueV, biases_ueV)
    k = 2.0 * coupling * np.abs(half_bias)
    return k * np.sin(np.minimum(energy * window_ns / HBAR_UEV_NS, np.pi / 2.0)) ** 2


def scan_bias(
    tunnel_coupling_ueV: float,
    duration_ns: float,
    timestep_ns: float,
    n_bias: int = 40,
) -> tuple[float, OptimalReadout]:
    """Search biases in ``(0, 4 t_c]`` for the best space-state contrast.

    The contrast is perfect when the bias matches twice the tunnel
    coupling, where the space states map onto charge eigenstates after
    half a Rabi period, so the scan grid includes that point.  The first
    bias beating every earlier one by more than 1e-15 wins; it is returned
    (ueV) with its optimum.

    A screen spares the kernel most biases.  Over the sampled window, bias
    ``j`` reaches at most ``U_j = K_j sin^2(min(E_j T / hbar, pi / 2))``
    (:func:`_contrast_bounds`); the kernel's contrast may exceed it by
    ``_SCREEN_SLACK`` = 1e-12 at most.  The kernel evaluates the bias of
    largest ``U``, whose contrast is ``D*``, then the other biases with
    ``U_j >= D* - 2e-15 - _SCREEN_SLACK`` in index order, one bias per
    pass, as a readout pulse takes it.  Every bias it skips is more than
    2e-15 below ``D*``.  Unless a survivor beats that ceiling and every
    earlier survivor by more than 1e-15, the skipped biases are evaluated
    too, so the answer is bitwise that of evaluating every bias.  No bias
    is evaluated twice.
    """
    if not tunnel_coupling_ueV > 0.0:
        raise ValueError("tunnel coupling must be positive for a bias scan")
    n_bias = require_count("n_bias", n_bias, 2, MAX_BIAS_SAMPLES)
    # The Rabi frequency and the end phase grow with |bias|, so the largest
    # bias's config rejects every pulse that a smaller one would, and every
    # grid it accepts is finite.  The largest bias is the grid's last entry,
    # in the same operations; as a Python float it overflows to inf silently.
    largest = 4.0 * float(tunnel_coupling_ueV) * n_bias / n_bias
    pulse = ReadoutConfig(tunnel_coupling_ueV, largest, duration_ns, timestep_ns)
    biases = 4.0 * tunnel_coupling_ueV * np.arange(1, n_bias + 1) / n_bias
    times = _sample_times(pulse)
    bounds = _contrast_bounds(tunnel_coupling_ueV, biases, times[-1])
    top = int(bounds.argmax())

    def optimum(i: int) -> OptimalReadout:
        return _optimum(times, _left_populations(tunnel_coupling_ueV, biases[i], times))[1]

    found = {top: optimum(top)}
    floor = found[top].distinguishability - 2e-15 - _SCREEN_SLACK
    survivors = (bounds >= floor).nonzero()[0].tolist()
    found.update((i, optimum(i)) for i in survivors if i != top)
    # A skipped bias lies below `ceiling`, yet it may hold the lead when a
    # survivor comes up.  The first survivor beating `ceiling` and every
    # earlier survivor by more than 1e-15 takes the lead whatever the skipped
    # biases hold, and no skipped bias can retake it.
    ceiling = floor + _SCREEN_SLACK
    for i in survivors:
        if found[i].distinguishability > ceiling + 1e-15:
            break
        ceiling = max(ceiling, found[i].distinguishability)
    else:
        found.update((i, optimum(i)) for i in (bounds < floor).nonzero()[0].tolist())
    best_i = min(found)
    for i in sorted(found):
        if found[i].distinguishability > found[best_i].distinguishability + 1e-15:
            best_i = i
    return float(biases[best_i]), found[best_i]


@dataclass(frozen=True)
class InitPlan:
    """Recipe for preparing a space state by running readout backwards.

    ``forward_probability`` is the forward readout's population of the
    source dot at ``duration_ns``, read from the readout kernel's trace;
    ``fidelity`` comes from the inverse of the readout unitary.  By
    unitarity the two agree, so comparing them checks one path against
    the other.  ``degenerate`` is the forward readout's: then no time
    steers the states apart, and the plan prepares nothing.
    """

    target: str
    source_dot: str
    bias_ueV: float
    tunnel_coupling_ueV: float
    duration_ns: float
    fidelity: float
    forward_probability: float
    degenerate: bool


def init_by_reversed_readout(config: ReadoutConfig, target: str = "plus") -> InitPlan:
    """Prepare ``|+>`` or ``|->`` from a relaxed charge eigenstate.

    Uses the optimal forward readout time: the charge state that the
    forward readout would steer the target into is taken as the source,
    and the inverse readout unitary maps it back.  By unitarity the
    preparation fidelity equals the forward population of the source dot
    at that moment, which is taken from the kernel's trace.
    """
    if target not in _INITIAL_SPACE_STATES:
        raise ValueError(f"target must be 'plus' or 'minus', got {target!r}")
    _, populations, best, k = readout_traces(config)
    state = _INITIAL_SPACE_STATES.index(target)
    p_left = float(populations[state, k])
    source = 0 if p_left >= 0.5 else 1
    source_dot = "LR"[source]
    # U^dagger |source> is the conjugate of U's source row, and _TO_DOT_BASIS
    # (real and symmetric) takes it to the space basis.
    u = readout_unitary(config, best.time_ns)
    fidelity = float(np.abs((_TO_DOT_BASIS @ u[source].conj())[state]) ** 2)
    return InitPlan(
        target=target,
        source_dot=source_dot,
        bias_ueV=config.bias_ueV,
        tunnel_coupling_ueV=config.tunnel_coupling_ueV,
        duration_ns=best.time_ns,
        fidelity=fidelity,
        forward_probability=p_left if source_dot == "L" else 1.0 - p_left,
        degenerate=best.degenerate,
    )

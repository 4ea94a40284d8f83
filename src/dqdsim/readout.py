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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import HBAR_UEV_NS, K_B_UEV_PER_K
from .linalg import expm_hermitian

__all__ = [
    "MAX_TRACE_SAMPLES",
    "MAX_BIAS_SAMPLES",
    "ReadoutConfig",
    "ReadoutTrace",
    "rabi_frequency",
    "readout_unitary",
    "readout_trace",
    "OptimalReadout",
    "optimal_measurement_time",
    "scan_bias",
    "thermal_occupancy",
    "InitPlan",
    "init_by_reversed_readout",
]

#: Transformation from the space-state basis (+,-) to the dot basis (L,R).
_TO_DOT_BASIS = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

_INITIAL_SPACE_STATES = {
    "plus": np.array([1.0, 0.0], dtype=complex),
    "minus": np.array([0.0, 1.0], dtype=complex),
}

#: Largest number of samples ``duration / timestep`` may give a trace.
MAX_TRACE_SAMPLES = 100_000

#: Largest number of biases :func:`scan_bias` evaluates.
MAX_BIAS_SAMPLES = 1000


@dataclass(frozen=True)
class ReadoutConfig:
    """Readout pulse parameters; energies ueV, times ns."""

    tunnel_coupling_ueV: float
    bias_ueV: float
    duration_ns: float
    timestep_ns: float

    def __post_init__(self) -> None:
        for name in ("tunnel_coupling_ueV", "bias_ueV", "duration_ns", "timestep_ns"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.tunnel_coupling_ueV < 0.0:
            raise ValueError("tunnel coupling must be >= 0")
        if not self.duration_ns > 0.0:
            raise ValueError("duration must be positive")
        if not 0.0 < self.timestep_ns <= self.duration_ns:
            raise ValueError("timestep must be positive and at most the duration")
        # _sample_times takes floor(duration / timestep + 1e-9) + 1 samples.
        if not self.duration_ns / self.timestep_ns + 1e-9 < MAX_TRACE_SAMPLES:
            raise ValueError(
                f"duration_ns / timestep_ns gives more than {MAX_TRACE_SAMPLES} samples"
            )


@dataclass(frozen=True)
class ReadoutTrace:
    """Sampled left-dot occupation during a readout pulse.

    ``norm_error`` is the largest deviation of the total probability from
    one across the samples — a direct conservation check on the evolution.
    """

    times_ns: np.ndarray
    p_left: np.ndarray
    initial: str
    norm_error: float


def _hamiltonian_dot_basis(config: ReadoutConfig) -> np.ndarray:
    t_c = config.tunnel_coupling_ueV
    half_bias = config.bias_ueV / 2.0
    return np.array([[half_bias, t_c], [t_c, -half_bias]], dtype=complex)


def rabi_frequency(config: ReadoutConfig) -> float:
    """Angular frequency (rad/ns) of the charge oscillation."""
    energy = np.hypot(config.tunnel_coupling_ueV, config.bias_ueV / 2.0)
    return float(2.0 * energy / HBAR_UEV_NS)


def _sample_times(config: ReadoutConfig) -> np.ndarray:
    n = int(np.floor(config.duration_ns / config.timestep_ns + 1e-9))
    return np.arange(n + 1) * config.timestep_ns


def readout_unitary(config: ReadoutConfig, t_ns: float) -> np.ndarray:
    """Propagator in the dot basis after ``t_ns`` of readout evolution."""
    return expm_hermitian(_hamiltonian_dot_basis(config), t_ns / HBAR_UEV_NS)


def readout_trace(config: ReadoutConfig, initial: str = "plus") -> ReadoutTrace:
    """Left-dot occupation versus time for a space-state initial condition."""
    if initial not in _INITIAL_SPACE_STATES:
        raise ValueError(f"initial must be 'plus' or 'minus', got {initial!r}")
    psi0 = _TO_DOT_BASIS @ _INITIAL_SPACE_STATES[initial]
    h = _hamiltonian_dot_basis(config)
    eigvals, p = np.linalg.eigh(h)
    coeffs = p.conj().T @ psi0
    times = _sample_times(config)
    phases = np.exp(-1j * np.outer(times, eigvals) / HBAR_UEV_NS)
    amplitudes = phases * coeffs
    left = amplitudes @ p[0, :]  # component on |L> at every sample
    right = amplitudes @ p[1, :]
    total = np.abs(left) ** 2 + np.abs(right) ** 2
    norm_error = float(np.max(np.abs(total - 1.0)))
    return ReadoutTrace(times, np.abs(left) ** 2, initial, norm_error)


class OptimalReadout(NamedTuple):
    time_ns: float
    distinguishability: float


def optimal_measurement_time(config: ReadoutConfig) -> OptimalReadout:
    """Sample time maximizing the left-dot occupation contrast.

    The contrast is ``|P_L(plus) - P_L(minus)|``; ties resolve to the
    earliest sample.  With zero bias both space states are stationary and
    the contrast is identically zero (degenerate readout).
    """
    trace_plus = readout_trace(config, "plus")
    trace_minus = readout_trace(config, "minus")
    contrast = np.abs(trace_plus.p_left - trace_minus.p_left)
    k = int(np.argmax(contrast))
    return OptimalReadout(float(trace_plus.times_ns[k]), float(contrast[k]))


def scan_bias(
    tunnel_coupling_ueV: float,
    duration_ns: float,
    timestep_ns: float,
    n_bias: int = 40,
) -> tuple[ReadoutConfig, OptimalReadout]:
    """Search biases in ``(0, 4 t_c]`` for the best space-state contrast.

    The contrast is perfect when the bias matches twice the tunnel
    coupling, where the space states map onto charge eigenstates after
    half a Rabi period, so the scan grid includes that point.
    """
    if not tunnel_coupling_ueV > 0.0:
        raise ValueError("tunnel coupling must be positive for a bias scan")
    if not 2 <= n_bias <= MAX_BIAS_SAMPLES:
        raise ValueError(f"n_bias must be in 2..{MAX_BIAS_SAMPLES}, got {n_bias!r}")
    best: tuple[ReadoutConfig, OptimalReadout] | None = None
    for i in range(1, n_bias + 1):
        bias = 4.0 * tunnel_coupling_ueV * i / n_bias
        config = ReadoutConfig(tunnel_coupling_ueV, bias, duration_ns, timestep_ns)
        result = optimal_measurement_time(config)
        if best is None or result.distinguishability > best[1].distinguishability + 1e-15:
            best = (config, result)
    assert best is not None
    return best


def thermal_occupancy(deps_ueV: float, temperature_K: float) -> float:
    """Equilibrium population of the upper space level at splitting ``deps``."""
    if not deps_ueV > 0.0:
        raise ValueError("level splitting must be positive")
    if not temperature_K > 0.0:
        raise ValueError("temperature must be positive")
    x = deps_ueV / (K_B_UEV_PER_K * temperature_K)
    # exp(-x) never overflows for x > 0, unlike exp(x)
    e = np.exp(-x)
    return float(e / (1.0 + e))


@dataclass(frozen=True)
class InitPlan:
    """Recipe for preparing a space state by running readout backwards.

    ``forward_probability`` is the forward readout's population of the
    source dot at ``duration_ns``; by unitarity it equals ``fidelity``.
    """

    target: str
    source_dot: str
    bias_ueV: float
    tunnel_coupling_ueV: float
    duration_ns: float
    fidelity: float
    forward_probability: float


def init_by_reversed_readout(config: ReadoutConfig, target: str = "plus") -> InitPlan:
    """Prepare ``|+>`` or ``|->`` from a relaxed charge eigenstate.

    Uses the optimal forward readout time: the charge state that the
    forward readout would steer the target into is taken as the source,
    and the inverse readout unitary maps it back.  By unitarity the
    preparation fidelity equals the forward left-dot population (or
    right-dot, for the minus state) at that moment.
    """
    if target not in _INITIAL_SPACE_STATES:
        raise ValueError(f"target must be 'plus' or 'minus', got {target!r}")
    best = optimal_measurement_time(config)
    u = readout_unitary(config, best.time_ns)
    forward = u @ (_TO_DOT_BASIS @ _INITIAL_SPACE_STATES[target])
    p_left = float(np.abs(forward[0]) ** 2)
    source_dot = "L" if p_left >= 0.5 else "R"
    source_index = 0 if source_dot == "L" else 1
    source = np.eye(2, dtype=complex)[source_index]
    prepared_dot_basis = u.conj().T @ source
    prepared_space = _TO_DOT_BASIS.conj().T @ prepared_dot_basis
    fidelity = float(np.abs(np.vdot(_INITIAL_SPACE_STATES[target], prepared_space)) ** 2)
    return InitPlan(
        target=target,
        source_dot=source_dot,
        bias_ueV=config.bias_ueV,
        tunnel_coupling_ueV=config.tunnel_coupling_ueV,
        duration_ns=best.time_ns,
        fidelity=fidelity,
        forward_probability=float(np.abs(forward[source_index]) ** 2),
    )

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

from .constants import HBAR_UEV_NS
from .decoherence import bose_einstein
from .linalg import expm_hermitian, require_count

__all__ = [
    "MAX_TRACE_SAMPLES",
    "MAX_BIAS_SAMPLES",
    "ReadoutConfig",
    "ReadoutTrace",
    "rabi_frequency",
    "readout_unitary",
    "readout_traces",
    "OptimalReadout",
    "ReadoutPair",
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

# |+> and |-> as dot-basis columns, shape (2, 1, 2, 1): state, Hamiltonian, row, column.
_SPACE_STATE_COLUMNS = np.stack(
    [_TO_DOT_BASIS @ _INITIAL_SPACE_STATES[name] for name in ("plus", "minus")]
)[:, None, :, None]

# Bias-times-sample elements per kernel call in scan_bias; bounds the scan's
# memory to a few MB whatever n_bias and the trace length are.  Scan time
# was flat from 2**12 to 2**16 elements.
_SCAN_ELEMENTS = 1 << 14


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
        with np.errstate(over="ignore"):
            omega = rabi_frequency(self)
            end_phase = omega * self.duration_ns
        if not np.isfinite(omega):
            raise ValueError(
                f"tunnel_coupling_ueV = {self.tunnel_coupling_ueV!r} and bias_ueV = "
                f"{self.bias_ueV!r} give a Rabi frequency outside the float range"
            )
        if not self.duration_ns > 0.0:
            raise ValueError("duration must be positive")
        if not np.isfinite(end_phase):
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


@dataclass(frozen=True)
class ReadoutTrace:
    """Sampled left-dot occupation during a readout pulse.

    ``norm_error`` is the largest deviation of the total probability from
    one across the samples — a direct conservation check on the evolution.
    """

    times_ns: np.ndarray
    p_left: np.ndarray
    norm_error: float


def _hamiltonians(tunnel_coupling_ueV: float, biases_ueV: np.ndarray) -> np.ndarray:
    """Dot-basis readout Hamiltonians, one per bias, shape ``(n, 2, 2)``."""
    half_bias = np.asarray(biases_ueV, dtype=float) / 2.0
    h = np.empty((len(half_bias), 2, 2), dtype=complex)
    h[:, 0, 0] = half_bias
    h[:, 1, 1] = -half_bias
    h[:, 0, 1] = h[:, 1, 0] = tunnel_coupling_ueV
    return h


def rabi_frequency(config: ReadoutConfig) -> float:
    """Angular frequency (rad/ns) of the charge oscillation."""
    energy = np.hypot(config.tunnel_coupling_ueV, config.bias_ueV / 2.0)
    return float(2.0 * energy / HBAR_UEV_NS)


def _sample_times(config: ReadoutConfig) -> np.ndarray:
    n = int(np.floor(config.duration_ns / config.timestep_ns + 1e-9))
    return np.arange(n + 1) * config.timestep_ns


def readout_unitary(config: ReadoutConfig, t_ns: float) -> np.ndarray:
    """Propagator in the dot basis after ``t_ns`` of readout evolution."""
    h = _hamiltonians(config.tunnel_coupling_ueV, [config.bias_ueV])[0]
    return expm_hermitian(h, t_ns / HBAR_UEV_NS)


def _left_populations(
    tunnel_coupling_ueV: float, biases_ueV: np.ndarray, times: np.ndarray, norm_error: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Left-dot populations of ``|+>`` and ``|->``, one readout Hamiltonian per bias.

    One ``eigh`` and one phase table per Hamiltonian serve both space
    states.  The readout Hamiltonians are traceless, so their eigenvalues
    are exactly opposite and one complex exponential per sample fills both
    columns of the table.  Each per-matrix product sees the operand layout
    of a one-Hamiltonian, one-state evaluation, so every value is bitwise
    that evaluation's whatever the stack size.

    Args:
        tunnel_coupling_ueV: tunnel coupling shared by every Hamiltonian.
        biases_ueV: biases, shape ``(n_h,)``.
        times: sample times (ns), shape ``(n_t,)``.
        norm_error: also return each trace's largest ``|P_L + P_R - 1|``.

    Returns:
        ``p_left`` of shape ``(2, n_h, n_t)`` (plus, then minus) and the
        norm errors of shape ``(2, n_h)``, or ``None`` when not asked for.
    """
    eigvals, p = np.linalg.eigh(_hamiltonians(tunnel_coupling_ueV, biases_ueV))
    coeffs = np.swapaxes(p.conj(), -1, -2) @ _SPACE_STATE_COLUMNS
    # exp(-i(-x)) is conj(exp(-ix)) bit for bit, so one exponential per
    # sample serves both eigenvalues.
    half = np.exp(-1j * (times * eigvals[:, :1]) / HBAR_UEV_NS)
    amplitudes = np.stack((half, half.conj()), axis=-1) * np.swapaxes(coeffs, -1, -2)
    p_left = np.square(np.abs((amplitudes @ p[:, 0, :, None])[..., 0]))
    if not norm_error:
        return p_left, None
    p_right = np.square(np.abs((amplitudes @ p[:, 1, :, None])[..., 0]))
    return p_left, np.max(np.abs(p_left + p_right - 1.0), axis=-1)


class OptimalReadout(NamedTuple):
    time_ns: float
    distinguishability: float


class ReadoutPair(NamedTuple):
    """Both space states' traces and the best measurement time between them."""

    plus: ReadoutTrace
    minus: ReadoutTrace
    best: OptimalReadout


def _optima(times: np.ndarray, p_left: np.ndarray) -> list[OptimalReadout]:
    """Earliest sample of largest ``|P_L(plus) - P_L(minus)|``, per Hamiltonian."""
    contrast = np.abs(p_left[0] - p_left[1])
    k = np.argmax(contrast, axis=-1)
    best = contrast[np.arange(len(k)), k]
    return [OptimalReadout(float(times[i]), float(c)) for i, c in zip(k, best)]


def readout_traces(config: ReadoutConfig) -> ReadoutPair:
    """The ``plus`` and ``minus`` traces and their optimum, from one ``eigh``.

    The optimum is the sample time maximizing the left-dot occupation
    contrast ``|P_L(plus) - P_L(minus)|``; ties resolve to the earliest
    sample.  With zero bias both space states are stationary and the
    contrast is identically zero (degenerate readout).
    """
    times = _sample_times(config)
    p_left, errors = _left_populations(
        config.tunnel_coupling_ueV, [config.bias_ueV], times, norm_error=True
    )
    return ReadoutPair(
        ReadoutTrace(times, p_left[0, 0], float(errors[0, 0])),
        ReadoutTrace(times, p_left[1, 0], float(errors[1, 0])),
        _optima(times, p_left)[0],
    )


def scan_bias(
    tunnel_coupling_ueV: float,
    duration_ns: float,
    timestep_ns: float,
    n_bias: int = 40,
) -> tuple[ReadoutConfig, OptimalReadout]:
    """Search biases in ``(0, 4 t_c]`` for the best space-state contrast.

    The contrast is perfect when the bias matches twice the tunnel
    coupling, where the space states map onto charge eigenstates after
    half a Rabi period, so the scan grid includes that point.  All biases
    are evaluated as stacks of at most ``_SCAN_ELEMENTS`` bias-samples;
    the first bias beating every earlier one by more than 1e-15 wins.
    """
    if not tunnel_coupling_ueV > 0.0:
        raise ValueError("tunnel coupling must be positive for a bias scan")
    n_bias = require_count("n_bias", n_bias, 2, MAX_BIAS_SAMPLES)
    with np.errstate(over="ignore"):
        biases = 4.0 * tunnel_coupling_ueV * np.arange(1, n_bias + 1) / n_bias
    # The first config checks the pulse; biases grow with i, so the last
    # one rejects an overflow to inf.
    times = _sample_times(
        ReadoutConfig(tunnel_coupling_ueV, float(biases[0]), duration_ns, timestep_ns)
    )
    ReadoutConfig(tunnel_coupling_ueV, float(biases[-1]), duration_ns, timestep_ns)
    step = max(1, _SCAN_ELEMENTS // len(times))
    best_i, best = 0, None
    for start in range(0, n_bias, step):
        p_left, _ = _left_populations(tunnel_coupling_ueV, biases[start:start + step], times)
        for i, result in enumerate(_optima(times, p_left), start):
            if best is None or result.distinguishability > best.distinguishability + 1e-15:
                best_i, best = i, result
    assert best is not None
    return ReadoutConfig(tunnel_coupling_ueV, float(biases[best_i]), duration_ns, timestep_ns), best


def thermal_occupancy(deps_ueV: float, temperature_K: float) -> float:
    """Upper-level population ``n / (1 + 2n) = 1 / (1 + exp(deps / kT))``.

    ``n`` is :func:`~dqdsim.decoherence.bose_einstein`; it overflows to 0, the
    exact population in floats, beyond ``deps / kT`` of about 709.
    """
    with np.errstate(over="ignore"):
        n = bose_einstein(deps_ueV, temperature_K)
    return n / (1.0 + 2.0 * n)


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
    best = readout_traces(config).best
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

"""Piecewise-constant electrode pulses and their six-dimensional evolution.

Gates are driven by rectangular voltage pulses on seven electrodes:

* ``E1``, ``E2`` — intra-qubit exchange between the two DQDs of qubit 1 or 2.
  Within the qubit's logical doublet this coupling acts as the x-Pauli
  matrix.  The same pulse shifts the two symmetric leakage configurations
  by the amplitude, so they accumulate exactly the dynamical phase of the
  driven doublet's symmetric combination; the generator therefore carries
  the identity on the leakage rows alongside the embedded x-coupling,
  which makes it the catalog inversion of that qubit.  The overall sign
  fixes the rotation sense so that a quarter-period pulse lands on the
  catalog square-root gates exactly, and a half-period pulse on the full
  inversions.
* ``E12`` — exchange between the two inner DQDs (one from each qubit).
  Its generator is the exchange gate itself, which is Hermitian; a
  half-period pulse reproduces the catalog exchange gate.
* ``T1`` .. ``T4`` — level splitting of one individual DQD.  Within the
  computational subspace this is a z-rotation of the DQD's qubit; the
  sign alternates between the first and second DQD of a pair because
  raising the ``+`` level of the first DQD raises logical ``|0>`` while
  raising the ``+`` level of the second raises logical ``|1>``.  Outside
  the computational subspace the generator is taken to vanish.

Every generator is a fixed sign times a fixed unit matrix times the
amplitude.  A segment of amplitude ``a`` (ueV) and duration ``t`` (ns)
contributes the unitary ``exp(-1j * H(a) * t / hbar)``; segments compose in
the order listed, first segment acting first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .basis import COMPUTATIONAL_ROWS
from .constants import HBAR_UEV_NS
from .gates import GateId, gate_matrix
from .linalg import dist_up_to_global_phase, expm_hermitian, is_unitary, require_normalized

__all__ = [
    "ELECTRODES",
    "PulseSegment",
    "segment_generator",
    "evolve",
    "calibrate",
    "calibrate_phase_flip",
    "swap_sequence",
    "sqrt_swap_sequence",
    "reproduction_residuals",
    "schedule_to_json",
    "schedule_from_json",
    "load_schedule",
]

#: Valid electrode names, one per physical control line.
ELECTRODES = ("E1", "E2", "E12", "T1", "T2", "T3", "T4")

# Logical z of qubit 1 / qubit 2 on the computational rows, zero on leakage.
_Z1 = np.diag([1.0, 0.0, 1.0, -1.0, 0.0, -1.0]).astype(complex)
_Z2 = np.diag([1.0, 0.0, -1.0, 1.0, 0.0, -1.0]).astype(complex)

#: Electrode -> (sign, unit Hermitian generator); a segment's generator is
#: ``(sign * amplitude) * unit``.  The sign stays out of the matrix: folded
#: in, it flips signed zeros and with them the last bits of :func:`evolve`.
_GENERATORS: dict[str, tuple[float, np.ndarray]] = {
    "E1": (-1.0, gate_matrix(GateId.NOT1)),
    "E2": (-1.0, gate_matrix(GateId.NOT2)),
    "E12": (1.0, gate_matrix(GateId.EXCHANGE)),
    "T1": (1.0, _Z1),
    "T2": (-1.0, _Z1),
    "T3": (1.0, _Z2),
    "T4": (-1.0, _Z2),
}

#: Pulse-native catalog gate -> (electrode, pulse length in half periods).
_NATIVE: dict[GateId, tuple[str, float]] = {
    GateId.NOT1: ("E1", 1.0),
    GateId.NOT2: ("E2", 1.0),
    GateId.SQRT_NOT1: ("E1", 0.5),
    GateId.SQRT_NOT2: ("E2", 0.5),
    GateId.EXCHANGE: ("E12", 1.0),
}

# Per-electrode signs and unit generators as arrays, in ELECTRODES order.
_SIGNS = np.array([_GENERATORS[e][0] for e in ELECTRODES])
_UNITS = np.stack([_GENERATORS[e][1] for e in ELECTRODES])
_ELECTRODE_INDEX = {e: i for i, e in enumerate(ELECTRODES)}

# Segments exponentiated per expm_hermitian call; bounds evolve's memory for
# any schedule length (128 segments keep the whole gain of the stacked eigh).
_CHUNK_SEGMENTS = 128


@dataclass(frozen=True)
class PulseSegment:
    """One rectangular pulse: which electrode, how strong, how long."""

    electrode: str
    amplitude_ueV: float
    duration_ns: float

    def __post_init__(self) -> None:
        if self.electrode not in ELECTRODES:
            raise ValueError(
                f"unknown electrode {self.electrode!r}; expected one of {ELECTRODES}"
            )
        if not np.isfinite(self.amplitude_ueV):
            raise ValueError(f"amplitude must be finite, got {self.amplitude_ueV!r}")
        if not (np.isfinite(self.duration_ns) and self.duration_ns >= 0.0):
            raise ValueError(f"duration must be >= 0 ns, got {self.duration_ns!r}")
        phase = abs(float(self.amplitude_ueV)) * (float(self.duration_ns) / HBAR_UEV_NS)
        if not math.isfinite(phase):  # evolve's largest rotation angle, in its own order
            raise ValueError(f"amplitude_ueV = {self.amplitude_ueV!r} and duration_ns = "
                             f"{self.duration_ns!r} give a pulse phase outside the float range")


def segment_generator(segment: PulseSegment) -> np.ndarray:
    """Hermitian 6x6 generator (ueV) for one pulse segment."""
    sign, unit = _GENERATORS[segment.electrode]
    return (sign * float(segment.amplitude_ueV)) * unit


def evolve(
    schedule: Sequence[PulseSegment],
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a pulse schedule to a state vector or propagator.

    Args:
        schedule: segments in execution order (first acts first).
        initial: a normalized 6-vector, a unitary 6x6 matrix, or ``None``
            for the identity propagator.

    Returns:
        The evolved vector, or the total unitary when ``initial`` is a
        matrix / ``None``.
    """
    if initial is None:
        state = np.eye(6, dtype=complex)
    else:
        initial = np.asarray(initial, dtype=complex)
        if initial.ndim == 1:
            if initial.shape != (6,):
                raise ValueError(f"expected a 6-vector, got shape {initial.shape}")
            state = require_normalized(initial).copy()
        elif initial.shape == (6, 6):
            if not is_unitary(initial, atol=1e-9):
                raise ValueError("initial matrix is not unitary within 1e-9")
            state = initial.copy()
        else:
            raise ValueError(f"initial must be a 6-vector or 6x6 matrix, got {initial.shape}")

    for start in range(0, len(schedule), _CHUNK_SEGMENTS):
        chunk = schedule[start:start + _CHUNK_SEGMENTS]
        index = np.array([_ELECTRODE_INDEX[s.electrode] for s in chunk])
        amplitudes = np.array([float(s.amplitude_ueV) for s in chunk])
        angles = np.array([s.duration_ns for s in chunk], dtype=float) / HBAR_UEV_NS
        # The same float product, then complex product, as segment_generator.
        generators = (_SIGNS[index] * amplitudes)[:, None, None] * _UNITS[index]
        for u in expm_hermitian(generators, angles):
            state = u @ state
    return state


def _half_period(amplitude_ueV: float) -> float:
    """Duration ``pi * hbar / (2 * amplitude)`` of a half-period pulse; only
    positive amplitudes are physical here."""
    a = float(amplitude_ueV)
    if not (np.isfinite(a) and a > 0.0):
        raise ValueError(f"amplitude must be positive, got {amplitude_ueV!r}")
    return np.pi * HBAR_UEV_NS / (2.0 * a)


def calibrate(gate: GateId, amplitude_ueV: float) -> list[PulseSegment]:
    """Single-segment schedule reproducing a pulse-native catalog gate.

    The full inversions and the inner exchange need a half-period pulse of
    duration ``pi * hbar / (2 * amplitude)``; the square roots take exactly
    half that (see ``_NATIVE``).
    """
    half_period = _half_period(amplitude_ueV)
    if gate not in _NATIVE:
        raise ValueError(f"no single-pulse calibration for gate {gate.value!r}")
    electrode, half_periods = _NATIVE[gate]
    return [PulseSegment(electrode, float(amplitude_ueV), half_period * half_periods)]


def calibrate_phase_flip(dqd: int, amplitude_ueV: float) -> list[PulseSegment]:
    """Schedule flipping the phase between the levels of one DQD (1..4).

    Reproduces a logical z-inversion of the DQD's qubit up to a global
    phase; the leakage rows are untouched.
    """
    if dqd not in (1, 2, 3, 4):
        raise ValueError(f"dqd must be 1..4, got {dqd}")
    return [PulseSegment(f"T{dqd}", float(amplitude_ueV), _half_period(amplitude_ueV))]


def _exchange_sandwich(amplitude_ueV: float, inner1: GateId, inner2: GateId) -> list[PulseSegment]:
    """Exchange, ``inner1``, ``inner2``, exchange, all at one amplitude."""
    exchange = calibrate(GateId.EXCHANGE, amplitude_ueV)
    return exchange + calibrate(inner1, amplitude_ueV) + calibrate(inner2, amplitude_ueV) + exchange


def swap_sequence(amplitude_ueV: float) -> list[PulseSegment]:
    """Four-pulse swap of the two qubits: exchange, both inversions, exchange.

    Every pulse has the same amplitude.  Composes to the catalog swap gate
    exactly (global phase included).
    """
    return _exchange_sandwich(amplitude_ueV, GateId.NOT1, GateId.NOT2)


def sqrt_swap_sequence(amplitude_ueV: float) -> list[PulseSegment]:
    """Four-pulse square root of swap: like :func:`swap_sequence` with
    half-duration inner pulses."""
    return _exchange_sandwich(amplitude_ueV, GateId.SQRT_NOT1, GateId.SQRT_NOT2)


def reproduction_residuals(amplitude_ueV: float = 10.0) -> dict[str, float]:
    """Distance up to global phase of every calibrated schedule from its gate.

    Covers the five single-pulse gates, the four-pulse swap and square-root
    swap sequences, and the phase flip of DQD 1 on the computational rows.
    """
    checks: dict[str, float] = {}
    for gid in _NATIVE:
        u = evolve(calibrate(gid, amplitude_ueV))
        checks[f"pulse[{gid.value}]"] = dist_up_to_global_phase(u, gate_matrix(gid))
    checks["pulse[swap_sequence]"] = dist_up_to_global_phase(
        evolve(swap_sequence(amplitude_ueV)), gate_matrix(GateId.SWAP)
    )
    checks["pulse[sqrt_swap_sequence]"] = dist_up_to_global_phase(
        evolve(sqrt_swap_sequence(amplitude_ueV)), gate_matrix(GateId.SQRT_SWAP)
    )
    u = evolve(calibrate_phase_flip(1, amplitude_ueV))
    rows = np.asarray(COMPUTATIONAL_ROWS)
    checks["pulse[phase_flip_dqd1]"] = dist_up_to_global_phase(
        u[np.ix_(rows, rows)], np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    )
    return checks


def schedule_to_json(schedule: Iterable[PulseSegment]) -> list[dict[str, float | str]]:
    """JSON-ready representation of a schedule."""
    return [
        {
            "electrode": s.electrode,
            "amplitude_ueV": float(s.amplitude_ueV),
            "duration_ns": float(s.duration_ns),
        }
        for s in schedule
    ]


def schedule_from_json(data: object) -> list[PulseSegment]:
    """Parse a schedule from decoded JSON, naming the offending segment on error."""
    if not isinstance(data, list):
        raise ValueError(f"schedule must be a JSON array of segments, got {type(data).__name__}")
    segments: list[PulseSegment] = []
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise ValueError(f"segment {i}: expected an object, got {type(item).__name__}")
        extra = set(item) - {"electrode", "amplitude_ueV", "duration_ns"}
        if extra:
            raise ValueError(f"segment {i}: unknown keys {sorted(extra)}")
        try:
            electrode = item["electrode"]
            amplitude = item["amplitude_ueV"]
            duration = item["duration_ns"]
        except KeyError as missing:
            raise ValueError(f"segment {i}: missing key {missing.args[0]!r}") from None
        if not isinstance(electrode, str):
            raise ValueError(f"segment {i}: electrode must be a string")
        if isinstance(amplitude, bool) or not isinstance(amplitude, (int, float)):
            raise ValueError(f"segment {i}: amplitude_ueV must be a number")
        if isinstance(duration, bool) or not isinstance(duration, (int, float)):
            raise ValueError(f"segment {i}: duration_ns must be a number")
        try:
            segments.append(PulseSegment(electrode, float(amplitude), float(duration)))
        except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond float range
            raise ValueError(f"segment {i}: {exc}") from None
    return segments


def load_schedule(path: str | Path) -> list[PulseSegment]:
    """Read a schedule from a JSON file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    return schedule_from_json(data)

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
the order listed, first segment acting first.  Each unit matrix ``U`` has
the spectrum {-1, 0, +1} (``U @ U @ U == U``), so that exponential is a
combination of three fixed spectral projectors and needs no
eigendecomposition.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import COMPUTATIONAL_ROWS, LOGICAL_Z
from .constants import HBAR_UEV_NS
from .gates import GateId, gate_matrix
from .linalg import dist_up_to_global_phase, is_unitary, require_float, require_normalized

__all__ = [
    "ELECTRODES",
    "PulseSegment",
    "Schedule",
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
_Z1, _Z2 = (np.diag(LOGICAL_Z[q]).astype(complex) for q in (1, 2))

#: Electrode -> (sign, unit Hermitian generator); a segment's generator is
#: ``(sign * amplitude) * unit``.  The sign stays out of the matrix and
#: enters :func:`evolve` through the segment phase, so one set of spectral
#: projectors per unit serves both signs.
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
_UNITS = np.stack([_GENERATORS[e][1] for e in ELECTRODES]).real
_ELECTRODE_INDEX = {e: i for i, e in enumerate(ELECTRODES)}

# exp(-1j * phi * U) = P0 + z * P+ + conj(z) * P-, z = exp(-1j * phi), with the
# projectors of each unit onto its eigenvalues 0, +1 and -1: P0 = I - U^2,
# P+ + P- = U^2 and P+ - P- = U.  As one product: the coefficients (1, Re z,
# Im z) at electrode e, zero elsewhere, times this table give the real and
# imaginary parts of (P0 + Re z (P+ + P-)) + 1j Im z (P+ - P-).  The units'
# entries are 0 and +-1, so are this table's, and every product and sum in
# it is exact.
_SPECTRAL = np.zeros((len(ELECTRODES), 3, 6, 6, 2))
_SPECTRAL[:, 1, :, :, 0] = _UNITS @ _UNITS
_SPECTRAL[:, 0, :, :, 0] = np.eye(6) - _SPECTRAL[:, 1, :, :, 0]
_SPECTRAL[:, 2, :, :, 1] = _UNITS

# Segments multiplied per tree; bounds evolve's memory (128 segment unitaries,
# 74 kB) for any schedule length.
_CHUNK_SEGMENTS = 128


def _segment(electrode: object, amplitude: object, duration: object) -> tuple[int, float, float]:
    """The rule every segment passes: the electrode's index in :data:`ELECTRODES`
    and the amplitude and duration as floats, or a ``ValueError`` naming the
    first fault.  The phase ``|a| * t / hbar`` must be finite too, computed in
    :func:`evolve`'s order."""
    try:
        index = _ELECTRODE_INDEX[electrode]
    except (KeyError, TypeError):
        raise ValueError(f"unknown electrode {electrode!r}; expected one of {ELECTRODES}") from None
    a = amplitude if type(amplitude) is float else require_float("amplitude_ueV", amplitude)
    t = duration if type(duration) is float else require_float("duration_ns", duration)
    if not math.isfinite(a):
        raise ValueError(f"amplitude must be finite, got {amplitude!r}")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"duration must be >= 0 ns, got {duration!r}")
    if not math.isfinite((t / HBAR_UEV_NS) * abs(a)):
        raise ValueError(f"amplitude_ueV = {amplitude!r} and duration_ns = {duration!r} "
                         "give a pulse phase outside the float range")
    return index, a, t


@dataclass(frozen=True)
class PulseSegment:
    """One rectangular pulse: which electrode, how strong, how long."""

    electrode: str
    amplitude_ueV: float
    duration_ns: float

    def __post_init__(self) -> None:
        _segment(self.electrode, self.amplitude_ueV, self.duration_ns)


class Schedule(Sequence[PulseSegment]):
    """Checked segments as three read-only columns: electrode index into
    :data:`ELECTRODES`, amplitude and duration.  Items are equal
    :class:`PulseSegment` objects, slices are schedules over the sliced
    columns; :func:`evolve` reads the columns, and keeps the product of
    each chunk of segments for the schedule's later calls."""

    def __init__(self, electrode: np.ndarray, amplitude_ueV: np.ndarray, duration_ns: np.ndarray):
        for column in (electrode, amplitude_ueV, duration_ns):
            column.flags.writeable = False
        self.electrode, self.amplitude_ueV, self.duration_ns = electrode, amplitude_ueV, duration_ns
        self._products: tuple[np.ndarray, ...] | None = None

    def _chunk_products(self) -> tuple[np.ndarray, ...]:
        """The ordered product of each run of up to 128 segments, computed on
        the first call and read-only."""
        if self._products is None:
            columns = (self.electrode, self.amplitude_ueV, self.duration_ns)
            products = []
            for start in range(0, len(self), _CHUNK_SEGMENTS):
                chunk = slice(start, start + _CHUNK_SEGMENTS)
                products.append(_ordered_product(_segment_unitaries(*(c[chunk] for c in columns))))
                products[-1].flags.writeable = False
            self._products = tuple(products)
        return self._products

    def __len__(self) -> int:
        return len(self.electrode)

    def __getitem__(self, i: int | slice) -> PulseSegment | Schedule:
        if isinstance(i, slice):
            return Schedule(self.electrode[i], self.amplitude_ueV[i], self.duration_ns[i])
        return PulseSegment(ELECTRODES[self.electrode[i]], float(self.amplitude_ueV[i]),
                            float(self.duration_ns[i]))


def _columns(segments: Sequence[PulseSegment]) -> Schedule:
    return Schedule(np.array([_ELECTRODE_INDEX[s.electrode] for s in segments], dtype=np.intp),
                    np.array([s.amplitude_ueV for s in segments], dtype=float),
                    np.array([s.duration_ns for s in segments], dtype=float))


def _segment_unitaries(index: np.ndarray, amplitudes: np.ndarray,
                       durations: np.ndarray) -> np.ndarray:
    """``exp(-1j * H * t / hbar)`` of each segment, stacked ``(k, 6, 6)``.

    With ``phi = (t / hbar) * (sign * a)`` and ``z = exp(-1j * phi)`` each
    unitary is ``P0 + z P+ + conj(z) P-`` of its electrode, entry by entry
    exact given ``z``.
    """
    k = len(index)
    z = np.exp(-1j * ((durations / HBAR_UEV_NS) * (_SIGNS[index] * amplitudes)))
    coefficients = np.zeros((k, len(ELECTRODES), 3))
    rows = np.arange(k)
    coefficients[rows, index, 0] = 1.0
    coefficients[rows, index, 1:] = z.view(float).reshape(k, 2)
    parts = coefficients.reshape(k, -1) @ _SPECTRAL.reshape(-1, 6 * 6 * 2)
    return parts.view(complex).reshape(k, 6, 6)


def _ordered_product(unitaries: np.ndarray) -> np.ndarray:
    """``u[k-1] @ ... @ u[1] @ u[0]`` as a balanced tree of batched products.

    Each level multiplies neighbouring pairs, the later one on the left, in
    one call; an odd last matrix waits for the next level.  ``k`` matrices
    take ceil(log2 k) calls.
    """
    while len(unitaries) > 1:
        pairs = unitaries[1::2] @ unitaries[:-1:2]
        unitaries = np.concatenate((pairs, unitaries[-1:])) if len(unitaries) % 2 else pairs
    return unitaries[0]


def evolve(
    schedule: Sequence[PulseSegment],
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a pulse schedule to a state vector or propagator.

    No segment is eigendecomposed: each unitary comes from its electrode's
    exact spectral projectors (:func:`_segment_unitaries`), and every 128
    segments are multiplied as a balanced tree of batched products
    (:func:`_ordered_product`), chunk after chunk.  A :class:`Schedule`
    keeps those chunk products, so its later calls apply the same matrices
    in the same order and give bitwise the same results.

    Args:
        schedule: segments in execution order (first acts first); a list
            of :class:`PulseSegment` is turned into columns once, on entry.
        initial: a normalized 6-vector, a unitary 6x6 matrix, or ``None``
            for the identity propagator.

    Returns:
        The evolved vector, or the total unitary when ``initial`` is a
        matrix / ``None``.
    """
    state = None  # the identity, until a chunk replaces it
    if initial is not None:
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

    if not isinstance(schedule, Schedule):
        schedule = _columns(schedule)
    for u in schedule._chunk_products():
        state = u.copy() if state is None else u @ state
    return np.eye(6, dtype=complex) if state is None else state


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


# Pulse amplitude (ueV) of every schedule that reproduction_residuals checks.
_REPRODUCTION_AMPLITUDE_UEV = 10.0


def reproduction_residuals() -> dict[str, float]:
    """Distance up to global phase of every calibrated schedule from its gate.

    Covers the five single-pulse gates, the four-pulse swap and square-root
    swap sequences, and the phase flip of DQD 1 on the computational rows.
    """
    checks: dict[str, float] = {}
    for gid in _NATIVE:
        u = evolve(calibrate(gid, _REPRODUCTION_AMPLITUDE_UEV))
        checks[f"pulse[{gid.value}]"] = dist_up_to_global_phase(u, gate_matrix(gid))
    checks["pulse[swap_sequence]"] = dist_up_to_global_phase(
        evolve(swap_sequence(_REPRODUCTION_AMPLITUDE_UEV)), gate_matrix(GateId.SWAP)
    )
    checks["pulse[sqrt_swap_sequence]"] = dist_up_to_global_phase(
        evolve(sqrt_swap_sequence(_REPRODUCTION_AMPLITUDE_UEV)), gate_matrix(GateId.SQRT_SWAP)
    )
    u = evolve(calibrate_phase_flip(1, _REPRODUCTION_AMPLITUDE_UEV))
    rows = np.ix_(COMPUTATIONAL_ROWS, COMPUTATIONAL_ROWS)
    checks["pulse[phase_flip_dqd1]"] = dist_up_to_global_phase(u[rows], _Z1[rows])
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


_SEGMENT_KEYS = ("electrode", "amplitude_ueV", "duration_ns")


def schedule_from_json(data: object) -> Schedule:
    """Parse a schedule from decoded JSON, naming the first offending segment on error.

    Each segment must be an object with exactly the three keys, a string
    electrode and two numbers that are not bools; then it passes the rule
    of :class:`PulseSegment`, and no segment object is built.
    """
    if not isinstance(data, list):
        raise ValueError(f"schedule must be a JSON array of segments, got {type(data).__name__}")
    rows = []
    for i, item in enumerate(data):
        try:
            if not isinstance(item, dict):
                raise ValueError(f"expected an object, got {type(item).__name__}")
            try:  # three keys, all found, are exactly the three
                if len(item) != 3:
                    raise KeyError
                electrode, amplitude, duration = (item["electrode"], item["amplitude_ueV"],
                                                  item["duration_ns"])
            except KeyError:
                extra = item.keys() - _SEGMENT_KEYS
                if extra:
                    raise ValueError(f"unknown keys {sorted(extra)}")
                raise ValueError(f"missing key {next(k for k in _SEGMENT_KEYS if k not in item)!r}")
            if not isinstance(electrode, str):
                raise ValueError("electrode must be a string")
            if type(amplitude) is not float and (isinstance(amplitude, bool)
                                                 or not isinstance(amplitude, (int, float))):
                raise ValueError("amplitude_ueV must be a number")
            if type(duration) is not float and (isinstance(duration, bool)
                                                or not isinstance(duration, (int, float))):
                raise ValueError("duration_ns must be a number")
            rows.append(_segment(electrode, amplitude, duration))
        except ValueError as exc:
            raise ValueError(f"segment {i}: {exc}") from None
    index, amplitude, duration = zip(*rows) if rows else ((), (), ())
    return Schedule(np.array(index, dtype=np.intp), np.array(amplitude, dtype=float),
                    np.array(duration, dtype=float))


def load_schedule(path: str | Path) -> Schedule:
    """Read a schedule from a JSON file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    return schedule_from_json(data)

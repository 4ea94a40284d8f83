from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dqdsim.basis import COMPUTATIONAL_ROWS, LEAKAGE_ROWS, computational_basis_state
from dqdsim.constants import HBAR_UEV_NS
from dqdsim.gates import GateId, gate_matrix
from dqdsim.linalg import dist_up_to_global_phase, expm_hermitian, max_abs_diff
from dqdsim.pulses import (
    ELECTRODES,
    PulseSegment,
    calibrate,
    calibrate_phase_flip,
    evolve,
    load_schedule,
    schedule_from_json,
    schedule_to_json,
    segment_generator,
    sqrt_swap_sequence,
    swap_sequence,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _kron_generator(segment: PulseSegment) -> np.ndarray:
    """Independent construction of an electrode generator: the 2x2 coupling
    tensored into the computational rows, plus the leakage projector for
    the exchange electrodes of one qubit."""
    a = float(segment.amplitude_ueV)
    name = segment.electrode
    if name == "E12":
        return a * gate_matrix(GateId.EXCHANGE)
    qubit = 1 if name in ("E1", "T1", "T2") else 2
    if name in ("E1", "E2"):
        h2 = PAULI_X
    else:
        h2 = (-1.0 if name in ("T2", "T4") else 1.0) * a * PAULI_Z
    block = np.kron(h2, np.eye(2)) if qubit == 1 else np.kron(np.eye(2), h2)
    h6 = np.zeros((6, 6), dtype=complex)
    h6[np.ix_(COMPUTATIONAL_ROWS, COMPUTATIONAL_ROWS)] = block
    if name in ("E1", "E2"):
        leakage = np.zeros((6, 6), dtype=complex)
        leakage[1, 1] = leakage[4, 4] = 1.0
        return -a * (h6 + leakage)
    return h6


def test_segment_validation():
    PulseSegment("E1", 10.0, 0.5)
    with pytest.raises(ValueError):
        PulseSegment("E3", 10.0, 0.5)
    with pytest.raises(ValueError):
        PulseSegment("E1", 10.0, -0.5)
    with pytest.raises(ValueError):
        PulseSegment("E1", float("nan"), 0.5)


def test_electrode_inventory():
    assert ELECTRODES == ("E1", "E2", "E12", "T1", "T2", "T3", "T4")


def test_tunnel_generators_vanish_on_leakage_rows():
    for electrode in ("T1", "T2", "T3", "T4"):
        h6 = segment_generator(PulseSegment(electrode, 3.7, 1.0))
        for leak in (1, 4):
            assert np.all(h6[leak, :] == 0.0)
            assert np.all(h6[:, leak] == 0.0)


# Negative amplitudes and both signed zeros included.
AMPLITUDES = (-25.0, -3.7, -1e-3, -0.0, 0.0, 1e-3, 0.5, 3.7, 12.25, 1e3)


@pytest.mark.parametrize("electrode", ELECTRODES)
def test_evolve_matches_kron_generator_bytes(electrode):
    for amplitude in AMPLITUDES:
        segment = PulseSegment(electrode, amplitude, 0.37)
        assert max_abs_diff(segment_generator(segment), _kron_generator(segment)) == 0.0
        u = expm_hermitian(_kron_generator(segment), segment.duration_ns / HBAR_UEV_NS)
        expected = u @ np.eye(6, dtype=complex)
        assert evolve([segment]).tobytes() == expected.tobytes(), amplitude


def test_all_generators_hermitian():
    for electrode in ELECTRODES:
        g = segment_generator(PulseSegment(electrode, 3.7, 1.0))
        assert max_abs_diff(g, g.conj().T) < 1e-14, electrode


def test_tunnel_electrodes_come_in_sign_pairs():
    for plus, minus in (("T1", "T2"), ("T3", "T4")):
        gp = segment_generator(PulseSegment(plus, 2.5, 1.0))
        gm = segment_generator(PulseSegment(minus, 2.5, 1.0))
        assert max_abs_diff(gp, -gm) == 0.0


def test_detuning_electrodes_shift_leakage_rows_too():
    # the level-splitting electrodes act on the whole DQD, including the
    # doubly-occupied configurations, so their generator cannot vanish there
    g = segment_generator(PulseSegment("E1", 1.0, 1.0))
    assert g[1, 1] != 0.0
    assert g[4, 4] != 0.0


def test_evolve_empty_schedule_is_identity():
    u = evolve([])
    assert max_abs_diff(u, np.eye(6)) == 0.0


def test_evolve_returns_a_fresh_array():
    v = computational_basis_state("01")
    for initial in (v, np.eye(6, dtype=complex)):
        out = evolve([], initial)
        assert np.array_equal(out, initial)
        assert not np.shares_memory(out, initial)


def _evolve_one_segment_at_a_time(schedule, initial=None):
    """Oracle: one generator and one 2-D ``expm_hermitian`` per segment."""
    state = np.eye(6, dtype=complex) if initial is None else np.array(initial, dtype=complex)
    for segment in schedule:
        u = expm_hermitian(segment_generator(segment), segment.duration_ns / HBAR_UEV_NS)
        state = u @ state
    return state


def _random_schedule(rng, n):
    amplitudes = rng.uniform(-20.0, 20.0, size=n)
    durations = rng.uniform(0.0, 2.0, size=n)
    special = rng.integers(0, 8, size=n)
    amplitudes[special == 0] = 0.0
    amplitudes[special == 1] = -0.0
    durations[special == 2] = 0.0
    return [
        PulseSegment(ELECTRODES[e], float(a), float(t))
        for e, a, t in zip(rng.integers(0, len(ELECTRODES), size=n), amplitudes, durations)
    ]


@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 300])
def test_chunked_evolve_is_bitwise_the_per_segment_loop(n):
    rng = np.random.default_rng(n)
    schedule = _random_schedule(rng, n)
    assert n < 8 or {s.electrode for s in schedule} == set(ELECTRODES)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    v /= np.linalg.norm(v)
    w = _evolve_one_segment_at_a_time(_random_schedule(rng, 5))
    for initial in (None, v, w):
        expected = _evolve_one_segment_at_a_time(schedule, initial)
        assert np.array_equal(evolve(schedule, initial), expected)


_segments = st.lists(
    st.builds(
        PulseSegment,
        st.sampled_from(ELECTRODES),
        st.floats(-20.0, 20.0),
        st.floats(0.0, 2.0),
    ),
    max_size=40,
)


@given(schedule=_segments, parts=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12))
def test_evolve_is_unitary_norm_preserving_and_leak_free_without_e12(schedule, parts):
    u = evolve(schedule)
    assert max_abs_diff(u.conj().T @ u, np.eye(6)) <= 1e-12
    v = np.array(parts[:6]) + 1j * np.array(parts[6:])
    assume(np.linalg.norm(v) > 0.1)
    v /= np.linalg.norm(v)
    assert abs(np.linalg.norm(evolve(schedule, v)) - 1.0) <= 1e-12
    intra = evolve([s for s in schedule if s.electrode != "E12"])
    assert np.max(np.abs(intra[np.ix_(LEAKAGE_ROWS, COMPUTATIONAL_ROWS)])) <= 1e-12
    assert np.max(np.abs(intra[np.ix_(COMPUTATIONAL_ROWS, LEAKAGE_ROWS)])) <= 1e-12


def test_evolve_rejects_unnormalized_vector():
    with pytest.raises(ValueError):
        evolve([PulseSegment("E1", 1.0, 1.0)], initial=np.ones(6))


def test_evolve_applies_segments_in_listed_order():
    s1 = PulseSegment("E1", 8.0, 0.11)
    s2 = PulseSegment("T1", 8.0, 0.17)
    u12 = evolve([s1, s2])
    # last segment acts last, i.e. multiplies from the left
    assert max_abs_diff(u12, evolve([s2]) @ evolve([s1])) < 1e-13


@pytest.mark.parametrize(
    "gate,phase",
    [
        (GateId.NOT1, 1j),
        (GateId.NOT2, 1j),
        (GateId.EXCHANGE, -1j),
        (GateId.SQRT_NOT1, np.exp(1j * np.pi / 4)),
        (GateId.SQRT_NOT2, np.exp(1j * np.pi / 4)),
    ],
)
def test_calibrated_pulses_reproduce_catalog_gates(gate: GateId, phase: complex):
    # a half-period rotation picks up a global i, a quarter-period pulse a
    # global exp(i pi/4); with those factored in the match is exact
    u = evolve(calibrate(gate, amplitude_ueV=10.0))
    assert max_abs_diff(u, phase * gate_matrix(gate)) < 1e-13


def test_calibration_is_amplitude_independent():
    for amp in (0.5, 5.0, 50.0):
        u = evolve(calibrate(GateId.NOT1, amp))
        assert dist_up_to_global_phase(u, gate_matrix(GateId.NOT1)) < 1e-12


def test_calibrated_durations_scale_inversely_with_amplitude():
    (seg,) = calibrate(GateId.NOT1, 10.0)
    assert abs(seg.duration_ns - np.pi * HBAR_UEV_NS / 20.0) < 1e-15
    (half,) = calibrate(GateId.SQRT_NOT1, 10.0)
    assert abs(half.duration_ns - seg.duration_ns / 2.0) < 1e-15


def test_calibrate_rejects_composite_gates():
    with pytest.raises(ValueError):
        calibrate(GateId.SWAP, 10.0)
    with pytest.raises(ValueError):
        calibrate(GateId.NOT1, -1.0)


def test_four_pulse_swap_has_unit_global_phase():
    # the exchange-conjugated double inversion composes to the swap gate
    # with no residual phase at all
    u = evolve(swap_sequence(10.0))
    assert max_abs_diff(u, gate_matrix(GateId.SWAP)) < 1e-13


def test_four_pulse_sqrt_swap():
    u = evolve(sqrt_swap_sequence(10.0))
    target = gate_matrix(GateId.SQRT_SWAP)
    assert max_abs_diff(u, -1j * target) < 1e-13
    assert dist_up_to_global_phase(u @ u, gate_matrix(GateId.SWAP)) < 1e-12


def test_phase_flip_pulse_gives_z_on_computational_rows():
    u = evolve(calibrate_phase_flip(1, amplitude_ueV=10.0))
    z1 = np.diag([1.0, 1.0, -1.0, -1.0])
    comp = u[np.ix_(COMPUTATIONAL_ROWS, COMPUTATIONAL_ROWS)]
    assert dist_up_to_global_phase(comp, z1) < 1e-12
    # the tunnel electrodes never touch the leaked configurations
    assert u[1, 1] == 1.0 and u[4, 4] == 1.0


def test_mid_pulse_leakage_returns_to_zero():
    # detuning pulses phase the leaked rows but never populate them
    v = computational_basis_state("10")
    out = evolve(calibrate(GateId.NOT1, 10.0), initial=v)
    assert abs(out[1]) < 1e-15 and abs(out[4]) < 1e-15


def test_schedule_json_roundtrip(tmp_path):
    schedule = (calibrate(GateId.EXCHANGE, 3.25) + calibrate(GateId.NOT1, 7.5)
                + calibrate(GateId.NOT2, 7.5) + calibrate(GateId.EXCHANGE, 3.25))
    data = schedule_to_json(schedule)
    again = schedule_from_json(data)
    assert again == schedule
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(data))
    assert load_schedule(path) == schedule


def test_schedule_from_json_names_offending_segment():
    good = {"electrode": "E1", "amplitude_ueV": 1.0, "duration_ns": 0.1}
    bad = {"electrode": "Q9", "amplitude_ueV": 1.0, "duration_ns": 0.1}
    with pytest.raises(ValueError, match="segment 1"):
        schedule_from_json([good, bad])
    with pytest.raises(ValueError, match="segment 1"):
        schedule_from_json([good, {**good, "amplitude_ueV": 10**400}])
    with pytest.raises(ValueError):
        schedule_from_json({"not": "a list"})

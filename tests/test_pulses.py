from __future__ import annotations

import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dqdsim import pulses
from dqdsim.basis import (COMPUTATIONAL_ROWS, EXTENDED_BASIS, LEAKAGE_ROWS,
                          computational_basis_state)
from dqdsim.constants import HBAR_UEV_NS
from dqdsim.gates import GateId, gate_matrix
from dqdsim.linalg import dist_up_to_global_phase, max_abs_diff
from dqdsim.pulses import (
    ELECTRODES,
    PulseSegment,
    Schedule,
    calibrate,
    calibrate_phase_flip,
    evolve,
    load_schedule,
    reproduction_residuals,
    schedule_from_json,
    schedule_to_json,
    sqrt_swap_sequence,
    swap_sequence,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _generator(segment: PulseSegment) -> np.ndarray:
    """The Hermitian 6x6 generator (ueV) of one segment, from ``pulses._GENERATORS``."""
    sign, unit = pulses._GENERATORS[segment.electrode]
    return (sign * float(segment.amplitude_ueV)) * unit


def _expm_hermitian(h: np.ndarray, angle: float) -> np.ndarray:
    """``exp(-1j * angle * h)`` for Hermitian ``h`` from one ``eigh``."""
    eigvals, p = np.linalg.eigh(h)
    return (p * np.exp(-1j * angle * eigvals)) @ p.conj().T


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


@pytest.mark.parametrize("field", ["amplitude_ueV", "duration_ns"])
def test_segment_rejects_integers_beyond_the_float_range(field):
    values = {"amplitude_ueV": 1.0, "duration_ns": 1.0, field: 10**400}
    with pytest.raises(ValueError, match=f"{field} is an integer beyond the float range"):
        PulseSegment("E1", **values)


def test_segment_rejects_strings():
    with pytest.raises(ValueError, match="amplitude_ueV must be a number"):
        PulseSegment("E1", "5", 1.0)


def test_electrode_inventory():
    assert ELECTRODES == ("E1", "E2", "E12", "T1", "T2", "T3", "T4")


def test_tunnel_generators_vanish_on_leakage_rows():
    for electrode in ("T1", "T2", "T3", "T4"):
        h6 = _generator(PulseSegment(electrode, 3.7, 1.0))
        for leak in (1, 4):
            assert np.all(h6[leak, :] == 0.0)
            assert np.all(h6[:, leak] == 0.0)


# Negative amplitudes and both signed zeros included.
AMPLITUDES = (-25.0, -3.7, -1e-3, -0.0, 0.0, 1e-3, 0.5, 3.7, 12.25, 1e3)


EPS = np.finfo(float).eps


@pytest.mark.parametrize("electrode", ELECTRODES)
def test_evolve_matches_kron_generator_bytes(electrode):
    # The generator is bitwise the kron construction; one segment's unitary is
    # scipy's Pade exponential of exactly those bytes, to roundoff in the phase.
    for amplitude in AMPLITUDES:
        for duration in (0.0, 0.37, 41.0, 1e4):
            segment = PulseSegment(electrode, amplitude, duration)
            h = _kron_generator(segment)
            assert max_abs_diff(_generator(segment), h) == 0.0
            angle = duration / HBAR_UEV_NS
            expected = scipy.linalg.expm(-1j * angle * h)
            bound = 4 * EPS * (1 + angle * abs(amplitude))
            assert max_abs_diff(evolve([segment]), expected) <= bound, (amplitude, duration)


def test_units_have_exact_spectral_projectors():
    eye = np.eye(6)
    for e, electrode in enumerate(ELECTRODES):
        u = pulses._UNITS[e]
        assert np.array_equal(u, pulses._GENERATORS[electrode][1]), electrode
        assert np.array_equal(u, u.conj().T), electrode
        assert np.array_equal(u @ u @ u, u), electrode
        plus, minus, zero = (u @ u + u) / 2.0, (u @ u - u) / 2.0, eye - u @ u
        assert np.array_equal(plus + minus + zero, eye), electrode
        for p in (plus, minus, zero):
            assert np.array_equal(p @ p, p), electrode
        assert np.array_equal(plus - minus, u), electrode
        table = pulses._SPECTRAL[e]
        assert np.array_equal(table[0, ..., 0], zero), electrode
        assert np.array_equal(table[1, ..., 0], plus + minus), electrode
        assert np.array_equal(table[2, ..., 1], plus - minus), electrode
        assert not table[0, ..., 1].any() and not table[1, ..., 1].any(), electrode
        assert not table[2, ..., 0].any(), electrode


def test_evolve_never_calls_eigh(monkeypatch):
    def eigh(*args, **kwargs):
        raise AssertionError("evolve called numpy.linalg.eigh")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    rng = np.random.default_rng(7)
    schedule = _random_schedule(rng, 300)
    u = evolve(schedule)
    evolve(schedule, u)
    evolve(schedule, computational_basis_state("10"))


# Residuals of the eigh-based evolve these schedules replaced; none may grow.
EIGH_RESIDUALS = {
    "pulse[not1]": 2.2204460492503131e-16,
    "pulse[not2]": 2.2204460492503131e-16,
    "pulse[sqrt_not1]": 1.1102230246251568e-16,
    "pulse[sqrt_not2]": 1.1102230246251568e-16,
    "pulse[exchange]": 2.2204460492503131e-16,
    "pulse[swap_sequence]": 8.8817841970012523e-16,
    "pulse[sqrt_swap_sequence]": 4.4754520913118096e-16,
    "pulse[phase_flip_dqd1]": 6.123233995736766e-17,
}


def test_reproduction_residuals_stay_at_or_below_the_eigh_values():
    residuals = reproduction_residuals()
    assert residuals.keys() == EIGH_RESIDUALS.keys()
    for name, value in residuals.items():
        assert value <= EIGH_RESIDUALS[name], name


def test_all_generators_hermitian():
    for electrode in ELECTRODES:
        g = _generator(PulseSegment(electrode, 3.7, 1.0))
        assert max_abs_diff(g, g.conj().T) < 1e-14, electrode


def test_tunnel_electrodes_come_in_sign_pairs():
    for plus, minus in (("T1", "T2"), ("T3", "T4")):
        gp = _generator(PulseSegment(plus, 2.5, 1.0))
        gm = _generator(PulseSegment(minus, 2.5, 1.0))
        assert max_abs_diff(gp, -gm) == 0.0


def test_detuning_electrodes_shift_leakage_rows_too():
    # the level-splitting electrodes act on the whole DQD, including the
    # doubly-occupied configurations, so their generator cannot vanish there
    g = _generator(PulseSegment("E1", 1.0, 1.0))
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
    """Oracle: one generator, one ``eigh``-based exponential and one
    product per segment, in schedule order."""
    state = np.eye(6, dtype=complex) if initial is None else np.array(initial, dtype=complex)
    for segment in schedule:
        u = _expm_hermitian(_generator(segment), segment.duration_ns / HBAR_UEV_NS)
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


@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 255, 256, 257, 300])
def test_chunked_evolve_matches_the_per_segment_loop(n):
    # Projectors and a product tree against eigh and a loop: two algorithms,
    # so they agree to roundoff (at most 1.6e-14 seen), not bitwise.
    rng = np.random.default_rng(n)
    schedule = _random_schedule(rng, n)
    assert n < 8 or {s.electrode for s in schedule} == set(ELECTRODES)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    v /= np.linalg.norm(v)
    w = _evolve_one_segment_at_a_time(_random_schedule(rng, 5))
    for initial in (None, v, w):
        expected = _evolve_one_segment_at_a_time(schedule, initial)
        assert max_abs_diff(evolve(schedule, initial), expected) <= 1e-13


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


@settings(max_examples=50)
@given(
    schedule=st.lists(st.tuples(st.sampled_from(ELECTRODES), st.floats(-1e3, 1e3),
                                st.one_of(st.just(0.0), st.floats(1e-6, 1e3))), max_size=40),
    k=st.integers(-4, 4),
)
def test_scaling_amplitudes_up_and_durations_down_keeps_the_unitary_bitwise(schedule, k):
    """Metamorphic relation (a, t) -> (2**k a, t / 2**k) on every segment.

    A segment enters evolve only through its phase (t / hbar) * (sign * a).
    Scaling by a power of two is exact while no value leaves the normal
    range, which holds here (t is 0 or at least 1e-6 ns, |a| at most
    1e3 ueV, |k| at most 4).  So ((t / 2**k) / hbar) * (sign * 2**k a) is
    the product of (t / hbar) / 2**k and 2**k (sign * a): the same real
    number as before, rounded once to the same double.  Equal phases give
    equal segment unitaries, and equal factors multiplied in the same tree
    give a bitwise-equal result, from a list of segments and through the
    JSON reader alike.
    """
    factor = 2.0 ** k
    original = [PulseSegment(e, a, t) for e, a, t in schedule]
    scaled = [PulseSegment(e, a * factor, t / factor) for e, a, t in schedule]
    u = evolve(original)
    assert np.array_equal(evolve(scaled), u)
    assert np.array_equal(evolve(schedule_from_json(schedule_to_json(scaled))), u)


def _random_schedules(count: int, with_e12: bool) -> list[list[PulseSegment]]:
    """``count`` seeded schedules of 1..40 segments, each with an E12 pulse or none."""
    rng = np.random.default_rng(18)
    electrodes = [e for e in ELECTRODES if with_e12 or e != "E12"]
    schedules = []
    for _ in range(count):
        n = int(rng.integers(1, 41))
        names = list(rng.choice(electrodes, n))
        if with_e12:
            names[rng.integers(n)] = "E12"
        schedules.append([PulseSegment(str(e), float(a), float(t)) for e, a, t in
                          zip(names, rng.uniform(-20.0, 20.0, n), rng.uniform(0.0, 2.0, n))])
    return schedules


def _relabelled(schedule: list[PulseSegment], names: dict[str, str]) -> list[PulseSegment]:
    return [PulseSegment(names.get(s.electrode, s.electrode), s.amplitude_ueV, s.duration_ns)
            for s in schedule]


def test_mirroring_the_four_dqds_permutes_the_unitary():
    """Symmetry: read the four DQDs right to left.

    DQD k becomes DQD 5 - k, so qubit 1's pair (DQD 1, DQD 2) becomes qubit
    2's pair read backwards, and a configuration's row goes to the row of
    the reversed configuration: P, built here from ``EXTENDED_BASIS``.  The
    electrodes follow: E1 <-> E2, T1 <-> T4, T2 <-> T3, and E12, between the
    inner DQDs 2 and 3, stays.  Each generator then obeys P H_e P^T =
    H_mirror(e) with the same amplitude (reversing a pair negates the
    qubit's logical z, which the opposite T signs undo), and P is a
    permutation, so a schedule and its mirror give P U P^T and U.  evolve
    reaches them through different projectors and phases, so they agree to
    rounding; the measured worst case over these 300 schedules is 6.1e-16.
    """
    row = {config: r for r, config in enumerate(EXTENDED_BASIS)}
    p = np.zeros((6, 6))
    for r, config in enumerate(EXTENDED_BASIS):
        p[row[config[::-1]], r] = 1.0
    mirror = {"E1": "E2", "E2": "E1", "T1": "T4", "T4": "T1", "T2": "T3", "T3": "T2"}
    for schedule in _random_schedules(300, with_e12=True):
        u = evolve(schedule)
        assert max_abs_diff(evolve(_relabelled(schedule, mirror)), p @ u @ p.T) <= 2e-15


def test_swapping_the_qubits_permutes_the_unitary_without_e12():
    """Symmetry: exchange the two qubits, keeping each pair's DQD order.

    DQD 1 <-> DQD 3 and DQD 2 <-> DQD 4 maps the rows as the catalog SWAP
    does and the electrodes E1 <-> E2, T1 <-> T3, T2 <-> T4.  E12 couples
    the inner DQDs 2 and 3, which this map sends to DQDs 4 and 1, so it has
    no image among the electrodes: the relation holds only for schedules
    without E12 (with E12 these schedules miss it by up to 1.5).  Without it, each
    generator obeys S H_e S^T = H_swap(e) and the unitaries agree to
    rounding; the measured worst case over these 300 schedules is 5.0e-16.
    """
    s = gate_matrix(GateId.SWAP).real
    swap = {"E1": "E2", "E2": "E1", "T1": "T3", "T3": "T1", "T2": "T4", "T4": "T2"}
    for schedule in _random_schedules(300, with_e12=False):
        u = evolve(schedule)
        assert max_abs_diff(evolve(_relabelled(schedule, swap)), s @ u @ s.T) <= 2e-15


def test_the_reversed_schedule_with_negated_amplitudes_is_the_inverse():
    """Metamorphic relation: U = U_k ... U_1 with U_i = exp(-i H(a_i) t_i / hbar),
    and H(-a) = -H(a), so the segments reversed with negated amplitudes give
    U_1^dagger ... U_k^dagger = U^dagger = U^-1.  The phases are negated
    exactly; the tree products differ in order, so the two agree to
    rounding: the measured worst case over these 300 schedules is 6.7e-16.
    """
    for schedule in _random_schedules(300, with_e12=True):
        inverse = [PulseSegment(s.electrode, -s.amplitude_ueV, s.duration_ns)
                   for s in reversed(schedule)]
        assert max_abs_diff(evolve(inverse), evolve(schedule).conj().T) <= 2e-15


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
    assert list(again) == schedule
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(data))
    assert list(load_schedule(path)) == schedule


def test_schedule_from_json_names_offending_segment():
    good = {"electrode": "E1", "amplitude_ueV": 1.0, "duration_ns": 0.1}
    bad = {"electrode": "Q9", "amplitude_ueV": 1.0, "duration_ns": 0.1}
    with pytest.raises(ValueError, match="segment 1"):
        schedule_from_json([good, bad])
    with pytest.raises(ValueError, match="segment 1"):
        schedule_from_json([good, {**good, "amplitude_ueV": 10**400}])
    with pytest.raises(ValueError):
        schedule_from_json({"not": "a list"})


def test_parsing_and_evolving_a_valid_schedule_build_no_segment(monkeypatch, tmp_path):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(schedule_to_json(_random_schedule(np.random.default_rng(3), 300))))

    def refuse(self):
        raise AssertionError("built a PulseSegment")

    monkeypatch.setattr(PulseSegment, "__post_init__", refuse)
    schedule = load_schedule(path)
    assert isinstance(schedule, Schedule) and len(schedule) == 300
    evolve(schedule, evolve(schedule))
    evolve(schedule, computational_basis_state("10"))


def test_parsed_schedule_is_three_read_only_columns():
    schedule = schedule_from_json(schedule_to_json(swap_sequence(10.0)))
    for column in (schedule.electrode, schedule.amplitude_ueV, schedule.duration_ns):
        assert not column.flags.writeable and column.shape == (4,)
    assert schedule[-1] == swap_sequence(10.0)[-1]
    with pytest.raises(IndexError):
        schedule[4]


@pytest.mark.parametrize("sl", [slice(1, 3), slice(None, None, -1), slice(5, 2), slice(None)])
def test_a_sliced_schedule_is_a_schedule_of_the_sliced_segments(sl, tmp_path):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(schedule_to_json(_random_schedule(np.random.default_rng(5), 9))))
    schedule = load_schedule(path)
    part = schedule[sl]
    assert isinstance(part, Schedule) and list(part) == list(schedule)[sl]
    for column in (part.electrode, part.amplitude_ueV, part.duration_ns):
        assert not column.flags.writeable
    assert np.array_equal(evolve(schedule[1:]), evolve(list(schedule)[1:]))


@pytest.mark.parametrize("n", [1, 127, 128, 129, 256, 300])
def test_a_schedule_multiplies_each_chunk_once(n, monkeypatch):
    rng = np.random.default_rng(n)
    segments = _random_schedule(rng, n)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    initials = (None, v / np.linalg.norm(v), evolve(_random_schedule(rng, 3)))
    from_list = [evolve(segments, initial) for initial in initials]
    from_schedule = [evolve(schedule_from_json(schedule_to_json(segments)), initial)
                     for initial in initials]
    sliced = evolve(segments[1:])

    trees = []
    ordered_product = pulses._ordered_product
    monkeypatch.setattr(pulses, "_ordered_product",
                        lambda u: trees.append(len(u)) or ordered_product(u))
    schedule = schedule_from_json(schedule_to_json(segments))
    for _ in range(2):
        for initial, a, b in zip(initials, from_list, from_schedule):
            out = evolve(schedule, initial)
            assert np.array_equal(out, a) and np.array_equal(out, b)
            out[...] = 0.0  # a fresh array: the kept products are not handed out
    assert len(trees) == math.ceil(n / 128) and sum(trees) == n

    trees.clear()
    assert np.array_equal(evolve(schedule[1:]), sliced)
    assert len(trees) == math.ceil((n - 1) / 128)


def _per_segment_schedule_from_json(data):
    """The parser the column pass replaced, one ``PulseSegment`` per segment,
    kept as the oracle for its results and its messages."""
    if not isinstance(data, list):
        raise ValueError(f"schedule must be a JSON array of segments, got {type(data).__name__}")
    segments = []
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise ValueError(f"segment {i}: expected an object, got {type(item).__name__}")
        extra = item.keys() - {"electrode", "amplitude_ueV", "duration_ns"}
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
            segments.append(PulseSegment(electrode, amplitude, duration))
        except ValueError as exc:
            raise ValueError(f"segment {i}: {exc}") from None
    return segments


_NUMBERS = st.one_of(st.floats(-1e3, 1e3), st.integers(-1000, 1000),
                     st.sampled_from([0.0, -0.0, 5e-324, 1e300, 10**300]))
_GOOD_SEGMENTS = st.fixed_dictionaries({
    "electrode": st.sampled_from(ELECTRODES),
    "amplitude_ueV": _NUMBERS,
    "duration_ns": _NUMBERS.map(abs),
})
_NUMBER_KEYS = st.sampled_from(["amplitude_ueV", "duration_ns"])
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


_FAULTS = ("not a dict", "missing key", "extra key", "electrode type", "unknown electrode", "bool",
           "str", "other type", "beyond float", "non-finite", "negative duration", "phase overflow")
_WRONG_TYPES = {"bool": [True, False], "str": ["5", "1.0", "nan", ""], "other type": [None, [1.0], {}]}


@st.composite
def _faulty(draw, kind):
    """A segment with one fault of the given kind."""
    segment = dict(draw(_GOOD_SEGMENTS))
    if kind == "not a dict":
        return draw(st.sampled_from([[segment["electrode"]], "E1", None, 3, 1.5]))
    if kind == "missing key":
        del segment[draw(st.sampled_from(sorted(segment)))]
    elif kind == "extra key":
        segment[draw(st.sampled_from(["phase", "Electrode", "amplitude"]))] = 1.0
    elif kind == "electrode type":
        segment["electrode"] = draw(st.sampled_from([1, None, True, ["E1"], 1.5]))
    elif kind == "unknown electrode":
        segment["electrode"] = draw(st.sampled_from(["E3", "e1", "", "T5", "E1 "]))
    elif kind in _WRONG_TYPES:
        segment[draw(_NUMBER_KEYS)] = draw(st.sampled_from(_WRONG_TYPES[kind]))
    elif kind == "beyond float":
        segment[draw(_NUMBER_KEYS)] = draw(st.sampled_from([10**400, -10**400, 2**1024]))
    elif kind == "non-finite":
        segment[draw(_NUMBER_KEYS)] = draw(_NON_FINITE)
    elif kind == "negative duration":
        segment["duration_ns"] = draw(st.sampled_from([-0.5, -1, -5e-324, -1e300]))
    else:  # finite numbers whose phase |a| * t / hbar is not
        segment.update(draw(st.sampled_from([
            {"amplitude_ueV": 1e300, "duration_ns": 1e10},
            {"amplitude_ueV": -1e200, "duration_ns": 10**200},
            {"amplitude_ueV": 0.0, "duration_ns": 1.7e308},
            {"amplitude_ueV": 1, "duration_ns": 1.7976931348623157e308},
        ])))
    return segment


@pytest.mark.parametrize("kind", (None,) + _FAULTS)
@settings(max_examples=15)
@given(segments=st.lists(_GOOD_SEGMENTS, max_size=12), data=st.data())
def test_schedule_from_json_raises_the_per_segment_message(kind, segments, data):
    # A fault of this kind and maybe one more, at random positions: the first is named.
    faults = [] if kind is None else [kind]
    faults += data.draw(st.lists(st.sampled_from(_FAULTS), max_size=len(faults)))
    for fault in faults:
        segments.insert(data.draw(st.integers(0, len(segments))), data.draw(_faulty(fault)))
    try:
        expected = _per_segment_schedule_from_json(segments)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            schedule_from_json(segments)
        assert str(got.value) == str(exc)
    else:  # the columns hold floats; an integer compares equal to its float
        assert not faults
        expected = [PulseSegment(s.electrode, float(s.amplitude_ueV), float(s.duration_ns))
                    for s in expected]
        assert list(schedule_from_json(segments)) == expected

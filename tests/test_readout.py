from __future__ import annotations

import contextlib
import csv
import io
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import assume, example, given
from hypothesis import strategies as st

from dqdsim import readout
from dqdsim.cli import main
from dqdsim.constants import HBAR_UEV_NS, K_B_UEV_PER_K
from dqdsim.decoherence import thermal_occupancy
from dqdsim.linalg import is_unitary, max_abs_diff
from dqdsim.readout import (
    MAX_BIAS_SAMPLES,
    MAX_TRACE_SAMPLES,
    InitPlan,
    ReadoutConfig,
    init_by_reversed_readout,
    rabi_frequency,
    readout_traces,
    readout_unitary,
    scan_bias,
)

CFG = ReadoutConfig(
    tunnel_coupling_ueV=5.0, bias_ueV=10.0, duration_ns=0.4, timestep_ns=0.0005
)


def test_config_validation():
    with pytest.raises(ValueError):
        ReadoutConfig(-1.0, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        ReadoutConfig(1.0, 0.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        ReadoutConfig(1.0, 0.0, 1.0, 2.0)  # step longer than the window


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite_fields(field, bad):
    values = [5.0, 10.0, 0.4, 0.0005]
    values[field] = bad
    names = ("tunnel_coupling_ueV", "bias_ueV", "duration_ns", "timestep_ns")
    with pytest.raises(ValueError, match=names[field]):
        ReadoutConfig(*values)


@pytest.mark.parametrize("field", range(4))
def test_config_rejects_integers_beyond_the_float_range(field):
    values = [5.0, 10.0, 0.4, 0.0005]
    values[field] = 10**400
    names = ("tunnel_coupling_ueV", "bias_ueV", "duration_ns", "timestep_ns")
    with pytest.raises(ValueError, match=f"{names[field]} is an integer beyond the float range"):
        ReadoutConfig(*values)


def numpy_config_error(values):
    """The first of ReadoutConfig's checks that ``values`` fail, in numpy
    arithmetic, as a fragment of its message; ``None`` when all pass."""
    names = ("tunnel_coupling_ueV", "bias_ueV", "duration_ns", "timestep_ns")
    for name, value in zip(names, values):
        if not np.isfinite(value):
            return f"{name} must be finite"
    t_c, bias, duration, timestep = values
    if t_c < 0.0:
        return "tunnel coupling must be >= 0"
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is nan
        omega = 2.0 * np.hypot(t_c, bias / 2.0) / HBAR_UEV_NS
        phase = omega * duration
    if not np.isfinite(omega):
        return "give a Rabi frequency outside the float range"
    if not duration > 0.0:
        return "duration must be positive"
    if not np.isfinite(phase):
        return "gives a readout phase outside the float range"
    if not 0.0 < timestep <= duration:
        return "timestep must be positive"
    if not duration / timestep + 1e-9 < MAX_TRACE_SAMPLES:
        return f"more than {MAX_TRACE_SAMPLES} samples"
    return None


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1e-300, 0.4, 0.0005, 5.0, -5.0, 1e150, 1e300,
                               1.7e308, -1.7e308, np.inf, -np.inf, np.nan])


@given(values=st.lists(st.one_of(EDGE_FLOATS, st.floats()), min_size=4, max_size=4))
@example(values=[1e308, 1e308, 1.0, 0.1])   # the Rabi frequency overflows
@example(values=[1.0, 2.0, 1e308, 1e304])    # the end phase overflows
@example(values=[np.nan, -1.0, 0.0, np.inf])  # the first bad field is named
def test_config_checks_match_their_numpy_form(values):
    # Scalar math raises the same first error as numpy arithmetic would.
    expected = numpy_config_error(values)
    if expected is None:
        ReadoutConfig(*values)
    else:
        with pytest.raises(ValueError) as error:
            ReadoutConfig(*values)
        assert expected in str(error.value)


def test_trace_sample_count_is_capped():
    # floor(duration / timestep) + 1 samples; checked before any allocation
    assert len(readout_traces(ReadoutConfig(1.0, 2.0, 9.0, 1.0)).times_ns) == 10
    ReadoutConfig(1.0, 2.0, float(MAX_TRACE_SAMPLES - 1), 1.0)
    with pytest.raises(ValueError, match=str(MAX_TRACE_SAMPLES)):
        ReadoutConfig(1.0, 2.0, float(MAX_TRACE_SAMPLES), 1.0)
    with pytest.raises(ValueError, match=str(MAX_TRACE_SAMPLES)):
        ReadoutConfig(1.0, 2.0, 1e300, 1e-300)


def test_scan_bias_count_is_capped():
    with pytest.raises(ValueError, match=str(MAX_BIAS_SAMPLES)):
        scan_bias(5.0, 0.4, 0.0005, n_bias=MAX_BIAS_SAMPLES + 1)
    with pytest.raises(ValueError):
        scan_bias(5.0, 0.4, 0.0005, n_bias=1)


@pytest.mark.parametrize("n_bias", [2.5, 40.0, True, "40", None])
def test_scan_bias_count_must_be_an_integer(n_bias):
    with pytest.raises(ValueError, match="n_bias"):
        scan_bias(5.0, 0.4, 0.0005, n_bias=n_bias)


def test_scan_bias_takes_numpy_integers():
    assert scan_bias(5.0, 0.4, 0.0005, n_bias=np.int64(40)) == scan_bias(5.0, 0.4, 0.0005)


def test_rabi_frequency_closed_form():
    f = rabi_frequency(CFG)
    assert f == pytest.approx(2.0 * np.hypot(5.0, 5.0) / HBAR_UEV_NS, rel=1e-15)


def test_readout_unitary_is_unitary():
    for t in (0.0, 0.05, 0.31):
        assert is_unitary(readout_unitary(CFG, t))


def test_readout_unitary_at_zero_bias_is_a_pauli_x_rotation():
    # exp(-i theta sx) = cos(theta) I - i sin(theta) sx, a textbook identity
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    theta = 1.234
    config = ReadoutConfig(5.0, 0.0, 0.4, 0.0005)
    expected = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * sx
    assert max_abs_diff(readout_unitary(config, theta * HBAR_UEV_NS / 5.0), expected) < 1e-14


def test_trace_against_rabi_formula():
    """The left-dot signal follows the textbook driven two-level result.

    With mixing angle alpha (sin = coupling / E, cos = half-bias / E) the
    left-dot probability starting from the symmetric level is
        p_L(t) = 1/2 * (1 + sin(a) cos(a) * (1 - cos(Omega t)))
    and the antisymmetric level gives the mirror image.
    """
    e = np.hypot(5.0, 5.0)
    sin_a, cos_a = 5.0 / e, 5.0 / e
    omega = rabi_frequency(CFG)

    traces = readout_traces(CFG)
    plus, minus = traces.p_left
    t = traces.times_ns
    expect = 0.5 * (1.0 + sin_a * cos_a * (1.0 - np.cos(omega * t)))
    assert np.max(np.abs(plus - expect)) < 1e-12

    expect = 0.5 * (1.0 - sin_a * cos_a * (1.0 - np.cos(omega * t)))
    assert np.max(np.abs(minus - expect)) < 1e-12


def test_trace_conserves_probability():
    # Every 40th sample of both traces against the propagator: |U psi|^2 sums to
    # one and its left-dot entry is the trace's value.
    traces = readout_traces(CFG)
    to_dots = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    for k, t in enumerate(traces.times_ns[::40]):
        populations = np.abs(readout_unitary(CFG, t) @ to_dots) ** 2
        assert np.max(np.abs(populations.sum(axis=0) - 1.0)) < 1e-12
        kernel = traces.p_left[:, 40 * k]
        assert np.max(np.abs(populations[0] - kernel)) < 1e-12


def test_trace_time_grid():
    times = readout_traces(CFG).times_ns
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.4)
    assert np.allclose(np.diff(times), 0.0005)


def test_space_states_fill_both_dots_evenly():
    # the bonding/antibonding levels spread the electron evenly over the two
    # dots; charge only localizes once the readout pulse superposes them
    for p_left in readout_traces(CFG).p_left:
        assert p_left[0] == pytest.approx(0.5, abs=1e-15)


def test_optimal_time_is_half_rabi_period():
    best = readout_traces(CFG).best
    omega = rabi_frequency(CFG)
    assert best.time_ns == pytest.approx(np.pi / omega, abs=CFG.timestep_ns)
    assert best.distinguishability > 0.9999


_ZERO_OR_NORMAL = st.one_of(st.just(0.0), st.floats(1e-3, 50.0))  # 0, or far from subnormal


@example(t_c=5.0, bias=10.0, duration=0.4, samples=800, k=1)
@given(t_c=_ZERO_OR_NORMAL, bias=_ZERO_OR_NORMAL | _ZERO_OR_NORMAL.map(lambda b: -b),
       duration=st.floats(0.01, 2.0),
       samples=st.integers(1, 2000), k=st.integers(-3, 3))
def test_scaling_energies_up_and_times_down_keeps_the_traces_bitwise(t_c, bias, duration,
                                                                     samples, k):
    """Metamorphic relation ReadoutConfig(t_c, b, T, dt) -> (2**k t_c, 2**k b, T / 2**k,
    dt / 2**k).

    Scaling by a power of two is exact while no value leaves the normal
    range, which holds here.  The sample count floor(T / dt + 1e-9) sees
    the same quotient, and every sample time j * dt scales by 2**-k.  E =
    hypot(t_c, b / 2) = sqrt(t_c**2 + (b / 2)**2) scales by 2**k, since
    every step of it scales exactly, so the ratios t_c / E and (b / 2) / E
    are unchanged, and E * t / hbar is the same real product, rounded to
    the same double: p_left is bitwise equal and the best time is the same
    sample, at 2**-k times the original time (0.146 ns against 0.073 ns in
    the example).
    """
    factor = 2.0 ** k
    timestep = duration / samples
    original = readout_traces(ReadoutConfig(t_c, bias, duration, timestep))
    scaled = readout_traces(ReadoutConfig(t_c * factor, bias * factor, duration / factor,
                                          timestep / factor))
    assert np.array_equal(scaled.p_left, original.p_left)
    assert scaled.best_sample == original.best_sample
    assert scaled.best.time_ns == original.best.time_ns / factor


def test_balanced_bias_separates_states_perfectly():
    # at bias = 2 * coupling the mixing angle is exactly pi/4 per level and
    # the two space states land on opposite dots after half a period
    omega = rabi_frequency(CFG)
    u = readout_unitary(CFG, np.pi / omega)
    plus_end = u @ np.array([1.0, 0.0], dtype=complex)
    minus_end = u @ np.array([0.0, 1.0], dtype=complex)
    to_dots = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    p_left_plus = abs((to_dots @ plus_end)[0]) ** 2
    p_left_minus = abs((to_dots @ minus_end)[0]) ** 2
    assert p_left_plus == pytest.approx(1.0, abs=1e-12)
    assert p_left_minus == pytest.approx(0.0, abs=1e-12)


def test_zero_bias_gives_no_contrast():
    cfg = ReadoutConfig(5.0, 0.0, 0.4, 0.0005)
    best = readout_traces(cfg).best
    assert best.distinguishability == pytest.approx(0.0, abs=1e-12)


def test_scan_bias_prefers_twice_the_coupling():
    bias, best = scan_bias(5.0, duration_ns=0.4, timestep_ns=0.0005)
    assert bias == pytest.approx(10.0)
    assert best.distinguishability > 0.99


def test_thermal_occupancy_frozen_values():
    T = 1.0
    kT = K_B_UEV_PER_K * T
    assert thermal_occupancy(1.0 * kT, T) == pytest.approx(0.2689414213699951, rel=1e-14)
    assert thermal_occupancy(5.0 * kT, T) == pytest.approx(0.0066928509242848554, rel=1e-14)
    assert thermal_occupancy(9.3 * kT, T) == pytest.approx(9.141587385216144e-05, rel=1e-12)


def test_thermal_occupancy_limits():
    # near-degenerate levels approach equal population from below
    assert thermal_occupancy(1e-12, 1.0) == pytest.approx(0.5, abs=1e-9)
    assert thermal_occupancy(1e6, 0.001) < 1e-30
    with pytest.raises(ValueError):
        thermal_occupancy(0.0, 1.0)
    with pytest.raises(ValueError):
        thermal_occupancy(1.0, 0.0)


@given(
    temperature_K=st.floats(1e-3, 30.0),
    log10_ratio=st.floats(-12.0, np.log10(700.0)),
    huge_ratio=st.floats(710.0, 1e12),
)
def test_thermal_occupancy_is_the_logistic_of_deps_over_kt(temperature_K, log10_ratio, huge_ratio):
    kT = K_B_UEV_PER_K * temperature_K
    deps = 10.0**log10_ratio * kT
    expected = scipy.special.expit(-deps / kT)
    assert abs(thermal_occupancy(deps, temperature_K) - expected) <= 1e-15 * expected
    # bose_einstein overflows to 0 here, which is the exact population in floats
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert thermal_occupancy(huge_ratio * kT, temperature_K) == 0.0


def test_init_plan_reverses_readout():
    plan = init_by_reversed_readout(CFG, "plus")
    assert isinstance(plan, InitPlan)
    assert plan.source_dot == "L" and plan.degenerate is False
    assert plan.fidelity > 0.999
    # preparing by running the measurement backwards succeeds exactly as
    # often as the forward readout would have flagged the right dot
    plus = readout_traces(CFG).p_left[0]
    idx = int(round(plan.duration_ns / CFG.timestep_ns))
    assert plan.fidelity == pytest.approx(float(plus[idx]), abs=1e-12)
    assert plan.forward_probability == pytest.approx(float(plus[idx]), abs=1e-12)


def test_init_plan_minus_comes_from_right_dot():
    plan = init_by_reversed_readout(CFG, "minus")
    assert plan.source_dot == "R"
    assert plan.fidelity > 0.999
    minus = readout_traces(CFG).p_left[1]
    idx = int(round(plan.duration_ns / CFG.timestep_ns))
    assert plan.forward_probability == pytest.approx(1.0 - float(minus[idx]), abs=1e-12)


def test_init_rejects_unknown_target():
    with pytest.raises(ValueError):
        init_by_reversed_readout(CFG, "sideways")


# ---------------------------------------------------------------------------
# Oracles.  The closed form for one bias and one state at a time, and one
# Python step per bias: the stacked kernel must match them exactly.  One
# eigendecomposition per trace, as the readout was first written, stays as
# an independent reference; the two algorithms agree to roundoff in the
# phase, not bitwise.

EPS = np.finfo(float).eps


def _oracle_trace(config, initial):
    """Sample times and the left-dot population of one state, in closed form."""
    t_c, half_bias = config.tunnel_coupling_ueV, config.bias_ueV / 2.0
    e = np.hypot(t_c, half_bias)
    scale = e if e > 0.0 else 1.0
    n = int(np.floor(config.duration_ns / config.timestep_ns + 1e-9))
    times = np.arange(n + 1) * config.timestep_ns
    swing = (t_c / scale) * (half_bias / scale) * np.sin(e * times / HBAR_UEV_NS) ** 2
    return times, (0.5 + swing if initial == "plus" else 0.5 - swing)


def _eigh_trace(config, initial):
    """The left-dot population of one state from one ``eigh`` of its 2x2 ``H``."""
    t_c, half_bias = config.tunnel_coupling_ueV, config.bias_ueV / 2.0
    h = np.array([[half_bias, t_c], [t_c, -half_bias]], dtype=complex)
    psi0 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    psi0 = psi0 @ np.array([1.0, 0.0] if initial == "plus" else [0.0, 1.0], dtype=complex)
    times, _ = _oracle_trace(config, initial)
    eigvals, p = np.linalg.eigh(h)
    amplitudes = np.exp(-1j * np.outer(times, eigvals) / HBAR_UEV_NS) * (p.conj().T @ psi0)
    return np.abs(amplitudes @ p[0, :]) ** 2


def _eigh_tolerance(config):
    """The closed form and the ``eigh`` path lose digits in the phase
    ``theta = E T / hbar``: over 3,000 random pulses (theta up to ~1.5e3) the
    gap stayed below 4 EPS (1 + theta), at most 6.2e-14."""
    theta = np.hypot(config.tunnel_coupling_ueV, config.bias_ueV / 2.0) * config.duration_ns
    return 8.0 * EPS * (1.0 + theta / HBAR_UEV_NS)


def _oracle_optimum(config):
    times, plus = _oracle_trace(config, "plus")
    _, minus = _oracle_trace(config, "minus")
    contrast = np.abs(plus - minus)
    k = int(np.argmax(contrast))
    return float(times[k]), float(contrast[k])


def _oracle_scan(t_c, duration, timestep, n_bias):
    """The best bias and its optimum, from a fully checked config per bias."""
    best = None
    for i in range(1, n_bias + 1):
        config = ReadoutConfig(t_c, 4.0 * t_c * i / n_bias, duration, timestep)
        result = _oracle_optimum(config)
        if best is None or result[1] > best[1][1] + 1e-15:
            best = (config.bias_ueV, result)
    return best


def _random_pulse(rng, samples):
    duration = float(10.0 ** rng.uniform(-2.0, 1.0))
    return duration, duration / (samples - 1) * (1.0 - 1e-12)


def test_traces_are_bitwise_the_one_state_evaluation():
    rng = np.random.default_rng(17)
    for samples in (2, 3, 801, 2999, 3000, *rng.integers(2, 3001, size=6)):
        duration, timestep = _random_pulse(rng, int(samples))
        bias = float(rng.choice([0.0, rng.uniform(-40.0, 40.0)]))
        config = ReadoutConfig(float(10.0 ** rng.uniform(-2, 2)), bias, duration, timestep)
        traces = readout_traces(config)
        for kernel, initial in zip(traces.p_left, ("plus", "minus")):
            times, p_left = _oracle_trace(config, initial)
            assert len(times) == samples
            assert np.array_equal(traces.times_ns, times) and np.array_equal(kernel, p_left)
            gap = np.max(np.abs(kernel - _eigh_trace(config, initial)))
            assert gap <= _eigh_tolerance(config)
        assert tuple(traces.best) == _oracle_optimum(config)


@pytest.mark.parametrize("n_bias, samples", [
    (2, 2), (2, 3000), (21, 3000), (22, 3000), (137, 3000), (137, 478), (80, 1362), (40, 801),
    (3, 70_000),
])
def test_stacked_scan_is_bitwise_the_per_bias_loop(n_bias, samples):
    # 478 samples put 34 biases in a stack and 3000 samples put 5, so the
    # scans cross stack edges; 70,000 samples take one bias per stack.
    rng = np.random.default_rng(n_bias * samples)
    t_c = float(10.0 ** rng.uniform(-1, 1.5))
    duration, timestep = _random_pulse(rng, samples)
    bias, best = scan_bias(t_c, duration, timestep, n_bias)
    expected_bias, expected = _oracle_scan(t_c, duration, timestep, n_bias)
    assert bias.hex() == expected_bias.hex()
    assert tuple(best) == expected


def test_scan_ties_keep_the_first_bias():
    # A window too short to tell the states apart: every bias ties at 0.
    bias, best = scan_bias(5.0, 1e-9, 1e-9, n_bias=50)
    assert best.distinguishability < 1e-12
    assert bias == 4.0 * 5.0 / 50


def _half_period(t_c):
    """Half a Rabi period (ns) at bias = 2 t_c, where the contrast peaks at one."""
    return np.pi * HBAR_UEV_NS / (2.0 * np.hypot(t_c, t_c))


# (t_c, duration, timestep, n_bias): windows from a tenth of the balanced
# half period to three of them, odd and even grids (2 t_c is on the grid only
# for even n_bias), and couplings at both ends of the float range.
_SCANS = st.builds(
    lambda t_c, window, samples, n_bias: (
        t_c, window * _half_period(t_c), window * _half_period(t_c) / samples, n_bias),
    st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1e-300, 1e300])),
    st.floats(0.1, 3.0),
    st.integers(1, 300),
    st.integers(2, 41),
)


@given(_SCANS)
@example((5.0, 1e-9, 1e-9, 50))  # the all-tie window of test_scan_ties_keep_the_first_bias
@example((1e300, 0.4, 0.0005, 7))  # phases near 1e300 rad
@example((1e-300, 0.4, 0.0005, 7))  # phases near 1e-300 rad
def test_screened_scan_is_bitwise_the_oracle_scan(scan):
    bias, best = scan_bias(*scan)
    expected_bias, expected = _oracle_scan(*scan)
    assert bias.hex() == expected_bias.hex()
    assert tuple(best) == expected


def test_scan_screen_sends_one_bias_to_the_kernel(monkeypatch):
    biases = []

    def counting(tunnel_coupling_ueV, biases_ueV, times):
        biases.extend(biases_ueV)
        return kernel(tunnel_coupling_ueV, biases_ueV, times)

    kernel = readout._left_populations
    monkeypatch.setattr(readout, "_left_populations", counting)
    bias, _ = scan_bias(5.0, 0.4, 0.0005, 40)
    assert biases == [bias] == [10.0]
    # every bias of the all-tie window is within the slack of the best one
    biases.clear()
    scan_bias(5.0, 1e-9, 1e-9, n_bias=50)
    assert sorted(biases) == list(4.0 * 5.0 * np.arange(1, 51) / 50)


def test_screen_falls_back_to_every_bias_when_skipped_ones_could_decide(monkeypatch):
    # Contrasts within the slack of their bounds, with bias 0 skipped.  The
    # full loop keeps bias 0 over bias 1 (0.8e-15 apart), takes bias 2 and
    # keeps it over bias 3.  Survivors 1..3 alone would pick bias 3.
    top = 0.2
    contrasts = top - np.array([2.3e-15, 1.5e-15, 0.6e-15, 0.0])
    bounds = np.array([top - 2.1e-15 - readout._SCREEN_SLACK, 0.5, 0.5, 0.6])
    grid = 4.0 * 5.0 * np.arange(1, 5) / 4

    def kernel(tunnel_coupling_ueV, biases_ueV, times):
        p_left = np.zeros((2, len(biases_ueV), len(times)))
        p_left[0] = contrasts[np.searchsorted(grid, biases_ueV)][:, None]
        return p_left

    monkeypatch.setattr(readout, "_left_populations", kernel)
    monkeypatch.setattr(readout, "_contrast_bounds", lambda *args: bounds)
    bias, best = scan_bias(5.0, 0.4, 0.0005, n_bias=4)
    assert bias == grid[2] and best.distinguishability == contrasts[2]


@given(_SCANS)
@example((1e300, 0.4, 0.0005, 7))
def test_kernel_contrast_never_exceeds_the_screen_bound(scan):
    t_c, duration, timestep, n_bias = scan
    biases = 4.0 * t_c * np.arange(1, n_bias + 1) / n_bias
    times = np.arange(int(np.floor(duration / timestep + 1e-9)) + 1) * timestep
    p_left = readout._left_populations(t_c, biases, times)
    contrast = np.max(np.abs(p_left[0] - p_left[1]), axis=-1)
    assert np.all(contrast <= readout._contrast_bounds(t_c, biases, times[-1]) + 1e-12)


@given(st.floats(0.0, 1e3), st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.integers(1, 400))
def test_traces_match_the_closed_form_rabi_oracle(t_c, bias, end_phase, samples):
    # For H = t_c sx + (bias/2) sz, P_L(+/-) = 1/2 +/- (t_c bias/2) / E^2
    # sin^2(E t / hbar), E = hypot(t_c, bias/2): the kernel's formula, here
    # on pulses sized by their end phase.
    e = np.hypot(t_c, bias / 2.0)
    assume(e >= 1e-3)
    duration = end_phase * HBAR_UEV_NS / (2.0 * e)  # rabi_frequency * duration = end_phase
    traces = readout_traces(ReadoutConfig(t_c, bias, duration, duration / samples))
    swing = (t_c / e) * (bias / 2.0 / e) * np.sin(e * traces.times_ns / HBAR_UEV_NS) ** 2
    plus, minus = traces.p_left
    assert np.max(np.abs(plus - (0.5 + swing))) <= 1e-12
    assert np.max(np.abs(minus - (0.5 - swing))) <= 1e-12


# Edge pulses of the closed form: E = 0 (where H / E is 0 / 0), negative
# bias, and couplings near the top of the float range.  At phases near
# 1e300 rad the eigh reference's tolerance exceeds one, so there it only
# checks that both paths stay finite.
@pytest.mark.parametrize("config", [
    ReadoutConfig(0.0, 0.0, 0.4, 0.0005),
    ReadoutConfig(5.0, -10.0, 0.4, 0.0005),
    ReadoutConfig(0.25, -37.5, 3.0, 0.001),
    ReadoutConfig(0.0, -2.0, 1.0, 0.01),
    ReadoutConfig(1e300, 0.0, 0.4, 0.0005),
    ReadoutConfig(1e300, -3e300, 0.4, 0.0005),
])
def test_edge_traces_are_bitwise_the_one_state_evaluation(config):
    traces = readout_traces(config)
    for kernel, initial in zip(traces.p_left, ("plus", "minus")):
        times, p_left = _oracle_trace(config, initial)
        assert np.array_equal(traces.times_ns, times) and np.array_equal(kernel, p_left)
        gap = np.max(np.abs(kernel - _eigh_trace(config, initial)))
        assert gap <= _eigh_tolerance(config)
    assert tuple(traces.best) == _oracle_optimum(config)


def test_rabi_frequency_overflow_is_rejected_at_construction():
    with pytest.raises(ValueError, match="tunnel_coupling_ueV = 1e.308 and bias_ueV = 1e.308"):
        ReadoutConfig(1e308, 1e308, 1.0, 0.1)
    with pytest.raises(ValueError, match="bias_ueV"):
        ReadoutConfig(0.0, -1.7976931348623157e308, 1.0, 0.1)
    # the largest finite frequencies still build
    assert np.isfinite(rabi_frequency(ReadoutConfig(1e300, 1e308, 1.0, 0.1)))


# ---------------------------------------------------------------------------
# Properties over random pulses.

_PULSES = st.builds(
    lambda t_c, bias, duration, samples: ReadoutConfig(
        t_c, bias, duration, duration / samples * (1.0 - 1e-12)),
    st.floats(0.0, 1e3),
    st.floats(-1e3, 1e3),
    st.floats(1e-3, 10.0),
    st.integers(1, 400),
)


@given(_PULSES)
def test_space_state_populations_are_complementary(config):
    # |+> and |-> are orthonormal, so their left-dot populations sum to one
    traces = readout_traces(config)
    assert np.max(np.abs(traces.p_left.sum(axis=0) - 1.0)) <= 1e-12
    assert readout.propagator_error(config, traces) <= 1e-12


@given(_PULSES)
def test_trace_csv_cells_round_trip(config):
    argv = ["readout", f"--tunnel-coupling={config.tunnel_coupling_ueV!r}",
            f"--bias={config.bias_ueV!r}", f"--duration={config.duration_ns!r}",
            f"--timestep={config.timestep_ns!r}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    header, *rows = list(csv.reader(io.StringIO(out.getvalue())))
    assert header == ["t_ns", "p_left_plus", "p_left_minus", "contrast"]
    traces = readout_traces(config)
    plus, minus = traces.p_left
    expected = zip(traces.times_ns, plus, minus, np.abs(plus - minus))
    assert len(rows) == len(plus)
    for row, values in zip(rows, expected):
        assert [float(cell) for cell in row] == [float(v) for v in values]


@given(_PULSES, st.floats(0.0, 10.0))
@example(ReadoutConfig(0.0, 0.0, 0.4, 0.0005), 0.31)  # E = 0: H / E is 0 / 0, U is I
@example(ReadoutConfig(0.0, -2.0, 0.4, 0.0005), 0.31)
# E = 1e300 ueV over 1e-300 ns, a phase of ~1.5 rad: the ratios must not overflow.
@example(ReadoutConfig(1e300, 0.0, 0.4, 0.0005), 1e-300)
@example(ReadoutConfig(1e300, -3e300, 0.4, 0.0005), 1e-300)
def test_readout_unitary_matches_scipy_expm(config, t_ns):
    t_c, half_bias = config.tunnel_coupling_ueV, config.bias_ueV / 2.0
    h = np.array([[half_bias, t_c], [t_c, -half_bias]], dtype=complex)
    angle = t_ns / HBAR_UEV_NS
    expected = scipy.linalg.expm(-1j * angle * h)
    scale = 1.0 + angle * np.hypot(t_c, half_bias)
    assert max_abs_diff(readout_unitary(config, t_ns), expected) <= 2e-15 * scale


@given(_PULSES, st.sampled_from(["plus", "minus"]))
def test_init_reads_the_readout_pass(config, target):
    # init is readout run backwards: one kernel pass each, the same optimum,
    # and the forward population read at the optimum's own sample
    calls = []

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    kernel = readout._left_populations
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(readout, "_left_populations", counting)
        traces = readout_traces(config)
        assert len(calls) == 1
        patch.setattr(readout, "readout_traces", lambda c: calls.append(c) or traces)
        plan = init_by_reversed_readout(config, target)
        assert calls[1:] == [config]  # init ran no kernel pass of its own
    assert traces.times_ns[traces.best_sample] == traces.best.time_ns
    assert plan.duration_ns == traces.best.time_ns
    assert plan.degenerate == traces.best.degenerate
    p_left = float(traces.p_left[0 if target == "plus" else 1, traces.best_sample])
    assert plan.forward_probability == (p_left if plan.source_dot == "L" else 1.0 - p_left)


# ---------------------------------------------------------------------------
# One bias against a stack: a readout pulse's pass takes E and the ratios as
# Python floats, a scan's stacks as arrays; each value must be bitwise the
# same either way.

_COUPLINGS = st.one_of(st.sampled_from([0.0, 1e-300, 1e300]), st.floats(0.0, 1e3))
_BIASES = st.one_of(st.sampled_from([0.0, 1e-300, 1e300, -1e300]), st.floats(-1e6, 1e6))


@given(_COUPLINGS, _BIASES, st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4),
       st.integers(1, 400), st.floats(1e-3, 1e3))
@example(0.0, 0.0, [0.0], 3, 1.0)  # E = 0 in both passes
@example(0.0, 1e6, [0.0, -3.0], 50, 20.0)  # |bias| >> t_c
@example(1e300, -1e300, [1e3], 7, 2.0)
@example(1e-300, 0.0, [1e-300], 7, 2.0)
def test_one_bias_pass_is_row_zero_of_a_stacked_pass(t_c, bias, others, samples, end_phase):
    energy = float(np.hypot(t_c, bias / 2.0))
    duration = end_phase * HBAR_UEV_NS / (2.0 * energy) if energy > 0.0 else 1.0
    config = ReadoutConfig(t_c, bias, duration, duration / samples)
    traces = readout_traces(config)
    one = readout._left_populations(t_c, (bias,), traces.times_ns)
    stacked = readout._left_populations(t_c, np.array([bias, *others]), traces.times_ns)
    assert one.shape == (2, 1, len(traces.times_ns))
    assert one.tobytes() == stacked[:, :1].tobytes() == traces.p_left.tobytes()
    assert traces.best_sample == int(np.argmax(np.abs(stacked[0, 0] - stacked[1, 0])))
    assert traces.best == readout._optima(traces.times_ns, stacked)[0]


@given(_PULSES, st.floats(0.0, 10.0))
@example(ReadoutConfig(0.0, 0.0, 0.4, 0.0005), 0.31)
@example(ReadoutConfig(0.0, -2.0, 0.4, 0.0005), 0.31)
@example(ReadoutConfig(1e300, 0.0, 0.4, 0.0005), 1e-300)
@example(ReadoutConfig(1e300, -3e300, 0.4, 0.0005), 1e-300)
def test_readout_unitary_is_the_numpy_expression_entry_for_entry(config, t_ns):
    # The numpy form readout_unitary had before it went to Python floats.
    energy, coupling, half_bias = readout._mixing(config.tunnel_coupling_ueV, [config.bias_ueV])
    theta = energy[0] * t_ns / HBAR_UEV_NS
    h_over_e = np.array([[half_bias[0], coupling[0]], [coupling[0], -half_bias[0]]])
    expected = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * h_over_e
    got = readout_unitary(config, t_ns)
    assert got.dtype == expected.dtype and got.shape == (2, 2)
    assert (got == expected).all()


@pytest.mark.parametrize("t_c", [1e307, np.float64(1e308), 4.5e307])
def test_scan_rejects_a_grid_beyond_the_float_range_without_warning(t_c):
    # The largest bias, 4 t_c, overflows: its config names it, and no
    # numpy overflow warning comes first (warnings are errors here).
    with pytest.raises(ValueError, match="bias_ueV must be finite"):
        scan_bias(t_c, 0.4, 0.0005, 40)

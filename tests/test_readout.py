from __future__ import annotations

import numpy as np
import pytest

from dqdsim.constants import HBAR_UEV_NS, K_B_UEV_PER_K
from dqdsim.linalg import is_unitary
from dqdsim.readout import (
    MAX_BIAS_SAMPLES,
    MAX_TRACE_SAMPLES,
    InitPlan,
    ReadoutConfig,
    init_by_reversed_readout,
    optimal_measurement_time,
    rabi_frequency,
    readout_trace,
    readout_unitary,
    scan_bias,
    thermal_occupancy,
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


def test_trace_sample_count_is_capped():
    # floor(duration / timestep) + 1 samples; checked before any allocation
    assert len(readout_trace(ReadoutConfig(1.0, 2.0, 9.0, 1.0)).times_ns) == 10
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


def test_rabi_frequency_closed_form():
    f = rabi_frequency(CFG)
    assert f == pytest.approx(2.0 * np.hypot(5.0, 5.0) / HBAR_UEV_NS, rel=1e-15)


def test_readout_unitary_is_unitary():
    for t in (0.0, 0.05, 0.31):
        assert is_unitary(readout_unitary(CFG, t))


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

    plus = readout_trace(CFG, "plus")
    t = plus.times_ns
    expect = 0.5 * (1.0 + sin_a * cos_a * (1.0 - np.cos(omega * t)))
    assert np.max(np.abs(plus.p_left - expect)) < 1e-12

    minus = readout_trace(CFG, "minus")
    expect = 0.5 * (1.0 - sin_a * cos_a * (1.0 - np.cos(omega * t)))
    assert np.max(np.abs(minus.p_left - expect)) < 1e-12


def test_trace_conserves_probability():
    for initial in ("plus", "minus"):
        trace = readout_trace(CFG, initial)
        assert trace.norm_error < 1e-12


def test_trace_time_grid():
    trace = readout_trace(CFG, "plus")
    assert trace.times_ns[0] == 0.0
    assert trace.times_ns[-1] == pytest.approx(0.4)
    assert np.allclose(np.diff(trace.times_ns), 0.0005)


def test_space_states_fill_both_dots_evenly():
    # the bonding/antibonding levels spread the electron evenly over the two
    # dots; charge only localizes once the readout pulse superposes them
    for initial in ("plus", "minus"):
        trace = readout_trace(CFG, initial)
        assert trace.p_left[0] == pytest.approx(0.5, abs=1e-15)


def test_optimal_time_is_half_rabi_period():
    best = optimal_measurement_time(CFG)
    omega = rabi_frequency(CFG)
    assert best.time_ns == pytest.approx(np.pi / omega, abs=CFG.timestep_ns)
    assert best.distinguishability > 0.9999


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
    best = optimal_measurement_time(cfg)
    assert best.distinguishability == pytest.approx(0.0, abs=1e-12)


def test_scan_bias_prefers_twice_the_coupling():
    cfg, best = scan_bias(5.0, duration_ns=0.4, timestep_ns=0.0005)
    assert cfg.bias_ueV == pytest.approx(10.0)
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


def test_init_plan_reverses_readout():
    plan = init_by_reversed_readout(CFG, "plus")
    assert isinstance(plan, InitPlan)
    assert plan.source_dot == "L"
    assert plan.fidelity > 0.999
    # preparing by running the measurement backwards succeeds exactly as
    # often as the forward readout would have flagged the right dot
    trace = readout_trace(CFG, "plus")
    idx = int(round(plan.duration_ns / CFG.timestep_ns))
    assert plan.fidelity == pytest.approx(float(trace.p_left[idx]), abs=1e-12)
    assert plan.forward_probability == pytest.approx(float(trace.p_left[idx]), abs=1e-12)


def test_init_plan_minus_comes_from_right_dot():
    plan = init_by_reversed_readout(CFG, "minus")
    assert plan.source_dot == "R"
    assert plan.fidelity > 0.999
    trace = readout_trace(CFG, "minus")
    idx = int(round(plan.duration_ns / CFG.timestep_ns))
    assert plan.forward_probability == pytest.approx(1.0 - float(trace.p_left[idx]), abs=1e-12)


def test_init_rejects_unknown_target():
    with pytest.raises(ValueError):
        init_by_reversed_readout(CFG, "sideways")

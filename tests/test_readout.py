from __future__ import annotations

import contextlib
import csv
import io
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from dqdsim.cli import main
from dqdsim.constants import HBAR_UEV_NS, K_B_UEV_PER_K
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
    assert len(readout_traces(ReadoutConfig(1.0, 2.0, 9.0, 1.0)).plus.times_ns) == 10
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

    plus, minus, _ = readout_traces(CFG)
    t = plus.times_ns
    expect = 0.5 * (1.0 + sin_a * cos_a * (1.0 - np.cos(omega * t)))
    assert np.max(np.abs(plus.p_left - expect)) < 1e-12

    expect = 0.5 * (1.0 - sin_a * cos_a * (1.0 - np.cos(omega * t)))
    assert np.max(np.abs(minus.p_left - expect)) < 1e-12


def test_trace_conserves_probability():
    for trace in readout_traces(CFG)[:2]:
        assert trace.norm_error < 1e-12


def test_trace_time_grid():
    trace = readout_traces(CFG).plus
    assert trace.times_ns[0] == 0.0
    assert trace.times_ns[-1] == pytest.approx(0.4)
    assert np.allclose(np.diff(trace.times_ns), 0.0005)


def test_space_states_fill_both_dots_evenly():
    # the bonding/antibonding levels spread the electron evenly over the two
    # dots; charge only localizes once the readout pulse superposes them
    for trace in readout_traces(CFG)[:2]:
        assert trace.p_left[0] == pytest.approx(0.5, abs=1e-15)


def test_optimal_time_is_half_rabi_period():
    best = readout_traces(CFG).best
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
    best = readout_traces(cfg).best
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
    assert plan.source_dot == "L"
    assert plan.fidelity > 0.999
    # preparing by running the measurement backwards succeeds exactly as
    # often as the forward readout would have flagged the right dot
    trace = readout_traces(CFG).plus
    idx = int(round(plan.duration_ns / CFG.timestep_ns))
    assert plan.fidelity == pytest.approx(float(trace.p_left[idx]), abs=1e-12)
    assert plan.forward_probability == pytest.approx(float(trace.p_left[idx]), abs=1e-12)


def test_init_plan_minus_comes_from_right_dot():
    plan = init_by_reversed_readout(CFG, "minus")
    assert plan.source_dot == "R"
    assert plan.fidelity > 0.999
    trace = readout_traces(CFG).minus
    idx = int(round(plan.duration_ns / CFG.timestep_ns))
    assert plan.forward_probability == pytest.approx(1.0 - float(trace.p_left[idx]), abs=1e-12)


def test_init_rejects_unknown_target():
    with pytest.raises(ValueError):
        init_by_reversed_readout(CFG, "sideways")


# ---------------------------------------------------------------------------
# Oracles: one eigendecomposition per trace and one Python step per bias, as
# the readout was first written.  The stacked kernel must match them exactly.

def _oracle_populations(h, times, initial):
    """Left-dot population and norm error of one state under one 2x2 ``h``."""
    psi0 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    psi0 = psi0 @ np.array([1.0, 0.0] if initial == "plus" else [0.0, 1.0], dtype=complex)
    eigvals, p = np.linalg.eigh(h)
    coeffs = p.conj().T @ psi0
    amplitudes = np.exp(-1j * np.outer(times, eigvals) / HBAR_UEV_NS) * coeffs
    left = amplitudes @ p[0, :]
    right = amplitudes @ p[1, :]
    norm_error = float(np.max(np.abs(np.abs(left) ** 2 + np.abs(right) ** 2 - 1.0)))
    return np.abs(left) ** 2, norm_error


def _oracle_trace(config, initial):
    t_c, half_bias = config.tunnel_coupling_ueV, config.bias_ueV / 2.0
    h = np.array([[half_bias, t_c], [t_c, -half_bias]], dtype=complex)
    n = int(np.floor(config.duration_ns / config.timestep_ns + 1e-9))
    times = np.arange(n + 1) * config.timestep_ns
    return (times, *_oracle_populations(h, times, initial))


def _oracle_optimum(config):
    times, plus, _ = _oracle_trace(config, "plus")
    _, minus, _ = _oracle_trace(config, "minus")
    contrast = np.abs(plus - minus)
    k = int(np.argmax(contrast))
    return float(times[k]), float(contrast[k])


def _oracle_scan(t_c, duration, timestep, n_bias):
    best = None
    for i in range(1, n_bias + 1):
        config = ReadoutConfig(t_c, 4.0 * t_c * i / n_bias, duration, timestep)
        result = _oracle_optimum(config)
        if best is None or result[1] > best[1][1] + 1e-15:
            best = (config, result)
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
        pair = readout_traces(config)
        for trace, initial in ((pair.plus, "plus"), (pair.minus, "minus")):
            times, p_left, norm_error = _oracle_trace(config, initial)
            assert len(times) == samples
            assert np.array_equal(trace.times_ns, times) and np.array_equal(trace.p_left, p_left)
            assert trace.norm_error == norm_error
        assert tuple(pair.best) == _oracle_optimum(config)


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
    config, best = scan_bias(t_c, duration, timestep, n_bias)
    expected_config, expected = _oracle_scan(t_c, duration, timestep, n_bias)
    assert config == expected_config
    assert tuple(best) == expected


def test_scan_ties_keep_the_first_bias():
    # A window too short to tell the states apart: every bias ties at 0.
    config, best = scan_bias(5.0, 1e-9, 1e-9, n_bias=50)
    assert best.distinguishability < 1e-12
    assert config.bias_ueV == 4.0 * 5.0 / 50


# Edge pulses of the traceless kernel: both eigenvalues zero, negative bias,
# and couplings near the top of the float range.
@pytest.mark.parametrize("config", [
    ReadoutConfig(0.0, 0.0, 0.4, 0.0005),
    ReadoutConfig(5.0, -10.0, 0.4, 0.0005),
    ReadoutConfig(0.25, -37.5, 3.0, 0.001),
    ReadoutConfig(0.0, -2.0, 1.0, 0.01),
    ReadoutConfig(1e300, 0.0, 0.4, 0.0005),
    ReadoutConfig(1e300, -3e300, 0.4, 0.0005),
])
def test_edge_traces_are_bitwise_the_one_state_evaluation(config):
    pair = readout_traces(config)
    for trace, initial in ((pair.plus, "plus"), (pair.minus, "minus")):
        times, p_left, norm_error = _oracle_trace(config, initial)
        assert np.array_equal(trace.times_ns, times) and np.array_equal(trace.p_left, p_left)
        assert trace.norm_error == norm_error
    assert tuple(pair.best) == _oracle_optimum(config)


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
    pair = readout_traces(config)
    assert np.max(np.abs(pair.plus.p_left + pair.minus.p_left - 1.0)) <= 1e-12
    assert pair.plus.norm_error <= 1e-12 and pair.minus.norm_error <= 1e-12


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
    pair = readout_traces(config)
    plus, minus = pair.plus.p_left, pair.minus.p_left
    expected = zip(pair.plus.times_ns, plus, minus, np.abs(plus - minus))
    assert len(rows) == len(plus)
    for row, values in zip(rows, expected):
        assert [float(cell) for cell in row] == [float(v) for v in values]


@given(_PULSES, st.floats(0.0, 10.0))
def test_readout_unitary_matches_scipy_expm(config, t_ns):
    t_c, half_bias = config.tunnel_coupling_ueV, config.bias_ueV / 2.0
    h = np.array([[half_bias, t_c], [t_c, -half_bias]], dtype=complex)
    angle = t_ns / HBAR_UEV_NS
    expected = scipy.linalg.expm(-1j * angle * h)
    scale = 1.0 + angle * np.hypot(t_c, half_bias)
    assert max_abs_diff(readout_unitary(config, t_ns), expected) <= 2e-15 * scale

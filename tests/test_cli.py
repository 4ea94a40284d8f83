from __future__ import annotations

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from dqdsim import cli
from dqdsim.cli import MAX_SWEEP_POINTS, main
from dqdsim.compiler import MAX_OFFSETS
from dqdsim.decoherence import MAX_RESOLUTION, MAX_SELECTION_RESOLUTION, validity_edge_K
from dqdsim.readout import MAX_BIAS_SAMPLES, MAX_TRACE_SAMPLES
from dqdsim.gates import GateId
from dqdsim.pulses import calibrate, schedule_to_json, swap_sequence


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_to_exit(capsys, *argv: str) -> tuple[int, str, str]:
    """Like :func:`run`, but also returns the code of an argparse exit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_schedule(tmp_path, schedule, name="schedule.json"):
    path = tmp_path / name
    path.write_text(json.dumps(schedule_to_json(schedule)))
    return str(path)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_at_default_tolerance(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["failures"] == []
    assert report["decomposition"]["phase_gate_reproduced"] is True
    worst = max(report["identities"].values())
    assert worst < 1e-12


def test_verify_fails_at_absurd_tolerance(capsys):
    code, out, _ = run(capsys, "verify", "--tolerance", "1e-20")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert len(report["failures"]) > 0


def test_verify_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "verify")
    _, second, _ = run(capsys, "verify")
    assert first == second


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_reproduces_target_gate(capsys, tmp_path):
    path = write_schedule(tmp_path, calibrate(GateId.NOT1, 10.0))
    code, out, _ = run(
        capsys, "evolve", "--schedule", path, "--initial", "10", "--target", "not1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert report["gate_distance"] < 1e-12
    assert report["leakage_population"] < 1e-12
    assert sum(report["probabilities"]) == pytest.approx(1.0, abs=1e-12)


def test_evolve_swap_sequence_moves_01_to_10(capsys, tmp_path):
    path = write_schedule(tmp_path, swap_sequence(10.0))
    code, out, _ = run(capsys, "evolve", "--schedule", path, "--initial", "01")
    assert code == 0
    report = json.loads(out)
    # row 3 is the 10 configuration
    assert report["probabilities"][3] == pytest.approx(1.0, abs=1e-12)


def test_evolve_csv_has_one_row_per_configuration(capsys, tmp_path):
    path = write_schedule(tmp_path, calibrate(GateId.NOT2, 10.0))
    code, out, _ = run(capsys, "evolve", "--schedule", path, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "row,configuration,re,im,probability"
    assert len(lines) == 7


def test_evolve_requires_schedule(capsys):
    code, _, err = run(capsys, "evolve")
    assert code == 2
    assert "error:" in err


def test_evolve_rejects_malformed_schedule(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([
        {"electrode": "E1", "amplitude_ueV": 1.0, "duration_ns": 0.1},
        {"electrode": "bogus", "amplitude_ueV": 1.0, "duration_ns": 0.1},
    ]))
    # An integer amplitude too large for a float.
    huge = tmp_path / "huge.json"
    huge.write_text('[{"electrode": "E1", "amplitude_ueV": 0.5, "duration_ns": 0.1}, '
                    '{"electrode": "E1", "amplitude_ueV": 1' + "0" * 400 + ', "duration_ns": 0.1}]')
    # A pulse phase |amplitude| * duration / hbar beyond the float range.
    overflow = tmp_path / "overflow.json"
    overflow.write_text(json.dumps([
        {"electrode": "E1", "amplitude_ueV": 1.0, "duration_ns": 0.1},
        {"electrode": "E1", "amplitude_ueV": 1e10, "duration_ns": 1e300},
    ]))
    for path in (bad, huge, overflow):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "evolve", "--schedule", str(path))
        assert code == 2
        assert out == ""
        assert "segment 1" in err and "Traceback" not in err


def test_evolve_accepts_custom_initial_state(capsys, tmp_path):
    sched = write_schedule(tmp_path, calibrate(GateId.EXCHANGE, 10.0))
    state = tmp_path / "state.json"
    amp = 1.0 / np.sqrt(2.0)
    state.write_text(json.dumps([[amp, 0.0], [0.0, 0.0], [amp, 0.0],
                                 [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    code, out, _ = run(capsys, "evolve", "--schedule", sched, "--initial-file", str(state))
    assert code == 0
    assert json.loads(out)["initial"] == "custom"


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------

def test_compile_reports_frozen_embedding(capsys):
    code, out, _ = run(capsys, "compile")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    emb = report["embedding"]
    assert [emb[k] for k in ("k_z1_pp", "k_z1_mm", "k_z2_pp", "k_z2_mm")] == [-2, -2, -2, -2]
    assert report["xor_4dim_convention"] == "minus_half_on_zero"


def test_compile_and_verify_share_one_pass_rule(capsys):
    # The default grid's cnot_residual is 2.94e-16; both commands hold it,
    # and the two other decomposition residuals, to --tolerance.
    for command in ("compile", "verify"):
        code, out, _ = run(capsys, command, "--tolerance", "2.9e-16")
        assert code == 1
        assert json.loads(out)["passed"] is False


GOLDEN = Path(__file__).parent / "golden"


# Case -> (golden file, exit code, argv).  The compile/verify --resolution 4
# reports were frozen from the one-candidate-at-a-time embedding search; the
# rest are the acceptance suite's determinism invocations in their default
# formats.  evolve echoes its schedule path, so it runs from GOLDEN.
GOLDEN_CASES = {
    "compile-json": ("compile_r4.json", 0, ["compile", "--resolution", "4", "--format", "json"]),
    "compile-csv": ("compile_r4.csv", 0, ["compile", "--resolution", "4", "--format", "csv"]),
    "verify-json": ("verify_r4.json", 0, ["verify", "--resolution", "4", "--format", "json"]),
    "verify-csv": ("verify_r4.csv", 0, ["verify", "--resolution", "4", "--format", "csv"]),
    "verify": ("verify_r4.json", 0, ["verify"]),
    "compile": ("compile_r4.json", 0, ["compile"]),
    "evolve": ("evolve.json", 0, ["evolve", "--schedule", "swap_schedule.json", "--initial", "01"]),
    "decohere-tau": ("decohere_tau.csv", 0, ["decohere", "--sweep", "tau"]),
    "decohere-rate": ("decohere_rate.csv", 1, ["decohere", "--sweep", "rate", "--branch",
                                               "piezoelectric", "--points", "2"]),
    "decohere-selection": ("decohere_selection.json", 0, ["decohere", "--sweep", "selection"]),
    "readout": ("readout.csv", 0, ["readout"]),
    "readout-scan": ("readout_scan.json", 0, ["readout", "--scan"]),
    "init": ("init.json", 0, ["init", "--target", "plus"]),
    # Non-default paths of the two-phonon quadrature, the selection rule and
    # the offset grid.
    "decohere-rate-exact": ("decohere_rate_exact.csv", 1,
                            ["decohere", "--sweep", "rate", "--mode", "exact", "--points", "3"]),
    "decohere-rate-deformation-r128": ("decohere_rate_deformation_r128.csv", 1,
                                       ["decohere", "--sweep", "rate", "--branch", "deformation",
                                        "--resolution", "128", "--points", "3", "--deps", "0.3"]),
    "decohere-selection-r1600": ("decohere_selection_r1600.json", 0,
                                 ["decohere", "--sweep", "selection", "--resolution", "1600",
                                  "--dot-separation-nm", "18.5", "--orbital-width-nm", "4.7"]),
    "compile-r3": ("compile_r3.json", 0, ["compile", "--resolution", "3"]),
    # Each command in the format it does not default to.
    "decohere-selection-csv": ("decohere_selection.csv", 0,
                               ["decohere", "--sweep", "selection", "--format", "csv"]),
    "decohere-tau-json": ("decohere_tau.json", 0,
                          ["decohere", "--sweep", "tau", "--format", "json"]),
    "evolve-csv": ("evolve.csv", 0,
                   ["evolve", "--schedule", "swap_schedule.json", "--initial", "01",
                    "--format", "csv"]),
    "readout-json": ("readout.json", 0, ["readout", "--format", "json"]),
    "readout-scan-csv": ("readout_scan.csv", 0, ["readout", "--scan", "--format", "csv"]),
    "init-csv": ("init.csv", 0, ["init", "--format", "csv"]),
}


@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_compile_and_verify_match_golden_bytes(capsys, monkeypatch, case):
    name, expected_code, argv = GOLDEN_CASES[case]
    monkeypatch.chdir(GOLDEN)
    code, out, _ = run(capsys, *argv)
    assert code == expected_code
    assert out == (GOLDEN / name).read_text()
    if name.endswith(".json"):
        assert json.loads(out)["passed"] == (code == 0)


def test_back_to_back_runs_print_what_fresh_runs_print(capsys, monkeypatch, tmp_path):
    # The parsers are built once per process; no run may see what an
    # earlier one parsed, whether from flags or from a config file.
    init_cfg = tmp_path / "init.json"
    init_cfg.write_text(json.dumps({"target": "minus", "bias": 3.0, "format": "csv"}))
    scan_cfg = tmp_path / "scan.json"
    scan_cfg.write_text(json.dumps({"scan": True, "resolution": 20, "format": "csv"}))
    cases = [
        ["init", "--config", str(init_cfg)],
        ["init", "--target", "plus"],
        ["readout", "--config", str(scan_cfg)],
        ["readout", "--scan"],
        ["readout", "--format", "json"],
        ["evolve", "--schedule", "swap_schedule.json", "--initial", "01"],
        ["decohere", "--sweep", "tau"],
        ["init", "--config", str(init_cfg), "--target", "plus", "--format", "json"],
    ]
    monkeypatch.chdir(GOLDEN)
    fresh = []
    for argv in cases:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert fresh[1][1] == (GOLDEN / "init.json").read_text()
    assert fresh[3][1] == (GOLDEN / "readout_scan.json").read_text()
    assert fresh[5][1] == (GOLDEN / "evolve.json").read_text()
    assert fresh[6][1] == (GOLDEN / "decohere_tau.csv").read_text()
    for _ in range(2):
        for argv, expected in zip(cases, fresh):
            assert run(capsys, *argv) == expected


@pytest.mark.parametrize("command_line", [
    "readout --format json",
    "readout --scan --format json",
    "evolve --schedule swap_schedule.json",
    "decohere --sweep tau --format json",
    "decohere --sweep selection",
])
def test_json_reports_render_no_csv(capsys, monkeypatch, command_line):
    def refuse(*args, **kwargs):
        raise AssertionError("rendered a CSV table for a JSON report")

    monkeypatch.setattr(cli, "render_csv", refuse)
    monkeypatch.chdir(GOLDEN)
    code, out, err = run(capsys, *command_line.split())
    assert code == 0, err
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("resolution", ["0", "-1", str(MAX_OFFSETS + 1)])
@pytest.mark.parametrize("command", ["compile", "verify"])
def test_offset_grid_out_of_range_is_a_usage_error(capsys, command, resolution):
    code, out, err = run(capsys, command, "--resolution", resolution)
    assert code == 2
    assert out == ""
    assert "offset-grid size" in err


# ---------------------------------------------------------------------------
# decohere
# ---------------------------------------------------------------------------

def test_decohere_tau_sweep_recovers_exponents(capsys):
    code, out, _ = run(capsys, "decohere", "--sweep", "tau", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["fitted_exponents"]["deformation"] == pytest.approx(-5.0, abs=1e-10)
    assert report["fitted_exponents"]["piezoelectric"] == pytest.approx(-3.0, abs=1e-10)
    assert report["passed"] is True


def test_decohere_tau_csv_default(capsys):
    code, out, _ = run(capsys, "decohere", "--sweep", "tau")
    assert code == 0
    assert out.splitlines()[0] == "deps_ueV,branch,mode,tau_s,est_error"


def test_decohere_rate_sweep_reports_declared_exponent_mismatch(capsys):
    # the quadrature's low-temperature scaling is steeper than the declared
    # 6/2 pair (the flip matrix elements add two powers per phonon), so the
    # sweep honestly exits nonzero while reporting both numbers
    code, out, _ = run(
        capsys, "decohere", "--sweep", "rate", "--branch", "deformation",
        "--points", "3", "--format", "json",
    )
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["declared_exponents"]["deformation"] == 6.0
    assert report["fitted_exponents"]["deformation"] > 7.0


@pytest.mark.parametrize("resolution", ["16", "17", "18", "19"])
def test_rate_sweep_convergence_is_checked_at_the_requested_resolution(capsys, resolution):
    # only the n-against-2n check of each call applies; no second run at n/2
    code, out, err = run(capsys, "decohere", "--sweep", "rate", "--resolution", resolution,
                         "--format", "json")
    assert code == 1 and err == ""
    assert json.loads(out)["passed"] is False


def test_default_rate_sweep_stays_inside_the_validity_window(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run(capsys, "decohere", "--sweep", "rate")
    assert code == 1
    # the default t_min is the window's edge; just below it the model warns
    edge = validity_edge_K(0.1)
    with pytest.warns(RuntimeWarning, match="kT >> level splitting"):
        run(capsys, "decohere", "--sweep", "rate", "--branch", "piezoelectric",
            "--points", "2", "--t-min", repr(0.99 * edge))


def test_decohere_selection_rule(capsys):
    code, out, _ = run(capsys, "decohere", "--sweep", "selection")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["ratio_forbidden_pp"] < 1e-3
    assert report["ratio_forbidden_mm"] < 1e-3
    assert report["ratio_allowed_to_bound"] > 1e3


def test_decohere_rejects_reversed_splitting_range(capsys):
    code, _, err = run(capsys, "decohere", "--sweep", "tau", "--branch", "deformation",
                       "--deps-min", "5", "--deps-max", "1")
    assert code == 2
    assert "error:" in err


def test_decohere_rejects_unknown_sweep(capsys):
    code, out, err = run_to_exit(capsys, "decohere", "--sweep", "frobnicate")
    assert code == 2
    assert out == ""
    assert "--sweep" in err and "frobnicate" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# readout / init
# ---------------------------------------------------------------------------

def test_readout_trace_csv(capsys):
    code, out, _ = run(capsys, "readout", "--duration", "0.2", "--timestep", "0.001")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t_ns,p_left_plus,p_left_minus,contrast"
    assert len(lines) == 202


def test_readout_json_report(capsys):
    code, out, _ = run(capsys, "readout", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["degenerate"] is False
    assert report["probability_conservation_max_error"] < 1e-12
    assert report["distinguishability"] > 0.9999


def test_readout_scan(capsys):
    code, out, _ = run(capsys, "readout", "--scan")
    assert code == 0
    report = json.loads(out)
    assert report["best_bias_ueV"] == pytest.approx(10.0)
    assert report["passed"] is True


def test_init_fidelity_matches_forward_probability(capsys):
    code, out, _ = run(capsys, "init", "--target", "minus")
    assert code == 0
    report = json.loads(out)
    assert report["fidelity_matches_forward"] is True
    assert report["fidelity"] == pytest.approx(report["forward_probability"], abs=1e-12)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_out_flag_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "compile", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["passed"] is True


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerance": 1e-20}))
    code, _, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 1
    # explicit flags beat the config file
    code, _, _ = run(capsys, "verify", "--config", str(cfg), "--tolerance", "1e-6")
    assert code == 0


def test_config_must_be_json_object(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "error:" in err


def test_missing_config_file_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--config", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("config, named", [
    ({"resolution": 4.7}, "--resolution"),
    ({"resolutoin": 9}, "resolutoin"),
    ({"format": "xml"}, "--format"),
    ({"scan": True}, "scan"),
    ({"tolerance": float("nan")}, "--tolerance"),
])
def test_config_values_are_checked_like_flags(capsys, tmp_path, config, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_to_exit(capsys, "compile", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert named in err


def test_config_reaches_the_subcommand_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scan": True, "resolution": 20, "tunnel_coupling": 5}))
    code, out, _ = run(capsys, "readout", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["scan"] == "bias"
    cfg.write_text(json.dumps({"sweep": "rate", "points": 1}))
    code, out, _ = run(capsys, "decohere", "--config", str(cfg), "--sweep", "tau",
                         "--points", "3", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["deps_ueV"]) == 3


@pytest.mark.parametrize("command_line", [
    "init --tolerance 1e-3",
    "evolve --resolution 4",
    "compile --seed 7",
])
def test_flags_no_handler_reads_are_rejected(capsys, command_line):
    argv = command_line.split()
    code, out, err = run_to_exit(capsys, *argv)
    assert code == 2
    assert out == ""
    assert argv[1] in err


RABI_OVERFLOW = "--tunnel-coupling 1e308 --bias 1e308 --duration 1 --timestep 0.1"
PHASE_OVERFLOW = "--tunnel-coupling 1 --bias 2 --duration 1e308 --timestep 1e304"


@pytest.mark.parametrize("command_line, field", [
    ("readout --bias nan", "bias_ueV"),
    ("readout --tunnel-coupling nan", "tunnel_coupling_ueV"),
    ("init --bias inf", "bias_ueV"),
    ("decohere --sweep tau --deps-max inf", "deps_max"),
    ("decohere --sweep selection --dot-separation-nm inf", "dot separation"),
    # d**2 / (4 a**2) would overflow; the geometry is checked when it is built
    ("decohere --sweep selection --orbital-width-nm 1e300", "orbital width"),
    ("decohere --sweep selection --dot-separation-nm 1e-3 --orbital-width-nm 1e6", "coincide"),
    # t_min = 10 deps / k_B, where (n / kT)**2 would overflow
    ("decohere --sweep rate --points 2 --branch piezoelectric --deps 1e-300", "temperature_K"),
    ("decohere --sweep rate --t-min 1e-300 --t-max 1e-299", "temperature_K"),
    ("decohere --sweep rate --points 2 --deps nan", "delta_eps_ueV"),
    ("decohere --sweep rate --deps 0 --t-min 1 --t-max 2", "delta_eps_ueV"),
    # the lifetime (deps / anchor)**-5 overflows to inf or underflows to 0
    ("decohere --sweep tau --deps-min 1e-300", "deps"),
    ("decohere --sweep tau --deps-max 1e300", "deps"),
    # 2 * hypot(t_c, bias / 2) / hbar, the Rabi frequency, overflows
    (f"readout {RABI_OVERFLOW}", "tunnel_coupling_ueV = 1e+308 and bias_ueV = 1e+308"),
    (f"readout {RABI_OVERFLOW} --format json", "tunnel_coupling_ueV = 1e+308 and bias_ueV"),
    (f"init {RABI_OVERFLOW}", "tunnel_coupling_ueV = 1e+308 and bias_ueV"),
    # the end phase Rabi frequency * duration overflows
    (f"readout {PHASE_OVERFLOW}", "duration_ns = 1e+308"),
    (f"init {PHASE_OVERFLOW}", "duration_ns = 1e+308"),
    ("readout --scan --tunnel-coupling 1 --duration 1e308 --timestep 1e304", "duration_ns"),
])
def test_non_finite_inputs_are_usage_errors(capsys, command_line, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *command_line.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


PAIR = "[1, 0]"


@pytest.mark.parametrize("text", [
    "[1, 2, 3, 4, 5, 6]",
    "[" + ", ".join([PAIR] * 5) + "]",
    "[" + ", ".join([PAIR] * 5 + ["[0, 0, 0]"]) + "]",
    "[" + ", ".join([PAIR] * 5 + ["[NaN, 0]"]) + "]",
    "[" + ", ".join([PAIR] * 5 + ["[0, Infinity]"]) + "]",
    "[" + ", ".join([PAIR] * 5 + ["[1" + "0" * 400 + ", 0]"]) + "]",
    "[" + ", ".join([PAIR] * 5 + ['[true, 0]']) + "]",
    "[" + ", ".join([PAIR] * 5 + ['["1", 0]']) + "]",
])
def test_malformed_initial_file_is_a_usage_error(capsys, tmp_path, text):
    state = tmp_path / "state.json"
    state.write_text(text)
    code, out, err = run(capsys, "evolve", "--schedule", str(GOLDEN / "swap_schedule.json"),
                         "--initial-file", str(state))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "[re, im] pairs" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command_line", [
    "verify --tolerance nan",
    "verify --tolerance=-1e-9",
    "compile --tolerance inf",
    "compile --tolerance=-inf",
    f"evolve --schedule {GOLDEN / 'swap_schedule.json'} --target swap --tolerance nan",
])
def test_tolerance_must_be_finite_and_non_negative(capsys, command_line):
    code, out, err = run_to_exit(capsys, *command_line.split())
    assert code == 2
    assert out == ""
    assert "--tolerance" in err and "finite" in err
    assert "Traceback" not in err


# One past each cap; every check runs before anything is allocated.
@pytest.mark.parametrize("command_line, cap", [
    (f"decohere --sweep selection --resolution {MAX_SELECTION_RESOLUTION + 1}",
     MAX_SELECTION_RESOLUTION),
    (f"decohere --sweep rate --resolution {MAX_RESOLUTION + 1}", MAX_RESOLUTION),
    (f"decohere --sweep tau --points {MAX_SWEEP_POINTS + 1}", MAX_SWEEP_POINTS),
    (f"decohere --sweep rate --points {MAX_SWEEP_POINTS + 1}", MAX_SWEEP_POINTS),
    (f"readout --scan --resolution {MAX_BIAS_SAMPLES + 1}", MAX_BIAS_SAMPLES),
    (f"readout --duration {MAX_TRACE_SAMPLES} --timestep 1", MAX_TRACE_SAMPLES),
])
def test_grid_sizes_past_their_cap_are_usage_errors(capsys, command_line, cap):
    code, out, err = run(capsys, *command_line.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(cap) in err


COMMON_FLAGS = {"--config", "--out", "--format"}
READOUT_PULSE_FLAGS = {"--tunnel-coupling", "--bias", "--duration", "--timestep"}


# Each command takes exactly the flags its handler reads, and its help
# states every size cap that applies to it.
@pytest.mark.parametrize("command, flags, caps", [
    ("verify", {"--tolerance", "--resolution"}, [MAX_OFFSETS]),
    ("compile", {"--tolerance", "--resolution"}, [MAX_OFFSETS]),
    ("evolve", {"--tolerance", "--schedule", "--initial", "--initial-file", "--target"}, []),
    ("decohere", {"--resolution", "--sweep", "--branch", "--deps", "--deps-min", "--deps-max",
                  "--t-min", "--t-max", "--points", "--mode", "--dot-separation-nm",
                  "--orbital-width-nm"},
     [MAX_RESOLUTION, MAX_SELECTION_RESOLUTION, MAX_SWEEP_POINTS]),
    ("readout", {"--resolution", "--scan"} | READOUT_PULSE_FLAGS,
     [MAX_BIAS_SAMPLES, MAX_TRACE_SAMPLES]),
    ("init", {"--target"} | READOUT_PULSE_FLAGS, [MAX_TRACE_SAMPLES]),
])
def test_help_lists_the_flags_and_caps(capsys, command, flags, caps):
    code, out, _ = run_to_exit(capsys, command, "--help")
    assert code == 0
    usage = out.split("options:")[0]
    assert set(re.findall(r"--[a-z][a-z-]*", usage)) - {"--help"} == COMMON_FLAGS | flags
    text = " ".join(out.split())
    for cap in caps:
        assert str(cap) in text


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_rate_sweep_is_deterministic(capsys):
    args = ("decohere", "--sweep", "rate", "--branch", "piezoelectric", "--points", "2")
    code1, first, _ = run(capsys, *args)
    code2, second, _ = run(capsys, *args)
    assert (code1, first) == (code2, second)
    assert first != ""

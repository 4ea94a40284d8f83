from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from dqdsim.cli import main
from dqdsim.compiler import MAX_OFFSETS
from dqdsim.gates import GateId
from dqdsim.pulses import calibrate, schedule_to_json, swap_sequence


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
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
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([
        {"electrode": "E1", "amplitude_ueV": 1.0, "duration_ns": 0.1},
        {"electrode": "bogus", "amplitude_ueV": 1.0, "duration_ns": 0.1},
    ]))
    code, _, err = run(capsys, "evolve", "--schedule", str(path))
    assert code == 2
    assert "segment 1" in err


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


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["compile", "verify"])
def test_compile_and_verify_match_golden_bytes(capsys, command, fmt):
    # Frozen from the one-candidate-at-a-time search the screened search replaced.
    code, out, _ = run(capsys, command, "--resolution", "4", "--format", fmt)
    assert code == 0
    assert out == (GOLDEN / f"{command}_r4.{fmt}").read_text()


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


def test_decohere_selection_rule(capsys):
    code, out, _ = run(capsys, "decohere", "--sweep", "selection")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["ratio_forbidden_pp"] < 1e-3
    assert report["ratio_forbidden_mm"] < 1e-3
    assert report["ratio_allowed_to_bound"] > 1e3


def test_decohere_rejects_unknown_sweep(capsys):
    code, _, err = run(capsys, "decohere", "--sweep", "tau", "--branch", "deformation",
                       "--deps-min", "5", "--deps-max", "1")
    assert code == 2
    assert "error:" in err


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


def test_seed_flag_is_accepted(capsys):
    code, _, _ = run(capsys, "compile", "--seed", "7")
    assert code == 0


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_rate_sweep_is_deterministic(capsys):
    args = ("decohere", "--sweep", "rate", "--branch", "piezoelectric", "--points", "2")
    code1, first, _ = run(capsys, *args)
    code2, second, _ = run(capsys, *args)
    assert (code1, first) == (code2, second)
    assert first != ""

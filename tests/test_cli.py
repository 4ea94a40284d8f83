from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqdsim import cli, compiler
from dqdsim.cli import MAX_SWEEP_POINTS, main
from dqdsim.compiler import MAX_OFFSETS
from dqdsim.decoherence import MAX_RESOLUTION, MAX_SELECTION_RESOLUTION, validity_edge_K
from dqdsim.readout import MAX_BIAS_SAMPLES, MAX_TRACE_SAMPLES
from dqdsim.gates import GateId, gate_matrix
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
    residuals = {**report["identities"], **report["pulse_reproduction"],
                 **{name: report["decomposition"][name] for name in cli._DECOMPOSITION_RESIDUALS}}
    assert report["failures"] == sorted(name for name, r in residuals.items() if r > 1e-20)
    assert "cnot_residual" in report["failures"] and "unitary[not1]" not in report["failures"]


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
    broken = tmp_path / "broken.json"
    broken.write_text('[{"electrode": "E1",')
    for path, message in ((bad, "segment 1"), (huge, "segment 1"), (overflow, "segment 1"),
                          (broken, "not valid JSON")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "evolve", "--schedule", str(path))
        assert code == 2
        assert out == ""
        assert message in err and "Traceback" not in err


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
    # Both commands hold the three decomposition residuals to --tolerance
    # with <=: one step below the largest, both fail and name it alone.
    _, out, _ = run(capsys, "compile")
    report = json.loads(out)
    residuals = {name: report[name] for name in cli._DECOMPOSITION_RESIDUALS}
    name = max(residuals, key=residuals.__getitem__)
    worst = report[name]
    below = float(np.nextafter(worst, 0.0))
    for command in ("compile", "verify"):
        code, out, _ = run(capsys, command, "--tolerance", repr(below))
        assert code == 1
        assert json.loads(out)["passed"] is False
        assert json.loads(out)["failures"] == [name]
    code, out, _ = run(capsys, "compile", "--tolerance", repr(worst))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_compile_reports_the_offset_grid_it_searched(capsys):
    grids = [json.loads(run(capsys, "compile", "--resolution", n)[1])["offset_grid_size"]
             for n in ("3", "4")]
    assert grids == [3, 4]


@pytest.mark.parametrize("n_offsets, embedding", [
    (63, [-2, -2, 2, 2, 0.0, 0.0]),
    (64, [-2, -2, -2, -2, 0.0, np.pi]),
], ids=["n63", "n64"])
def test_compile_on_the_largest_grids_finds_the_pattern_embedding(capsys, n_offsets, embedding):
    code, out, _ = run(capsys, "compile", "--resolution", str(n_offsets))
    assert code == 0
    report = json.loads(out)
    assert list(report["embedding"].values()) == embedding
    assert report["phase_gate_best_residual"] == 2.220446049250313e-16
    assert report["offset_grid_size"] == n_offsets


def unreachable_phase_gate(gate: GateId) -> np.ndarray:
    """The catalog, with the phase gate's rows turned by up to 0.3 rad: no candidate reaches it."""
    matrix = gate_matrix(gate)
    if gate is GateId.PHASE:
        matrix = matrix * np.exp(0.3j * np.sin(np.arange(1, 7)))[:, None]
    return matrix


def test_compile_fails_when_the_embedding_misses_the_phase_gate(capsys, monkeypatch):
    # The reported residual is the exact distance of the returned embedding,
    # so a target the solution does not reach fails the check.
    monkeypatch.setattr(compiler, "gate_matrix", unreachable_phase_gate)
    code, out, _ = run(capsys, "compile")
    assert code == 1
    report = json.loads(out)
    assert report["phase_gate_reproduced"] is False
    assert report["message"] == "identity not reproduced"
    assert report["phase_gate_best_residual"] > 0.19
    assert report["passed"] is False


def test_compile_states_the_check_it_failed(capsys):
    # The report's stance on the phase gate follows the run's own check.
    code, out, _ = run(capsys, "compile", "--tolerance", "0")
    assert code == 1
    report = json.loads(out)
    assert "phase_gate_best_residual" in report["failures"]
    assert report["phase_gate_reproduced"] is False
    assert report["message"] == "identity not reproduced"
    code, out, _ = run(capsys, "verify", "--tolerance", "0")
    assert code == 1
    decomposition = json.loads(out)["decomposition"]
    assert decomposition["phase_gate_reproduced"] is False
    assert decomposition["message"] == "identity not reproduced"


def test_compile_states_a_pass_under_a_looser_tolerance(capsys, monkeypatch):
    # A residual between the default bound (1e-10) and --tolerance passes.
    search = compiler.search_embedding
    monkeypatch.setattr(compiler, "search_embedding", lambda n: (search(n)[0], 5e-10))
    for command, key in (("compile", None), ("verify", "decomposition")):
        code, out, _ = run(capsys, command, "--tolerance", "1e-9")
        assert code == 0, command
        report = json.loads(out)
        report = report[key] if key else report
        assert report["phase_gate_best_residual"] == 5e-10
        assert report["phase_gate_reproduced"] is True
        assert "message" not in report


GOLDEN = Path(__file__).parent / "golden"


# Case -> (golden file, exit code, argv).  The compile/verify --resolution 4
# reports hold the embedding the one-candidate-at-a-time search found and
# the residuals of the closed-form global-phase distance; the rest are the
# acceptance suite's determinism invocations in their default formats.
# evolve echoes its schedule path, so it runs from GOLDEN.
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
    # Bias scans the screen shortens: 2 t_c off the grid, and a window shorter
    # than half the balanced Rabi period, where the largest bias wins.
    "readout-scan-r37": ("readout_scan_r37.json", 0, ["readout", "--scan", "--resolution", "37"]),
    "readout-scan-short": ("readout_scan_short.json", 1,
                           ["readout", "--scan", "--duration", "0.05"]),
}


@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_compile_and_verify_match_golden_bytes(capsys, monkeypatch, case):
    name, expected_code, argv = GOLDEN_CASES[case]
    monkeypatch.chdir(GOLDEN)
    code, out, _ = run(capsys, *argv)
    assert code == expected_code
    assert out == (GOLDEN / name).read_text()
    if name.endswith(".json"):
        report = json.loads(out)
        assert list(report)[-2:] == ["failures", "passed"]
        assert report["passed"] == (code == 0) == (report["failures"] == [])


@pytest.mark.parametrize("case", [c for c, (_, _, argv) in GOLDEN_CASES.items()
                                  if argv[0] in ("readout", "init")])
def test_readout_json_reports_are_the_golden_bytes_and_build_no_table(capsys, monkeypatch, case):
    # Every readout and init golden input, rendered as JSON, gives its JSON
    # golden's bytes; a trace's table is built only for CSV.
    name, expected_code, argv = GOLDEN_CASES[case]

    def column_stack(*args, **kwargs):
        raise AssertionError("built a trace table for a JSON report")

    monkeypatch.setattr(np, "column_stack", column_stack)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == expected_code
    assert out == (GOLDEN / name).with_suffix(".json").read_text()


def test_readout_init_and_evolve_never_call_eigh(capsys, monkeypatch):
    def eigh(*args, **kwargs):
        raise AssertionError("called numpy.linalg.eigh")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.chdir(GOLDEN)
    cases = [case for case in GOLDEN_CASES.values() if case[2][0] in ("readout", "init", "evolve")]
    assert len(cases) == 10
    for name, expected_code, argv in cases:
        assert run(capsys, *argv)[:2] == (expected_code, (GOLDEN / name).read_text()), argv


def test_compile_path_loads_no_sweep_or_readout_code(tmp_path):
    # A fresh interpreter: this test process has long imported every module.
    script = textwrap.dedent("""
        import sys
        from pathlib import Path

        out, golden = Path(sys.argv[1]), Path(sys.argv[2])
        lazy = ("dqdsim.pulses", "dqdsim.decoherence", "dqdsim.readout", "dqdsim.floattext")
        from dqdsim import cli
        assert not [m for m in lazy if m in sys.modules], "import dqdsim.cli"
        assert cli.main(["compile", "--out", str(out / "compile_r4.json")]) == 0
        assert not [m for m in lazy if m in sys.modules], "compile"
        assert cli.main(["verify", "--out", str(out / "verify_r4.json")]) == 0
        assert not [m for m in lazy[1:] if m in sys.modules], "verify"
        for name, argv in (("compile_r4.json", None), ("verify_r4.json", None),
                           ("decohere_tau.csv", ["decohere"]), ("readout.csv", ["readout"])):
            if argv is not None:
                assert cli.main(argv + ["--out", str(out / name)]) == 0
            assert (out / name).read_text() == (golden / name).read_text(), name
        # the readout trace table was the first to build the formatter's tables
        assert sys.modules["dqdsim.floattext"]._tables.cache_info().misses == 1
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), str(GOLDEN)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_back_to_back_runs_print_what_fresh_runs_print(capsys, monkeypatch, tmp_path):
    # The argparse parsers are built once per process; no run may see what
    # an earlier one parsed, whether from flags or from a config file.
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
        cli._parsers.cache_clear()
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
    assert report["propagator_max_error"] < 1e-12
    assert report["passed"] is True
    assert report["distinguishability"] > 0.9999


def test_readout_scan(capsys):
    code, out, _ = run(capsys, "readout", "--scan")
    assert code == 0
    report = json.loads(out)
    assert report["best_bias_ueV"] == pytest.approx(10.0)
    assert report["passed"] is True


def test_readout_scan_checks_one_config(capsys, monkeypatch):
    # The largest-bias pulse alone: the scan builds no config from --bias,
    # and the best bias needs no second.
    from dqdsim import readout
    checked = []
    post_init = readout.ReadoutConfig.__post_init__

    def counting(self):
        checked.append(self.bias_ueV)
        post_init(self)

    monkeypatch.setattr(readout.ReadoutConfig, "__post_init__", counting)
    code, out, _ = run(capsys, "readout", "--scan", "--format", "json")
    assert code == 0 and json.loads(out)["best_bias_ueV"] == 10.0
    assert checked == [20.0]


@pytest.mark.parametrize("bias", ["inf", "nan", "-inf", "1e308"])
def test_readout_scan_ignores_the_bias_flag(capsys, bias):
    expected = run(capsys, "readout", "--scan")
    assert run(capsys, "readout", "--scan", f"--bias={bias}") == expected
    assert expected[:2] == (0, (GOLDEN / "readout_scan.json").read_text())


@pytest.mark.parametrize("flags", [
    "--tunnel-coupling nan", "--tunnel-coupling inf", "--tunnel-coupling 0",
    "--tunnel-coupling=-1", "--duration nan", "--duration 0", "--duration=-1",
    "--timestep inf", "--timestep 0", "--timestep 1",
])
def test_readout_scan_still_checks_the_flags_it_reads(capsys, flags):
    code, out, err = run(capsys, "readout", "--scan", "--bias", "inf", *flags.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_init_fidelity_matches_forward_probability(capsys):
    code, out, _ = run(capsys, "init", "--target", "minus")
    assert code == 0
    report = json.loads(out)
    assert report["fidelity_matches_forward"] is True
    assert report["fidelity"] == pytest.approx(report["forward_probability"], abs=1e-12)


def test_init_fails_when_the_readout_is_degenerate(capsys):
    # No coupling and no bias: both states stay at P_L = 1/2, so there is
    # nothing to prepare, though the two paths still agree.
    code, out, _ = run(capsys, "init", "--tunnel-coupling", "0", "--bias", "0")
    assert code == 1
    report = json.loads(out)
    assert report["degenerate"] is True
    assert report["fidelity_matches_forward"] is True
    assert report["passed"] is False


def test_init_check_fails_when_the_readout_unitary_is_wrong(capsys, monkeypatch):
    # The fidelity comes from the readout unitary, the forward probability
    # from the kernel's trace, so a unitary for a 1% longer pulse must fail.
    from dqdsim import readout

    exact = readout.readout_unitary
    monkeypatch.setattr(readout, "readout_unitary", lambda config, t_ns: exact(config, 1.01 * t_ns))
    code, out, _ = run(capsys, "init")
    assert code == 1
    report = json.loads(out)
    assert report["fidelity_matches_forward"] is False
    assert report["passed"] is False


def test_readout_check_fails_when_the_readout_unitary_is_wrong(capsys, monkeypatch):
    # The populations come from the kernel, the propagator check's from the
    # readout unitary, so a unitary for a 1% longer pulse must fail.
    from dqdsim import readout

    exact = readout.readout_unitary
    monkeypatch.setattr(readout, "readout_unitary", lambda config, t_ns: exact(config, 1.01 * t_ns))
    code, out, _ = run(capsys, "readout", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["propagator_max_error"] > 1e-12
    assert report["passed"] is False


# ---------------------------------------------------------------------------
# failures: each declared check that fails, by name
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, failures", [
    (["decohere", "--sweep", "rate"],
     ["rate_exponent[deformation]", "rate_exponent[piezoelectric]"]),
    (["decohere", "--sweep", "rate", "--branch", "piezoelectric"],
     ["rate_exponent[piezoelectric]"]),
    (["readout", "--scan", "--duration", "0.05"], ["distinguishability"]),
    (["evolve", "--schedule", str(GOLDEN / "swap_schedule.json"), "--target", "not1"],
     ["fidelity"]),
    (["compile", "--tolerance", "0"],
     ["cnot_residual", "phase_gate_best_residual", "xor_4dim_residual"]),
    (["init", "--tunnel-coupling", "0", "--bias", "0"], ["degenerate"]),
    (["compile", "--tolerance", "0", "--format", "csv"],
     ["cnot_residual", "phase_gate_best_residual", "xor_4dim_residual"]),
], ids=["rate", "rate-piezoelectric", "scan", "evolve-target", "compile", "init", "compile-csv"])
def test_failures_name_exactly_the_checks_that_fail(capsys, argv, failures):
    if "csv" in argv:  # the flattened report: a failures[i] row per name, then passed
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        rows = [f"failures[{i}],{name}" for i, name in enumerate(failures)]
        assert out.splitlines()[-len(failures) - 1:] == [*rows, "passed,false"]
        return
    code, out, err = run(capsys, *argv, "--format", "json")
    report = json.loads(out)
    assert (code, err) == (1, "")
    assert report["failures"] == failures
    assert report["passed"] is False


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
    ({"config": "cfg.json"}, "config key 'config'"),
    ({"out": [1]}, "config key 'out' must be a string or a number"),
    (("readout", {"scan": 1}), "config key 'scan' must be true or false"),
])
def test_config_values_are_checked_like_flags(capsys, tmp_path, config, named):
    # A config for compile, or a (subcommand, config) pair.
    command, config = config if isinstance(config, tuple) else ("compile", config)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_to_exit(capsys, command, "--config", str(cfg))
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
    # 1e-9 kT, the window's lower end, passes the phonon cutoff hbar c_s q_max
    ("decohere --sweep rate --t-min 1e12 --t-max 2e12 --points 2",
     "spectral cutoff below the emission threshold"),
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


def test_unnormalized_initial_file_is_a_usage_error(capsys, tmp_path):
    state = tmp_path / "state.json"
    state.write_text("[" + ", ".join(["[0.5, 0.5]"] * 6) + "]")  # six finite pairs, norm sqrt(3)
    code, out, err = run(capsys, "evolve", "--schedule", str(GOLDEN / "swap_schedule.json"),
                         "--initial-file", str(state))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "state vector is not normalized" in err
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


@pytest.mark.parametrize("command", ["", "verify", "evolve", "compile", "decohere", "readout",
                                     "init"])
def test_help_screens_are_the_golden_bytes(capsys, monkeypatch, command):
    # argparse wraps help to the terminal width, which it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_to_exit(capsys, *filter(None, [command]), "-h")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"help_{command or 'dqdsim'}.txt").read_text()


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_unknown_flag_prints_the_subcommands_usage(capsys):
    code, out, err = run_to_exit(capsys, "readout", "--scna")
    assert code == 2 and out == ""
    assert err.startswith("usage: dqdsim readout [-h] [--config CONFIG]")
    assert err.endswith("dqdsim readout: error: unrecognized arguments: --scna\n")


def test_top_level_help_lists_every_subcommand(capsys):
    code, out, _ = run_to_exit(capsys, "-h")
    assert code == 0
    assert out.startswith("usage: dqdsim [-h] {verify,evolve,compile,decohere,readout,init}")
    for name in ("verify", "evolve", "compile", "decohere", "readout", "init"):
        assert re.search(rf"^    {name} +\S", out, re.MULTILINE), name


def test_a_run_adds_the_flags_of_its_own_subcommand_only(capsys, monkeypatch):
    built = []
    original = argparse.ArgumentParser.__init__

    def init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
    cli._parsers.cache_clear()
    # a plain run reads its own subcommand's flag table and builds no parser
    assert run(capsys, "decohere", "--sweep", "tau")[0] == 0
    assert built == []
    # another subcommand's flag is not one of its own
    assert run_to_exit(capsys, "decohere", "--target", "minus")[0] == 2
    # flags before the subcommand go to the top-level parser, which rejects them
    assert run_to_exit(capsys, "--format", "json", "readout")[0] == 2
    assert len(built) == 1 + len(cli._COMMANDS)


def test_rate_sweep_is_deterministic(capsys):
    args = ("decohere", "--sweep", "rate", "--branch", "piezoelectric", "--points", "2")
    code1, first, _ = run(capsys, *args)
    code2, second, _ = run(capsys, *args)
    assert (code1, first) == (code2, second)
    assert first != ""


# ---------------------------------------------------------------------------
# parsing: plain flags skip argparse, and every argv keeps the exit-code contract
# ---------------------------------------------------------------------------

# Numbers in and out of every range, a float for an int, text and no text,
# and one past each size cap.
NUMBER_TEXTS = ("0", "-0.0", "1", "2", "5", "16", "40", "0.4", "0.0005", "-1", "-1e-9", "1.5",
                "1e3", "nan", "inf", "-inf", "1e300", "1e-300", "-1e300", "x", "", "10" * 20,
                *dict.fromkeys(str(cap + 1) for cap in (MAX_OFFSETS, MAX_SWEEP_POINTS,
                                                        MAX_BIAS_SAMPLES, MAX_RESOLUTION,
                                                        MAX_SELECTION_RESOLUTION)))
# How one flag is written: weighted toward the exact forms that skip argparse.
FORMS = ("exact",) * 8 + ("equals",) * 3 + ("prefix", "missing", "unknown", "help", "--")


@st.composite
def command_lines(draw, paths=None):
    """An argv for one subcommand, built from its flag table.

    ``paths`` maps a text flag's config key to the values to draw for it;
    without it, text flags get plain, empty, ``=``-holding and dash-led values.
    """
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    _, _, flags = cli._COMMANDS[name]
    argv = [name]
    for _ in range(draw(st.integers(0, 4))):
        option = draw(st.sampled_from(list(flags)))
        flag = flags[option]
        if flag.choices is not None:
            texts = [*flag.choices, "nope", ""]
        elif flag.type not in (str, bool):
            # half of the time the default, so that more runs reach a handler
            texts = NUMBER_TEXTS if flag.default is None else [str(flag.default)]
            texts = draw(st.sampled_from((texts, NUMBER_TEXTS)))
        else:
            texts = (paths or {}).get(cli._dest(option),
                                      ("report.txt", "", "a=b", "-", "--", "-x"))
        value = draw(st.sampled_from(texts))
        form = draw(st.sampled_from(FORMS))
        if form == "prefix":
            option = option[:draw(st.integers(3, len(option)))]
        if form == "equals":
            argv.append(f"{option}={value}")
        elif form in ("unknown", "help", "--"):
            argv += {"unknown": ["--nope", value], "help": ["-h"], "--": ["--", value]}[form]
        else:
            argv.append(option)
            if flag.type is not bool and form != "missing":
                argv.append(value)
    return argv


def outcome(call, argv):
    """``call(argv)``'s value, or its ``SystemExit`` code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            value = call(argv)
        except SystemExit as exc:
            value = exc.code
    return value, out.getvalue(), err.getvalue()


def argparse_parse(argv):
    return cli._parsers()[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))


@settings(max_examples=200)
@given(argv=command_lines())
@example(argv=["decohere", "--sweep", "nope"])
@example(argv=["init", "--target=nope", "--bias", "2"])
@example(argv=["readout", "--scan", "--resolution", "x"])
@example(argv=["readout", "--scan=1"])
@example(argv=["evolve", "--out=--"])
@example(argv=["verify", "--tolerance", "-1"])
def test_plain_flags_parse_as_argparse_parses_them(argv):
    # The same Namespace, or the same exit code with the same usage text.  The
    # reprs are compared: they tell 0.0 from -0.0 and 5 from 5.0, and a nan
    # value matches a nan.
    assert repr(outcome(cli._parse, argv)) == repr(outcome(argparse_parse, argv))


# One benchmark-shaped command line per subcommand: exact `--flag value` pairs.
BENCHMARK_ARGV = (
    (0, "verify --resolution 4 --format json"),
    (0, "compile --resolution 4 --format csv"),
    (0, f"evolve --schedule {GOLDEN / 'swap_schedule.json'} --initial 01"),
    (1, "decohere --sweep rate --deps 0.2 --t-min 25.5 --t-max 150.25 --points 3 "
        "--resolution 128 --mode reduced --branch deformation"),
    (0, "readout --scan --tunnel-coupling 7.25 --duration 0.31 --timestep 0.000775 "
        "--resolution 40"),
    (0, "readout --tunnel-coupling 7.25 --bias 14.5 --duration 0.31 --timestep 0.000775 "
        "--format csv"),
    (0, "init --tunnel-coupling 7.25 --bias 14.5 --duration 0.31 --timestep 0.000775 "
        "--target minus"),
)


def test_benchmark_command_lines_skip_argparse(capsys, monkeypatch, tmp_path):
    calls = []

    def counted(method):
        original = getattr(argparse.ArgumentParser, method)

        def count(self, *args, **kwargs):
            calls.append(method)
            return original(self, *args, **kwargs)
        return count

    for method in ("__init__", "parse_args", "parse_known_args"):
        monkeypatch.setattr(argparse.ArgumentParser, method, counted(method))
    cli._parsers.cache_clear()
    for expected, command_line in BENCHMARK_ARGV:
        out = tmp_path / "report"
        assert run(capsys, *command_line.split(), "--out", str(out)) == (expected, "", "")
        # not even a parser is constructed
        assert out.read_text() and calls == [], command_line
    # flags before the subcommand go to the top-level parser, which rejects them
    assert run_to_exit(capsys, "--format", "json", "readout")[0] == 2
    assert calls.count("__init__") == 1 + len(cli._COMMANDS)
    # Help, an abbreviation and a bad value go through argparse once.
    for argv, code, stream, text in (
        (["readout", "-h"], 0, "out", "usage: dqdsim readout [-h]"),
        (["readout", "--tun", "5", "--format", "json"], 0, "out", '"tunnel_coupling_ueV": 5,'),
        (["readout", "--resolution", "x"], 2, "err",
         "dqdsim readout: error: argument --resolution: invalid int value: 'x'\n"),
    ):
        calls.clear()
        got, out, err = run_to_exit(capsys, *argv)
        assert got == code and text in {"out": out, "err": err}[stream]
        assert calls == ["parse_args", "parse_known_args"], argv


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    """Files for the text flags: good, malformed and missing ones."""
    d = tmp_path_factory.mktemp("argv")
    texts = {
        "config_csv.json": '{"format": "csv"}',
        "config_scan.json": '{"scan": true}',
        "config_unknown.json": '{"nope": 1}',
        "config_list.json": "[1]",
        "config_nan.json": '{"bias": "nan", "deps": "nan"}',
        "config_negative.json": '{"tolerance": -1, "resolution": -1}',
        "broken.json": "{",
        "state.json": json.dumps([[0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0]]),
        "state_short.json": "[[1, 0]]",
    }
    for name, text in texts.items():
        (d / name).write_text(text)
    missing = str(d / "missing" / "x.json")
    configs = [str(d / n) for n in texts if n.startswith("config")]
    return {
        "config": (*configs, str(d / "broken.json"), missing),
        "schedule": (str(GOLDEN / "swap_schedule.json"), str(d / "config_csv.json"),
                     str(d / "broken.json"), missing, ""),
        "initial_file": (str(d / "state.json"), str(d / "state_short.json"), missing),
        "out": (str(d / "report.out"), missing, ""),
    }


@settings(max_examples=200)
@given(data=st.data())
def test_every_command_line_keeps_the_exit_code_contract(argv_paths, data):
    argv = data.draw(command_lines(argv_paths), label="argv")
    results = []

    def recording(handler):
        def record(args):
            results.append(handler(args))
            return results[-1]
        return record

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "two-phonon model assumes")
        for name, (help_text, handler, flags) in cli._COMMANDS.items():
            patch.setitem(cli._COMMANDS, name, (help_text, recording(handler), flags))
        cli._parsers.cache_clear()
        try:
            code, out, err = outcome(main, argv)
        finally:
            cli._parsers.cache_clear()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert results and results[-1].report["passed"] is False
        assert results[-1].report["failures"]
    if code == 2:
        assert out == ""
    if code == 0 and results:
        assert results[-1].report["passed"] is True
        assert results[-1].report["failures"] == []

"""End-to-end acceptance suite.

One test per shipped guarantee; each prints a single pass/fail line (visible
even under captured output) before asserting, so a red run still shows the
full scoreboard.  Tolerances are pinned here; the CLI declares its checks in
one table, and the last test holds that table to the same numbers.

Known red: the two-phonon rate exponents.  The quadrature's low-temperature
scaling is ~T^9 (deformation) and ~T^5 (piezoelectric) because the
orientation-averaged flip matrix elements contribute two extra powers of
temperature per phonon; the declared crossover values 6 and 2 are only ever
crossed transiently, in different temperature windows per branch, so no
single decade with kT >= 10*splitting satisfies both.  The criterion test
states the declared numbers and fails honestly rather than tuning the fit
window per branch until it passes.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from dqdsim import cli, decoherence, pulses, readout
from dqdsim.basis import computational_basis_state, leakage_population
from dqdsim.constants import K_B_UEV_PER_K
from dqdsim.gates import GateId, gate_matrix, verify_catalog_identities

ALGEBRA_TOL = 1e-12
PULSE_TOL = 1e-9
LEAKAGE_TOL = 1e-12
EMBEDDING_TOL = 1e-10
TAU_EXPONENT_TOL = 1e-10
RATE_EXPONENT_TOL = 0.1
SELECTION_RATIO = 1e-3
PROPAGATOR_TOL = 1e-12
THERMAL_CEILING = 1e-4
INIT_MATCH_TOL = 1e-12


def announce(capsys: pytest.CaptureFixture, number: int, label: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        line = f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        print(line, flush=True)


def test_criterion_1_catalog_algebra(capsys):
    start = time.perf_counter()
    report = verify_catalog_identities()
    elapsed = time.perf_counter() - start
    worst = max(report.values())
    ok = worst <= ALGEBRA_TOL and elapsed < 1.0
    announce(capsys, 1, "gate-catalog algebra", ok, f"worst residual {worst:.2e}, {elapsed:.2f}s")
    assert worst <= ALGEBRA_TOL, f"worst algebra residual {worst}"
    assert elapsed < 1.0, f"algebra suite took {elapsed:.2f}s"


def test_criterion_2_pulse_engine(capsys):
    residuals = pulses.reproduction_residuals()
    worst_gate = max(residuals.values())

    # four-pulse swap as a state map on every computational basis state
    sequence = pulses.swap_sequence(10.0)
    swap = gate_matrix(GateId.SWAP)
    worst_fidelity = 1.0
    for bits in ("00", "01", "10", "11"):
        v = computational_basis_state(bits)
        out = pulses.evolve(sequence, v)
        fidelity = abs(np.vdot(swap @ v, out)) ** 2
        worst_fidelity = min(worst_fidelity, fidelity)

    # schedules that never touch the inter-qubit electrode must not leak
    intra = (
        pulses.calibrate(GateId.NOT1, 10.0)
        + pulses.calibrate_phase_flip(2, 5.0)
        + pulses.calibrate(GateId.SQRT_NOT2, 7.0)
        + pulses.calibrate_phase_flip(3, 2.0)
    )
    worst_leak = max(
        leakage_population(pulses.evolve(intra, computational_basis_state(bits)))
        for bits in ("00", "01", "10", "11")
    )

    ok = worst_gate <= PULSE_TOL and worst_fidelity >= 1.0 - PULSE_TOL and worst_leak <= LEAKAGE_TOL
    announce(
        capsys, 2, "pulse engine", ok,
        f"worst gate residual {worst_gate:.2e}, worst swap fidelity 1-{1-worst_fidelity:.2e}, "
        f"leakage {worst_leak:.2e}",
    )
    assert worst_gate <= PULSE_TOL, residuals
    assert worst_fidelity >= 1.0 - PULSE_TOL
    assert worst_leak <= LEAKAGE_TOL


def test_criterion_3_embedding_search(capsys):
    cli.main(["compile", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    residual = float(report["phase_gate_best_residual"])
    xor = float(report["xor_4dim_residual"])
    reproduced = bool(report["phase_gate_reproduced"])
    # the report must take an explicit stance either way
    stance = reproduced or "message" in report
    ok = xor <= EMBEDDING_TOL and stance and reproduced
    announce(
        capsys, 3, "leakage-phase embedding", ok,
        f"phase-gate residual {residual:.2e}, 4-dim identity residual {xor:.2e}, "
        f"convention {report['xor_4dim_convention']}",
    )
    assert xor <= EMBEDDING_TOL
    assert stance, "report neither claims success nor flags failure"
    assert reproduced, f"no embedding reached {EMBEDDING_TOL}; residual {residual}"


def test_criterion_4_decoherence_scaling(capsys):
    # The shipped sweep reports at their defaults: one-phonon lifetimes over
    # deps = 0.5..5 ueV, and the two-phonon rate over the decade starting at
    # the validity edge kT = 10 * splitting, reduced-denominator mode,
    # default resolution.
    start = time.perf_counter()
    tau_code = cli.main(["decohere", "--sweep", "tau", "--format", "json"])
    tau_report = json.loads(capsys.readouterr().out)
    cli.main(["decohere", "--sweep", "rate", "--format", "json"])
    rate_report = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start
    tau_fits = tau_report["fitted_exponents"]
    rate_fits = rate_report["fitted_exponents"]
    tau_ok = (
        abs(tau_fits["deformation"] + 5.0) <= TAU_EXPONENT_TOL
        and abs(tau_fits["piezoelectric"] + 3.0) <= TAU_EXPONENT_TOL
    )
    rate_ok = (
        abs(rate_fits["deformation"] - 6.0) <= RATE_EXPONENT_TOL
        and abs(rate_fits["piezoelectric"] - 2.0) <= RATE_EXPONENT_TOL
    )

    ok = tau_ok and rate_ok and elapsed < 60.0
    announce(
        capsys, 4, "decoherence scaling", ok,
        f"tau exponents {tau_fits['deformation']:.3f}/{tau_fits['piezoelectric']:.3f}, "
        f"W(T) exponents {rate_fits['deformation']:.3f}/{rate_fits['piezoelectric']:.3f} "
        f"vs declared 6/2, {elapsed:.1f}s",
    )
    assert tau_ok, tau_fits
    assert elapsed < 60.0
    # the lifetime magnitudes are calibration anchors, not predictions, and
    # the sweep report must say so
    assert tau_code == 0
    assert tau_report["anchors_are_calibration_inputs"] is True
    # the fits cover the criterion's windows and the report declares its pair
    assert tau_report["deps_ueV"] == np.geomspace(0.5, 5.0, 10).tolist()
    edge = decoherence.validity_edge_K(0.1)
    assert rate_report["temperature_K"] == np.geomspace(edge, 10.0 * edge, 7).tolist()
    assert rate_report["mode"] == "reduced"
    assert rate_report["declared_exponents"] == {"deformation": 6.0, "piezoelectric": 2.0}
    assert rate_ok, (
        f"two-phonon W(T) exponents fitted {rate_fits['deformation']:.3f} (deformation) and "
        f"{rate_fits['piezoelectric']:.3f} (piezoelectric) on the decade kT = 10..100 x splitting; "
        "the declared 6 +- 0.1 and 2 +- 0.1 are not reached on any shared decade satisfying "
        "kT >= 10 x splitting: the orientation-averaged flip matrix elements contribute two "
        "extra powers of T per phonon, making the deep low-temperature laws ~T^9 and ~T^5, and "
        "the 6/2 values only appear transiently in disjoint crossover windows per branch"
    )


def test_criterion_5_coulomb_selection_rule(capsys):
    start = time.perf_counter()
    cli.main(["decohere", "--sweep", "selection", "--format", "json"])
    table = json.loads(capsys.readouterr().out)
    cli.main(["decohere", "--sweep", "selection", "--resolution", "1600", "--format", "json"])
    finer = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start
    allowed = table["allowed_abs"]
    worst_forbidden = max(table["forbidden_pp_abs"], table["forbidden_mm_abs"])
    shrinking = finer["error_bound"] < table["error_bound"]
    ok = worst_forbidden <= SELECTION_RATIO * allowed and shrinking and elapsed < 30.0
    announce(
        capsys, 5, "Coulomb selection rule", ok,
        f"forbidden/allowed {worst_forbidden / allowed:.2e}, "
        f"error bound {table['error_bound']:.2e} -> {finer['error_bound']:.2e}, {elapsed:.1f}s",
    )
    assert worst_forbidden <= SELECTION_RATIO * allowed
    assert shrinking, "error bound did not shrink with resolution"
    assert elapsed < 30.0


def test_criterion_6_readout_and_initialization(capsys):
    cfg = readout.ReadoutConfig(
        tunnel_coupling_ueV=5.0, bias_ueV=10.0, duration_ns=0.4, timestep_ns=0.0005
    )
    traces = readout.readout_traces(cfg)
    propagator = readout.propagator_error(cfg, traces)
    best_bias, best = readout.scan_bias(5.0, duration_ns=0.4, timestep_ns=0.0005)
    thermal = decoherence.thermal_occupancy(9.3 * K_B_UEV_PER_K, 1.0)
    init_gap = 0.0
    for target in ("plus", "minus"):
        plan = readout.init_by_reversed_readout(cfg, target)
        p_left = traces.p_left[0 if target == "plus" else 1]
        idx = int(round(plan.duration_ns / cfg.timestep_ns))
        forward = p_left[idx] if plan.source_dot == "L" else 1.0 - p_left[idx]
        init_gap = max(init_gap, abs(plan.fidelity - float(forward)))

    ok = (
        propagator <= PROPAGATOR_TOL
        and best.distinguishability >= 0.99
        and thermal <= THERMAL_CEILING
        and init_gap <= INIT_MATCH_TOL
    )
    announce(
        capsys, 6, "readout and initialization", ok,
        f"propagator {propagator:.1e}, distinguishability {best.distinguishability:.6f} "
        f"at bias {best_bias:g}, thermal {thermal:.2e}, init gap {init_gap:.1e}",
    )
    assert propagator <= PROPAGATOR_TOL
    assert best.distinguishability >= 0.99
    assert thermal <= THERMAL_CEILING
    assert init_gap <= INIT_MATCH_TOL


def test_criterion_7_determinism(capsys, tmp_path):
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps(pulses.schedule_to_json(pulses.swap_sequence(10.0))))
    invocations = [
        ["verify"],
        ["compile"],
        ["evolve", "--schedule", str(schedule), "--initial", "01"],
        ["decohere", "--sweep", "tau"],
        ["decohere", "--sweep", "rate", "--branch", "piezoelectric", "--points", "2"],
        ["decohere", "--sweep", "selection"],
        ["readout"],
        ["readout", "--scan"],
        ["init", "--target", "plus"],
    ]
    mismatches = []
    for argv in invocations:
        code1 = cli.main(list(argv))
        first = capsys.readouterr().out
        code2 = cli.main(list(argv))
        second = capsys.readouterr().out
        if first != second or code1 != code2 or not first:
            mismatches.append(argv[0])
    ok = not mismatches
    announce(capsys, 7, "byte-identical reruns", ok,
             f"{len(invocations)} commands" + (f", mismatched: {mismatches}" if mismatches else ""))
    assert ok, f"non-deterministic commands: {mismatches}"


def test_cli_checks_declare_the_bounds_pinned_here():
    # The CLI's exit code comes from this table, so it cannot drift from the
    # criteria: the bounds, and where a --tolerance replaces them, its defaults.
    bounds = {name: bound for name, (_, bound) in cli._CHECKS.items()}
    assert bounds == {
        "verify": PULSE_TOL,
        "compile": EMBEDDING_TOL,
        "fidelity": PULSE_TOL,
        "tau_exponent": TAU_EXPONENT_TOL,
        "rate_exponent[deformation]": (6.0, RATE_EXPONENT_TOL),
        "rate_exponent[piezoelectric]": (2.0, RATE_EXPONENT_TOL),
        "selection_ratio": SELECTION_RATIO,
        "distinguishability": 0.99,
        "propagator_max_error": PROPAGATOR_TOL,
        "fidelity_matches_forward": INIT_MATCH_TOL,
        "degenerate": False,
    }
    defaults = {command: vars(cli._parse([command]))["tolerance"]
                for command in ("verify", "compile", "evolve")}
    assert defaults == {"verify": PULSE_TOL, "compile": EMBEDDING_TOL, "evolve": PULSE_TOL}

"""Command-line front end: verification, evolution, sweeps, readout.

Every command reads an optional JSON config file (flat object whose keys
match the flag destinations; explicit flags win), writes one report to
``--out`` or stdout, and exits 0 exactly when all checks it declares are
within tolerance.  Structured results are JSON, sweeps and traces CSV;
floats carry 17 significant digits so identical runs produce byte-identical
output.  Reports contain no timestamps for the same reason.  ``--seed`` is
accepted for interface stability but ignored: every algorithm here is
deterministic.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import compiler, decoherence, pulses, readout
from .basis import COMPUTATIONAL_ROWS, basis_labels, computational_basis_state, leakage_population
from .constants import K_B_UEV_PER_K
from .gates import GateId, gate_matrix, verify_catalog_identities
from .linalg import dist_up_to_global_phase, require_normalized
from .reporting import render_csv, render_json, write_text

__all__ = ["main"]

_PULSE_NATIVE_GATES = (
    GateId.NOT1,
    GateId.NOT2,
    GateId.SQRT_NOT1,
    GateId.SQRT_NOT2,
    GateId.EXCHANGE,
)


def _get(args: argparse.Namespace, config: dict, name: str, default):
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name, default)
    return value


def _emit(report: dict, args: argparse.Namespace, config: dict, default_format: str,
          csv_text: str | None = None) -> None:
    fmt = _get(args, config, "format", default_format)
    if fmt == "json":
        text = render_json(report)
    elif fmt == "csv":
        text = csv_text if csv_text is not None else _flatten_csv(report)
    else:
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    write_text(text, _get(args, config, "out", None))


def _flatten_csv(report: dict) -> str:
    rows: list[tuple[str, object]] = []

    def walk(prefix: str, value: object) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                walk(f"{prefix}[{i}]", v)
        else:
            rows.append((prefix, value))

    walk("", report)
    return render_csv(("name", "value"), rows)


def _pulse_reproduction_residuals(amplitude_ueV: float = 10.0) -> dict[str, float]:
    """Distance of every calibrated pulse product from its catalog gate."""
    checks: dict[str, float] = {}
    for gid in _PULSE_NATIVE_GATES:
        u = pulses.evolve(pulses.calibrate(gid, amplitude_ueV))
        checks[f"pulse[{gid.value}]"] = dist_up_to_global_phase(u, gate_matrix(gid))
    checks["pulse[swap_sequence]"] = dist_up_to_global_phase(
        pulses.evolve(pulses.swap_sequence(amplitude_ueV)), gate_matrix(GateId.SWAP)
    )
    checks["pulse[sqrt_swap_sequence]"] = dist_up_to_global_phase(
        pulses.evolve(pulses.sqrt_swap_sequence(amplitude_ueV)), gate_matrix(GateId.SQRT_SWAP)
    )
    u = pulses.evolve(pulses.calibrate_phase_flip(1, amplitude_ueV))
    rows = np.asarray(COMPUTATIONAL_ROWS)
    checks["pulse[phase_flip_dqd1]"] = dist_up_to_global_phase(
        u[np.ix_(rows, rows)], np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    )
    return checks


def _cmd_verify(args: argparse.Namespace, config: dict) -> int:
    tolerance = float(_get(args, config, "tolerance", 1e-9))
    grid = compiler.offset_grid(int(_get(args, config, "resolution", 4)))
    identities = verify_catalog_identities()
    pulse_checks = _pulse_reproduction_residuals()
    decomposition = compiler.decomposition_report(grid)

    required: dict[str, float] = dict(identities)
    required.update(pulse_checks)
    required["phase_gate_best_residual"] = float(decomposition["phase_gate_best_residual"])
    required["cnot_residual"] = float(decomposition["cnot_residual"])
    required["xor_4dim_residual"] = float(decomposition["xor_4dim_residual"])

    failures = sorted(name for name, value in required.items() if value > tolerance)
    report = {
        "tolerance": tolerance,
        "identities": identities,
        "pulse_reproduction": pulse_checks,
        "decomposition": decomposition,
        "failures": failures,
        "passed": not failures,
    }
    _emit(report, args, config, "json")
    return 0 if not failures else 1


def _load_initial(args: argparse.Namespace, config: dict) -> tuple[str, np.ndarray]:
    initial_file = _get(args, config, "initial_file", None)
    if initial_file is not None:
        data = json.loads(Path(initial_file).read_text())
        if not (isinstance(data, list) and len(data) == 6):
            raise ValueError("initial state file must hold six [re, im] pairs")
        state = np.array([complex(re, im) for re, im in data])
        return "custom", require_normalized(state)
    label = _get(args, config, "initial", "00")
    return label, computational_basis_state(label)


def _cmd_evolve(args: argparse.Namespace, config: dict) -> int:
    schedule_path = _get(args, config, "schedule", None)
    if schedule_path is None:
        raise ValueError("evolve requires --schedule <file>")
    schedule = pulses.load_schedule(schedule_path)
    label, state0 = _load_initial(args, config)
    tolerance = float(_get(args, config, "tolerance", 1e-9))

    final = pulses.evolve(schedule, state0)
    report: dict[str, object] = {
        "schedule": str(schedule_path),
        "segments": len(schedule),
        "initial": label,
        "final_state": [[float(c.real), float(c.imag)] for c in final],
        "probabilities": [float(abs(c) ** 2) for c in final],
        "leakage_population": leakage_population(final),
        "norm": float(np.linalg.norm(final)),
    }
    passed = True
    target_name = _get(args, config, "target", None)
    if target_name is not None:
        target = gate_matrix(GateId(target_name))
        expected = target @ state0
        fidelity = float(abs(np.vdot(expected, final)) ** 2)
        report["target"] = target_name
        report["fidelity"] = fidelity
        report["gate_distance"] = dist_up_to_global_phase(pulses.evolve(schedule), target)
        passed = fidelity >= 1.0 - tolerance
    report["passed"] = passed

    labels = basis_labels()
    csv_text = render_csv(
        ("row", "configuration", "re", "im", "probability"),
        [(i, labels[i], final[i].real, final[i].imag, abs(final[i]) ** 2) for i in range(6)],
    )
    _emit(report, args, config, "json", csv_text)
    return 0 if passed else 1


def _cmd_compile(args: argparse.Namespace, config: dict) -> int:
    tolerance = float(_get(args, config, "tolerance", 1e-10))
    grid = compiler.offset_grid(int(_get(args, config, "resolution", 4)))
    report = compiler.decomposition_report(grid)
    passed = (
        float(report["xor_4dim_residual"]) <= tolerance
        and bool(report["phase_gate_reproduced"])
        and float(report["cnot_residual"]) <= 1e-9
    )
    report["passed"] = passed
    _emit(report, args, config, "json")
    return 0 if passed else 1


def _tau_sweep(args: argparse.Namespace, config: dict) -> tuple[dict, str, bool]:
    deps_min = float(_get(args, config, "deps_min", 0.5))
    deps_max = float(_get(args, config, "deps_max", 5.0))
    points = int(_get(args, config, "points", 10))
    if not (deps_min > 0.0 and deps_max > deps_min and points >= 2):
        raise ValueError("tau sweep needs 0 < deps_min < deps_max and at least 2 points")
    branches = _selected_branches(args, config)
    grid = np.geomspace(deps_min, deps_max, points)
    rows: list[tuple[object, ...]] = []
    fits: dict[str, float] = {}
    passed = True
    for branch in branches:
        taus = [decoherence.single_phonon_tau_s(d, branch) for d in grid]
        for d, tau in zip(grid, taus):
            rows.append((float(d), branch.kind, "spontaneous", tau, 0.0))
        slope = decoherence.fit_scaling_exponent(zip(grid, taus))
        fits[branch.kind] = slope
        rows.append((0.0, branch.kind, "fitted_exponent", slope, 1e-10))
        passed = passed and abs(slope + branch.tau_exponent) <= 1e-10
    report = {
        "sweep": "tau_vs_deps",
        "deps_ueV": [float(d) for d in grid],
        "fitted_exponents": fits,
        "expected_exponents": {b.kind: -b.tau_exponent for b in branches},
        "anchors_are_calibration_inputs": True,
        "passed": passed,
    }
    csv_text = render_csv(("deps_ueV", "branch", "mode", "tau_s", "est_error"), rows)
    return report, csv_text, passed


def _rate_sweep(args: argparse.Namespace, config: dict) -> tuple[dict, str, bool]:
    deps = float(_get(args, config, "deps", 0.1))
    t_min = float(_get(args, config, "t_min", 10.0 * deps / K_B_UEV_PER_K))
    t_max = float(_get(args, config, "t_max", 10.0 * t_min))
    points = int(_get(args, config, "points", 7))
    resolution = int(_get(args, config, "resolution", 256))
    mode = _get(args, config, "mode", "reduced")
    if not (t_min > 0.0 and t_max > t_min and points >= 2):
        raise ValueError("rate sweep needs 0 < t_min < t_max and at least 2 points")
    geom = _geometry(args, config)
    transition = decoherence.TransitionSpec(delta_eps_ueV=deps)
    branches = _selected_branches(args, config)
    grid = np.geomspace(t_min, t_max, points)

    rows: list[tuple[object, ...]] = []
    fits: dict[str, float] = {}
    expected = {"deformation": 6.0, "piezoelectric": 2.0}
    passed = True
    for branch in branches:
        rates = []
        for t in grid:
            env = decoherence.Environment(temperature_K=float(t), resolution=resolution)
            env_half = dataclasses.replace(env, resolution=max(8, resolution // 2))
            rate = decoherence.two_phonon_rate_per_s(transition, branch, env, geom, mode=mode)
            rate_half = decoherence.two_phonon_rate_per_s(transition, branch, env_half, geom, mode=mode)
            rates.append(rate)
            rows.append((float(t), branch.kind, mode, rate, abs(rate - rate_half)))
        slope = decoherence.fit_scaling_exponent(zip(grid, rates))
        fits[branch.kind] = slope
        rows.append((0.0, branch.kind, "fitted_exponent", slope, 0.1))
        passed = passed and abs(slope - expected[branch.kind]) <= 0.1
    report = {
        "sweep": "two_phonon_rate_vs_temperature",
        "temperature_K": [float(t) for t in grid],
        "delta_eps_ueV": deps,
        "mode": mode,
        "fitted_exponents": fits,
        "declared_exponents": {b.kind: expected[b.kind] for b in branches},
        "declared_tolerance": 0.1,
        "passed": passed,
    }
    csv_text = render_csv(("T_K", "branch", "mode", "rate_per_s", "est_error"), rows)
    return report, csv_text, passed


def _selection_table(args: argparse.Namespace, config: dict) -> tuple[dict, str, bool]:
    resolution = int(_get(args, config, "resolution", 800))
    geom = _geometry(args, config)
    table = decoherence.coulomb_selection_rule(geom, resolution=resolution)
    ratio_pp = table["forbidden_pp_abs"] / table["allowed_abs"]
    ratio_mm = table["forbidden_mm_abs"] / table["allowed_abs"]
    passed = max(ratio_pp, ratio_mm) <= 1e-3
    report = dict(table)
    report.update(
        {
            "sweep": "coulomb_selection_rule",
            "ratio_forbidden_pp": ratio_pp,
            "ratio_forbidden_mm": ratio_mm,
            "passed": passed,
        }
    )
    csv_text = render_csv(("name", "value"), [(k, v) for k, v in report.items()])
    return report, csv_text, passed


def _selected_branches(args: argparse.Namespace, config: dict) -> list[decoherence.PhononBranch]:
    choice = _get(args, config, "branch", "both")
    branches = []
    if choice in ("deformation", "both"):
        branches.append(decoherence.PhononBranch.deformation())
    if choice in ("piezoelectric", "both"):
        branches.append(decoherence.PhononBranch.piezoelectric())
    if not branches:
        raise ValueError(f"branch must be deformation, piezoelectric or both, got {choice!r}")
    return branches


def _geometry(args: argparse.Namespace, config: dict) -> decoherence.DotGeometry:
    return decoherence.DotGeometry(
        d_nm=float(_get(args, config, "dot_separation_nm", 22.0)),
        a_nm=float(_get(args, config, "orbital_width_nm", 5.0)),
    )


def _cmd_decohere(args: argparse.Namespace, config: dict) -> int:
    sweep = _get(args, config, "sweep", "tau")
    if sweep == "tau":
        report, csv_text, passed = _tau_sweep(args, config)
        default_format = "csv"
    elif sweep == "rate":
        report, csv_text, passed = _rate_sweep(args, config)
        default_format = "csv"
    elif sweep == "selection":
        report, csv_text, passed = _selection_table(args, config)
        default_format = "json"
    else:
        raise ValueError(f"sweep must be tau, rate or selection, got {sweep!r}")
    _emit(report, args, config, default_format, csv_text)
    return 0 if passed else 1


def _readout_config(args: argparse.Namespace, config: dict) -> readout.ReadoutConfig:
    return readout.ReadoutConfig(
        tunnel_coupling_ueV=float(_get(args, config, "tunnel_coupling", 5.0)),
        bias_ueV=float(_get(args, config, "bias", 10.0)),
        duration_ns=float(_get(args, config, "duration", 0.4)),
        timestep_ns=float(_get(args, config, "timestep", 0.0005)),
    )


def _cmd_readout(args: argparse.Namespace, config: dict) -> int:
    if bool(_get(args, config, "scan", False)):
        cfg = _readout_config(args, config)
        n_bias = int(_get(args, config, "resolution", 40))
        best_cfg, best = readout.scan_bias(
            cfg.tunnel_coupling_ueV, cfg.duration_ns, cfg.timestep_ns, n_bias=n_bias
        )
        passed = best.distinguishability >= 0.99
        report = {
            "scan": "bias",
            "tunnel_coupling_ueV": best_cfg.tunnel_coupling_ueV,
            "best_bias_ueV": best_cfg.bias_ueV,
            "measurement_time_ns": best.time_ns,
            "distinguishability": best.distinguishability,
            "passed": passed,
        }
        _emit(report, args, config, "json")
        return 0 if passed else 1

    cfg = _readout_config(args, config)
    trace_plus = readout.readout_trace(cfg, "plus")
    trace_minus = readout.readout_trace(cfg, "minus")
    best = readout.optimal_measurement_time(cfg)
    degenerate = best.distinguishability < 1e-12
    report = {
        "tunnel_coupling_ueV": cfg.tunnel_coupling_ueV,
        "bias_ueV": cfg.bias_ueV,
        "rabi_frequency_rad_per_ns": readout.rabi_frequency(cfg),
        "measurement_time_ns": best.time_ns,
        "distinguishability": best.distinguishability,
        "degenerate": degenerate,
        "probability_conservation_max_error": max(trace_plus.norm_error, trace_minus.norm_error),
        "passed": True,
    }
    csv_text = render_csv(
        ("t_ns", "p_left_plus", "p_left_minus", "contrast"),
        [
            (t, pl, pm, abs(pl - pm))
            for t, pl, pm in zip(trace_plus.times_ns, trace_plus.p_left, trace_minus.p_left)
        ],
    )
    _emit(report, args, config, "csv", csv_text)
    return 0


def _cmd_init(args: argparse.Namespace, config: dict) -> int:
    cfg = _readout_config(args, config)
    target = _get(args, config, "target", "plus")
    plan = readout.init_by_reversed_readout(cfg, target)
    u = readout.readout_unitary(cfg, plan.duration_ns)
    source_index = 0 if plan.source_dot == "L" else 1
    space = np.array([1.0, 0.0], dtype=complex) if target == "plus" else np.array([0.0, 1.0], dtype=complex)
    dot_state = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0) @ space
    forward_probability = float(np.abs((u @ dot_state)[source_index]) ** 2)
    matches = abs(plan.fidelity - forward_probability) <= 1e-12
    report = {
        "target": plan.target,
        "source_dot": plan.source_dot,
        "bias_ueV": plan.bias_ueV,
        "tunnel_coupling_ueV": plan.tunnel_coupling_ueV,
        "duration_ns": plan.duration_ns,
        "fidelity": plan.fidelity,
        "forward_probability": forward_probability,
        "fidelity_matches_forward": matches,
        "passed": matches,
    }
    _emit(report, args, config, "json")
    return 0 if matches else 1


_HANDLERS = {
    "verify": _cmd_verify,
    "evolve": _cmd_evolve,
    "compile": _cmd_compile,
    "decohere": _cmd_decohere,
    "readout": _cmd_readout,
    "init": _cmd_init,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with default option values")
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default=None)
    sub.add_argument("--tolerance", type=float, default=None)
    sub.add_argument("--resolution", type=int, default=None,
                     help="grid density: offset-grid points per turn, 1..%d (verify/compile), "
                          "quadrature nodes (decohere), bias samples (readout --scan)"
                          % compiler.MAX_OFFSETS)
    sub.add_argument("--seed", type=int, default=None,
                     help="reserved; all algorithms are deterministic")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqdsim",
        description="Simulate and verify charge qubits encoded in DQD space states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check catalog identities, pulse calibration, compilation")
    _add_common(p)

    p = sub.add_parser("evolve", help="apply a pulse schedule to a state")
    _add_common(p)
    p.add_argument("--schedule", help="JSON pulse schedule file")
    p.add_argument("--initial", choices=("00", "01", "10", "11"), default=None)
    p.add_argument("--initial-file", dest="initial_file", help="JSON file with six [re, im] pairs")
    p.add_argument("--target", choices=[g.value for g in GateId], default=None)

    p = sub.add_parser("compile", help="report the phase-gate embedding search and CNOT build")
    _add_common(p)

    p = sub.add_parser("decohere", help="phonon lifetime/rate sweeps and the selection rule")
    _add_common(p)
    p.add_argument("--sweep", choices=("tau", "rate", "selection"), default=None)
    p.add_argument("--branch", choices=("deformation", "piezoelectric", "both"), default=None)
    p.add_argument("--deps", type=float, default=None, help="level splitting (ueV) for rate sweeps")
    p.add_argument("--deps-min", dest="deps_min", type=float, default=None)
    p.add_argument("--deps-max", dest="deps_max", type=float, default=None)
    p.add_argument("--t-min", dest="t_min", type=float, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--mode", choices=("reduced", "exact"), default=None)
    p.add_argument("--dot-separation-nm", dest="dot_separation_nm", type=float, default=None)
    p.add_argument("--orbital-width-nm", dest="orbital_width_nm", type=float, default=None)

    p = sub.add_parser("readout", help="charge readout traces and distinguishability")
    _add_common(p)
    p.add_argument("--tunnel-coupling", dest="tunnel_coupling", type=float, default=None)
    p.add_argument("--bias", type=float, default=None)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--timestep", type=float, default=None)
    p.add_argument("--scan", action="store_const", const=True, default=None,
                   help="scan biases in (0, 4*tunnel_coupling] for the best contrast")

    p = sub.add_parser("init", help="prepare a space state by reversed readout")
    _add_common(p)
    p.add_argument("--tunnel-coupling", dest="tunnel_coupling", type=float, default=None)
    p.add_argument("--bias", type=float, default=None)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--timestep", type=float, default=None)
    p.add_argument("--target", choices=("plus", "minus"), default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config: dict = {}
        if getattr(args, "config", None):
            loaded = json.loads(Path(args.config).read_text())
            if not isinstance(loaded, dict):
                raise ValueError("config file must hold a JSON object")
            config = loaded
        return _HANDLERS[args.command](args, config)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: verification, evolution, sweeps, readout.

Every command reads an optional JSON config file: a flat object whose keys
are that command's flag names with ``_`` for ``-``.  Config values are
parsed as flags ahead of the explicit ones, so they are typed and checked
exactly like flags, and explicit flags win.  Each command's handler only
computes and returns a :class:`Result`, whose CSV table is built only when
CSV is rendered.  :func:`main` is the one place that renders the report to
``--out`` or stdout and turns its ``"passed"`` into the exit code: 0 exactly
when all checks the command declares are within tolerance, 1 when one is
not, 2 on a usage or data error.  Each report's ``"failures"``, just before
``"passed"``, names the checks that failed: every check is an entry of one
table of relations and bounds, :data:`_CHECKS`.  Structured results are JSON,
sweeps and traces CSV; floats carry 17 significant digits so identical runs
produce byte-identical output.  Reports contain no timestamps for the same
reason.

Importing this module loads ``basis``, ``compiler``, ``constants``,
``gates``, ``linalg`` and ``reporting``, and no numpy: all that ``compile``
runs, so a cold ``compile`` process loads nothing more.  The other
subcommands import numpy and the layer they need when their handler runs:
``verify`` and ``evolve`` import ``pulses``, the ``decohere`` handlers
``decoherence``, and the ``readout`` and ``init`` handlers ``readout``.  A
trace's CSV table loads ``floattext``, the formatter of float arrays.

Each subcommand's flags are declared once, as data in :data:`_COMMANDS`
(:class:`_Flag`: type, default, choices, help).  A run whose arguments
after the subcommand are all exact ``--flag value``, ``--flag=value`` or
switches, with no value that starts with ``-`` or fails its flag's type or
choices, is read from that table alone (:func:`_parse_plain`) and builds no
argparse parser.  Every other argv, help among them, goes to argparse
parsers built from the same table on first use (:func:`_parsers`), so
usage text and exit 2 stay argparse's own.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from . import compiler
from .basis import LOGICAL_BITS, basis_labels, computational_basis_state, leakage_population
from .constants import (MAX_BIAS_SAMPLES, MAX_RESOLUTION, MAX_SELECTION_RESOLUTION,
                        MAX_TRACE_SAMPLES, PHONON_KINDS)
from .gates import GateId, gate_matrix, verify_catalog_identities
from .linalg import dist_up_to_global_phase
from .reporting import render_csv, render_json, write_text

if TYPE_CHECKING:
    import numpy as np

    from . import decoherence

__all__ = ["MAX_SWEEP_POINTS", "main"]

#: Largest number of points of a ``decohere`` tau or rate sweep.
MAX_SWEEP_POINTS = 1000


class Result(NamedTuple):
    """What a command hands :func:`main` to render.

    ``report`` ends with ``"failures"`` and ``"passed"``, the exit code.  The
    CSV form is what ``table`` returns, a ``(header, rows)`` pair whose rows
    may be one float array, or else the report flattened to ``name,value``
    rows.  :func:`main` calls ``table`` only when CSV is asked for, so a
    trace rendered as JSON never builds its table.
    """

    report: dict
    default_format: str = "json"
    table: Callable[[], tuple[Sequence[str], Iterable | np.ndarray]] | None = None


def _flatten(report: dict) -> tuple[Sequence[str], list[tuple[str, object]]]:
    """``report`` as a ``name,value`` table, nested keys joined by ``.`` and ``[i]``."""
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
    return ("name", "value"), rows


#: Every declared check: name -> (relation, bound), passed when ``relation(value, bound)``.
#: The bounds of "verify", "compile" and "fidelity" are their ``--tolerance`` default.
_CHECKS = {
    "verify": (operator.le, 1e-9),  # each catalog identity, pulse and decomposition residual
    "compile": (operator.le, 1e-10),  # the phase-gate, CNOT and 4-dim XOR residuals
    "fidelity": (lambda fidelity, tol: fidelity >= 1.0 - tol, 1e-9),  # evolve --target
    "tau_exponent": (operator.le, 1e-10),  # |fitted + built-in lifetime exponent|, per branch
    **{f"rate_exponent[{kind}]": (lambda fit, b: abs(fit - b[0]) <= b[1], (declared, 0.1))
       for kind, declared in zip(PHONON_KINDS, (6.0, 2.0))},  # |fitted - declared|
    "selection_ratio": (operator.le, 1e-3),  # forbidden / allowed, per spin pair
    "distinguishability": (operator.ge, 0.99),  # readout --scan
    "propagator_max_error": (operator.le, 1e-12),  # readout
    "fidelity_matches_forward": (operator.le, 1e-12),  # init: |fidelity - forward probability|
    "degenerate": (operator.eq, False),  # init
}


def _verdict(checks: dict[str, object], tolerance: float | None = None) -> dict[str, object]:
    """``failures``, sorted, and ``passed`` of the ``checks`` a command declares: each
    maps to a value, failing under its check's name, or to a dict of values failing
    under their own; ``tolerance``, a run's ``--tolerance``, replaces the bounds."""
    failures = []
    for check, values in checks.items():
        relation, bound = _CHECKS[check]
        bound = bound if tolerance is None else tolerance
        named = values.items() if isinstance(values, dict) else [(check, values)]
        failures += [name for name, value in named if not relation(value, bound)]
    return {"failures": sorted(failures), "passed": not failures}


#: The residuals that ``verify`` and ``compile`` both hold to ``--tolerance``.
_DECOMPOSITION_RESIDUALS = ("phase_gate_best_residual", "cnot_residual", "xor_4dim_residual")


def _decomposition(args: argparse.Namespace, check: str, residuals: dict) -> tuple[dict, dict]:
    """The decomposition report and ``check``'s verdict on ``residuals`` and its own; its
    ``phase_gate_reproduced`` follows that check, with a ``message`` when it is false."""
    report = compiler.decomposition_report(args.resolution)
    residuals = residuals | {name: report[name] for name in _DECOMPOSITION_RESIDUALS}
    verdict = _verdict({check: residuals}, args.tolerance)
    reproduced = "phase_gate_best_residual" not in verdict["failures"]
    best, trivial, *rest = report.items()
    report = dict([best, trivial, ("phase_gate_reproduced", reproduced), *rest])
    return report | ({} if reproduced else {"message": "identity not reproduced"}), verdict


def _cmd_verify(args: argparse.Namespace) -> Result:
    from . import pulses
    identities = verify_catalog_identities()
    pulse_checks = pulses.reproduction_residuals()
    decomposition, verdict = _decomposition(args, "verify", {**identities, **pulse_checks})
    return Result({
        "tolerance": args.tolerance,
        "identities": identities,
        "pulse_reproduction": pulse_checks,
        "decomposition": decomposition,
        **verdict,
    })


def _load_initial(args: argparse.Namespace) -> tuple[str, Sequence[complex]]:
    if args.initial_file is not None:
        # Integers parse as floats, so an oversized one becomes inf and is rejected.
        data = json.loads(Path(args.initial_file).read_text(), parse_int=float)
        if not (isinstance(data, list) and len(data) == 6 and all(
                isinstance(pair, list) and len(pair) == 2
                and all(isinstance(x, float) and math.isfinite(x) for x in pair)
                for pair in data)):
            raise ValueError("initial state file must hold six [re, im] pairs of finite numbers")
        return "custom", [complex(re, im) for re, im in data]  # evolve checks its norm
    return args.initial, computational_basis_state(args.initial)


def _cmd_evolve(args: argparse.Namespace) -> Result:
    import numpy as np
    from . import pulses
    if args.schedule is None:
        raise ValueError("evolve requires --schedule <file>")
    schedule = pulses.load_schedule(args.schedule)
    label, state0 = _load_initial(args)

    final = pulses.evolve(schedule, state0)
    report: dict[str, object] = {
        "schedule": str(args.schedule),
        "segments": len(schedule),
        "initial": label,
        "final_state": [[float(c.real), float(c.imag)] for c in final],
        "probabilities": [float(abs(c) ** 2) for c in final],
        "leakage_population": leakage_population(final),
        "norm": float(np.linalg.norm(final)),
    }
    if args.target is not None:
        target = gate_matrix(GateId(args.target))
        fidelity = float(abs(np.vdot(target @ state0, final)) ** 2)
        report.update(target=args.target, fidelity=fidelity,
                      gate_distance=dist_up_to_global_phase(pulses.evolve(schedule), target))
    report.update(_verdict({} if args.target is None else {"fidelity": fidelity}, args.tolerance))

    labels = basis_labels()
    rows = [(i, labels[i], final[i].real, final[i].imag, abs(final[i]) ** 2) for i in range(6)]
    header = ("row", "configuration", "re", "im", "probability")
    return Result(report, "json", lambda: (header, rows))


def _cmd_compile(args: argparse.Namespace) -> Result:
    report, verdict = _decomposition(args, "compile", {})
    return Result(report | verdict)


def _sweep_grid(lo_name: str, lo: float, hi_name: str, hi: float, points: int) -> np.ndarray:
    """``points`` log-spaced values from ``lo`` to ``hi``, after checking all three."""
    for name, value in ((lo_name, lo), (hi_name, hi)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if not lo < hi:
        raise ValueError(f"{lo_name} must be below {hi_name}")
    if not 2 <= points <= MAX_SWEEP_POINTS:
        raise ValueError(f"points must be in 2..{MAX_SWEEP_POINTS}, got {points}")
    import numpy as np
    return np.geomspace(lo, hi, points)


def _tau_sweep(args: argparse.Namespace) -> Result:
    from . import decoherence
    points = 10 if args.points is None else args.points
    grid = _sweep_grid("deps_min", args.deps_min, "deps_max", args.deps_max, points)
    branches = _selected_branches(args.branch)
    rows: list[tuple[object, ...]] = []
    fits: dict[str, float] = {}
    deviations: dict[str, float] = {}
    for branch in branches:
        taus = [decoherence.single_phonon_tau_s(d, branch) for d in grid]
        rows += [(float(d), branch.kind, "spontaneous", tau, 0.0) for d, tau in zip(grid, taus)]
        slope = decoherence.fit_scaling_exponent(zip(grid, taus))
        fits[branch.kind] = slope
        rows.append((0.0, branch.kind, "fitted_exponent", slope, _CHECKS["tau_exponent"][1]))
        deviations[f"tau_exponent[{branch.kind}]"] = abs(slope + branch.tau_exponent)
    report = {
        "sweep": "tau_vs_deps",
        "deps_ueV": [float(d) for d in grid],
        "fitted_exponents": fits,
        "expected_exponents": {b.kind: -b.tau_exponent for b in branches},
        "anchors_are_calibration_inputs": True,
        **_verdict({"tau_exponent": deviations}),
    }
    header = ("deps_ueV", "branch", "mode", "tau_s", "est_error")
    return Result(report, "csv", lambda: (header, rows))


def _rate_sweep(args: argparse.Namespace) -> Result:
    from . import decoherence
    edge = decoherence.validity_edge_K(args.deps)  # checks --deps even when --t-min is set
    t_min = edge if args.t_min is None else args.t_min
    t_max = 10.0 * t_min if args.t_max is None else args.t_max
    grid = _sweep_grid("t_min", t_min, "t_max", t_max, 7 if args.points is None else args.points)
    resolution = 256 if args.resolution is None else args.resolution
    geom = _geometry(args)
    branches = _selected_branches(args.branch)

    rows: list[tuple[object, ...]] = []
    fits: dict[str, float] = {}
    declared: dict[str, float] = {}
    temperatures = [float(t) for t in grid]
    for branch in branches:
        results = decoherence.two_phonon_rates_per_s(args.deps, branch, temperatures, geom,
                                                     mode=args.mode, resolution=resolution)
        rates = [rate for rate, _ in results]
        rows += [(t, branch.kind, args.mode, rate, est_error)
                 for t, (rate, est_error) in zip(temperatures, results)]
        slope = decoherence.fit_scaling_exponent(zip(grid, rates))
        fits[branch.kind] = slope
        declared[branch.kind], tolerance = _CHECKS[f"rate_exponent[{branch.kind}]"][1]
        rows.append((0.0, branch.kind, "fitted_exponent", slope, tolerance))
    report = {
        "sweep": "two_phonon_rate_vs_temperature",
        "temperature_K": [float(t) for t in grid],
        "delta_eps_ueV": args.deps,
        "mode": args.mode,
        "fitted_exponents": fits,
        "declared_exponents": declared,
        "declared_tolerance": tolerance,
        **_verdict({f"rate_exponent[{kind}]": slope for kind, slope in fits.items()}),
    }
    header = ("T_K", "branch", "mode", "rate_per_s", "est_error")
    return Result(report, "csv", lambda: (header, rows))


def _selection_table(args: argparse.Namespace) -> Result:
    from . import decoherence
    resolution = 800 if args.resolution is None else args.resolution
    table = decoherence.coulomb_selection_rule(_geometry(args), resolution=resolution)
    ratios = {f"ratio_forbidden_{pair}": table[f"forbidden_{pair}_abs"] / table["allowed_abs"]
              for pair in ("pp", "mm")}
    return Result({**table, "sweep": "coulomb_selection_rule", **ratios,
                   **_verdict({"selection_ratio": ratios})})


def _selected_branches(choice: str) -> list[decoherence.PhononBranch]:
    from . import decoherence
    return [decoherence.PhononBranch(k) for k in PHONON_KINDS if choice in (k, "both")]


def _geometry(args: argparse.Namespace) -> decoherence.DotGeometry:
    from . import decoherence
    return decoherence.DotGeometry(d_nm=args.dot_separation_nm, a_nm=args.orbital_width_nm)


_SWEEPS = {"tau": _tau_sweep, "rate": _rate_sweep, "selection": _selection_table}


def _cmd_readout(args: argparse.Namespace) -> Result:
    from . import readout
    if args.scan:
        # scan_bias checks the flags it reads, through its largest-bias pulse.
        best_bias, best = readout.scan_bias(args.tunnel_coupling, args.duration, args.timestep,
                                            n_bias=args.resolution)
        return Result({
            "scan": "bias",
            "tunnel_coupling_ueV": args.tunnel_coupling,
            "best_bias_ueV": best_bias,
            "measurement_time_ns": best.time_ns,
            "distinguishability": best.distinguishability,
            **_verdict({"distinguishability": best.distinguishability}),
        })

    cfg = readout.ReadoutConfig(args.tunnel_coupling, args.bias, args.duration, args.timestep)
    traces = readout.readout_traces(cfg)
    best = traces.best
    propagator_error = readout.propagator_error(cfg, traces)
    report = {
        "tunnel_coupling_ueV": cfg.tunnel_coupling_ueV,
        "bias_ueV": cfg.bias_ueV,
        "rabi_frequency_rad_per_ns": readout.rabi_frequency(cfg),
        "measurement_time_ns": best.time_ns,
        "distinguishability": best.distinguishability,
        "degenerate": best.degenerate,
        "propagator_max_error": propagator_error,
        **_verdict({"propagator_max_error": propagator_error}),
    }

    def table() -> tuple[Sequence[str], np.ndarray]:
        import numpy as np
        plus, minus = traces.p_left
        columns = (traces.times_ns, plus, minus, np.abs(plus - minus))
        return ("t_ns", "p_left_plus", "p_left_minus", "contrast"), np.column_stack(columns)

    return Result(report, "csv", table)


def _cmd_init(args: argparse.Namespace) -> Result:
    from . import readout
    cfg = readout.ReadoutConfig(args.tunnel_coupling, args.bias, args.duration, args.timestep)
    plan = readout.init_by_reversed_readout(cfg, args.target)
    gap = abs(plan.fidelity - plan.forward_probability)
    verdict = _verdict({"fidelity_matches_forward": gap, "degenerate": plan.degenerate})
    matches = "fidelity_matches_forward" not in verdict["failures"]
    # The plan's fields are flat values: its instance dict needs no deep copy.
    return Result({**vars(plan), "fidelity_matches_forward": matches, **verdict})


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


class _Flag(NamedTuple):
    """A flag's value type (``bool``: a switch that stores ``True``), default, choices, help."""

    type: Callable[[str], object] = str
    default: object = None
    choices: tuple[str, ...] | None = None
    help: str | None = None


def _dest(option: str) -> str:
    """The Namespace field and config key of ``option``, as argparse names it."""
    return option[2:].replace("-", "_")


_COMMON = {
    "--config": _Flag(help="JSON object of option values, keyed by this command's "
                           "flag names with '_' for '-'; explicit flags win"),
    "--out": _Flag(help="output path (default: stdout)"),
    "--format": _Flag(choices=("json", "csv")),
}
_READOUT_PULSE = {
    "--tunnel-coupling": _Flag(float, 5.0),
    "--bias": _Flag(float, 10.0),
    "--duration": _Flag(float, 0.4),
    "--timestep": _Flag(float, 0.0005, help="sample spacing (ns); duration/timestep may give "
                                            "at most %d samples" % MAX_TRACE_SAMPLES),
}


def _offset_grid(check: str) -> dict[str, _Flag]:
    return {**_COMMON, "--tolerance": _Flag(_tolerance, _CHECKS[check][1]),
            "--resolution": _Flag(int, 4, help="offset-grid points per turn, 1..%d"
                                               % compiler.MAX_OFFSETS)}


#: Subcommand -> (help, handler, flags), each flag declared once, in help order: the
#: plain-flag reader, the config-file check, argparse and :data:`_DEFAULTS` all read it.
_COMMANDS = {
    "verify": ("check catalog identities, pulse calibration, compilation", _cmd_verify,
               _offset_grid("verify")),
    "evolve": ("apply a pulse schedule to a state", _cmd_evolve, {
        **_COMMON, "--tolerance": _Flag(_tolerance, _CHECKS["fidelity"][1]),
        "--schedule": _Flag(help="JSON pulse schedule file"),
        "--initial": _Flag(default="00", choices=LOGICAL_BITS),
        "--initial-file": _Flag(help="JSON file with six [re, im] pairs"),
        "--target": _Flag(choices=tuple(g.value for g in GateId)),
    }),
    "compile": ("report the phase-gate embedding search and CNOT build", _cmd_compile,
                _offset_grid("compile")),
    "decohere": ("phonon lifetime/rate sweeps and the selection rule",
                 lambda args: _SWEEPS[args.sweep](args), {
        **_COMMON,
        "--resolution": _Flag(int, help="quadrature nodes: 8..%d for rate sweeps (default 256), "
                                        "16..%d for the selection rule (default 800)"
                                        % (MAX_RESOLUTION, MAX_SELECTION_RESOLUTION)),
        "--sweep": _Flag(default="tau", choices=("tau", "rate", "selection")),
        "--branch": _Flag(default="both", choices=(*PHONON_KINDS, "both")),
        "--deps": _Flag(float, 0.1, help="level splitting (ueV) for rate sweeps"),
        "--deps-min": _Flag(float, 0.5),
        "--deps-max": _Flag(float, 5.0),
        "--t-min": _Flag(float),
        "--t-max": _Flag(float),
        "--points": _Flag(int, help="sweep points, 2..%d (default 10 for tau, 7 for rate)"
                                    % MAX_SWEEP_POINTS),
        "--mode": _Flag(default="reduced", choices=("reduced", "exact")),
        "--dot-separation-nm": _Flag(float, 22.0),
        "--orbital-width-nm": _Flag(float, 5.0),
    }),
    "readout": ("charge readout traces and distinguishability", _cmd_readout, {
        **_COMMON,
        "--resolution": _Flag(int, 40, help="bias samples of --scan, 2..%d" % MAX_BIAS_SAMPLES),
        **_READOUT_PULSE,
        "--scan": _Flag(bool, False,
                        help="scan biases in (0, 4*tunnel_coupling] for the best contrast"),
    }),
    "init": ("prepare a space state by reversed readout", _cmd_init, {
        **_COMMON, **_READOUT_PULSE, "--target": _Flag(default="plus", choices=("plus", "minus")),
    }),
}
_DEFAULTS = {name: {_dest(option): flag.default for option, flag in flags.items()}
             for name, (_, _, flags) in _COMMANDS.items()}


@cache
def _parsers() -> dict[str | None, argparse.ArgumentParser]:
    """argparse's parsers, built from :data:`_COMMANDS` on first use: the top-level
    one under ``None``, every subcommand complete, and each subcommand's by name."""
    top = argparse.ArgumentParser(prog="dqdsim", description="Simulate and verify charge "
                                  "qubits encoded in DQD space states.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option, flag in flags.items():
            if flag.type is bool:
                p.add_argument(option, action="store_true", help=flag.help)
            else:
                p.add_argument(option, type=flag.type, default=flag.default,
                               choices=flag.choices, help=flag.help)
    return {None: top, **sub.choices}


def _config_argv(name: str, path: str) -> list[str]:
    """The config file's object as ``--flag=value`` arguments of subcommand ``name``."""
    config = json.loads(Path(path).read_text())
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    flags = _COMMANDS[name][2]
    options = {_dest(option): option for option in flags if option != "--config"}
    argv: list[str] = []
    for key, value in config.items():
        option = options.get(key)
        if option is None:
            raise ValueError(f"config key {key!r} is not an option of 'dqdsim {name}'")
        if flags[option].type is bool:
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be true or false")
            argv += [option] if value else []
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            argv.append(f"{option}={value}")
        else:
            raise ValueError(f"config key {key!r} must be a string or a number")
    return argv


def _parse_plain(name: str, args: list[str]) -> argparse.Namespace | None:
    """What argparse makes of ``args``, if each is an exact ``--flag value``,
    ``--flag=value`` or switch of subcommand ``name``, and no value starts
    with ``-`` or fails the flag's type or choices; otherwise ``None``."""
    namespace = argparse.Namespace(command=name)
    values, flags, rest = vars(namespace), _COMMANDS[name][2], iter(args)
    values.update(_DEFAULTS[name])  # one dict update, not a setattr per flag
    for arg in rest:
        option, eq, value = arg.partition("=")
        flag = flags.get(option)
        if flag is None:
            return None
        if flag.type is bool:
            if eq:
                return None
            value = True
        else:
            value = value if eq else next(rest, "-")  # a missing value fails as dash-led
            if value.startswith("-"):
                return None
            try:
                value = flag.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):  # what argparse reports
                return None
            if flag.choices is not None and value not in flag.choices:
                return None
        values[_dest(option)] = value
    return namespace


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` read from its subcommand's flag table, or else parsed by argparse."""
    if argv and argv[0] in _COMMANDS:
        # Anything but plain flags, help and every error among it, is argparse's own.
        return _parse_plain(argv[0], argv[1:]) or _parsers()[argv[0]].parse_args(
            argv[1:], argparse.Namespace(command=argv[0]))
    # Help, a missing or unknown subcommand, or flags before it.
    return _parsers()[None].parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    try:
        if args.config:
            # Config values go first so that explicit flags override them.
            at = argv.index(args.command) + 1
            args = _parse(argv[:at] + _config_argv(args.command, args.config) + argv[at:])
        result = _COMMANDS[args.command][1](args)
        if (args.format or result.default_format) == "csv":
            text = render_csv(*(result.table() if result.table else _flatten(result.report)))
        else:
            text = render_json(result.report)
        write_text(text, args.out)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if result.report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())

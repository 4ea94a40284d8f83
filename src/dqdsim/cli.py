"""Command-line front end: verification, evolution, sweeps, readout.

Every command reads an optional JSON config file: a flat object whose keys
are that command's flag names with ``_`` for ``-``.  Config values go
through the command's own parser, so they are typed and checked exactly
like flags, and explicit flags win.  Each command's handler only computes:
it returns its report with the report's default format and, for sweeps and
traces, a function that builds the CSV table, called only when CSV is
rendered.  :func:`main` is the one place that renders the report to
``--out`` or stdout and turns its ``"passed"`` into the exit code: 0 exactly
when all checks the command declares are within tolerance, 1 when one is
not, 2 on a usage or data error.  Each report's ``"failures"``, just before
``"passed"``, names the checks that failed: every check is an entry of one
table of relations and bounds, :data:`_CHECKS`.  Structured results are JSON,
sweeps and traces CSV; floats carry 17 significant digits so identical runs
produce byte-identical output.  Reports contain no timestamps for the same
reason.

Importing this module loads ``basis``, ``compiler``, ``constants``,
``gates``, ``linalg`` and ``reporting``: all that ``compile`` runs, so a
cold ``compile`` process loads nothing more.  The other subcommands import
the layer they need when their handler runs: ``verify`` and ``evolve``
import ``pulses``, the ``decohere`` handlers ``decoherence``, and the
``readout`` and ``init`` handlers ``readout``.  A trace's CSV table loads
``floattext``, the formatter of float arrays.  A run names its subcommand
first and is parsed by that subcommand's parser alone, whose flags are
added on first use.

Argparse declares every flag, but a run whose arguments are all exact
``--flag value``, ``--flag=value`` or ``store_true`` flags, with no value
that starts with ``-`` or fails its flag's type or choices, skips
``parse_args`` (:func:`_parse_plain`).  Every other argv goes to
``parse_args``, so that help, usage text and exit 2 stay argparse's own.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import compiler
from .basis import basis_labels, computational_basis_state, leakage_population
from .constants import MAX_BIAS_SAMPLES, MAX_RESOLUTION, MAX_SELECTION_RESOLUTION, MAX_TRACE_SAMPLES
from .gates import GateId, gate_matrix, verify_catalog_identities
from .linalg import dist_up_to_global_phase, require_normalized
from .reporting import render_csv, render_json, write_text

if TYPE_CHECKING:
    from . import decoherence, readout

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
       for kind, declared in (("deformation", 6.0), ("piezoelectric", 2.0))},  # |fitted - declared|
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


def _decomposition_residuals(report: dict) -> dict[str, object]:
    """The residuals that ``verify`` and ``compile`` both hold to ``--tolerance``."""
    names = ("phase_gate_best_residual", "cnot_residual", "xor_4dim_residual")
    return {name: report[name] for name in names}


def _cmd_verify(args: argparse.Namespace) -> Result:
    from . import pulses
    identities = verify_catalog_identities()
    pulse_checks = pulses.reproduction_residuals()
    decomposition = compiler.decomposition_report(args.resolution)
    residuals = {**identities, **pulse_checks, **_decomposition_residuals(decomposition)}
    return Result({
        "tolerance": args.tolerance,
        "identities": identities,
        "pulse_reproduction": pulse_checks,
        "decomposition": decomposition,
        **_verdict({"verify": residuals}, args.tolerance),
    })


def _load_initial(args: argparse.Namespace) -> tuple[str, np.ndarray]:
    if args.initial_file is not None:
        # Integers parse as floats, so an oversized one becomes inf and is rejected.
        data = json.loads(Path(args.initial_file).read_text(), parse_int=float)
        if not (isinstance(data, list) and len(data) == 6 and all(
                isinstance(pair, list) and len(pair) == 2
                and all(isinstance(x, float) and np.isfinite(x) for x in pair)
                for pair in data)):
            raise ValueError("initial state file must hold six [re, im] pairs of finite numbers")
        state = np.array([complex(re, im) for re, im in data])
        return "custom", require_normalized(state)
    return args.initial, computational_basis_state(args.initial)


def _cmd_evolve(args: argparse.Namespace) -> Result:
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
    report = compiler.decomposition_report(args.resolution)
    return Result(report | _verdict({"compile": _decomposition_residuals(report)}, args.tolerance))


def _sweep_grid(lo_name: str, lo: float, hi_name: str, hi: float, points: int) -> np.ndarray:
    """``points`` log-spaced values from ``lo`` to ``hi``, after checking all three."""
    for name, value in ((lo_name, lo), (hi_name, hi)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if not lo < hi:
        raise ValueError(f"{lo_name} must be below {hi_name}")
    if not 2 <= points <= MAX_SWEEP_POINTS:
        raise ValueError(f"points must be in 2..{MAX_SWEEP_POINTS}, got {points}")
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
    kinds = ("deformation", "piezoelectric")
    return [decoherence.PhononBranch(k) for k in kinds if choice in (k, "both")]


def _geometry(args: argparse.Namespace) -> decoherence.DotGeometry:
    from . import decoherence
    return decoherence.DotGeometry(d_nm=args.dot_separation_nm, a_nm=args.orbital_width_nm)


_SWEEPS = {"tau": _tau_sweep, "rate": _rate_sweep, "selection": _selection_table}


def _readout_config(args: argparse.Namespace) -> readout.ReadoutConfig:
    from . import readout
    return readout.ReadoutConfig(args.tunnel_coupling, args.bias, args.duration, args.timestep)


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

    cfg = _readout_config(args)
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
        plus, minus = traces.p_left
        columns = (traces.times_ns, plus, minus, np.abs(plus - minus))
        return ("t_ns", "p_left_plus", "p_left_minus", "contrast"), np.column_stack(columns)

    return Result(report, "csv", table)


def _cmd_init(args: argparse.Namespace) -> Result:
    from . import readout
    plan = readout.init_by_reversed_readout(_readout_config(args), args.target)
    gap = abs(plan.fidelity - plan.forward_probability)
    verdict = _verdict({"fidelity_matches_forward": gap, "degenerate": plan.degenerate})
    matches = "fidelity_matches_forward" not in verdict["failures"]
    # The plan's fields are flat values: its instance dict needs no deep copy.
    return Result({**vars(plan), "fidelity_matches_forward": matches, **verdict})


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON object of option values, keyed by this command's "
                                    "flag names with '_' for '-'; explicit flags win")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"))


def _add_readout_pulse(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tunnel-coupling", dest="tunnel_coupling", type=float, default=5.0)
    p.add_argument("--bias", type=float, default=10.0)
    p.add_argument("--duration", type=float, default=0.4)
    p.add_argument("--timestep", type=float, default=0.0005,
                   help="sample spacing (ns); duration/timestep may give at most %d samples"
                        % MAX_TRACE_SAMPLES)


def _add_offset_grid(p: argparse.ArgumentParser, tolerance: float) -> None:
    p.add_argument("--tolerance", type=_tolerance, default=tolerance)
    p.add_argument("--resolution", type=int, default=4,
                   help="offset-grid points per turn, 1..%d" % compiler.MAX_OFFSETS)


def _add_evolve(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tolerance", type=_tolerance, default=_CHECKS["fidelity"][1])
    p.add_argument("--schedule", help="JSON pulse schedule file")
    p.add_argument("--initial", choices=("00", "01", "10", "11"), default="00")
    p.add_argument("--initial-file", dest="initial_file", help="JSON file with six [re, im] pairs")
    p.add_argument("--target", choices=[g.value for g in GateId])


def _add_decohere(p: argparse.ArgumentParser) -> None:
    p.add_argument("--resolution", type=int,
                   help="quadrature nodes: 8..%d for rate sweeps (default 256), 16..%d for the "
                        "selection rule (default 800)"
                        % (MAX_RESOLUTION, MAX_SELECTION_RESOLUTION))
    p.add_argument("--sweep", choices=("tau", "rate", "selection"), default="tau")
    p.add_argument("--branch", choices=("deformation", "piezoelectric", "both"), default="both")
    p.add_argument("--deps", type=float, default=0.1, help="level splitting (ueV) for rate sweeps")
    p.add_argument("--deps-min", dest="deps_min", type=float, default=0.5)
    p.add_argument("--deps-max", dest="deps_max", type=float, default=5.0)
    p.add_argument("--t-min", dest="t_min", type=float)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--points", type=int,
                   help="sweep points, 2..%d (default 10 for tau, 7 for rate)" % MAX_SWEEP_POINTS)
    p.add_argument("--mode", choices=("reduced", "exact"), default="reduced")
    p.add_argument("--dot-separation-nm", dest="dot_separation_nm", type=float, default=22.0)
    p.add_argument("--orbital-width-nm", dest="orbital_width_nm", type=float, default=5.0)


def _add_readout(p: argparse.ArgumentParser) -> None:
    p.add_argument("--resolution", type=int, default=40,
                   help="bias samples of --scan, 2..%d" % MAX_BIAS_SAMPLES)
    _add_readout_pulse(p)
    p.add_argument("--scan", action="store_true",
                   help="scan biases in (0, 4*tunnel_coupling] for the best contrast")


def _add_init(p: argparse.ArgumentParser) -> None:
    _add_readout_pulse(p)
    p.add_argument("--target", choices=("plus", "minus"), default="plus")


#: Subcommand -> (help, handler, adds the subcommand's own flags).
_COMMANDS = {
    "verify": ("check catalog identities, pulse calibration, compilation", _cmd_verify,
               lambda p: _add_offset_grid(p, _CHECKS["verify"][1])),
    "evolve": ("apply a pulse schedule to a state", _cmd_evolve, _add_evolve),
    "compile": ("report the phase-gate embedding search and CNOT build", _cmd_compile,
                lambda p: _add_offset_grid(p, _CHECKS["compile"][1])),
    "decohere": ("phonon lifetime/rate sweeps and the selection rule",
                 lambda args: _SWEEPS[args.sweep](args), _add_decohere),
    "readout": ("charge readout traces and distinguishability", _cmd_readout, _add_readout),
    "init": ("prepare a space state by reversed readout", _cmd_init, _add_init),
}


@cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # Built once per process, with each subcommand's flags left to _command:
    # a run parses with its own subcommand's parser alone.
    parser = argparse.ArgumentParser(
        prog="dqdsim",
        description="Simulate and verify charge qubits encoded in DQD space states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser, sub.choices


class _PlainFlags(NamedTuple):
    """A subcommand parser's own table for :func:`_parse_plain`: each option
    string that stores one value or ``True``, and what ``parse_args`` puts in
    a Namespace before it reads any flag."""

    actions: dict[str, argparse.Action]
    defaults: dict[str, object]


def _plain_flags(p: argparse.ArgumentParser) -> _PlainFlags:
    actions = {option: a for a in p._actions for option in a.option_strings
               if type(a) is argparse._StoreTrueAction
               or type(a) is argparse._StoreAction and a.nargs is None}
    defaults = {a.dest: a.default for a in p._actions
                if argparse.SUPPRESS not in (a.dest, a.default)}
    for dest, value in p._defaults.items():
        defaults.setdefault(dest, value)
    return _PlainFlags(actions, defaults)


def _command(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand ``name``, its flags and handler added on first use."""
    p = _build_parser()[1][name]
    if p.get_default("handler") is None:
        _, handler, add_flags = _COMMANDS[name]
        p.set_defaults(handler=handler)
        _add_common(p)
        add_flags(p)
        # Kept on the parser, so that dropping the parser drops its table.
        p.plain_flags = _plain_flags(p)  # type: ignore[attr-defined]
    return p


def _config_argv(command: argparse.ArgumentParser, path: str) -> list[str]:
    """The config file's object as ``--flag=value`` arguments of ``command``."""
    config = json.loads(Path(path).read_text())
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    flags = {a.dest: a for a in command._actions
             if a.option_strings and a.dest not in ("help", "config")}
    argv: list[str] = []
    for key, value in config.items():
        action = flags.get(key)
        if action is None:
            raise ValueError(f"config key {key!r} is not an option of {command.prog!r}")
        flag = action.option_strings[-1]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be true or false")
            argv += [flag] if value else []
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            argv.append(f"{flag}={value}")
        else:
            raise ValueError(f"config key {key!r} must be a string or a number")
    return argv


def _parse_plain(flags: _PlainFlags, args: list[str]) -> dict[str, object] | None:
    """What ``parse_args`` makes of ``args``, if each is an exact ``--flag value``,
    ``--flag=value`` or ``True``-storing flag, and no value starts with ``-``
    or fails the flag's type or choices; otherwise ``None``."""
    values = dict(flags.defaults)
    i = 0
    while i < len(args):
        option, eq, value = args[i].partition("=")
        action = flags.actions.get(option)
        if action is None:
            return None
        i += 1
        if action.nargs == 0:
            if eq:
                return None
            values[action.dest] = action.const
            continue
        if not eq:
            if i == len(args):
                return None
            value = args[i]
            i += 1
        if value.startswith("-"):
            return None
        try:
            value = value if action.type is None else action.type(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # what argparse reports
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return values


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed by its subcommand's parser alone, when ``argv[0]`` names one."""
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        command = _command(name)
        values = _parse_plain(command.plain_flags, argv[1:])  # type: ignore[attr-defined]
        if values is not None:
            return argparse.Namespace(command=name, **values)
        # Anything else, help and every error among it, is argparse's own.
        return command.parse_args(argv[1:], argparse.Namespace(command=name))
    # Help, a missing or unknown subcommand, or flags before it: the
    # top-level parser, with every subcommand complete.
    for name in _COMMANDS:
        _command(name)
    return _build_parser()[0].parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    try:
        if args.config:
            # Config values go first so that explicit flags override them.
            at = argv.index(args.command) + 1
            config_argv = _config_argv(_command(args.command), args.config)
            args = _parse(argv[:at] + config_argv + argv[at:])
        result = args.handler(args)
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

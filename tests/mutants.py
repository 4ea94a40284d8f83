"""Mutation checks: each mutant is one exact edit to ``src/`` that named tests must catch.

Run as ``python tests/mutants.py``.  For each mutant, one after another, the
runner copies ``src/`` to a temporary directory, applies the edit there and
runs the mutant's tests in one pytest subprocess against that copy; the tests
must fail.  Before the mutants, all their tests run once against an unedited
copy and must pass, so that each failure is the edit's doing.  The exit code
is 0 when every mutant is killed.

``tests/test_mutants.py`` checks in tier-1 that every old text still occurs
exactly once in ``src/`` and that every named test still exists, so a rename
fails loudly instead of silently retiring a mutant.

Mutation testing in the sense of DeMillo, Lipton & Sayward, "Hints on test
data selection", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/dqdsim
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "floattext rounds ties half up", "floattext.py",
        "np.rint(err)", "np.floor(err + 0.5)",
        ("tests/test_floattext.py::test_sweep_of_a_million_doubles_matches_percent_17g",),
    ),
    Mutant(
        "floattext truncates err", "floattext.py",
        "np.rint(err)", "np.trunc(err)",
        ("tests/test_floattext.py::test_sweep_of_a_million_doubles_matches_percent_17g",),
    ),
    Mutant(
        "readout propagator without the E = 0 guard", "readout.py",
        "scale = energy if energy > 0.0 else 1.0", "scale = energy if energy >= 0.0 else 1.0",
        ("tests/test_readout.py::test_readout_unitary_matches_scipy_expm",
         "tests/test_readout.py::test_edge_traces_are_bitwise_the_one_state_evaluation"),
    ),
    Mutant(
        "array mixing without the E = 0 guard", "readout.py",
        "scale = np.where(energy > 0.0, energy, 1.0)", "scale = energy",
        ("tests/test_readout.py::"
         "test_float_mixing_is_the_array_entry_and_the_kernel_is_the_trace",),
    ),
    Mutant(
        "scan ceiling ignores earlier survivors", "readout.py",
        "ceiling = max(ceiling, found[i].distinguishability)", "ceiling = ceiling",
        ("tests/test_readout.py::"
         "test_screen_falls_back_to_every_bias_when_skipped_ones_could_decide",),
    ),
    Mutant(
        "scan evaluates only its first survivor", "readout.py",
        "for i in survivors if i != top)", "for i in survivors[:1] if i != top)",
        ("tests/test_readout.py::test_screened_scan_is_bitwise_the_oracle_scan",
         "tests/test_readout.py::test_scan_screen_sends_one_bias_to_the_kernel"),
    ),
    Mutant(
        "trace table built for every format", "cli.py",
        '        if (args.format or result.default_format) == "csv":',
        '        table = result.table and result.table()\n'
        '        if (args.format or result.default_format) == "csv":',
        ("tests/test_cli.py::test_readout_json_reports_are_the_golden_bytes_and_build_no_table",),
    ),
    Mutant(
        "bool rendered as int", "reporting.py",
        "    if kind is int:", "    if kind is int or kind is bool:",
        ("tests/test_reporting.py::test_render_json_is_the_isinstance_chain_renderer",),
    ),
    Mutant(
        "JSON strings with a quote skip the escapes", "reporting.py",
        """ and '"' not in text""", "",
        ("tests/test_reporting.py::test_render_json_escapes_strings_as_the_character_loop_did",),
    ),
    Mutant(
        "init reads the last sample", "readout.py",
        "populations[state, k]", "populations[state, -1]",
        ("tests/test_readout.py::test_init_reads_the_readout_pass",),
    ),
    Mutant(
        "negative durations pass the segment rule", "pulses.py",
        "if not (math.isfinite(t) and t >= 0.0):", "if not math.isfinite(t):",
        ("tests/test_pulses.py::test_schedule_from_json_raises_the_per_segment_message",),
    ),
    Mutant(
        "phase overflow passes the segment rule", "pulses.py",
        "if not math.isfinite((t / HBAR_UEV_NS) * abs(a)):", "if False:",
        ("tests/test_pulses.py::test_schedule_from_json_raises_the_per_segment_message",),
    ),
    Mutant(
        "search_embedding without require_count", "compiler.py",
        'n_offsets = require_count("offset-grid size", n_offsets, 1, MAX_OFFSETS)',
        "n_offsets = n_offsets",
        ("tests/test_compiler.py::test_search_rejects_offset_counts_outside_the_cap",),
    ),
    Mutant(
        "embedding solver without the k_z1_mm congruence", "compiler.py",
        "(2 * n * k1m + eight_j1 - pi) % turn or ", "",
        ("tests/test_compiler.py::test_screened_search_matches_sequential_reference",),
    ),
    Mutant(
        "embedding solver takes j2 from row 4", "compiler.py",
        "eight_j2 = (pi - n * (k1p - k2p) - eight_j1) % turn",
        "eight_j2 = (pi - n * (k1m - k2m) - eight_j1) % turn",
        ("tests/test_compiler.py::test_screened_search_matches_sequential_reference",),
    ),
    Mutant(
        "ReadoutConfig without the finiteness check", "readout.py",
        "if not math.isfinite(values[-1]):", "if False:",
        ("tests/test_readout.py::test_config_rejects_non_finite_fields",),
    ),
    Mutant(
        "plain-flag parse without the choices check", "cli.py",
        "if flag.choices is not None and value not in flag.choices:", "if False:",
        ("tests/test_cli.py::test_plain_flags_parse_as_argparse_parses_them",),
    ),
    Mutant(
        "plain-flag parse lets a switch take =value", "cli.py",
        "            if eq:\n                return None\n", "",
        ("tests/test_cli.py::test_plain_flags_parse_as_argparse_parses_them",),
    ),
    Mutant(
        "config accepts --config as a key", "cli.py",
        'for option in flags if option != "--config"}', "for option in flags}",
        ("tests/test_cli.py::test_config_values_are_checked_like_flags",),
    ),
    Mutant(
        "selection reference without its 256/512-node check", "decoherence.py",
        "if abs(reference - fine) > _ROUNDING_FLOOR * abs(fine):", "if False:",
        ("tests/test_decoherence.py::test_selection_reference_must_agree_with_its_512_node_rule",),
    ),
    Mutant(
        "two-phonon rate without the 1% coarse/fine check", "decoherence.py",
        "if scale > 0.0 and abs(fine - coarse) > 0.01 * scale:", "if False:",
        ("tests/test_decoherence.py::test_two_phonon_rejects_unconverged_quadrature",),
    ),
    Mutant(
        "two-phonon rate without the temperature floor", "decoherence.py",
        "if not MIN_TEMPERATURE_K <= t < np.inf:", "if not 0.0 < t < np.inf:",
        ("tests/test_decoherence.py::test_environment_temperature_floor",),
    ),
    Mutant(
        "selection rule without its 1% check against the reference", "decoherence.py",
        "error > 0.01 * abs(allowed)", "False",
        ("tests/test_decoherence.py::test_selection_rule_convergence_gate",),
    ),
    Mutant(
        "Gauss-Legendre nodes without the non-convergence raise", "decoherence.py",
        'raise RuntimeError(f"Gauss-Legendre nodes not converged for n = {n}")', "pass",
        ("tests/test_decoherence.py::test_unconverged_nodes_are_a_usage_error",),
    ),
    Mutant(
        "compile holds its residuals to < rather than <=", "cli.py",
        '"compile": (operator.le, 1e-10)', '"compile": (operator.lt, 1e-10)',
        ("tests/test_cli.py::test_compile_and_verify_share_one_pass_rule",),
    ),
    Mutant(
        "readout propagator bound a decade looser", "cli.py",
        '"propagator_max_error": (operator.le, 1e-12)',
        '"propagator_max_error": (operator.le, 1e-11)',
        ("tests/test_acceptance.py::test_cli_checks_declare_the_bounds_pinned_here",),
    ),
    Mutant(
        "init drops its degenerate-readout check", "cli.py",
        ', "degenerate": plan.degenerate}', "}",
        ("tests/test_cli.py::test_init_fails_when_the_readout_is_degenerate",),
    ),
    Mutant(
        "logical z with a flipped sign", "basis.py",
        "(_M, _P): -1.0}", "(_M, _P): 1.0}",
        ("tests/test_pulses.py::test_mirroring_the_four_dqds_permutes_the_unitary",),
    ),
    Mutant(
        "catalog entries swapped", "gates.py",
        """    GateId.PHASE: monomial(range(6), (1, 1, 1, 1, 1, -1)),
    # Hadamard on qubit 2 (identity on qubit 1 and on the leakage rows).
    GateId.HADAMARD_Q2: (
        (_SQ2, 0, _SQ2, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (_SQ2, 0, -_SQ2, 0, 0, 0),
        (0, 0, 0, _SQ2, 0, _SQ2),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, _SQ2, 0, -_SQ2),
    ),
""",
        """    # Hadamard on qubit 2 (identity on qubit 1 and on the leakage rows).
    GateId.HADAMARD_Q2: (
        (_SQ2, 0, _SQ2, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (_SQ2, 0, -_SQ2, 0, 0, 0),
        (0, 0, 0, _SQ2, 0, _SQ2),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, _SQ2, 0, -_SQ2),
    ),
    GateId.PHASE: monomial(range(6), (1, 1, 1, 1, 1, -1)),
""",
        ("tests/test_cli.py::test_compile_and_verify_match_golden_bytes",),
    ),
    Mutant(
        "basis imports numpy at module level", "basis.py",
        "from __future__ import annotations\n\nfrom enum import Enum\n",
        "from __future__ import annotations\n\nfrom enum import Enum\n\nimport numpy as np\n",
        ("tests/test_cli.py::test_a_fresh_compile_process_imports_no_numpy",
         "tests/test_cli.py::test_compile_path_loads_no_sweep_or_readout_code"),
    ),
    Mutant(
        "compiler product sums k < 5 only", "compiler.py",
        "sum(x * y for x, y in zip(row, col))", "sum(x * y for x, y in zip(row[:5], col))",
        ("tests/test_compiler.py::test_pi_construction_with_frozen_embedding",),
    ),
    Mutant(
        "phonon kinds reordered", "constants.py",
        'PHONON_KINDS = ("deformation", "piezoelectric")',
        'PHONON_KINDS = ("piezoelectric", "deformation")',
        ("tests/test_cli.py::test_help_screens_are_the_golden_bytes",),
    ),
)


def _run_tests(src: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    """pytest on ``tests`` with ``src`` as the only ``dqdsim`` on the path."""
    # pyproject's pythonpath would put the repository's own src/ first.
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-o", f"pythonpath={src}", *tests]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)


def _copy_src(scratch: Path) -> Path:
    src = scratch / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    started = time.perf_counter()
    bad = []
    with tempfile.TemporaryDirectory(prefix="dqdsim-mutants-") as scratch:
        every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        baseline = _run_tests(_copy_src(Path(scratch)), every_test)
        if baseline.returncode != 0:
            print(baseline.stdout[-3000:], baseline.stderr[-3000:])
            print("the unedited copy fails its tests; no mutant was run")
            return 1
        for mutant in MUTANTS:
            src = _copy_src(Path(scratch))
            path = src / "dqdsim" / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                bad.append(mutant.name)
                print(f"ERROR     {mutant.name}: old text occurs {text.count(mutant.old)} times")
                continue
            path.write_text(text.replace(mutant.old, mutant.new))
            tick = time.perf_counter()
            proc = _run_tests(src, mutant.tests)
            verdict = {0: "SURVIVED", 1: "killed"}.get(proc.returncode, f"ERROR {proc.returncode}")
            if verdict != "killed":
                bad.append(mutant.name)
                print(proc.stdout[-3000:], proc.stderr[-3000:])
            print(f"{verdict:9} {mutant.name} [{time.perf_counter() - tick:.1f} s]")
    print(f"{len(MUTANTS)} mutants, {len(bad)} not killed, "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

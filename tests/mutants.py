"""Mutation checks: each mutant is one exact edit to ``src/`` that named tests must catch.

Run as ``python tests/mutants.py``.  For each mutant, one after another, the
runner copies ``src/`` to a temporary directory, applies the edit there and
runs the mutant's tests in one pytest subprocess against that copy; the tests
must fail.  A mutant with a ``survives`` reason is a known gap: its tests must
still pass, so that a test which closes the gap is noticed here too.  Before
the mutants, all their tests run once against an unedited copy and must pass,
so that each failure is the edit's doing.  The exit code is 0 when every
mutant behaves as listed.

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
    survives: str = ""  # why the tests cannot catch it, for a known survivor


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
        "scale = np.where(energy > 0.0, energy, 1.0)", "scale = energy",
        ("tests/test_readout.py::test_readout_unitary_matches_scipy_expm",
         "tests/test_readout.py::test_edge_traces_are_bitwise_the_one_state_evaluation"),
    ),
    Mutant(
        "init reads the last sample", "readout.py",
        "populations[state, k]", "populations[state, -1]",
        ("tests/test_readout.py::test_init_reads_the_readout_pass",),
    ),
    Mutant(
        "schedule columns without the duration >= 0 check", "pulses.py",
        "(duration >= 0.0) & (phase < np.inf)", "phase < np.inf",
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
        "if action.choices is not None and value not in action.choices:", "if False:",
        ("tests/test_cli.py::test_plain_flags_parse_as_argparse_parses_them",),
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
        "schedule columns admit None", "pulses.py",
        "<= {int, float}", "<= {int, float, type(None)}",
        ("tests/test_pulses.py::test_schedule_from_json_raises_the_per_segment_message",),
        survives="numpy reads None as nan, so the phase check sends the schedule "
                 "to the per-segment loop, which names the segment as before",
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
            expected = "SURVIVED" if mutant.survives else "killed"
            if verdict != expected:
                bad.append(mutant.name)
                print(proc.stdout[-3000:], proc.stderr[-3000:])
            note = f" (known: {mutant.survives})" if mutant.survives else ""
            print(f"{verdict:9} {mutant.name} [{time.perf_counter() - tick:.1f} s]{note}")
    print(f"{len(MUTANTS)} mutants, {len(bad)} not as listed, "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

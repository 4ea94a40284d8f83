"""Tests of the benchmark itself: seeded inputs, failure counting, tracing.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from dqdsim import cli, compiler, linalg, pulses, readout  # noqa: E402


def _first_ops(wl, seed, n_blocks=3):
    return [op for block in itertools.islice(wl.blocks(seed), n_blocks) for op in block]


def _same_input(x, y):
    """True when both ops hand the program exactly the same inputs."""
    def same_array(a, b):
        return (a is None and b is None) or (
            a is not None and b is not None and np.array_equal(a, b))
    return x == y and same_array(x.state, y.state) and same_array(x.target, y.target) \
        and x.meta == y.meta


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    wl = workloads.WORKLOADS[name](tmp_path)
    a, b, other = _first_ops(wl, 5), _first_ops(wl, 5), _first_ops(wl, 6)
    assert len(a) == len(b) and all(_same_input(x, y) for x, y in zip(a, b))
    assert not all(_same_input(x, y) for x, y in zip(a, other))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_block_holds_the_same_mix(name, tmp_path):
    wl = workloads.WORKLOADS[name](tmp_path)
    blocks = list(itertools.islice(wl.blocks(9), 4)) + list(itertools.islice(wl.blocks(10), 4))

    def mix(block):
        def resolution(op):
            return op.argv[op.argv.index("--resolution") + 1] if "--resolution" in op.argv else ""
        return sorted((op.kind, resolution(op)) for op in block)

    assert all(mix(block) == mix(blocks[0]) for block in blocks)


def test_pulse_ops_pass_their_checks(tmp_path):
    wl = workloads.PulseSchedules(tmp_path)
    loop = run.Loop(wl)
    loop.run_block(next(wl.blocks(2)))
    assert loop.failures == [] and loop.attempted == len(loop.latencies) == 16


class _CorruptedEvolve(workloads.PulseSchedules):
    """Returns a propagator one part in 1e9 off unitary."""

    def run(self, op):
        parsed, u, psi = super().run(op)
        return parsed, u * (1.0 + 1e-9), psi


class _Crashing(workloads.ReadoutScans):
    def run(self, op):
        raise RuntimeError("boom")


def test_corrupted_results_are_counted_as_failed(tmp_path):
    loop = run.Loop(_CorruptedEvolve(tmp_path))
    loop.run_block(next(loop.wl.blocks(2)))
    assert loop.attempted == 16 and len(loop.failures) == 16 and loop.latencies == []
    assert all("unitarity" in f for f in loop.failures)

    crash = run.Loop(_Crashing(tmp_path))
    crash.run_block(next(crash.wl.blocks(2)))
    assert crash.attempted == len(crash.failures) == 49
    assert all("RuntimeError: boom" in f for f in crash.failures)


def test_output_checks_reject_bad_reports(tmp_path):
    wl = workloads.ReadoutScans(tmp_path)
    scan = next(op for op in _first_ops(wl, 1) if op.kind == "scan")
    report = {"distinguishability": 0.5, "passed": False}
    assert wl.check(scan, (0, json.dumps(report)))[0]
    assert wl.check(scan, (2, ""))[0]

    phonon = workloads.PhononSweeps(tmp_path)
    rate = next(op for op in _first_ops(phonon, 1) if op.kind == "rate")
    header = "T_K,branch,mode,rate_per_s,est_error\n"
    rows = "".join(f"{t},deformation,reduced,{r},0\n" for t, r in
                   zip(range(1, 10), [1.0, 2.0, float("nan"), 4, 5, 6, 7, 8, 9]))
    assert phonon.check(rate, (1, header + rows))[0]
    assert phonon.check(rate, (2, header))[0] == ["rate sweep exit 2"]

    compile_op = workloads.Op("compile", ("--format", "json"))
    bad = {"passed": True, "phase_gate_best_residual": 1e-3, "cnot_residual": 0.0,
           "embedding": {k: 0 for k in "abcdef"}}
    assert workloads.CliCompile(tmp_path).check(compile_op, (0, json.dumps(bad), ""))[0]


@pytest.fixture
def tracer():
    t = tr.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_tracer_rebinds_imported_names_and_restores_them():
    original, eigh = linalg.dist_up_to_global_phase, np.linalg.eigh
    t = tr.Tracer()
    t.install()
    try:
        assert compiler.dist_up_to_global_phase is linalg.dist_up_to_global_phase
        assert compiler.dist_up_to_global_phase is not original
        assert np.linalg.eigh is not eigh
    finally:
        t.uninstall()
    assert compiler.dist_up_to_global_phase is original is linalg.dist_up_to_global_phase
    assert np.linalg.eigh is eigh


def test_traced_counts_match_the_code(tracer, tmp_path):
    schedule = pulses.swap_sequence(5.0) + pulses.sqrt_swap_sequence(5.0)
    tracer.op = 0
    pulses.evolve(schedule)
    tracer.op = 1
    readout.scan_bias(5.0, 0.4, 0.001, n_bias=20)
    tracer.op = 2
    assert cli.main(["decohere", "--sweep", "rate", "--out", str(tmp_path / "rate.csv")]) == 1
    m = tr.layer_metrics(tracer.spans, n_ops=3, temperatures=14)
    assert m["numpy.linalg.eigh.calls_per_segment"] == 1.0
    assert m["numpy.linalg.eigh.calls_per_scan"] == 40.0
    assert m["readout.optimal_measurement_time.calls_per_scan"] == 20.0
    # Default rate sweep: 7 temperatures x 2 branches x (n, n/2) rates x (n, 2n) nodes.
    leggauss = [s for s in tracer.spans if s[0] == "numpy.leggauss" and s[4] == 2]
    assert len(leggauss) == 56 and {s[5] for s in leggauss} == {128, 256, 512}
    assert m["decoherence.two_phonon_rate_per_s.calls_per_sweep"] == 28.0
    assert m["decoherence.integrals_per_temperature"] == 4.0


def test_traced_search_evaluates_every_candidate(tracer):
    compiler._search_embedding_cached.cache_clear()
    tracer.op = 0
    _, residual = compiler.search_embedding(np.pi)
    m = tr.layer_metrics(tracer.spans, n_ops=1, temperatures=0)
    assert m["compiler.search_embedding.candidates"] == 5**4 * 2**2
    assert m["compiler.exact_evals_per_candidate"] == 1.0
    assert m["compiler.phase_gate_residual"] == residual


def test_compare_flags_regressions_and_unresolved(tmp_path, capsys):
    def write(d, values):
        d.mkdir()
        for seed, v in enumerate(values):
            metrics = {k: {"value": v, "unit": u} for k, u in run.END_TO_END_UNITS.items()}
            record = {"workload": "sim-mix", "result": {"metrics": metrics}}
            (d / f"sim-mix.seed{seed}.trace0.json").write_text(json.dumps(record))

    write(tmp_path / "a", [10.0, 10.1, 9.9, 10.0])
    write(tmp_path / "b", [20.0, 20.1, 19.9, 20.0])
    write(tmp_path / "c", [5.0, 30.0, 2.0, 10.0])
    run.compare(tmp_path / "a", tmp_path / "b")
    out = capsys.readouterr().out
    assert "op_p50_ms" in out and "REGRESSION" in out
    run.compare(tmp_path / "a", tmp_path / "c")
    assert "unresolved" in capsys.readouterr().out


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

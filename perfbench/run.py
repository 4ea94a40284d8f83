"""The dqdsim benchmark: seeded workloads, output checks, end-to-end and
per-layer metrics.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload sim-mix --seed 1 --seconds 50 --trace 0

``--workload all`` runs both workloads in turn, each in its own
process.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the run first times
some blocks untraced, then as many blocks with every layer wrapped (see
``tracer.py``), and reports the per-layer metrics.  Each run also writes a
record to ``.perfbench/results/`` (or ``--results DIR``).  Two such
directories, for example one made on a parent commit and one on a change,
are compared with::

    python3 perfbench/run.py --compare DIR_A DIR_B

Load shape: one closed-loop caller; at most one child interpreter runs at a
time; BLAS runs on a pinned number of threads; numpy's huge-page requests are
off (see ``child_env``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER_UNITS, Tracer, layer_metrics, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / ".perfbench" / "results"
BLAS_THREADS = 1
SETUP_REPEATS = 7
# Share of --seconds the traced run spends untraced, to measure the overhead.
UNTRACED_SHARE = 0.4
WORKLOAD_NAMES = ("cli-compile", "sim-mix")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
# op_p90_ms is printed and recorded only from this many ops on, so that at
# least ten samples lie beyond it; it is no end-to-end metric because the
# cli-compile runs hold fewer ops.
P90_MIN_OPS = 100

# Baseline rows of the ROADMAP.md table (Python 3.11.7, numpy 2.4.6), by the
# per-layer metric that measures the same quantity.
BASELINE = (
    ("compiler.search_embedding.ms", 6460.0, "10,000 candidates"),
    ("linalg.dist_up_to_global_phase.us", 560.0, "one 6x6 pair"),
    ("decoherence.two_phonon_rate_per_s.ms", 45.0, "n=256, approximate"),
    ("decoherence.coulomb_selection_rule.n800.ms", 96.0, ""),
    ("decoherence.coulomb_selection_rule.n1600.ms", 479.0, ""),
    ("pulses.evolve.us_per_segment", 79.0, "approximate"),
    ("readout.scan_bias.ms", 14.0, "40 biases; the run mixes 20, 40 and 80"),
    ("readout.readout_trace.us", 170.0, ""),
)


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark runs: pinned BLAS, local src."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # numpy asks for transparent huge pages for arrays of 4 MiB and more; whether
    # the kernel grants them depends on the host's free memory, and peak RSS
    # moved by up to 18% between runs of the same ops.  Small pages keep it steady.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment_record() -> dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        # The ceiling keeps git from reporting a repository that encloses the checkout.
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
                                ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def measure_setup(workload: str, env: dict[str, str]) -> list[dict[str, float]]:
    """Spawn fresh interpreters that import dqdsim and warm the workload up."""
    samples = []
    for _ in range(SETUP_REPEATS):
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", workload],
                              capture_output=True, text=True, env=env, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()[-500:]}")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])
        ready["setup_s"] = ready.pop("ready") - spawned
        samples.append(ready)
    return samples


class Loop:
    """Closed loop with one caller: whole blocks of ops, one op at a time, until time is up."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.diagnostics: dict[str, float] = {}

    def run_block(self, block, tracer=None) -> None:
        for op in block:
            op_id = self.attempted
            self.attempted += 1
            spans_path = None
            if tracer is not None:
                tracer.op = op_id
                if not self.wl.in_process:
                    spans_path = self.wl.workdir / f"spans-{os.getpid()}.jsonl"
            start = time.perf_counter()
            try:
                output = self.wl.run(op, spans_path) if spans_path else self.wl.run(op)
                elapsed = time.perf_counter() - start
                problems, diagnostics = self.wl.check(op, output)
            except Exception as exc:  # a crash of any kind is a failed op, reported below
                problems, diagnostics, elapsed = [f"{type(exc).__name__}: {exc}"], {}, None
            if spans_path is not None:
                if spans_path.exists():
                    tracer.spans.extend(read_spans(spans_path, op_id, len(tracer.spans)))
                    spans_path.unlink()
            if problems:
                self.failures.append(f"op {op_id} {op.kind} {' '.join(op.argv)}: {'; '.join(problems)}")
            elif elapsed is not None:
                self.latencies.append(elapsed)
            for key, value in diagnostics.items():
                self.diagnostics[key] = max(value, self.diagnostics.get(key, value))

    def run_for(self, blocks, seconds: float) -> int:
        """Run whole blocks until ``seconds`` have passed; return how many ran."""
        began = time.monotonic()
        n = 0
        while time.monotonic() - began < seconds:
            self.run_block(next(blocks))
            n += 1
        return n


def end_to_end_metrics(loop: Loop, setup: list[dict], peak_rss_kb: int) -> dict[str, float]:
    lat = loop.latencies
    ms = [1e3 * x for x in lat]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "ops_per_s": len(lat) / sum(lat) if lat else 0.0,
        "op_p50_ms": statistics.median(ms) if ms else 0.0,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, results: Path) -> int:
    env = child_env()
    os.environ.update({k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS", "NUMPY_MADVISE_HUGEPAGE")})
    sys.path[:0] = [str(SRC), str(HERE)]
    import dqdsim

    if Path(dqdsim.__file__).resolve().parent != SRC / "dqdsim":
        print(f"error: imported dqdsim from {dqdsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment_record()}
    print("env " + json.dumps(record["env"]), flush=True)
    setup = measure_setup(name, env)

    cls = workloads.WORKLOADS[name]
    if cls.in_process:
        wl = cls(workloads.WORK_DIR)
    else:
        wl = cls(workloads.WORK_DIR, env=env, trace_child=HERE / "child.py")
    wl.warm_up()
    blocks = wl.blocks(seed)
    loop = Loop(wl)

    if not trace:
        loop.run_for(blocks, seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if wl.in_process \
            else wl.max_child_rss_kb
        metrics = end_to_end_metrics(loop, setup, rss_kb)
        units = END_TO_END_UNITS
    else:
        n_blocks = loop.run_for(blocks, UNTRACED_SHARE * seconds)
        untraced = list(loop.latencies)
        traced_ops = [op for _ in range(n_blocks) for op in next(blocks)]
        tracer = Tracer()
        if wl.in_process:
            tracer.install()
        try:
            loop.run_block(traced_ops, tracer)
        finally:
            tracer.uninstall()
        traced = loop.latencies[len(untraced):]
        temperatures = sum(op.meta.get("temperatures", 0) for op in traced_ops)
        metrics = layer_metrics(tracer.spans, len(traced_ops), temperatures)
        metrics["pulses.max_unitarity_error"] = loop.diagnostics.get("max_unitarity_error", 0.0)
        metrics["setup.import_numpy_s"] = statistics.median(s["import_numpy_s"] for s in setup)
        metrics["setup.import_dqdsim_s"] = statistics.median(s["import_dqdsim_s"] for s in setup)
        metrics["trace.overhead_frac"] = (1.0 - sum(untraced) / sum(traced)
                                          if untraced and traced else 0.0)
        units = PER_LAYER_UNITS
        results.mkdir(parents=True, exist_ok=True)
        tracer.write(results / f"{name}.seed{seed}.spans.jsonl")
        for metric, value, note in BASELINE:
            print(f"baseline {metric} = {value} {units[metric]} (ROADMAP.md table{', ' + note if note else ''})"
                  f"; this run {metrics[metric]:.6g}")

    failed = len(loop.failures)
    for failure in loop.failures:
        print(f"FAILED {failure}")
    print(f"ops attempted {loop.attempted}, failed {failed}, error_rate {failed / max(loop.attempted, 1):.6g}")
    for metric, value in metrics.items():
        print(f"{metric} = {value:.6g} {units[metric]}")
    if not trace and len(loop.latencies) >= P90_MIN_OPS:
        record["op_p90_ms"] = 1e3 * statistics.quantiles(loop.latencies, n=10)[8]
        print(f"op_p90_ms = {record['op_p90_ms']:.6g} ms ({len(loop.latencies)} ops)")
    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(result=result, error_rate=failed / max(loop.attempted, 1),
                  failures=loop.failures, samples=len(loop.latencies))
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}.seed{seed}.trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so no in-process cache carries over."""
    summary = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--results", str(args.results)],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            return 1
        result = json.loads(lines[-1])
        summary.append((name, result))
        print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"error_rate {result['failed'] / result['attempted']:.6g}")
        for metric, m in result["metrics"].items():
            print(f"   {metric} = {m['value']:.6g} {m['unit']}")
    return 0 if all(r["correct"] for _, r in summary) else 1


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(dir_a: Path, dir_b: Path) -> int:
    """Medians, quartiles, ratio and verdict per workload and end-to-end metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def load(d: Path) -> dict[str, list[dict]]:
        runs: dict[str, list[dict]] = {}
        for path in sorted(d.glob("*.trace0.json")):
            rec = json.loads(path.read_text())
            runs.setdefault(rec["workload"], []).append(rec["result"]["metrics"])
        return runs

    a, b = load(dir_a), load(dir_b)
    print(f"{'workload':16} {'metric':12} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} "
          f"{'B/A':>7}  verdict")
    for name in WORKLOAD_NAMES:
        if name not in a or name not in b:
            continue
        for m in spec["end_to_end"]:
            va = [r[m["name"]]["value"] for r in a[name] if m["name"] in r]
            vb = [r[m["name"]]["value"] for r in b[name] if m["name"] in r]
            if not va or not vb:
                continue
            qa, qb = _quartiles(va), _quartiles(vb)
            ratio = qb[1] / qa[1] if qa[1] else float("inf")
            worse = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
            spread = max((qa[2] - qa[0]) / qa[1] if qa[1] else 0.0,
                         (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0)
            b_always_better = (max(vb) < min(va)) if m["better"] == "lower" else (min(vb) > max(va))
            if spread > m["bound"] and not b_always_better:
                verdict = f"unresolved (spread {spread:.3f} > bound {m['bound']})"
            elif worse > m["bound"]:
                verdict = f"REGRESSION ({worse:+.3f} worse, bound {m['bound']})"
            else:
                verdict = f"within bound ({-worse:+.3f} better, bound {m['bound']})"
            print(f"{name:16} {m['name']:12} {qa[1]:12.5g} [{qa[0]:.5g}, {qa[2]:.5g}] "
                  f"{qb[1]:12.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {ratio:7.4f}  {verdict}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=RESULTS_DIR)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("DIR_A", "DIR_B"))
    args = parser.parse_args(argv)
    if not (SRC / "dqdsim" / "__init__.py").is_file():
        print(f"error: no dqdsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.results)


if __name__ == "__main__":
    sys.exit(main())

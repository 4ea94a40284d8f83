"""The seeded workloads of the dqdsim benchmark and their op families.

Each workload turns a seed into an endless stream of *blocks* of ops.  A
block holds every cost stratum of the workload the same number of times (for
example each quadrature resolution of a phonon sweep), in an order and with
continuous parameters drawn from the seed.  A run always completes whole
blocks, so two seeds give the same mix of op costs and differ only in the
values the program sees.  That keeps medians comparable across seeds.

A workload object offers four things:

* ``blocks(seed)``: the seeded input stream (the same seed, the same ops);
* ``warm_up()``: one small untimed op per kind, so first-call work is paid
  before timing starts (it is counted in ``setup_s`` instead);
* ``run(op)``: the timed call into dqdsim, returning its raw outputs;
* ``check(op, output)``: the untimed output check, returning the list of
  problems found (empty when the op is correct) and diagnostics.

Every op is a closed loop with one caller: the next op starts only after
the previous one has finished.

There are two workloads: ``cli-compile`` runs each op in a fresh
interpreter, and ``sim-mix`` runs three op families (pulse schedules, phonon
sweeps, readout ops) in one process.  Each family is a class of its own, so
the tests can run one family alone.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from dqdsim import cli, pulses
from dqdsim.basis import COMPUTATIONAL_ROWS, LEAKAGE_ROWS
from dqdsim.constants import HBAR_UEV_NS, K_B_UEV_PER_K
from dqdsim.gates import GateId, gate_matrix

#: Scratch files of a run (reports, child stderr, child spans), in the checkout.
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench" / "tmp"

# Tolerances of the output checks; they match the acceptance suite.
UNITARITY_TOL = 1e-12
STATE_TOL = 1e-12
LEAKAGE_TOL = 1e-12
GATE_TOL = 1e-9
EMBEDDING_TOL = 1e-10
CNOT_TOL = 1e-9
SELECTION_RATIO = 1e-3
DISTINGUISHABILITY = 0.99
CONSERVATION_TOL = 1e-12


@dataclass(frozen=True)
class Op:
    """One generated input: its kind and what the program is given."""

    kind: str
    argv: tuple[str, ...] = ()
    schedule: tuple = ()
    state: np.ndarray | None = field(default=None, compare=False)
    target: np.ndarray | None = field(default=None, compare=False)
    meta: dict = field(default_factory=dict, compare=False)


def _num(x: float) -> str:
    """Exact decimal spelling of a float for an argv list."""
    return repr(float(x))


def _distance_up_to_phase(u: np.ndarray, v: np.ndarray) -> float:
    """Max-entry residual of ``u - c v`` with ``c`` aligned on ``tr(v^H u)``.

    Independent of dqdsim's own distance; exact for matrices that agree up
    to a global phase, which is all the checks need.
    """
    overlap = np.vdot(v, u)
    c = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.max(np.abs(u - c * v)))


def _parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


class Workload:
    """Base of the workloads; its default op calls ``dqdsim.cli.main`` in-process."""

    name = ""
    in_process = True

    def __init__(self, workdir: Path) -> None:
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.out_path = self.workdir / f"{self.name}-{os.getpid()}.out"

    def blocks(self, seed: int) -> Iterator[list[Op]]:
        rng = np.random.default_rng(seed)
        for index in itertools.count():
            block = self.make_block(rng, index)
            yield [block[i] for i in rng.permutation(len(block))]

    def make_block(self, rng: np.random.Generator, index: int) -> list[Op]:
        raise NotImplementedError

    def warm_up_ops(self) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        for op in self.warm_up_ops():
            problems, _ = self.check(op, self.run(op))
            if problems:
                raise RuntimeError(f"warm-up op {op.kind} failed: {problems}")

    def run(self, op: Op) -> object:
        """Call the CLI in-process; the report goes to a file, as users do."""
        rc = cli.main(list(op.argv) + ["--out", str(self.out_path)])
        text = self.out_path.read_text() if self.out_path.exists() else ""
        self.out_path.unlink(missing_ok=True)
        return rc, text

    def check(self, op: Op, output: object) -> tuple[list[str], dict]:
        raise NotImplementedError


# --------------------------------------------------------------------------
# cli-compile


class CliCompile(Workload):
    """Fresh ``python -m dqdsim.cli verify|compile`` processes.

    A fresh interpreter per op is required: the embedding search result is
    memoised in-process, so a repeat in one process would skip the search.
    """

    name = "cli-compile"
    in_process = False

    def __init__(self, workdir: Path, env: dict[str, str] | None = None,
                 trace_child: Path | None = None) -> None:
        super().__init__(workdir)
        self.env = env
        self.trace_child = trace_child
        self.embedding: dict[str, float] | None = None
        self.max_child_rss_kb = 0

    def make_block(self, rng, index):
        return [
            Op(command, ("-m", "dqdsim.cli", command, "--resolution", "4",
                         "--format", str(rng.choice(("json", "csv")))))
            for command in ("verify", "compile")
        ]

    def warm_up_ops(self):
        return []

    def run(self, op: Op, spans_path: Path | None = None):
        argv = [sys.executable, *op.argv]
        if spans_path is not None:
            argv = [sys.executable, str(self.trace_child), "trace-op", str(spans_path),
                    *op.argv[2:]]
        err_path = self.workdir / f"stderr-{os.getpid()}.txt"
        with open(err_path, "w+") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=self.env,
                                    text=True)
            out = proc.stdout.read()
            proc.stdout.close()
            # wait4 rather than wait: it also gives the child's peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
            err.seek(0)
            return proc.returncode, out, err.read()

    def check(self, op, output):
        rc, text, err = output
        if rc != 0:
            return [f"exit {rc}: {err.strip()[-300:]}"], {}
        fmt = op.argv[op.argv.index("--format") + 1]
        if fmt == "json":
            report = json.loads(text)
            flat: dict[str, str] = {}

            def walk(prefix, value):
                if isinstance(value, dict):
                    for k, v in value.items():
                        walk(f"{prefix}.{k}" if prefix else k, v)
                else:
                    flat[prefix] = json.dumps(value)
            walk("", report)
        else:
            flat = {row["name"]: row["value"] for row in _parse_csv(text)}
        prefix = "decomposition." if op.kind == "verify" else ""
        problems = []
        if flat.get("passed") != "true":
            problems.append("passed is not true")
        phase = float(flat[prefix + "phase_gate_best_residual"])
        cnot = float(flat[prefix + "cnot_residual"])
        if not phase <= EMBEDDING_TOL:
            problems.append(f"phase_gate_best_residual {phase!r} > {EMBEDDING_TOL}")
        if not cnot <= CNOT_TOL:
            problems.append(f"cnot_residual {cnot!r} > {CNOT_TOL}")
        embedding = {k[len(prefix) + len("embedding."):]: float(v) for k, v in flat.items()
                     if k.startswith(prefix + "embedding.")}
        if len(embedding) != 6:
            problems.append(f"embedding has {len(embedding)} fields, expected 6")
        elif self.embedding is None:
            self.embedding = embedding
        elif embedding != self.embedding:
            problems.append(f"embedding {embedding} differs from {self.embedding}")
        return problems, {}


# --------------------------------------------------------------------------
# Pulse schedules, the first op family of sim-mix

_AMPLITUDES = (2.5, 5.0, 10.0)  # the few repeated calibration amplitudes
_NATIVE = (GateId.NOT1, GateId.NOT2, GateId.SQRT_NOT1, GateId.SQRT_NOT2, GateId.EXCHANGE)
_RANDOM_PER_BLOCK = 12
_MAX_SEGMENTS = 256


def _flip_target(dqd: int) -> np.ndarray:
    """Computational block of a phase flip on one DQD, up to global phase."""
    qubit = 1 if dqd in (1, 2) else 2
    return np.diag([1.0, 1.0, -1.0, -1.0] if qubit == 1 else [1.0, -1.0, 1.0, -1.0]).astype(complex)


class PulseSchedules(Workload):
    """JSON round-trip plus two ``evolve`` calls per schedule, in-process."""

    name = "pulse-schedules"
    kinds = ("random", "calibrated")

    def _state(self, rng):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        return v / np.linalg.norm(v)

    def _random(self, rng, stratum):
        # Log-uniform segment count, one stratum of the 1..256 range per op.
        u = (stratum + rng.random()) / _RANDOM_PER_BLOCK
        n = max(1, int(round(_MAX_SEGMENTS ** u)))
        electrodes = rng.integers(0, len(pulses.ELECTRODES), size=n)
        amplitudes = rng.uniform(0.5, 20.0, size=n)
        durations = rng.uniform(0.0, 1.0, size=n)
        schedule = tuple(pulses.PulseSegment(pulses.ELECTRODES[e], float(a), float(t))
                         for e, a, t in zip(electrodes, amplitudes, durations))
        return Op("random", schedule=schedule, state=self._state(rng), meta={"segments": n})

    def _calibrated(self, rng, kind):
        amplitude = float(rng.choice(_AMPLITUDES))
        if kind == "native":
            gate = _NATIVE[int(rng.integers(len(_NATIVE)))]
            schedule, target, label = pulses.calibrate(gate, amplitude), gate_matrix(gate), gate.value
        elif kind == "sequence":
            gate = (GateId.SWAP, GateId.SQRT_SWAP)[int(rng.integers(2))]
            build = pulses.swap_sequence if gate is GateId.SWAP else pulses.sqrt_swap_sequence
            schedule, target, label = build(amplitude), gate_matrix(gate), gate.value
        else:
            dqd = int(rng.integers(1, 5))
            schedule, target = pulses.calibrate_phase_flip(dqd, amplitude), _flip_target(dqd)
            label = f"phase_flip_dqd{dqd}"
        return Op("calibrated", schedule=tuple(schedule), state=self._state(rng), target=target,
                  meta={"segments": len(schedule), "gate": label})

    def make_block(self, rng, index):
        ops = [self._random(rng, s) for s in range(_RANDOM_PER_BLOCK)]
        ops += [self._calibrated(rng, k) for k in ("native", "native", "sequence", "flip")]
        return ops

    def warm_up_ops(self):
        rng = np.random.default_rng(0)
        return [self._calibrated(rng, "sequence"), self._random(rng, 3)]

    def run(self, op):
        text = json.dumps(pulses.schedule_to_json(op.schedule))
        parsed = pulses.schedule_from_json(json.loads(text))
        return parsed, pulses.evolve(parsed), pulses.evolve(parsed, op.state)

    def check(self, op, output):
        parsed, u, psi = output
        problems = []
        if tuple(parsed) != op.schedule:
            problems.append("JSON round-trip changed the schedule")
        unitarity = float(np.max(np.abs(u.conj().T @ u - np.eye(6))))
        if not unitarity <= UNITARITY_TOL:
            problems.append(f"propagator unitarity error {unitarity!r}")
        state_err = float(np.max(np.abs(psi - u @ op.state)))
        if not state_err <= STATE_TOL:
            problems.append(f"evolved state differs from propagator by {state_err!r}")
        if all(s.electrode != "E12" for s in op.schedule):
            leak = float(np.max(np.abs(u[np.ix_(LEAKAGE_ROWS, COMPUTATIONAL_ROWS)])))
            if not leak <= LEAKAGE_TOL:
                problems.append(f"E12-free schedule leaks {leak!r}")
        if op.target is not None:
            got = u
            if op.target.shape == (4, 4):
                got = u[np.ix_(COMPUTATIONAL_ROWS, COMPUTATIONAL_ROWS)]
            gate_err = _distance_up_to_phase(got, op.target)
            if not gate_err <= GATE_TOL:
                problems.append(f"{op.meta['gate']} misses its catalog gate by {gate_err!r}")
        return problems, {"max_unitarity_error": unitarity}


# --------------------------------------------------------------------------
# Phonon sweeps, the second op family of sim-mix

# Point counts of the rate sweeps in one block, by resolution.  Every block
# holds the same (resolution, points) pairs, so every run has the same mix of
# op costs.
_RATE_POINTS = {128: (7,) * 6, 256: (5, 9), 512: (8,)}
_SELECTION_RESOLUTIONS = (400, 800, 1600)
_BRANCHES = ("deformation", "piezoelectric")


class PhononSweeps(Workload):
    """``decohere`` sweeps through ``cli.main``: mostly rate sweeps."""

    name = "phonon-sweeps"
    kinds = ("rate", "selection", "tau")

    def _rate(self, rng, resolution, mode, points):
        deps = rng.uniform(0.05, 0.5)
        # Stay inside the documented kT >= 10 * deps regime.
        t_min = 10.0 * deps / K_B_UEV_PER_K * rng.uniform(1.05, 1.5)
        t_max = t_min * rng.uniform(4.0, 10.0)
        branch = _BRANCHES[int(rng.integers(2))]
        argv = ("decohere", "--sweep", "rate", "--deps", _num(deps), "--t-min", _num(t_min),
                "--t-max", _num(t_max), "--points", str(points), "--resolution", str(resolution),
                "--mode", mode, "--branch", branch)
        return Op("rate", argv, meta={"temperatures": points})

    def _selection(self, rng, resolution):
        argv = ("decohere", "--sweep", "selection", "--resolution", str(resolution),
                "--dot-separation-nm", _num(rng.uniform(18.0, 26.0)),
                "--orbital-width-nm", _num(rng.uniform(4.5, 5.5)))
        return Op("selection", argv)

    def _tau(self, rng):
        deps_min = rng.uniform(0.2, 1.0)
        argv = ("decohere", "--sweep", "tau", "--deps-min", _num(deps_min),
                "--deps-max", _num(deps_min * rng.uniform(5.0, 20.0)),
                "--points", str(int(rng.integers(5, 21))), "--branch", "both")
        return Op("tau", argv)

    def make_block(self, rng, index):
        # Which mode gets which point count rotates block by block.
        ops = [self._rate(rng, n, ("reduced", "exact")[(index + j) % 2], p)
               for n, points in _RATE_POINTS.items() for j, p in enumerate(points)]
        ops += [self._selection(rng, n) for n in _SELECTION_RESOLUTIONS]
        ops.append(self._tau(rng))
        return ops

    def warm_up_ops(self):
        rng = np.random.default_rng(0)
        return [self._rate(rng, 128, "exact", 2), self._selection(rng, 400), self._tau(rng)]

    def check(self, op, output):
        rc, text = output
        if op.kind == "rate":
            # Exit 1 is expected: the declared T^6/T^2 exponents are not met.
            if rc not in (0, 1):
                return [f"rate sweep exit {rc}"], {}
            rows = [r for r in _parse_csv(text) if r["mode"] != "fitted_exponent"]
            rates = [float(r["rate_per_s"]) for r in rows]
            expected = op.meta["temperatures"]
            problems = []
            if len(rates) != expected:
                problems.append(f"{len(rates)} rate rows, expected {expected}")
            bad = [r for r in rates if not (math.isfinite(r) and r > 0.0)]
            if bad:
                problems.append(f"non-finite or non-positive rates {bad[:3]}")
            return problems, {}
        if rc != 0:
            return [f"{op.kind} exit {rc}"], {}
        if op.kind == "selection":
            report = json.loads(text)
            ratio = max(report["ratio_forbidden_pp"], report["ratio_forbidden_mm"])
            if not ratio <= SELECTION_RATIO:
                return [f"forbidden/allowed ratio {ratio!r} > {SELECTION_RATIO}"], {}
            return [], {}
        taus = [float(r["tau_s"]) for r in _parse_csv(text) if r["mode"] == "spontaneous"]
        if not taus or not all(math.isfinite(t) and t > 0.0 for t in taus):
            return ["tau sweep gave no, non-finite or non-positive lifetimes"], {}
        return [], {}


# --------------------------------------------------------------------------
# Readout ops, the third op family of sim-mix

_SCAN_RESOLUTIONS = (20, 40, 80)  # even, so the grid holds bias = 2 t_c
# Samples per pulse, log-spaced over 200..2000.  A readout round runs every
# kind of op at every sample count, so rounds share one multiset of op costs.
_SAMPLES = (200, 294, 431, 632, 928, 1362, 2000)


class ReadoutScans(Workload):
    """``readout --scan``, ``readout`` traces and ``init`` through ``cli.main``.

    One block is one readout round of 49 ops.
    """

    name = "readout-scans"
    kinds = ("scan", "trace", "init")

    def _pulse(self, rng, samples):
        t_c = rng.uniform(1.0, 20.0)
        # Half a Rabi period at bias = 2 t_c, where the contrast peaks at one.
        half_period = math.pi * HBAR_UEV_NS / (2.0 * math.hypot(t_c, t_c))
        duration = half_period * rng.uniform(1.2, 3.0)
        return t_c, duration, duration / samples

    def _scan(self, rng, n_bias, samples):
        t_c, duration, timestep = self._pulse(rng, samples)
        argv = ("readout", "--scan", "--tunnel-coupling", _num(t_c), "--duration", _num(duration),
                "--timestep", _num(timestep), "--resolution", str(n_bias))
        return Op("scan", argv, meta={"n_bias": n_bias})

    def _trace(self, rng, fmt, samples):
        t_c, duration, timestep = self._pulse(rng, samples)
        argv = ("readout", "--tunnel-coupling", _num(t_c), "--bias", _num(2.0 * t_c),
                "--duration", _num(duration), "--timestep", _num(timestep), "--format", fmt)
        return Op("trace", argv, meta={"format": fmt})

    def _init(self, rng, target, samples):
        t_c, duration, timestep = self._pulse(rng, samples)
        argv = ("init", "--tunnel-coupling", _num(t_c), "--bias", _num(2.0 * t_c),
                "--duration", _num(duration), "--timestep", _num(timestep), "--target", target)
        return Op("init", argv)

    def make_block(self, rng, index):
        ops = []
        for samples in _SAMPLES:
            ops += [self._scan(rng, n, samples) for n in _SCAN_RESOLUTIONS]
            ops += [self._trace(rng, fmt, samples) for fmt in ("csv", "json")]
            ops += [self._init(rng, target, samples) for target in ("plus", "minus")]
        return ops

    def warm_up_ops(self):
        rng = np.random.default_rng(0)
        return [self._scan(rng, 20, 200), self._trace(rng, "csv", 200),
                self._trace(rng, "json", 200), self._init(rng, "plus", 200)]

    def check(self, op, output):
        rc, text = output
        if rc != 0:
            return [f"{op.kind} exit {rc}"], {}
        problems = []
        if op.kind == "trace" and op.meta["format"] == "csv":
            rows = _parse_csv(text)
            plus = np.array([float(r["p_left_plus"]) for r in rows])
            minus = np.array([float(r["p_left_minus"]) for r in rows])
            # |+> and |-> are orthogonal, so their left-dot populations sum to one.
            conservation = float(np.max(np.abs(plus + minus - 1.0))) if rows else math.inf
            distinguishability = float(np.max(np.abs(plus - minus))) if rows else 0.0
        else:
            report = json.loads(text)
            if op.kind == "init":
                if report["fidelity_matches_forward"] is not True:
                    problems.append("fidelity_matches_forward is not true")
                distinguishability = report["fidelity"]
            else:
                distinguishability = report["distinguishability"]
            conservation = report.get("probability_conservation_max_error", 0.0)
        if not distinguishability >= DISTINGUISHABILITY:
            problems.append(f"distinguishability {distinguishability!r} < {DISTINGUISHABILITY}")
        if not conservation <= CONSERVATION_TOL:
            problems.append(f"probability conservation error {conservation!r}")
        return problems, {}


# --------------------------------------------------------------------------
# sim-mix

# Rounds of each op family per block.  On a 2-core host a block of 465 ops
# took 8.5 s: half of it in phonon sweeps, 30% in readout ops and 20% in
# pulse ops, so ops_per_s moves with every layer.  Pulse and readout ops are
# 97% of the ops, so op_p50_ms is read inside their dense millisecond range.
_PULSE_ROUNDS = 16
_READOUT_ROUNDS = 4


class SimMix(PulseSchedules, PhononSweeps, ReadoutScans):
    """Pulse schedules, ``decohere`` sweeps and readout ops in one in-process stream."""

    name = "sim-mix"
    families = ((PulseSchedules, _PULSE_ROUNDS), (PhononSweeps, 1), (ReadoutScans, _READOUT_ROUNDS))

    def _family(self, op):
        return next(f for f, _ in self.families if op.kind in f.kinds)

    def make_block(self, rng, index):
        return [op for family, rounds in self.families for _ in range(rounds)
                for op in family.make_block(self, rng, index)]

    def warm_up_ops(self):
        return [op for family, _ in self.families for op in family.warm_up_ops(self)]

    def run(self, op):
        return self._family(op).run(self, op)

    def check(self, op, output):
        return self._family(op).check(self, op, output)


WORKLOADS = {w.name: w for w in (CliCompile, SimMix)}

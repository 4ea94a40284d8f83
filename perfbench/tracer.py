"""Spans and counts at dqdsim's layer boundaries, recorded from outside.

The tracer wraps the public functions of each layer (and numpy's
``leggauss`` and ``linalg.eigh`` at the kernel boundary) by rebinding module
attributes.  Every module that imported one of these names gets the wrapper
too, so ``compiler.dist_up_to_global_phase`` is traced like
``linalg.dist_up_to_global_phase``.  Nothing in ``src/`` changes; the wrapping
exists only in the traced run and is undone by :meth:`Tracer.uninstall`.

A span is ``[name, start, end, parent, op, n]``: ``parent`` is the index of
the enclosing span (-1 at the top), ``op`` the id of the benchmark op that
caused it, and ``n`` the size of the call (segments, nodes, biases, rows) or,
for the embedding search, its residual.  Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# (module, attribute) -> (span name, size extractor(args, kwargs, result) or None)
TRACED = {
    ("dqdsim.cli", "main"): ("cli.main", None),
    ("dqdsim.compiler", "decomposition_report"): ("compiler.decomposition_report", None),
    ("dqdsim.compiler", "search_embedding"): (
        "compiler.search_embedding", lambda a, k, r: float(r[1])),
    ("dqdsim.compiler", "build_pi"): ("compiler.build_pi", None),
    ("dqdsim.compiler", "build_cnot"): ("compiler.build_cnot", None),
    ("dqdsim.compiler", "verify_xor_4dim"): ("compiler.verify_xor_4dim", None),
    ("dqdsim.linalg", "dist_up_to_global_phase"): ("linalg.dist_up_to_global_phase", None),
    ("dqdsim.linalg", "expm_hermitian"): ("linalg.expm_hermitian", None),
    ("dqdsim.pulses", "evolve"): ("pulses.evolve", lambda a, k, r: len(_arg(a, k, 0, "schedule"))),
    ("dqdsim.pulses", "segment_generator"): ("pulses.segment_generator", None),
    ("dqdsim.pulses", "schedule_to_json"): ("pulses.schedule_to_json", lambda a, k, r: len(r)),
    ("dqdsim.pulses", "schedule_from_json"): ("pulses.schedule_from_json", lambda a, k, r: len(r)),
    ("dqdsim.decoherence", "two_phonon_rate_per_s"): (
        "decoherence.two_phonon_rate_per_s", lambda a, k, r: _arg(a, k, 2, "env").resolution),
    ("dqdsim.decoherence", "_two_phonon_integral"): ("decoherence.two_phonon_integral", None),
    ("dqdsim.decoherence", "coulomb_selection_rule"): (
        "decoherence.coulomb_selection_rule", lambda a, k, r: _arg(a, k, 1, "resolution", 800)),
    ("dqdsim.decoherence", "single_phonon_tau_s"): ("decoherence.single_phonon_tau_s", None),
    ("dqdsim.decoherence", "fit_scaling_exponent"): ("decoherence.fit_scaling_exponent", None),
    ("dqdsim.gates", "verify_catalog_identities"): ("gates.verify_catalog_identities", None),
    ("dqdsim.readout", "scan_bias"): ("readout.scan_bias", lambda a, k, r: _arg(a, k, 3, "n_bias", 40)),
    ("dqdsim.readout", "optimal_measurement_time"): ("readout.optimal_measurement_time", None),
    ("dqdsim.readout", "readout_trace"): ("readout.readout_trace", lambda a, k, r: len(r.times_ns)),
    ("dqdsim.readout", "readout_unitary"): ("readout.readout_unitary", None),
    ("dqdsim.readout", "init_by_reversed_readout"): ("readout.init_by_reversed_readout", None),
    ("dqdsim.reporting", "render_csv"): ("reporting.render_csv", lambda a, k, r: r.count("\n") - 1),
    ("dqdsim.reporting", "render_json"): ("reporting.render_json", None),
    ("numpy.polynomial.legendre", "leggauss"): ("numpy.leggauss", lambda a, k, r: int(_arg(a, k, 0, "deg"))),
    ("numpy.linalg", "eigh"): ("numpy.linalg.eigh", None),
}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size is not None:
                span[5] = size(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a dqdsim module holds it."""
        for (module_name, attr), (name, size) in TRACED.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, size)
            holders = [module] + [m for n, m in list(sys.modules.items())
                                  if n == "dqdsim" or n.startswith("dqdsim.")]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: Path, op: int, offset: int) -> list[list]:
    """Spans written by a traced child, re-based onto op id and index offset."""
    spans = []
    with open(path) as fh:
        for line in fh:
            name, start, end, parent, _, n = json.loads(line)
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, op, n])
    return spans


# --------------------------------------------------------------------------
# Per-layer metrics

PER_LAYER_UNITS = {
    "compiler.search_embedding.ms": "ms",
    "compiler.search_embedding.candidates": "count",
    "compiler.build_pi.calls": "count",
    "compiler.build_pi.self_ms": "ms",
    "compiler.exact_evals_per_candidate": "ratio",
    "compiler.phase_gate_residual": "1",
    "linalg.dist_up_to_global_phase.calls": "count",
    "linalg.dist_up_to_global_phase.us": "us",
    "linalg.expm_hermitian.calls": "count",
    "linalg.expm_hermitian.us": "us",
    "pulses.evolve.us_per_segment": "us",
    "pulses.segment_generator.us": "us",
    "numpy.linalg.eigh.calls_per_segment": "ratio",
    "pulses.schedule_from_json.us_per_segment": "us",
    "pulses.max_unitarity_error": "1",
    "decoherence.two_phonon_rate_per_s.ms": "ms",
    "decoherence.two_phonon_rate_per_s.calls_per_sweep": "count",
    "decoherence.integrals_per_temperature": "ratio",
    "numpy.leggauss.calls": "count",
    "numpy.leggauss.calls_per_temperature": "ratio",
    "numpy.leggauss.self_ms": "ms",
    "numpy.leggauss.distinct_n_ratio": "ratio",
    "decoherence.leggauss_share": "ratio",
    "decoherence.coulomb_selection_rule.n800.ms": "ms",
    "decoherence.coulomb_selection_rule.n1600.ms": "ms",
    "readout.scan_bias.ms": "ms",
    "readout.optimal_measurement_time.calls_per_scan": "count",
    "readout.optimal_measurement_time.calls_per_bias": "ratio",
    "numpy.linalg.eigh.calls_per_scan": "count",
    "numpy.linalg.eigh.calls_per_bias": "ratio",
    "readout.readout_trace.us": "us",
    "readout.readout_trace.us_per_sample": "us",
    "cli.main.self_ms": "ms",
    "reporting.render_csv.ms": "ms",
    "reporting.render_json.ms": "ms",
    "reporting.rows_rendered": "count",
    "setup.import_numpy_s": "s",
    "setup.import_dqdsim_s": "s",
    "trace.overhead_frac": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(spans: list[list], n_ops: int, temperatures: int) -> dict[str, float]:
    """Derive the per-layer metrics from spans of ``n_ops`` traced ops.

    ``temperatures`` is the number of (temperature, branch) points of all
    rate sweeps among those ops.  ``.calls``, ``.self_ms`` and
    ``rows_rendered`` are totals per op; other times are means per call, or
    per segment or sample where the name says so.  A layer the workload
    never calls reads 0.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        return dur(i) - child_time[i]

    def under(name, ancestor):
        """Indices of ``name`` spans that have an ``ancestor`` span above them."""
        out = []
        for i in by_name[name]:
            p = spans[i][3]
            while p >= 0 and spans[p][0] != ancestor:
                p = spans[p][3]
            if p >= 0:
                out.append(i)
        return out

    def per_call_ms(name, idx=None):
        idx = by_name[name] if idx is None else idx
        return 1e3 * _mean(dur(i) for i in idx)

    def n_sum(name):
        return sum(spans[i][5] or 0 for i in by_name[name])

    m: dict[str, float] = {}
    searches = by_name["compiler.search_embedding"]
    candidates = len(under("compiler.build_pi", "compiler.search_embedding"))
    m["compiler.search_embedding.ms"] = per_call_ms("compiler.search_embedding")
    m["compiler.search_embedding.candidates"] = _ratio(candidates, len(searches))
    m["compiler.build_pi.calls"] = _ratio(len(by_name["compiler.build_pi"]), n_ops)
    m["compiler.build_pi.self_ms"] = _ratio(
        1e3 * sum(self_time(i) for i in by_name["compiler.build_pi"]), n_ops)
    m["compiler.exact_evals_per_candidate"] = _ratio(
        len(under("linalg.dist_up_to_global_phase", "compiler.search_embedding")), candidates)
    m["compiler.phase_gate_residual"] = max((spans[i][5] for i in searches), default=0.0)

    for name in ("linalg.dist_up_to_global_phase", "linalg.expm_hermitian"):
        m[f"{name}.calls"] = _ratio(len(by_name[name]), n_ops)
        m[f"{name}.us"] = 1e3 * per_call_ms(name)

    segments = n_sum("pulses.evolve")
    m["pulses.evolve.us_per_segment"] = _ratio(
        1e6 * sum(dur(i) for i in by_name["pulses.evolve"]), segments)
    m["pulses.segment_generator.us"] = 1e3 * per_call_ms("pulses.segment_generator")
    m["numpy.linalg.eigh.calls_per_segment"] = _ratio(
        len(under("numpy.linalg.eigh", "pulses.evolve")), segments)
    m["pulses.schedule_from_json.us_per_segment"] = _ratio(
        1e6 * sum(dur(i) for i in by_name["pulses.schedule_from_json"]),
        n_sum("pulses.schedule_from_json"))

    rates = by_name["decoherence.two_phonon_rate_per_s"]
    rate_ops = {spans[i][4] for i in rates}
    m["decoherence.two_phonon_rate_per_s.ms"] = per_call_ms(
        "decoherence.two_phonon_rate_per_s", [i for i in rates if spans[i][5] == 256])
    m["decoherence.two_phonon_rate_per_s.calls_per_sweep"] = _ratio(len(rates), len(rate_ops))
    m["decoherence.integrals_per_temperature"] = _ratio(
        len(by_name["decoherence.two_phonon_integral"]), temperatures)
    legendre = by_name["numpy.leggauss"]
    m["numpy.leggauss.calls"] = _ratio(len(legendre), n_ops)
    m["numpy.leggauss.calls_per_temperature"] = _ratio(
        len(under("numpy.leggauss", "decoherence.two_phonon_rate_per_s")), temperatures)
    m["numpy.leggauss.self_ms"] = _ratio(1e3 * sum(self_time(i) for i in legendre), n_ops)
    per_op_n: dict[int, list[int]] = defaultdict(list)
    for i in under("numpy.leggauss", "decoherence.two_phonon_rate_per_s"):
        per_op_n[spans[i][4]].append(spans[i][5])
    m["numpy.leggauss.distinct_n_ratio"] = _mean(len(set(ns)) / len(ns) for ns in per_op_n.values())
    m["decoherence.leggauss_share"] = _ratio(
        sum(dur(i) for i in under("numpy.leggauss", "decoherence.two_phonon_rate_per_s")),
        sum(dur(i) for i in rates))
    selection = by_name["decoherence.coulomb_selection_rule"]
    for n in (800, 1600):
        m[f"decoherence.coulomb_selection_rule.n{n}.ms"] = per_call_ms(
            "decoherence.coulomb_selection_rule", [i for i in selection if spans[i][5] == n])

    scans = by_name["readout.scan_bias"]
    biases = sum(spans[i][5] for i in scans)
    omt = len(under("readout.optimal_measurement_time", "readout.scan_bias"))
    eigh = len(under("numpy.linalg.eigh", "readout.scan_bias"))
    m["readout.scan_bias.ms"] = per_call_ms("readout.scan_bias")
    m["readout.optimal_measurement_time.calls_per_scan"] = _ratio(omt, len(scans))
    m["readout.optimal_measurement_time.calls_per_bias"] = _ratio(omt, biases)
    m["numpy.linalg.eigh.calls_per_scan"] = _ratio(eigh, len(scans))
    m["numpy.linalg.eigh.calls_per_bias"] = _ratio(eigh, biases)
    m["readout.readout_trace.us"] = 1e3 * per_call_ms("readout.readout_trace")
    m["readout.readout_trace.us_per_sample"] = _ratio(
        1e6 * sum(dur(i) for i in by_name["readout.readout_trace"]), n_sum("readout.readout_trace"))

    m["cli.main.self_ms"] = 1e3 * _mean(self_time(i) for i in by_name["cli.main"])
    m["reporting.render_csv.ms"] = per_call_ms("reporting.render_csv")
    m["reporting.render_json.ms"] = per_call_ms("reporting.render_json")
    m["reporting.rows_rendered"] = _ratio(n_sum("reporting.render_csv"), n_ops)
    return m

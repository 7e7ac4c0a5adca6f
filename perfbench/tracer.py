"""Spans recorded from outside the package, by rebinding public functions.

Each entry of ``SPANS`` names a module attribute through which a caller
looks a function up; ``install`` replaces it with a wrapper that records a
span {name, start, end, parent, op} while an op is active. Self time is a
span's duration minus its children's. A span name's first dotted part is
its layer. Totals are kept per span name; the raw spans of the first
``KEEP_OPS`` ops are kept for writing out at exit.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

KEEP_OPS = 2


def _budget_name(args, kwargs):
    target = args[1] if len(args) > 1 else kwargs["target"]
    return f"reports.budget_report.{target}"


# (module, attribute, span name or function of the call's arguments)
SPANS = [
    ("cli", "load_trace_csv", "ringdown.load_trace_csv"),
    ("cli", "fit_ringdown", "ringdown.fit_ringdown"),
    ("cli", "finesse", "ringdown.finesse"),
    ("cli", "pool_linewidths", "ringdown.pool_linewidths"),
    ("cli", "load_scenario", "scenario.load_scenario"),
    ("cli", "parse_scenario", "scenario.parse_scenario"),
    ("scenario", "parse_scenario", "scenario.parse_scenario"),
    ("reports", "parse_scenario", "scenario.parse_scenario"),
    ("reports", "build_report", "reports.build_report"),
    ("reports", "load_manifest", "reports.load_manifest"),
    ("reports", "render_text", "reports.render"),
    ("reports", "render_csv", "reports.render"),
    ("reports", "budget_report", _budget_name),
    ("reports", "finesse", "ringdown.finesse"),
    ("reports", "propagate_monte_carlo", "quantities.propagate_monte_carlo"),
    ("ringdown", "propagate_linear", "quantities.propagate_linear"),
    ("cavity_optics", "propagate_linear", "quantities.propagate_linear"),
    ("cavity_optics", "extinction_from_finesse", "cavity_optics.extinction_from_finesse"),
    ("cavity_optics", "excess_reflection_loss", "cavity_optics.excess_reflection_loss"),
    ("cavity_optics", "r0_from_symmetric_finesse", "cavity_optics.r0_from_symmetric_finesse"),
    ("cavity_optics", "resonant_response", "cavity_optics.resonant_response"),
] + [
    ("ion_impact", f, f"ion_impact.{f}")
    for f in (
        "max_charge_for_cooling", "lamb_dicke_budget", "charge_for_displacement",
        "equilibrium_position", "carrier_intensity_factor",
        "micromotion_of_single_charge", "gate_detuning_verdict",
        "max_equal_charge_for_gate", "zero_point_spread",
    )
] + [
    ("rydberg_impact", f, f"rydberg_impact.{f}")
    for f in (
        "stark_shift", "decoherence_time", "blockade_infidelity",
        "max_charge_for_infidelity", "charge_for_coherence_time",
    )
] + [
    ("charging", f, f"charging.{f}")
    for f in (
        "photocurrent", "film_resistance", "equilibrium_charge",
        "gaussian_clipping_factor", "transport_consistency",
    )
] + [
    ("electrostatics", f, f"electrostatics.{f}")
    for f in ("field_at", "single_charge_field", "disc_point_ratios")
]

# (module, attribute, counter): counted, not timed; called in inner loops
COUNTS = [
    ("ion_impact", "expansion_coefficients", "electrostatics.expansion_calls"),
    ("electrostatics", "expansion_coefficients", "electrostatics.expansion_calls"),
]


def _note_load(tracer, args, kwargs, result):
    tracer.counters["ringdown.samples_loaded"] += len(result)
    tracer.counters["ringdown.bytes_loaded"] += os.path.getsize(args[0])


def _note_fit(tracer, args, kwargs, result):
    tracer.counters["ringdown.fit_iterations"] += result.iterations
    tracer.counters["ringdown.fit_samples"] += len(args[0])


def _note_extinction(tracer, args, kwargs, result):
    tracer.counters["cavity_optics.mc_draws"] += kwargs.get("mc_samples", 100_000)


def _note_mc(tracer, args, kwargs, result):
    tracer.counters["quantities.propagate_mc_draws"] += kwargs.get("sample_count", 100_000)


NOTES = {
    "ringdown.load_trace_csv": _note_load,
    "ringdown.fit_ringdown": _note_fit,
    "cavity_optics.extinction_from_finesse": _note_extinction,
    "quantities.propagate_monte_carlo": _note_mc,
}


class Tracer:
    def __init__(self):
        self.op = None            # id of the active op; None records nothing
        self.ops = 0              # ops traced so far
        self.spans = []           # [name, start, end, parent, op] of kept ops
        self.stats = {}           # span name -> [count, seconds, self seconds, failures]
        self.counters = defaultdict(int)
        self._stack = []          # open spans: [child seconds, kept span index or None]
        self._saved = []
        self.missing = set()

    def begin_op(self, op_id):
        self.op = op_id
        self.ops += 1

    def end_op(self):
        self.op = None

    def _open(self, name):
        index = None
        if self.ops <= KEEP_OPS:
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            index = len(self.spans)
            self.spans.append([name, None, None, parent, self.op])
        frame = [0.0, index]
        self._stack.append(frame)
        return frame

    def _close(self, name, frame, start, end, failed=False):
        stack = self._stack
        stack.pop()
        duration = end - start
        if frame[1] is not None:
            self.spans[frame[1]][1:3] = [start, end]
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0, 0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[0]
        stat[3] += failed
        if stack:
            stack[-1][0] += duration

    @contextmanager
    def region(self, name):
        """A span around a block of the benchmark's own code."""
        frame = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, start, perf_counter())

    def wrap(self, name, fn):
        note = NOTES.get(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            frame = self._open(span_name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span_name, frame, start, perf_counter(), failed=True)
                raise
            self._close(span_name, frame, start, perf_counter())
            if note is not None:
                note(self, args, kwargs, result)
            return result

        return traced

    def counted(self, counter, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            if self.op is not None:
                self.counters[counter] += 1
            return fn(*args, **kwargs)

        return counting

    def install(self):
        """Rebind every traced attribute of the imported package modules; an
        attribute the tree does not have is listed in ``missing``."""
        for module_name, attr, name in SPANS + COUNTS:
            module = importlib.import_module(f"cavitycharge.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            if (module_name, attr, name) in COUNTS:
                setattr(module, attr, self.counted(name, original))
            else:
                setattr(module, attr, self.wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def summary(self) -> dict:
        """Totals per span name and counter, JSON-able, for merging across processes."""
        return {
            "stats": self.stats,
            "counters": dict(self.counters),
            "missing": sorted(self.missing),
            "spans": self.spans,
        }

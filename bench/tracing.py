"""Span tracing of the program's layers, from the benchmark's own files.

`Tracer.install` replaces each traced function at the module attribute
through which the program calls it (for example `cyclide.pipeline.spectral_data`
or `cyclide.core.apply_motion`) with a wrapper that records a span: name,
start, end, parent span and input id.  `base_invariants` and `apply_motion`
are wrapped in every module that imports them.  Spans are kept in memory;
`write` saves them when the run ends.  A span's self time is its duration
minus the durations of its direct child spans.
"""
from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter_ns
from typing import Dict, List

# (module, attribute the program calls through, span name)
TARGETS = (
    ("cyclide.pipeline", "analyze", "pipeline.analyze"),
    ("cyclide.pipeline", "recognize", "recognizer.recognize"),
    ("cyclide.pipeline", "verdict_to_json", "serialize.verdict_to_json"),
    ("cyclide.pipeline", "normalize_quartic", "core.normalize_quartic"),
    ("cyclide.pipeline", "spectral_data", "canonical.spectral_data"),
    ("cyclide.pipeline", "canonical_quartic_params", "canonical.canonical_quartic_params"),
    ("cyclide.pipeline", "canonical_cubic_params", "canonical.canonical_cubic_params"),
    ("cyclide.pipeline", "classify_quartic_report", "classify.classify_quartic_report"),
    ("cyclide.pipeline", "j0_quartic", "classify.j0_quartic"),
    ("cyclide.pipeline", "classify_cubic", "classify.classify_cubic"),
    ("cyclide.pipeline", "j0_cubic", "classify.j0_cubic"),
    ("cyclide.moebius", "torus_radii", "moebius.torus_radii"),
    ("cyclide.moebius", "build_map", "moebius.build_map"),
    ("cyclide.recognizer", "normalize_quartic", "core.normalize_quartic"),
    ("cyclide.recognizer", "recognize_quartic_cases", "recognizer.recognize_quartic_cases"),
    ("cyclide.recognizer", "recognize_cubic", "recognizer.recognize_cubic"),
    ("cyclide.recognizer", "quartic_generators", "invariants.quartic_generators"),
    ("cyclide.recognizer", "cubic_forms", "invariants.cubic_forms"),
    ("cyclide.core", "apply_motion", "core.apply_motion"),
    ("cyclide.canonical", "apply_motion", "core.apply_motion"),
    ("cyclide.invariants", "base_invariants", "invariants.base_invariants"),
    ("cyclide.recognizer", "base_invariants", "invariants.base_invariants"),
    ("cyclide.canonical", "base_invariants", "invariants.base_invariants"),
    ("cyclide.classify", "base_invariants", "invariants.base_invariants"),
)

# spans the benchmark opens itself, around the calls of one input line
INPUT = "input"
PARSE = "serialize.parse"        # json.loads + serialize.parse_coefficients
DUMPS = "serialize.json_dumps"   # json.dumps of the report

US, CALLS = "us", "calls/input"

# per-layer metric -> (unit, statistic, span names, denominator); times are
# self times per input unless the statistic says "incl"
PER_LAYER = {
    "serialize.parse_us": (US, "self", (PARSE,), "inputs"),
    "serialize.dump_us": (US, "self", ("serialize.verdict_to_json", DUMPS), "inputs"),
    "core.normalize_quartic.calls": ("calls/quartic", "calls", ("core.normalize_quartic",), "quartics"),
    "core.normalize_quartic.us": (US, "self", ("core.normalize_quartic",), "inputs"),
    "core.apply_motion.calls": (CALLS, "calls", ("core.apply_motion",), "inputs"),
    "core.apply_motion.us": (US, "self", ("core.apply_motion",), "inputs"),
    "recognizer.recognize.us": (US, "incl", ("recognizer.recognize",), "inputs"),
    "recognizer.recognize_quartic_cases.self_us": (US, "self", ("recognizer.recognize_quartic_cases",), "inputs"),
    "recognizer.recognize_cubic.us": (US, "self", ("recognizer.recognize_cubic",), "inputs"),
    "invariants.quartic_generators.us": (US, "self", ("invariants.quartic_generators",), "inputs"),
    "invariants.base_invariants.calls": (CALLS, "calls", ("invariants.base_invariants",), "inputs"),
    "invariants.base_invariants.us": (US, "self", ("invariants.base_invariants",), "inputs"),
    "invariants.cubic_forms.us": (US, "self", ("invariants.cubic_forms",), "inputs"),
    "canonical.spectral_data.us": (US, "self", ("canonical.spectral_data",), "inputs"),
    "canonical.canonical_cubic_params.self_us": (US, "self", ("canonical.canonical_cubic_params",), "inputs"),
    "canonical.canonical_quartic_params.us": (US, "self", ("canonical.canonical_quartic_params",), "inputs"),
    "classify.classify_quartic_report.us": (US, "self", ("classify.classify_quartic_report",), "inputs"),
    "classify.j0_quartic.us": (US, "self", ("classify.j0_quartic",), "inputs"),
    "classify.classify_cubic.us": (US, "self", ("classify.classify_cubic",), "inputs"),
    "classify.j0_cubic.us": (US, "self", ("classify.j0_cubic",), "inputs"),
    "moebius.torus_radii.us": (US, "self", ("moebius.torus_radii",), "inputs"),
    "moebius.build_map.us": (US, "self", ("moebius.build_map",), "inputs"),
    "pipeline.analyze.self_us": (US, "self", ("pipeline.analyze",), "inputs"),
}
OVERHEAD = "trace.overhead_s"


class Tracer:
    """Span recorder.  A span is [name, start_ns, end_ns, parent, input]."""

    def __init__(self):
        self.spans: List[list] = []
        self.current = -1
        self.input_id = -1
        self._saved = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, self.current, self.input_id])
        self.current = idx
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = perf_counter_ns()
        self.current = span[3]

    def _wrap(self, name: str, fn):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            span = [name, 0, 0, parent, self.input_id]
            self.current = len(spans)
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                self.current = parent
        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('# [name, start_ns, end_ns, parent_index, input_id]\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def totals(self) -> Dict[str, Dict[str, int]]:
        """Per span name: calls, inclusive and self nanoseconds."""
        covered = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: Dict[str, Dict[str, int]] = defaultdict(lambda: {"calls": 0, "incl": 0, "self": 0})
        for (name, t0, t1, _, _), child in zip(self.spans, covered):
            agg = out[name]
            agg["calls"] += 1
            agg["incl"] += t1 - t0
            agg["self"] += t1 - t0 - child
        return out


def layer_metrics(tracer: Tracer, inputs: int, quartics: int) -> dict:
    """Every per-layer metric, per traced input (or per traced quartic)."""
    totals = tracer.totals()
    out = {}
    for metric, (unit, stat, names, per) in PER_LAYER.items():
        total = sum(totals[n][stat] for n in names if n in totals)
        denom = inputs if per == "inputs" else quartics
        value = total / denom if denom else 0.0
        if stat != "calls":
            value /= 1e3   # ns -> us
        out[metric] = {"value": value, "unit": unit}
    return out

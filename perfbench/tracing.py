"""Span tracer for the traced benchmark run.

The tracer replaces public bilodyne functions at the names they are
looked up from (module globals, the names `bilodyne.cli` imported, and
`RunConfig.load`), so nothing under src/ is edited.  Each call records
one span: name, start, end, parent span, invocation id and a count
taken from the size of an argument or of the return value.  Wrappers
pass arguments through untouched and never copy arrays.  Spans stay in
memory until the worker writes them out at the end.

A name that no longer exists is reported as absent instead of failing;
the time it used to cover then falls into its parent's self time.
"""

from __future__ import annotations

import os
import time


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# (owner, attribute, span name, count of one call or None).  Owners are
# dotted paths below the bilodyne package.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli.RunConfig", "load", "config.load", None),
    ("cli", "run_experiment", "montecarlo.run_experiment", None),
    ("cli", "psd_analytic", "analytic.psd_analytic", lambda a, k, r: r.freqs_hz.size),
    ("cli", "sensitivity_table", "analytic.sensitivity_table", None),
    ("cli", "write_spectrum_csv", "io.write_spectrum_csv", _file_bytes),
    ("cli", "write_trace_bin", "io.write_trace_bin", _file_bytes),
    # report.json carries a timestamp whose length can vary, so its bytes
    # are not counted: io.bytes must repeat exactly between runs
    ("cli", "write_report_json", "io.write_report_json", None),
    ("montecarlo", "sample_emission_times", "montecarlo.sample_emission_times", None),
    ("montecarlo", "thinning_sample", "montecarlo.thinning_sample", lambda a, k, r: r.size),
    (
        "montecarlo",
        "intensity_rate",
        "montecarlo.intensity_rate",
        lambda a, k, r: getattr(_arg(a, k, 4, "t"), "size", 1),
    ),
    (
        "montecarlo",
        "synthesize_current",
        "montecarlo.synthesize_current",
        lambda a, k, r: r.jdiff.size,
    ),
    ("montecarlo", "estimate_psd", "montecarlo.estimate_psd", None),
    ("montecarlo", "extract_beatnote", "montecarlo.extract_beatnote", None),
    ("montecarlo", "floor_statistics", "montecarlo.floor_statistics", None),
    ("montecarlo", "flatness_t_statistic", "montecarlo.flatness_t_statistic", None),
    ("correlators", "phasor_sum", "correlators.phasor_sum", None),
    ("correlators", "excess_lines", "correlators.excess_lines", None),
)

# span fields
NAME, START, END, PARENT, INVOCATION, COUNT = range(6)


class Tracer:
    """Records spans of wrapped calls; install() patches, remove() restores."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.invocation = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _owner(self, dotted: str):
        obj = self.package
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj

    def install(self) -> None:
        self.absent = []
        for owner_path, attr, span_name, count in TARGETS:
            owner = self._owner(owner_path)
            if owner is None or not hasattr(owner, attr):
                self.absent.append(span_name)
                continue
            raw = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
            wrapper = self._wrap(span_name, getattr(owner, attr), count)
            setattr(owner, attr, staticmethod(wrapper) if isinstance(owner, type) else wrapper)
            self._saved.append((owner, attr, raw))

    def remove(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, span_name, fn, count):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = int(count(args, kwargs, result))
            return result

        return traced


SAMPLERS = ("montecarlo.sample_emission_times", "montecarlo.thinning_sample")
EXTRACTORS = (
    "montecarlo.extract_beatnote",
    "montecarlo.floor_statistics",
    "montecarlo.flatness_t_statistic",
)
# counts that must repeat exactly between two traced runs of one input
EXACT_COUNTS = (
    "montecarlo.events",
    "montecarlo.rate_points",
    "montecarlo.samples",
    "analytic.bins",
    "io.bytes",
)


def layer_metrics(spans: list[list], invocation: int) -> dict:
    """Per-layer times (inclusive, unless named self_s) and counts of one invocation.

    `spans` is the tracer's whole list: PARENT holds a position in it.
    """
    mine = [i for i, s in enumerate(spans) if s[INVOCATION] == invocation]

    def duration(i):
        return spans[i][END] - spans[i][START]

    covered = {i: 0.0 for i in mine}
    for i in mine:
        if spans[i][PARENT] >= 0:
            covered[spans[i][PARENT]] += duration(i)

    def ancestors(i):
        j = spans[i][PARENT]
        while j >= 0:
            yield spans[j][NAME]
            j = spans[j][PARENT]

    def under(names):
        return lambda i: any(a in names for a in ancestors(i))

    def parent_is(name):
        return lambda i: spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == name

    def select(names, where):
        return [i for i in mine if spans[i][NAME] in names and (where is None or where(i))]

    def total(names, where=None):
        return sum(duration(i) for i in select(names, where))

    def count(names, where=None):
        return sum(spans[i][COUNT] for i in select(names, where))

    def self_time(name):
        return sum(duration(i) - covered[i] for i in mine if spans[i][NAME] == name)

    rate = ("montecarlo.intensity_rate",)
    thin = ("montecarlo.thinning_sample",)
    writes = tuple({spans[i][NAME] for i in mine if spans[i][NAME].startswith("io.")})
    rate_points = count(rate, under(SAMPLERS))
    sampled_events = count(thin, under(("montecarlo.sample_emission_times",)))
    return {
        "montecarlo.sample_s": total(SAMPLERS, lambda i: not under(SAMPLERS)(i)),
        "montecarlo.rate_s": total(rate, under(SAMPLERS)),
        "correlators.phasor_s": total(("correlators.phasor_sum",)),
        "montecarlo.events": count(thin),
        "montecarlo.rate_points": rate_points,
        "montecarlo.accept_ratio": sampled_events / rate_points if rate_points else 0.0,
        "montecarlo.check_rate_s": total(rate, parent_is("montecarlo.run_experiment")),
        "montecarlo.check_rate_points": count(rate, parent_is("montecarlo.run_experiment")),
        "montecarlo.self_s": self_time("montecarlo.run_experiment"),
        "montecarlo.psd_s": total(("montecarlo.estimate_psd",)),
        "montecarlo.synth_s": total(("montecarlo.synthesize_current",)),
        "montecarlo.samples": count(("montecarlo.synthesize_current",)),
        "montecarlo.extract_s": total(EXTRACTORS),
        "io.write_s": total(writes),
        "io.bytes": count(writes),
        "analytic.psd_s": total(("analytic.psd_analytic",)),
        "analytic.table_s": total(("analytic.sensitivity_table",)),
        "analytic.bins": count(("analytic.psd_analytic",)),
        "correlators.lines_s": total(("correlators.excess_lines",)),
        "config.load_s": total(("config.load",)),
        "cli.self_s": self_time("cli.main"),
    }

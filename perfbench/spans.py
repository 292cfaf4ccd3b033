"""In-memory span recorder for the traced benchmark run.

Spans are taken from the benchmark's side: the recorder replaces module
attributes that emeter code looks up at call time (``emeter.experiment.
generate_profile`` and the like) with timing wrappers for the duration of one
op, then puts the originals back.  Nothing under ``src/`` is modified.

A span is ``(op_id, span_id, parent_id, name, start_s, end_s, child_s)``;
``child_s`` is the part of the span covered by child spans and tallied calls,
so self time is ``end_s - start_s - child_s``.  Calls made once per poll or
per record (``read_register``, ``step``, ``read_delay``, ``push``) are too
many to keep one span each: they are counted and timed in aggregate per op.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = None
        self.totals: dict[str, float] = defaultdict(float)   # span/tally name -> s
        self.selfs: dict[str, float] = defaultdict(float)    # span name -> self s
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span_id, child_s]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- per-op bookkeeping ---------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op_id = op_id
        self.totals = defaultdict(float)
        self.selfs = defaultdict(float)
        self.counts = defaultdict(float)

    def _charge_parent(self, seconds: float) -> None:
        if self._stack:
            self._stack[-1][1] += seconds

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result)`` records counts untimed."""

        def wrapper(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((self.op_id, frame[0], parent, name,
                                   start, end, frame[1]))
                self.totals[name] += end - start
                self.selfs[name] += end - start - frame[1]
                self._charge_parent(end - start)
            if after is not None:
                t0 = time.perf_counter()
                after(result)
                # count extraction is tracer cost, not the caller's self time
                self._charge_parent(time.perf_counter() - t0)
            return result

        return wrapper

    def tally(self, name: str, fn):
        """Wrap a per-poll call: count every call, time it in aggregate."""

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self.totals[name] += dur
                self.counts[name] += 1
                self._charge_parent(dur)

        return wrapper

    # -- installing wrappers ----------------------------------------------

    def patch(self, target, attr: str, wrapper) -> None:
        """Replace ``target.attr`` until :meth:`unpatch_all`.

        A name the program no longer defines is skipped, so a refactor that
        removes it reads as zero for that layer instead of failing the run.
        """
        if not hasattr(target, attr):
            return
        original = getattr(target, attr)
        self._undo.append((target, attr, original))
        setattr(target, attr, wrapper(original))

    def unpatch_all(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        keys = ("op", "id", "parent", "name", "start_s", "end_s", "child_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import emeter.analysis
    import emeter.calibration
    import emeter.cli
    import emeter.experiment
    import emeter.sampler
    import emeter.tracefile

    import suite

    exp = emeter.experiment
    span, tally, patch = tracer.span, tracer.tally, tracer.patch

    def count_segments(profile):
        tracer.counts["workloads.segments"] += len(profile.current)

    def instrument_writer(writer):
        writer.push = tally("buffering.push", writer.push)

        def after_close(_):
            counts = tracer.counts
            counts["buffering.records_written"] += writer.records_written
            counts["buffering.overruns"] += writer.overruns
            counts["buffering.flushes"] += len(getattr(writer, "flush_log", ()))

        writer.close = span("buffering.close", writer.close, after_close)

    def count_records(decoded):
        _header, records = decoded
        tracer.counts["tracefile.records_read"] += len(records)
        tracer.counts["tracefile.gaps_read"] += sum(1 for r in records if r.is_gap)

    patch(exp, "generate_profile",
          lambda f: span("workloads.profile", f, count_segments))
    patch(exp, "exact_energy", lambda f: span("workloads.reference", f))
    patch(exp, "run_pipeline", lambda f: span("experiment.pipeline", f))
    for name in ("apply_current", "apply_voltage"):
        patch(exp, name, lambda f: span("calibration.apply", f))
    for name in ("gated_energy", "naive_energy", "hybrid_energy"):
        patch(exp, name, lambda f: span("sampler.energy", f))
    patch(exp, "trace_to_records", lambda f: span("tracefile.encode", f))
    patch(exp, "make_writer",
          lambda f: span("buffering.make_writer", f, instrument_writer))
    patch(emeter.calibration, "run_calibration_sweep",
          lambda f: span("calibration.sweep", f))

    patch(emeter.sampler, "run_measurement", lambda f: span("sampler.loop", f))
    patch(emeter.sampler, "read_delay",
          lambda f: tally("bus_timing.read_delay", f))

    patch(suite, "build_bus",
          lambda f: lambda *args, **kwargs: instrument_bus(tracer, f(*args, **kwargs)))

    patch(emeter.cli, "main", lambda f: span("cli.main", f))
    # load_trace looks its helpers up in emeter.tracefile, export-csv in cli
    for module in (emeter.cli, emeter.tracefile):
        patch(module, "read_trace_file",
              lambda f: span("tracefile.decode", f, count_records))
    patch(emeter.tracefile, "records_to_trace",
          lambda f: span("tracefile.to_trace", f))
    patch(emeter.cli, "export_csv", lambda f: span("tracefile.csv", f))
    patch(emeter.analysis, "ecdf_csv", lambda f: span("analysis.ecdf", f))
    patch(emeter.analysis, "voltage_effect",
          lambda f: span("analysis.voltage_effect", f))


def instrument_bus(tracer: Tracer, bus):
    """Time the per-poll sensor calls on a bus the benchmark built."""
    bus.read_register = tracer.tally("sensor.read_register", bus.read_register)
    bus.sensor.step = tracer.tally("sensor.step", bus.sensor.step)
    return bus

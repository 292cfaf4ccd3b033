"""The four benchmark workloads: inputs from a seed, one op, output checks.

Each workload builds a fixed list of ops from the workload seed in
``setup``; ``run`` executes one op (the timed part) and ``inspect`` checks
its outputs and hashes them (untimed).  emeter functions are called through
their modules (``experiment.run_experiment``) so the traced run can wrap the
names the program looks up.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import itertools
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import emeter.calibration as calibration
import emeter.cli as cli
import emeter.experiment as experiment
import emeter.sampler as sampler
import emeter.tracefile as tracefile
from emeter.buffering import BufferPolicy
from emeter.bus_timing import PROFILES
from emeter.sensor import BOARDS, SensorConfig, SimulatedBus, SimulatedSensor
from emeter.workloads import PRESETS, ReferenceMeter, exact_energy, generate_profile

# The documented on-disk layout (see the emeter.tracefile docstring).  The
# checks decode files with it directly, so they do not depend on how the
# program represents records in memory.
RECORD = np.dtype([("t", "<u8"), ("uv", "<i4"), ("ua", "<i4")])
HEADER_BYTES = 64
GAP = -(2 ** 31)

# Every file an op writes gets a fresh name and is removed once read back.
# Rewriting one file in place makes ext4 flush it to disk on close (its
# guard for replace-by-truncate), which would put disk latency into the op.

FAST_WRITE_BPS = 40e6
# below 128 bit x ~4.8k samples/s (~0.61 Mb/s) at 9 bit: buffers overrun
SLOW_WRITE_BPS = 0.4e6


@dataclass
class Outcome:
    """What one op produced, as the benchmark saw it."""

    digest: str
    sim_s: float
    samples: int
    problem: str = ""            # empty when every output check passed
    counts: dict = field(default_factory=dict)
    error_pct: Optional[float] = None


def op_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, n)]


def read_records(data: bytes) -> np.ndarray:
    body = data[HEADER_BYTES:]
    if len(data) < HEADER_BYTES or len(body) % RECORD.itemsize:
        raise ValueError(f"trace of {len(data)} bytes is not header + whole records")
    return np.frombuffer(body, dtype=RECORD)


def readings_of(records: np.ndarray) -> np.ndarray:
    return records[~((records["uv"] == GAP) & (records["ua"] == GAP))]


def expected_records(trace) -> np.ndarray:
    """The records a trace must persist as: micro-units, rounded half-even."""
    out = np.empty(len(trace), dtype=RECORD)
    out["t"] = trace.timestamps_ns
    out["uv"] = np.round(trace.bus_voltage * 1e6)
    out["ua"] = np.round(trace.current * 1e6)
    return out


def trace_counts(trace) -> dict:
    flags = trace.flags
    return {
        "sampler.samples": len(trace),
        "sampler.warmup": int(np.count_nonzero(flags & sampler.FLAG_WARMUP)),
        "sampler.saturated": int(np.count_nonzero(flags & sampler.FLAG_SATURATED)),
        "sampler.power_save": int(np.count_nonzero(flags & sampler.FLAG_POWER_SAVE)),
    }


def hash_trace(h, trace) -> None:
    for column in (trace.timestamps_ns, trace.bus_voltage, trace.current, trace.flags):
        h.update(np.ascontiguousarray(column).tobytes())


def hash_pipeline(h, result) -> None:
    hash_trace(h, result.trace)
    r = result.report
    h.update(repr((r.e_device_j, r.e_reference_j, r.error_percent, r.sample_count,
                   r.overrun_count, r.status, result.energy_gated_j,
                   result.energy_naive_j, result.energy_hybrid_j,
                   result.flush_log)).encode())


def check_measurement(status: str, n_samples: int, energies) -> str:
    if status != "complete":
        return f"status {status!r}"
    if n_samples < 1:
        return "no samples"
    if not all(math.isfinite(e) for e in energies):
        return f"non-finite energy in {energies!r}"
    return ""


def check_pipeline(result) -> str:
    r = result.report
    energies = [r.e_device_j, r.e_reference_j, result.energy_gated_j,
                result.energy_naive_j]
    if result.energy_hybrid_j is not None:
        energies.append(result.energy_hybrid_j)
    return check_measurement(r.status, r.sample_count, energies)


class AccuracySweep:
    """The paper's accuracy experiment: calibrated 30 s runs of workload 1."""

    name = "accuracy_sweep"
    DURATION_S = 30.0
    # a 9-bit op costs about three 12-bit ones; with seeds split 3:2 the
    # median lies inside the 12-bit group and the p90 inside the 9-bit one,
    # not in the gap between them where two extreme ops would set it
    SEEDS = {12: 12, 9: 8}

    def setup(self, seed: int, workdir: str) -> list:
        pot = calibration.PotentiometerModel()
        network = calibration.SwitchNetwork()
        program = calibration.build_staircase(pot, network, step_a=5e-3, max_a=0.8)
        cells = [(preset, res) for preset in PRESETS for res in (12, 9)
                 for _ in range(self.SEEDS[res])]
        cal_seed, *seeds = op_seeds(seed, 1 + len(cells))
        self.curves = {}
        for res in (12, 9):
            options = experiment.PipelineOptions(seed=cal_seed, resolution_bits=res)
            pairs = calibration.run_calibration_sweep(
                program, experiment.device_pipeline(options), ReferenceMeter(),
                pot=pot, network=network)
            curve = calibration.fit_current(pairs)
            self.curves[res] = calibration.fit_voltage(pairs, curve)
        return [cell + (s,) for cell, s in zip(cells, seeds)]

    def run(self, op):
        preset, res, seed = op
        options = experiment.PipelineOptions(seed=seed, resolution_bits=res)
        return experiment.run_experiment(preset, 1, options,
                                         calibration=self.curves[res],
                                         duration=self.DURATION_S)

    def inspect(self, op, result, full: bool) -> Outcome:
        h = hashlib.sha256()
        hash_pipeline(h, result)
        out = Outcome(h.hexdigest(), self.DURATION_S, len(result.trace),
                      error_pct=result.report.error_percent)
        if full:
            preset, _res, seed = op
            out.problem = check_pipeline(result)
            out.counts = trace_counts(result.trace)
            out.counts["buffering.overruns"] = result.report.overrun_count
            out.counts["workloads.segments"] = len(generate_profile(
                preset, 1, seed=seed, duration=self.DURATION_S).current)
        return out


class Capture9Bit:
    """``emeter sample --res 9 --buffer-samples 1024 --out``: 9-bit capture."""

    name = "capture_9bit"
    # ~4.8k samples a second into 1024-record buffers (``--buffer-samples
    # 1024``).  At the slow write speed every other two-buffer fill finds the
    # other buffer still being written, and the circular ring is full after
    # about 0.6 s.  Lengths vary by +-10% across the seeds of a cell so that
    # op costs form a continuum: the quantiles then never sit in the gap
    # between the two writers' costs
    SECONDS = (0.9, 0.95, 1.0, 1.05, 1.1)
    BUFFER_SAMPLES = 1024

    def setup(self, seed: int, workdir: str) -> list:
        self.workdir = workdir
        self.files = itertools.count()
        cells = [(preset, kind, bps, seconds) for preset in PRESETS
                 for kind in ("two_buffer", "circular")
                 for bps in (FAST_WRITE_BPS, SLOW_WRITE_BPS)
                 for seconds in self.SECONDS]
        return [cell + (s,) for cell, s in zip(cells, op_seeds(seed, len(cells)))]

    def run(self, op):
        preset, kind, bps, seconds, seed = op
        options = experiment.PipelineOptions(
            seed=seed, resolution_bits=9,
            buffering=BufferPolicy(kind, self.BUFFER_SAMPLES), write_speed_bps=bps)
        path = os.path.join(self.workdir, f"capture{next(self.files)}.bin")
        with open(path, "wb") as fh:
            result = experiment.run_experiment(preset, 1, options,
                                               duration=seconds, trace_fh=fh)
        return result, path

    def inspect(self, op, result, full: bool) -> Outcome:
        preset, _kind, _bps, seconds, seed = op
        result, path = result
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            h = hashlib.sha256(data)
            hash_pipeline(h, result)
            out = Outcome(h.hexdigest(), seconds, len(result.trace),
                          error_pct=result.report.error_percent)
            if full:
                out.problem = (check_pipeline(result)
                               or self._check_file(data, result, path))
                out.counts = trace_counts(result.trace)
                out.counts["buffering.overruns"] = result.report.overrun_count
                out.counts["buffering.flushes"] = len(result.flush_log.splitlines())
                out.counts["workloads.segments"] = len(generate_profile(
                    preset, 1, seed=seed, duration=seconds).current)
        finally:
            os.unlink(path)
        return out

    def _check_file(self, data: bytes, result, path: str) -> str:
        tracefile.decode_header(data[:HEADER_BYTES])
        loaded = tracefile.load_trace(path)
        got = readings_of(read_records(data))
        if not np.array_equal(loaded.timestamps_ns, got["t"].astype(np.int64)):
            return "the program's reader disagrees with the record layout"
        expected = expected_records(result.trace)
        if np.any(np.diff(got["t"].astype(np.int64)) <= 0):
            return "file records are not time-ordered"
        idx = np.searchsorted(expected["t"], got["t"])
        if np.any(idx >= len(expected)) or np.any(expected[np.minimum(idx, len(expected) - 1)] != got):
            return "file records are not a subsequence of the trace"
        if result.report.overrun_count == 0 and data[HEADER_BYTES:] != expected.tobytes():
            return "file differs from the trace with no overruns"
        return ""


@dataclass
class ReplayFile:
    path: str
    records: int
    readings: int
    span_s: float


class TraceReplay:
    """The read side: ``export-csv``, ``ecdf`` and ``voltage-effect``."""

    name = "trace_replay"
    # every preset x {9, 12} bit x both writers x both write speeds; at 9 bit
    # the slow writer drops buffers, so those traces carry gap markers
    TRACES = [(preset, bits, kind, bps) for preset in PRESETS for bits in (9, 12)
              for kind in ("two_buffer", "circular")
              for bps in (FAST_WRITE_BPS, SLOW_WRITE_BPS)]
    # ~9k records either way, so an op's cost depends on the command, not
    # on the resolution, and no quantile falls in a gap between resolutions
    SECONDS = {9: 2.0, 12: 8.0}
    COMMANDS = ("export-csv", "ecdf", "voltage-effect")

    def setup(self, seed: int, workdir: str) -> list:
        if getattr(self, "tracedir", None):
            shutil.rmtree(self.tracedir)  # the previous set-up's traces
        self.tracedir = tempfile.mkdtemp(dir=workdir)
        self.files = []
        self.outputs = itertools.count()
        for k, ((preset, bits, kind, bps), s) in enumerate(
                zip(self.TRACES, op_seeds(seed, len(self.TRACES)))):
            path = os.path.join(self.tracedir, f"trace{k}.bin")
            options = experiment.PipelineOptions(
                seed=s, resolution_bits=bits, buffering=BufferPolicy(kind, 4096),
                write_speed_bps=bps)
            with open(path, "wb") as fh:
                experiment.run_experiment(preset, 1, options,
                                          duration=self.SECONDS[bits], trace_fh=fh)
            with open(path, "rb") as fh:
                records = read_records(fh.read())
            readings = readings_of(records)
            span_s = int(readings["t"][-1] - readings["t"][0]) * 1e-9
            self.files.append(ReplayFile(path, len(records), len(readings), span_s))
        return [(command, i) for i in range(len(self.files)) for command in self.COMMANDS]

    def run(self, op):
        command, i = op
        argv = [command, self.files[i].path]
        out_path = None
        if command == "ecdf":
            out_path = os.path.join(self.tracedir, f"ecdf{next(self.outputs)}.csv")
            argv += ["--out", out_path]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        return code, stdout.getvalue(), out_path

    def inspect(self, op, result, full: bool) -> Outcome:
        command, i = op
        code, stdout, out_path = result
        trace = self.files[i]
        h = hashlib.sha256(repr((command, i, code)).encode())
        h.update(stdout.encode())
        ecdf_text = ""
        if out_path:
            with open(out_path) as fh:
                ecdf_text = fh.read()
            os.unlink(out_path)
            h.update(ecdf_text.encode())
        out = Outcome(h.hexdigest(), trace.span_s, trace.records)
        if full:
            if code != 0:
                out.problem = f"exit code {code}"
            elif command == "export-csv" and stdout.count("\n") - 1 != trace.readings:
                out.problem = f"CSV row count differs from {trace.readings} readings"
            elif command == "ecdf" and float(ecdf_text.splitlines()[-1].split(",")[1]) != 1.0:
                out.problem = "ECDF does not end at 1"
        return out


class CountingBus(SimulatedBus):
    """The simulated bus, counting register reads."""

    def __init__(self, sensor):
        super().__init__(sensor)
        self.reads = 0

    def read_register(self, addr: int) -> int:
        self.reads += 1
        return self.sensor.read_register(addr)


def build_bus(config: SensorConfig) -> CountingBus:
    return CountingBus(SimulatedSensor(config, board=BOARDS["shield"]))


class RegisterLoop:
    """The register-level polling loop against a short span of a profile."""

    name = "register_loop"
    # +-20% across the seeds of a cell, so that op costs form a continuum
    SPANS_S = (0.08, 0.09, 0.1, 0.11, 0.12)
    # workload 1 cycles sleep, processing and tx every 0.5 s; 1.0-1.5 s is
    # tx with current spikes, the busiest stretch of the profile
    OFFSET_S = 1.1
    SPEED_KHZ = 2500

    def setup(self, seed: int, workdir: str) -> list:
        self.profiles, self.loads, self.configs = {}, {}, {}
        preset_seeds = op_seeds(seed, len(PRESETS))
        for preset, s in zip(PRESETS, preset_seeds):
            profile = generate_profile(preset, 1, seed=s, duration=2.0)
            self.profiles[preset] = profile
            self.loads[preset] = _held_load(profile, self.OFFSET_S)
            divider = experiment.pick_pga_divider(float(profile.current.max()))
            for res in (12, 9):
                self.configs[preset, res] = SensorConfig(pga_divider=divider,
                                                         resolution_bits=res)
        cells = [(preset, driver, res, span) for preset in PRESETS
                 for driver in ("bcm", "linux") for res in (12, 9)
                 for span in self.SPANS_S]
        return [cell + (s,) for cell, s in zip(cells, op_seeds(seed + 1, len(cells)))]

    def run(self, op):
        preset, driver, res, span, seed = op
        config = self.configs[preset, res]
        bus = build_bus(config)
        result = sampler.run_measurement(
            bus, self.loads[preset], PROFILES[driver], self.SPEED_KHZ, config,
            sampler.TriggerSpec.duration(span),
            rng=np.random.default_rng(seed))
        return result, bus

    def inspect(self, op, result, full: bool) -> Outcome:
        preset, span = op[0], op[3]
        measurement, bus = result
        trace = measurement.trace
        h = hashlib.sha256()
        hash_trace(h, trace)
        h.update(repr((measurement.energy_j, measurement.overruns, measurement.status,
                       bus.reads, bus.sensor.conversions_done)).encode())
        out = Outcome(h.hexdigest(), span, len(trace))
        countable = np.nonzero((trace.flags & sampler.FLAG_WARMUP) == 0)[0]
        if len(countable) >= 2:
            t0, t1 = (self.OFFSET_S + trace.timestamps_ns[countable[[0, -1]]] * 1e-9)
            e_ref = exact_energy(self.profiles[preset], (t0, t1))
            out.error_pct = abs(measurement.energy_j - e_ref) / e_ref * 100.0
        if full:
            out.problem = check_measurement(measurement.status, len(trace),
                                            [measurement.energy_j])
            out.counts = trace_counts(trace)
            out.counts["sensor.register_reads"] = bus.reads
            out.counts["sensor.conversions"] = bus.sensor.conversions_done
        return out


def _held_load(profile, offset_s: float):
    """The profile's (amps, volts) at ``offset_s`` + t, for the polling loop."""
    edges = profile.edges.tolist()
    current = profile.current.tolist()
    voltage = profile.voltage.tolist()

    def load(t_ns: int):
        i = bisect.bisect_right(edges, offset_s + t_ns * 1e-9) - 1
        return current[i], voltage[i]

    return load


WORKLOADS = {w.name: w for w in (AccuracySweep, Capture9Bit, TraceReplay, RegisterLoop)}

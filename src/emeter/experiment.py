"""End-to-end measurement experiments against synthetic loads.

:func:`run_pipeline` is a sequence of stages, each vectorized over the run:
:func:`schedule` (window boundaries and timestamps), the window means,
:func:`sense` (board transfer, then noise), :func:`quantize` and
:func:`calibrate`, then :func:`~emeter.sampler.build_trace`, persistence,
the energies, the reference and the report.

Conversion windows tile where the sample period is the conversion time
itself, that is where the polling loop keeps up with the chip: each window
starts where the previous one ended, and ``LoadProfile.tiled_means`` looks
each cumulative integral up once per window boundary.  That holds at 20 of
the 28 supported (driver, bus speed, supply, resolution) points: every
12-bit point and the default, bcm at 2500 kHz.  The other 8, all at 9 bit,
leave a gap between windows and keep ``LoadProfile.window_means``, two
lookups per window: 200 kHz on either driver and supply, 500 kHz at 5 V on
either driver, linux at 500 kHz and 3.3 V, and linux at 800 kHz and 5 V.

A stage allocates only the arrays it returns and does its arithmetic in
place on arrays it allocated itself; it never writes to its inputs.  A 30 s
run at 9 bit has ~143k readings, so each full-length array is 1.1 MB, and
whenever the allocator has trimmed the heap between runs every such
allocation faults its pages in anew.  ``_readings`` runs the stages from
window means to calibration and holds their outputs until it returns, so
that those arrays are freed together before the readout stages allocate
theirs.  Run as perfbench's accuracy_sweep runs them (seed 3, fitted
curves, the previous result alive), a 9-bit run takes a median of 260-281
minor page faults, and took 809 when every arithmetic step allocated a fresh
array.

The polling loop in :mod:`emeter.sampler` shares ``build_trace`` and
``gated_energy`` with this path and writes no file; both hand ``build_trace``
every reading up to the trigger's ``limit_ns``.  The loop holds the input
constant between polls, where this path integrates each window exactly; the
tests cross-check the two on a constant load, where that difference vanishes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from emeter.bus_timing import (
    PROFILES,
    DriverProfile,
    LOOP_OVERHEAD_US,
    TIMESTAMP_CALL_US,
    sample_period_us,
)
from emeter.buffering import DEFAULT_POLICY, DEFAULT_WRITE_SPEED_BPS, BufferPolicy, persist
from emeter.calibration import CalibrationCurve, apply_current, apply_voltage
from emeter.sampler import (
    PowerSaveMode,
    Trace,
    TriggerSpec,
    build_trace,
    gated_energy,
    hybrid_energy,
    naive_energy,
)
from emeter.sensor import (
    BOARDS,
    BoardCharacter,
    SHUNT_FULL_SCALE_V,
    SensorConfig,
    conversion_time_us,
    quantize_bus_array,
    quantize_shunt_array,
)
from emeter.tracefile import TraceHeader, trace_to_records
from emeter.workloads import LoadProfile, exact_energy, generate_profile

DEFAULT_CURRENT_NOISE_A = 20e-6
DEFAULT_VOLTAGE_NOISE_V = 0.2e-3


def pick_pga_divider(max_current_a: float) -> int:
    """Smallest divider whose full scale covers the expected peak current
    across the default shunt, which every pipeline run uses."""
    for divider in (1, 2, 4, 8):
        if max_current_a * SensorConfig.shunt_resistance <= SHUNT_FULL_SCALE_V * divider:
            return divider
    return 8


@dataclass
class PipelineOptions:
    """Knobs of one simulated measurement run."""

    resolution_bits: int = 12
    driver: str = "bcm"
    speed_khz: int = 2500
    supply_voltage: float = 5.0
    pga_divider: Optional[int] = None  # None: auto from the profile peak
    board: str = "shield"
    noise_current_a: float = DEFAULT_CURRENT_NOISE_A
    noise_voltage_v: float = DEFAULT_VOLTAGE_NOISE_V
    seed: int = 0
    buffering: BufferPolicy = DEFAULT_POLICY
    write_speed_bps: float = DEFAULT_WRITE_SPEED_BPS

    def named(self, kind: str, table: dict):
        """The ``table`` entry this run's ``driver`` or ``board`` names."""
        name = getattr(self, kind)
        if name not in table:
            raise ValueError(f"unknown {kind} {name!r}; have {sorted(table)}")
        return table[name]


@dataclass
class ExperimentReport:
    """Accuracy summary of one run against the reference meter."""

    e_device_j: float
    e_reference_j: float
    error_percent: float
    sample_count: int
    overrun_count: int
    status: str
    config: dict

    def to_json(self) -> str:
        payload = {name: getattr(self, name) for name in _REPORT_FIELDS}
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        payload = json.loads(text)
        return cls(**{name: payload[name] for name in _REPORT_FIELDS})

    def to_text(self) -> str:
        lines = [
            f"device energy    : {self.e_device_j:.6g} J",
            f"reference energy : {self.e_reference_j:.6g} J",
            f"error            : {self.error_percent:.4f} %",
            f"samples          : {self.sample_count}",
            f"overruns         : {self.overrun_count}",
            f"status           : {self.status}",
        ]
        for key in sorted(self.config):
            lines.append(f"{key:17s}: {self.config[key]}")
        return "\n".join(lines)


_REPORT_FIELDS = [f.name for f in fields(ExperimentReport)]


@dataclass
class PipelineResult:
    trace: Trace
    report: ExperimentReport
    energy_gated_j: float
    energy_naive_j: float
    energy_hybrid_j: Optional[float]
    flush_log: str


def schedule(driver: DriverProfile, speed_khz: int, config: SensorConfig,
             trigger: TriggerSpec, horizon_ns: int):
    """(window boundaries s, timestamp ns) of the n conversions up to the
    trigger's limit at ``horizon_ns``.

    The n + 1 boundaries are ``k * period`` for k = 0..n, so conversion k's
    window ends at boundary k + 1; where the windows tile it also starts at
    boundary k (:func:`_readings`).  ``tail_ns`` puts a timestamp after the
    final ready poll, the shunt read and the bookkeeping.
    """
    period_ns = sample_period_us(driver, speed_khz, config) * 1000.0
    tail_ns = (1.5 * driver.mean_delay_us(speed_khz)
               + LOOP_OVERHEAD_US + TIMESTAMP_CALL_US) * 1000.0
    limit_ns = trigger.limit_ns(horizon_ns)
    n_conversions = int((limit_ns - tail_ns) // period_ns) if limit_ns > tail_ns else 0
    if trigger.sample_count is not None:
        n_conversions = min(n_conversions,
                            int(trigger.start_ns // period_ns) + trigger.sample_count + 1)
    grid_ns = np.arange(0, n_conversions + 1) * period_ns
    grid_s = grid_ns * 1e-9
    grid_ns += tail_ns
    return grid_s, grid_ns[1:].astype(np.int64)


def sense(options: PipelineOptions, board: BoardCharacter, mean_i, mean_i2, mean_v):
    """(amperes, volts) at the chip: board transfer, then noise from
    ``default_rng(options.seed)``, current first; clipped at zero amperes."""
    rng = np.random.default_rng(options.seed)
    sensed_i = board.sense_current(mean_i, mean_i2)
    sensed_v = board.sense_voltage(mean_v)
    # normal(0.0, s, n) is 0.0 + s * standard_normal(n): the same readings
    # and the same generator state
    for sensed, sigma in ((sensed_i, options.noise_current_a),
                          (sensed_v, options.noise_voltage_v)):
        if sigma > 0:
            noise = rng.standard_normal(len(sensed))
            noise *= sigma
            sensed += noise
    return np.maximum(sensed_i, 0.0, out=sensed_i), sensed_v


def quantize(current, bus_v, config: SensorConfig):
    """(amperes, volts, saturated) as the chip's registers read them back."""
    current, saturated = quantize_shunt_array(current, config)
    bus_v, sat_v = quantize_bus_array(bus_v, config)
    saturated |= sat_v
    return current, bus_v, saturated


def calibrate(calibration: Optional[CalibrationCurve], current, bus_v):
    """(amperes, volts) through ``calibration``; unchanged without one."""
    if calibration is None:
        return current, bus_v
    return apply_current(calibration, current), apply_voltage(calibration, bus_v)


def _readings(profile: LoadProfile, options: PipelineOptions,
              board: BoardCharacter, config: SensorConfig,
              calibration: Optional[CalibrationCurve], grid_s):
    """Window means to calibrated readings, outputs held (module docstring).

    The windows over ``schedule``'s boundaries ``grid_s`` tile where the
    sample period is the conversion time itself (``sample_period_us``'s
    ``max()`` returned it); elsewhere each window only ends at a boundary.
    """
    window_us = conversion_time_us(config)
    window_s = window_us * 1000.0 * 1e-9
    squares = board.current_quad != 0.0
    period_us = sample_period_us(options.named("driver", PROFILES), options.speed_khz, config)
    if period_us == window_us:
        means = profile.tiled_means(grid_s, window_s, squares)
    else:
        means = profile.window_means(grid_s[1:], window_s, squares)
    sensed = sense(options, board, *means)
    current, bus_v, saturated = quantize(*sensed, config)
    return (*calibrate(calibration, current, bus_v), saturated)


def run_pipeline(profile: LoadProfile, options: PipelineOptions,
                 trigger: TriggerSpec,
                 calibration: Optional[CalibrationCurve] = None,
                 trace_fh=None) -> PipelineResult:
    """Sample a load profile through the simulated measurement chain."""
    driver = options.named("driver", PROFILES)
    board = options.named("board", BOARDS)
    divider = options.pga_divider or pick_pga_divider(float(profile.current.max()))
    config = SensorConfig(pga_divider=divider,
                          resolution_bits=options.resolution_bits,
                          supply_voltage=options.supply_voltage)

    horizon_ns = round(profile.duration * 1e9)
    grid_s, ts = schedule(driver, options.speed_khz, config, trigger, horizon_ns)
    current, bus_v, saturated = _readings(profile, options, board, config,
                                          calibration, grid_s)
    del grid_s
    intervals = [(int(round(s * 1e9)), int(round(e * 1e9)), mode_index)
                 for s, e, mode_index in profile.power_save_intervals]
    trace, status, end_ns = build_trace(
        ts, bus_v, current, saturated, trigger, horizon_ns, intervals)

    flush_log, overruns = "", 0
    if trace_fh is not None:
        header = TraceHeader.from_config(config, driver.name, options.speed_khz)
        stats = persist(trace_fh, header, trace_to_records(trace), trace.timestamps_ns,
                        options.buffering, options.write_speed_bps)
        overruns = stats.overruns
        flush_log = "\n".join(f"{ts} flush {n}" for ts, n in stats.flush_log)

    modes = [PowerSaveMode(idx, amps, volts)
             for idx, amps, volts in profile.power_save_modes]
    e_gated = gated_energy(trace)
    # no interval, no power-save flag: the naive mask is the gated one
    e_naive = naive_energy(trace) if trace.intervals else e_gated
    e_hybrid = hybrid_energy(trace, modes) if modes else None
    e_device = e_hybrid if e_hybrid is not None else e_gated

    e_ref = exact_energy(profile, (max(trigger.start_ns, 0) * 1e-9, end_ns * 1e-9))
    error = abs(e_device - e_ref) / e_ref * 100.0 if e_ref > 0 else 0.0

    report = ExperimentReport(
        e_device_j=e_device, e_reference_j=e_ref, error_percent=error,
        sample_count=len(trace), overrun_count=overruns, status=status,
        config={
            "resolution_bits": config.resolution_bits,
            "pga_divider": config.pga_divider,
            "driver": driver.name,
            "speed_khz": options.speed_khz,
            "supply_voltage": config.supply_voltage,
            "board": board.name,
            "seed": options.seed,
            "calibrated": calibration is not None,
        })
    return PipelineResult(trace=trace, report=report, energy_gated_j=e_gated,
                          energy_naive_j=e_naive, energy_hybrid_j=e_hybrid,
                          flush_log=flush_log)


def run_experiment(preset: str, workload: int, options: PipelineOptions,
                   trigger: Optional[TriggerSpec] = None,
                   calibration: Optional[CalibrationCurve] = None,
                   source: str = "supply", duration: float = 30.0,
                   trace_fh=None) -> PipelineResult:
    """Generate a preset profile and measure it; 30s runs by default."""
    trigger = trigger or TriggerSpec.duration(duration)
    profile = generate_profile(preset, workload, seed=options.seed,
                               duration=duration, source=source)
    return run_pipeline(profile, options, trigger, calibration=calibration,
                        trace_fh=trace_fh)


def device_pipeline(options: PipelineOptions):
    """A ``profile -> Trace`` callable for calibration sweeps."""

    def run(profile: LoadProfile) -> Trace:
        trigger = TriggerSpec.duration(profile.duration)
        return run_pipeline(profile, options, trigger).trace

    return run

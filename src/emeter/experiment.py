"""End-to-end measurement experiments against synthetic loads.

This module wires the pieces together: a load profile plays into the sensor
model (window averaging, board transfer error, noise, quantization), the
bus-timing model sets the sample grid, the sampler rules decide which
samples count, and the reference meter supplies ground truth.  The sampling
math is vectorized over the whole run.

The register-level loop in :mod:`emeter.sampler` shares everything after the
register readings with this path: the quantizer expression, dequantization,
:func:`~emeter.sampler.build_trace` (window gating, flags, the power-save
intervals clipped to the window) and the energy estimates.  One difference
remains, in how the readings come about: this path integrates the exact
mean of the profile over each conversion window, while the chip model holds
the input constant between polls.  The tests cross-check the two on a
constant load, where that difference vanishes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from emeter.bus_timing import (
    PROFILES,
    DriverProfile,
    LOOP_OVERHEAD_US,
    TIMESTAMP_CALL_US,
    sample_period_us,
    validate_operating_point,
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
    dequantize_bus,
    dequantize_shunt,
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
    buffering: Optional[BufferPolicy] = None
    write_speed_bps: float = DEFAULT_WRITE_SPEED_BPS

    def driver_profile(self) -> DriverProfile:
        try:
            return PROFILES[self.driver]
        except KeyError:
            raise ValueError(f"unknown driver {self.driver!r}; have {sorted(PROFILES)}")

    def board_character(self) -> BoardCharacter:
        try:
            return BOARDS[self.board]
        except KeyError:
            raise ValueError(f"unknown board {self.board!r}; have {sorted(BOARDS)}")


@dataclass
class ExperimentReport:
    """Accuracy summary of one run against the reference meter."""

    e_device_j: float
    e_reference_j: float
    error_percent: float
    sample_count: int
    overrun_count: int
    status: str
    config: dict = field(default_factory=dict)

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
    modes: list
    flush_log: str = ""


def _readings(profile: LoadProfile, options: PipelineOptions,
              board: BoardCharacter, config: SensorConfig,
              calibration: Optional[CalibrationCurve],
              window_end_s: np.ndarray, window_s: float):
    """(bus volts, amperes, saturated) of the conversion windows ending at
    ``window_end_s``: window mean, board transfer, noise, quantization and
    the optional calibration."""
    # a function of its own so that the full-length intermediates are freed
    # before the readout and energy stages allocate theirs: inline, the
    # allocator trims and refaults that memory on every run (measured 10-30 %
    # slower per 9-bit op)
    window_start_s = window_end_s - window_s
    rng = np.random.default_rng(options.seed)
    mean_i = profile.integral_current(window_start_s, window_end_s) / window_s
    mean_v = profile.integral_voltage(window_start_s, window_end_s) / window_s
    mean_i2 = None
    if board.current_quad != 0.0:
        mean_i2 = profile.integral_current_sq(window_start_s, window_end_s) / window_s
    sensed_i = board.sense_current(mean_i, mean_i2)
    sensed_v = board.sense_voltage(mean_v)
    if options.noise_current_a > 0:
        sensed_i = sensed_i + rng.normal(0.0, options.noise_current_a, len(window_end_s))
    if options.noise_voltage_v > 0:
        sensed_v = sensed_v + rng.normal(0.0, options.noise_voltage_v, len(window_end_s))
    sensed_i = np.maximum(sensed_i, 0.0)

    shunt_count, sat_i = quantize_shunt_array(sensed_i, config)
    bus_count, sat_v = quantize_bus_array(sensed_v, config)
    current = dequantize_shunt(shunt_count, config)
    bus_v = dequantize_bus(bus_count, config)
    if calibration is not None:
        current = apply_current(calibration, current)
        bus_v = apply_voltage(calibration, bus_v)
    return bus_v, current, sat_i | sat_v


def run_pipeline(profile: LoadProfile, options: PipelineOptions,
                 trigger: TriggerSpec,
                 calibration: Optional[CalibrationCurve] = None,
                 trace_fh=None) -> PipelineResult:
    """Sample a load profile through the simulated measurement chain."""
    driver = options.driver_profile()
    board = options.board_character()
    divider = options.pga_divider or pick_pga_divider(float(profile.current.max()))
    config = SensorConfig(pga_divider=divider,
                          resolution_bits=options.resolution_bits,
                          supply_voltage=options.supply_voltage)
    validate_operating_point(driver, options.speed_khz, config.supply_voltage)

    period_ns = sample_period_us(driver, options.speed_khz, config) * 1000.0
    conv_ns = conversion_time_us(config) * 1000.0
    # timestamp lands after the final ready poll, the shunt read and the
    # bookkeeping; a constant offset past the conversion boundary
    tail_ns = (1.5 * driver.mean_delay_us(options.speed_khz)
               + LOOP_OVERHEAD_US + TIMESTAMP_CALL_US) * 1000.0

    horizon_ns = int(profile.duration * 1e9)
    limit_ns = horizon_ns if trigger.stop_ns is None else min(trigger.stop_ns, horizon_ns)

    n_conversions = int((limit_ns - tail_ns) // period_ns) if limit_ns > tail_ns else 0
    if trigger.sample_count is not None:
        # allow the count to be reached inside the horizon
        n_conversions = min(n_conversions,
                            int(trigger.start_ns // period_ns) + trigger.sample_count + 1)
    conv_index = np.arange(1, n_conversions + 1)
    ts = (conv_index * period_ns + tail_ns).astype(np.int64)
    bus_v, current, saturated = _readings(
        profile, options, board, config, calibration,
        conv_index * period_ns * 1e-9, conv_ns * 1e-9)
    intervals = [(int(round(s * 1e9)), int(round(e * 1e9)), mode_index)
                 for s, e, mode_index in profile.power_save_intervals]
    trace, status, end_ns = build_trace(
        ts, bus_v, current, saturated, conv_index, trigger, limit_ns, intervals)
    modes = [PowerSaveMode(idx, amps, volts)
             for idx, amps, volts in profile.power_save_modes]

    flush_log, overruns = "", 0
    if trace_fh is not None:
        header = TraceHeader.from_config(config, driver.name, options.speed_khz)
        stats = persist(trace_fh, header, trace_to_records(trace), trace.timestamps_ns,
                        options.buffering or DEFAULT_POLICY, options.write_speed_bps)
        overruns = stats.overruns
        flush_log = "\n".join(f"{ts} flush {n}" for ts, n in stats.flush_log)

    e_gated = gated_energy(trace)
    e_naive = naive_energy(trace)
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
                          modes=modes, flush_log=flush_log)


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

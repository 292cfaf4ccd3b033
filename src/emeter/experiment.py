"""End-to-end measurement experiments against synthetic loads.

:func:`run_pipeline` is a sequence of stages, each vectorized over the run:
:func:`schedule` (window boundaries and timestamps), the window means,
:func:`sense` (the board transfer), :func:`convert` (each channel's noise
and quantization) and :func:`calibrate`, then
:func:`~emeter.sampler.build_trace`, persistence, the energies, the
reference and the report.

Each channel adds Gaussian noise of its own sigma to the sensed value before
the chip quantizes it; the current is then clipped at zero amperes.  The
current channel draws from ``default_rng(seed)``, the bus channel from
``default_rng([seed, 1])``.  A reading draws only if its noise-free pre-floor
count lies within ``REACH * sigma`` counts of an integer, and then takes its
channel's next draw, in reading order; every other reading keeps its
noise-free count and saturation flag, which every possible draw would give
it too.  numpy's ziggurat never returns a normal of 12.23 or more in
magnitude (:data:`REACH`), and each draw is clipped at ``REACH`` = 12.25, a
clip that never binds, so the argument holds by construction: only the
stream layout depends on which readings draw, not the noise model.  A
reading therefore depends on its seed and its conversion alone, and moving
the stop leaves every earlier reading as it was.  Where the reach covers
half a count every reading draws, in order, with no classification pass:
the bus and the current at every 12-bit run with divider up to 4.  At 9 bit
one bus count is 156 sigma and one shunt count 39 sigma times the divider,
so the 30 s runs of workload 1 on the five presets skip 78 % of the draws.

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
window means to calibration; it lets the window means go once the board
transfer has read them, so that the conversion's working arrays reuse their
memory, and holds the later outputs until it returns, so that those arrays
are freed together before the readout stages allocate theirs.  Run as
perfbench's accuracy_sweep runs them (seeds 3, 4794 and 7, fitted curves,
the previous result alive), a 9-bit run takes a median of 66-248 minor page
faults; it took 281 when the noise was drawn for every reading, 529 with the
sparse draws while the means were held to the end, and 809 when every
arithmetic step allocated a fresh array.  Whether the allocator trims the
heap between runs flips with unrelated allocations, so these counts are a
guide, not a contract.

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
    bus_counts_array,
    conversion_time_us,
    floor_bus_array,
    floor_shunt_array,
    shunt_counts_array,
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


def sense(board: BoardCharacter, mean_i, mean_i2, mean_v):
    """(amperes, volts) at the chip: the board transfer of the window means."""
    return board.sense_current(mean_i, mean_i2), board.sense_voltage(mean_v)


#: No draw of numpy's ziggurat ``standard_normal`` lies REACH or farther
#: from zero.  A sample from a layer returns below the base strip's edge
#: r = 3.6542; a sample from the tail returns r + x, accepted only when
#: x**2 < -2 ln(1 - u) for a ``next_double`` u, and u <= 1 - 2**-53 bounds
#: that by 2 * 53 ln 2 = 73.5, so |z| < r + 8.572 = 12.23.
REACH = 12.25
#: Added to a channel's reach in counts, for the rounding of the quantizer
#: expressions: a noisy pre-floor count lies within a few roundings of its
#: own size, 5 * 2**-53 * |count|, of the noise-free count plus the draw's
#: share, which is below 2**-20 wherever |count| < 2**33 / 5.  Farther out a
#: reading is far beyond full scale and saturates alike under every draw.
REACH_SLACK_COUNTS = 2.0 ** -20


def convert(options: PipelineOptions, config: SensorConfig, sensed_i, sensed_v):
    """(amperes, volts, saturated) as the chip's registers read them back:
    each channel's noise, then its quantization (module docstring).  The
    current is clipped at zero amperes before it is quantized."""
    current, saturated = _channel(
        sensed_i, options.noise_current_a, options.seed, config.shunt_counts_per_amp,
        config, shunt_counts_array, floor_shunt_array, lowest=0.0)
    bus_v, sat_v = _channel(
        sensed_v, options.noise_voltage_v, [options.seed, 1],
        config.max_count / config.bus_range, config, bus_counts_array, floor_bus_array)
    saturated |= sat_v
    return current, bus_v, saturated


def _channel(sensed, sigma, key, counts_per_unit, config, counts, floor_counts,
             lowest=None):
    """(readings, saturated) of one channel through the quantizer split
    ``counts`` / ``floor_counts``, noise drawn from ``default_rng(key)``
    only for the readings near a count boundary."""
    reach = REACH * sigma * counts_per_unit + REACH_SLACK_COUNTS
    if sigma > 0 and reach >= 0.5:
        # every reading lies within reach of a count boundary
        return floor_counts(counts(_noisy(sensed, sigma, key, lowest), config), config)
    raw = counts(sensed if lowest is None else np.maximum(sensed, lowest), config)
    if not sigma > 0:
        return floor_counts(raw, config)
    near = _near(raw, reach)
    readings, saturated = floor_counts(raw, config)
    if len(near):
        noisy = counts(_noisy(sensed[near], sigma, key, lowest), config)
        readings[near], saturated[near] = floor_counts(noisy, config)
    return readings, saturated


def _near(raw, reach):
    """Indices of the pre-floor counts ``raw`` within ``reach`` of an integer."""
    distance = np.rint(raw)
    distance -= raw
    np.abs(distance, out=distance)
    return np.flatnonzero(distance <= reach)


def _noisy(sensed, sigma, key, lowest):
    """``sensed`` plus ``sigma`` times the first ``len(sensed)`` draws of
    ``default_rng(key)``, each clipped at +-REACH (a clip that never binds),
    and clipped below at ``lowest`` unless it is None."""
    noisy = np.random.default_rng(key).standard_normal(len(sensed))
    np.clip(noisy, -REACH, REACH, out=noisy)
    noisy *= sigma
    noisy += sensed
    if lowest is not None:
        np.maximum(noisy, lowest, out=noisy)
    return noisy


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
    sensed = sense(board, *means)
    del means
    current, bus_v, saturated = convert(options, config, *sensed)
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

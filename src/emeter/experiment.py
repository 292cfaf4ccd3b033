"""End-to-end measurement experiments against synthetic loads.

:func:`run_pipeline` is a sequence of stages, each vectorized over the run:
:func:`schedule` (window boundaries and timestamps), the window means,
:func:`sense` (the board transfer), :func:`convert` (each channel's noise
and quantization) and :func:`calibrate`, then
:func:`~emeter.sampler.build_trace`, persistence, the energies, the
reference and the report.  ``_readings`` runs the stages from the window
means to the quantization as one chain per channel, the bus's starting with
the one-count check below, and then the calibration.

Each channel adds Gaussian noise of its own sigma to the sensed value before
the chip quantizes it, through the :class:`~emeter.sensor.Channel` the chip
model latches through, ``config.shunt`` or ``config.bus``; the noisy current
is clipped at zero amperes before it is quantized.  The current channel
draws from ``default_rng(seed)``, the bus channel from
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
the bus and the current at every 12-bit run with divider up to 4.

The third case is a bus whose whole range is one count beyond the reach:
it reads that count with no window means and no draws.  The bus chain
checks this first: the lowest and highest level of the voltage part
(``LoadProfile.voltage_range``), widened by the rounding bound of the
computed means (beside :data:`REACH_SLACK_COUNTS`), go through the board
transfer and the quantizer's expressions, and rounding keeps the order of
values, so every reading's pre-floor count lies between those of the two
ends.  Where both lie inside one count and farther than the reach from both
its boundaries, every reading is that count and its flag: no window means,
no classification, no generator.  A preset's current spans many counts, so
the current has no such check.  At 9 bit one bus count is 156 sigma and one
shunt count 39 sigma times the divider.  A regulated supply's 2 mV band
reads as one bus count at every 9-bit point, at least 0.065 count beyond
the reach, so the 30 s runs of workload 1 on the five presets skip 78 % of
the draws: every bus reading, with its window means, and 56 % of the
current's.

:func:`schedule` decides where the conversion windows lie.  They tile
where the operating point's sample period is the conversion time itself
(:attr:`~emeter.bus_timing.OperatingPoint.tiles`), that is where the
polling loop keeps up with the chip: each window starts where the previous
one ended, and the bounds are the window boundaries.  Elsewhere a gap
separates the windows, and the bounds are one ``[start, end]`` row per
window.  ``OPERATING_POINTS`` in ``tests/test_experiment.py`` lists which
of the 28 supported points tile.  A profile's ``current_means`` and
``voltage_means`` integrate both forms, looking each part's cumulative
integral up once per bound: once per window where they tile, twice where
they do not.  Every window lies inside ``[0, duration]``.  Every profile is a
:class:`~emeter.workloads.LoadProfile`: a preset's integrates its parts, and
a general one its own segments.

Unless the options give a PGA divider, a run takes the smallest whose shunt
channel reads the profile's declared ``peak_current`` unsaturated (see
:mod:`emeter.workloads`), not the largest current the run meets, so the
divider of a preset's run does not depend on how long the run is.

A stage allocates only the arrays it returns and does its arithmetic in
place on arrays it allocated itself; it never writes to its inputs.  A 30 s
run at 9 bit has ~143k readings, so each full-length array is 1.1 MB, and
whenever the allocator has trimmed the heap between runs every such
allocation faults its pages in anew.  In each of ``_readings``' chains
the window means go once the board transfer has read them, so that the
conversion's working arrays reuse their memory, and the clip at ``lowest``
works in the counts array, which the quantizer floors in place.
``_readings`` holds the later outputs until it returns, so that those
arrays are freed together before the readout stages allocate theirs.
Whether the allocator trims the heap between runs flips with unrelated
allocations, so no test pins the faults this order saves.

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

from emeter.bus_timing import PROFILES, OperatingPoint
from emeter.buffering import DEFAULT_POLICY, DEFAULT_WRITE_SPEED_BPS, BufferPolicy, persist
from emeter.calibration import CalibrationCurve, apply_current, apply_voltage
from emeter.sampler import (
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
    VALID_PGA_DIVIDERS,
    Channel,
    SensorConfig,
)
from emeter.tracefile import TraceHeader, trace_to_records
from emeter.workloads import LoadProfile, exact_energy, generate_profile

DEFAULT_CURRENT_NOISE_A = 20e-6
DEFAULT_VOLTAGE_NOISE_V = 0.2e-3


def pick_pga_divider(max_current_a: float) -> int:
    """Smallest divider whose shunt channel reads the expected peak current
    without saturating, at the default shunt and resolution that every
    pipeline run's full scale rests on; the largest where none does."""
    for divider in VALID_PGA_DIVIDERS:
        if not SensorConfig(pga_divider=divider).shunt.quantize(max_current_a)[1]:
            return divider
    return VALID_PGA_DIVIDERS[-1]


@dataclass
class PipelineOptions:
    """Knobs of one simulated measurement run."""

    resolution_bits: int = 12
    driver: str = "bcm"
    speed_khz: int = 2500
    supply_voltage: float = 5.0
    pga_divider: Optional[int] = None  # None: auto from the profile's declared peak
    board: str = "shield"
    noise_current_a: float = DEFAULT_CURRENT_NOISE_A
    noise_voltage_v: float = DEFAULT_VOLTAGE_NOISE_V
    seed: int = 0
    buffering: BufferPolicy = DEFAULT_POLICY
    write_speed_bps: float = DEFAULT_WRITE_SPEED_BPS

    def __post_init__(self):
        # a negative sigma would still draw at the readings within
        # REACH_SLACK_COUNTS of a count boundary
        for name in ("noise_current_a", "noise_voltage_v"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)!r}")

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


def schedule(point: OperatingPoint, trigger: TriggerSpec, horizon_ns: int):
    """(window bounds s, timestamp ns) of the n conversions at ``point`` up
    to the trigger's limit at ``horizon_ns``, the bounds in the form
    a profile's ``window_means`` integrates.

    Conversion k's window ends at ``(k + 1) * period``.  Where the point's
    windows tile, the bounds are the n + 1 boundaries ``k * period`` for
    k = 0..n; elsewhere they are n ``[end - window, end]`` rows.  Each
    timestamp is its window's end plus the point's ``tail_ns``.
    """
    period_ns = point.period_us * 1000.0
    tail_ns = point.tail_ns
    limit_ns = trigger.limit_ns(horizon_ns)
    n_conversions = int((limit_ns - tail_ns) // period_ns) if limit_ns > tail_ns else 0
    if trigger.sample_count is not None:
        n_conversions = min(n_conversions,
                            int(trigger.start_ns // period_ns) + trigger.sample_count + 1)
    # a float grid, scaled in place: every index is exact as a double
    grid_ns = np.arange(n_conversions + 1, dtype=float)
    grid_ns *= period_ns
    bounds_s = grid_ns * 1e-9
    grid_ns += tail_ns
    if not point.tiles:
        end_s = bounds_s[1:]
        bounds_s = np.stack([end_s - point.window_s, end_s], axis=1)
    return bounds_s, grid_ns[1:].astype(np.int64)


def sense(board: BoardCharacter, mean_i, mean_i2, mean_v):
    """(amperes, volts) at the chip: the board transfer of the window means.
    With :func:`convert`, the per-reading stages of both channels at once,
    which ``_readings`` runs channel by channel."""
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
#:
#: The one-count check widens the range of a part's levels by the rounding
#: of the window means computed from it (``workloads._mean_range`` holds
#: the derivation): eps * L * ((m + 20) * T / w + 8), for a part of largest
#: level L, span T and m segments shorter than two windows w.  Each
#: interpolated cumulative integral is within six roundings of L * T; each
#: segment a window overlaps adds a rounding of the cumulative sum, L * T
#: at most, over the window, which overlaps at most m + 2 segments; and the
#: window bounds, each rounded once or twice, move the mean by eps * T / w
#: of a level.  For a 30 s 9-bit supply run that is about 1e-7 count,
#: against a margin of 0.065 count beyond the reach.
REACH_SLACK_COUNTS = 2.0 ** -20


def convert(options: PipelineOptions, config: SensorConfig, sensed_i, sensed_v):
    """(amperes, volts, saturated) as the chip's registers read them back:
    each channel's noise, then its quantization (module docstring).  The
    current is clipped at zero amperes before it is quantized."""
    shunt, bus = _noise(options, config)
    current, saturated = _channel(sensed_i, *shunt)
    bus_v, sat_v = _channel(sensed_v, *bus)
    saturated |= sat_v
    return current, bus_v, saturated


def _noise(options: PipelineOptions, config: SensorConfig):
    """(quantizer, sigma, stream key, lowest value) of the current channel,
    clipped at zero amperes, and of the bus channel."""
    return ((config.shunt, options.noise_current_a, options.seed, 0.0),
            (config.bus, options.noise_voltage_v, [options.seed, 1], None))


def _reach(channel: Channel, sigma: float) -> float:
    """How far, in counts, a draw of ``sigma`` can move a pre-floor count
    of ``channel``."""
    return REACH * sigma * (channel.scale * channel.per) + REACH_SLACK_COUNTS


def _channel(sensed, channel: Channel, sigma, key, lowest):
    """(readings, saturated) of ``sensed`` through ``channel``'s quantizer,
    noise drawn from ``default_rng(key)`` only for the readings near a count
    boundary."""
    reach = _reach(channel, sigma)
    if sigma > 0 and reach >= 0.5:
        # every reading lies within reach of a count boundary
        return channel.floor(channel.counts(_noisy(sensed, sigma, key, lowest)))
    raw = channel.counts(sensed)
    if lowest is not None:
        # the counts of sensed clipped at lowest: rounding keeps the order of values
        np.maximum(raw, lowest * channel.scale * channel.per, out=raw)
    near = _near(raw, reach)
    readings, saturated = channel.floor(raw)
    if len(near):
        noisy = channel.counts(_noisy(sensed[near], sigma, key, lowest))
        readings[near], saturated[near] = channel.floor(noisy)
    return readings, saturated


def _one_count(n: int, span, channel: Channel, sigma):
    """(readings, saturated) of ``n`` readings of one count where the noise's
    reach is under half a count and the pre-floor counts of ``span()``, the
    sensed (lowest, highest) window means, lie inside one count beyond the
    reach of both its boundaries (module docstring); else None."""
    reach = _reach(channel, sigma)
    if reach < 0.5:
        raw = channel.counts(span())
        if np.floor(raw[0]) == np.floor(raw[1]) and not len(_near(raw, reach)):
            readings, saturated = channel.floor(raw[:1])
            return np.full(n, readings[0]), np.full(n, saturated[0])
    return None


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
              board: BoardCharacter, point: OperatingPoint,
              calibration: Optional[CalibrationCurve], bounds_s):
    """Means over ``schedule``'s window bounds to calibrated readings, one
    chain per channel, the bus's starting with the one-count check (module
    docstring).  The current means come from the profile's current parts,
    with the mean of i**2 from its merged form where the board has a
    quadratic term; the voltage means and range from its voltage part."""
    window_s = point.window_s
    shunt, bus = _noise(options, point.config)
    current, saturated = _channel(board.sense_current(*profile.current_means(
        bounds_s, window_s, board.current_quad != 0.0)), *shunt)
    bus_v, sat_v = _one_count(len(current), lambda: board.sense_voltage(
        np.array(profile.voltage_range(window_s))), *bus[:2]) or _channel(
        board.sense_voltage(profile.voltage_means(bounds_s, window_s)), *bus)
    saturated |= sat_v
    return (*calibrate(calibration, current, bus_v), saturated)


def run_pipeline(profile: LoadProfile, options: PipelineOptions,
                 trigger: TriggerSpec,
                 calibration: Optional[CalibrationCurve] = None,
                 trace_fh=None) -> PipelineResult:
    """Sample a load profile through the simulated measurement chain."""
    driver = options.named("driver", PROFILES)
    board = options.named("board", BOARDS)
    divider = options.pga_divider or pick_pga_divider(profile.peak_current)
    config = SensorConfig(pga_divider=divider,
                          resolution_bits=options.resolution_bits,
                          supply_voltage=options.supply_voltage)

    point = OperatingPoint(driver, options.speed_khz, config)
    horizon_ns = round(profile.duration * 1e9)
    bounds_s, ts = schedule(point, trigger, horizon_ns)
    current, bus_v, saturated = _readings(profile, options, board, point,
                                          calibration, bounds_s)
    del bounds_s
    intervals = [(int(round(s * 1e9)), int(round(e * 1e9)), mode_index)
                 for s, e, mode_index in profile.power_save_intervals]
    trace, status, end_ns = build_trace(
        ts, bus_v, current, saturated, trigger, horizon_ns, intervals)

    flush_log, overruns = "", 0
    if trace_fh is not None:
        header = TraceHeader(config, driver.name, options.speed_khz)
        stats = persist(trace_fh, header, trace_to_records(trace), trace.timestamps_ns,
                        options.buffering, options.write_speed_bps)
        overruns = stats.overruns
        flush_log = "\n".join(f"{ts} flush {n}" for ts, n in stats.flush_log)

    e_gated = gated_energy(trace)
    # no interval, no power-save flag: the naive mask is the gated one
    e_naive = naive_energy(trace) if trace.intervals else e_gated
    e_hybrid = (hybrid_energy(trace, profile.power_save_modes)
                if profile.power_save_modes else None)
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

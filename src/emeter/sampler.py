"""Sampler loop, trapezoidal energy accounting and the hybrid sleep model.

Each collected sample carries a nanosecond timestamp, the bus voltage and
the (shunt-derived) current.  Energy accumulates trapezoid by trapezoid:

    increment = new_power*dt - (new_power - prev_power)*dt/2

which is the area under the straight line joining two consecutive power
points.  Samples flagged as warm-up or taken inside an announced power-save
interval stay in the trace but contribute nothing to the integral; a
trapezoid only counts when both of its endpoints are countable.  For device
sleep states whose constant draw sits below one current LSB, the hybrid
model replaces the unresolvable samples with declared-constant energy:

    E = sum over sleep intervals (t_end - t_start) * v_nominal * i_mode
      + sum over awake samples dt_j * p_j

where each sample's power is weighted by the time since its predecessor
(see :func:`hybrid_energy` for the boundary handling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from emeter.bus_timing import (
    DriverProfile,
    LOOP_OVERHEAD_US,
    TIMESTAMP_CALL_US,
    read_delay,
    validate_operating_point,
)
from emeter.sensor import (
    REG_BUS_VOLTAGE,
    REG_SHUNT_VOLTAGE,
    SensorConfig,
    bus_count_from_word,
    bus_overflow,
    conversion_ready,
    dequantize_bus,
    dequantize_shunt,
    shunt_count_from_word,
)

FLAG_SATURATED = 0x1
FLAG_WARMUP = 0x2
FLAG_POWER_SAVE = 0x4

DEFAULT_WARMUP_SAMPLES = 5
#: Sleep currents at or above one 12-bit LSB are resolvable and must not be
#: declared as analytic power-save modes.
POWER_SAVE_CURRENT_LIMIT_A = 100e-6


@dataclass
class Sample:
    """One timestamped reading."""

    timestamp_ns: int
    bus_voltage: float
    current: float
    flags: int = 0

    @property
    def warmup(self) -> bool:
        return bool(self.flags & FLAG_WARMUP)


@dataclass(frozen=True)
class PowerSaveMode:
    """A declared constant-current sleep state (below one LSB)."""

    mode_index: int
    constant_current: float
    nominal_voltage: float

    def __post_init__(self):
        if not 0.0 <= self.constant_current < POWER_SAVE_CURRENT_LIMIT_A:
            raise ValueError(
                "power-save current must be below the sensor LSB "
                f"({POWER_SAVE_CURRENT_LIMIT_A}A); measure it directly instead")

    @property
    def power(self) -> float:
        return self.nominal_voltage * self.constant_current


@dataclass(frozen=True)
class PowerModeEvent:
    kind: str  # 'enter' | 'exit'
    mode_index: int
    timestamp_ns: int

    def __post_init__(self):
        if self.kind not in ("enter", "exit"):
            raise ValueError(f"event kind must be enter/exit, got {self.kind!r}")


@dataclass(frozen=True)
class TriggerSpec:
    """Start/stop condition of a measurement."""

    mode: str  # 'duration' | 'count' | 'edges'
    duration_s: float = 0.0
    sample_count: int = 0
    edges: tuple = ()  # ((ns, 'fall'|'rise'), ...)

    @classmethod
    def duration(cls, seconds: float) -> "TriggerSpec":
        if seconds <= 0:
            raise ValueError("duration must be positive")
        return cls(mode="duration", duration_s=seconds)

    @classmethod
    def count(cls, n: int) -> "TriggerSpec":
        if n <= 0:
            raise ValueError("sample count must be positive")
        return cls(mode="count", sample_count=n)

    @classmethod
    def external_edges(cls, edges: Sequence[tuple]) -> "TriggerSpec":
        return cls(mode="edges", edges=tuple(edges))

    @classmethod
    def parse(cls, text: str) -> "TriggerSpec":
        """Parse ``duration:<s>``, ``count:<n>`` or ``edges:<file>``."""
        kind, _, value = text.partition(":")
        if kind == "duration":
            return cls.duration(float(value))
        if kind == "count":
            return cls.count(int(value))
        if kind == "edges":
            with open(value) as fh:
                return cls.external_edges(parse_trigger_edges(fh.read()))
        raise ValueError(f"unknown trigger spec {text!r}")

    def window_ns(self) -> tuple[int, Optional[int], str]:
        """(start_ns, stop_ns or None, status) implied by the trigger."""
        if self.mode == "duration":
            return 0, int(round(self.duration_s * 1e9)), "complete"
        if self.mode == "count":
            return 0, None, "complete"
        falls = [t for t, kind in self.edges if kind == "fall"]
        if not falls:
            raise ValueError("edge trigger stream has no start (fall) edge")
        start = falls[0]
        rises = [t for t, kind in self.edges if kind == "rise" and t > start]
        if not rises:
            return start, None, "unterminated"
        return start, rises[0], "complete"


# --------------------------------------------------------------------------
# Event stream parsing (simulation input files)
# --------------------------------------------------------------------------

def parse_trigger_edges(text: str) -> list[tuple[int, str]]:
    """Parse ``<ns> fall|rise`` lines."""
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            ts, kind = line.split()
            if kind not in ("fall", "rise"):
                raise ValueError
            edges.append((int(ts), kind))
        except ValueError:
            raise ValueError(f"bad trigger edge line {lineno}: {line!r}")
    return edges


def parse_power_mode_events(text: str) -> list[PowerModeEvent]:
    """Parse ``<ns> enter|exit <mode_index>`` lines."""
    events = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            ts, kind, idx = line.split()
            events.append(PowerModeEvent(kind, int(idx), int(ts)))
        except ValueError:
            raise ValueError(f"bad power-mode event line {lineno}: {line!r}")
    return events


def format_power_mode_events(events: Iterable[PowerModeEvent]) -> str:
    return "\n".join(f"{e.timestamp_ns} {e.kind} {e.mode_index}" for e in events)


# --------------------------------------------------------------------------
# Trace container
# --------------------------------------------------------------------------

class Trace:
    """Ordered sample arrays plus annotations and header metadata."""

    def __init__(self, timestamps_ns, bus_voltage, current, flags,
                 events: Sequence[PowerModeEvent] = (),
                 trigger_edges: Sequence[tuple] = (),
                 config: Optional[SensorConfig] = None,
                 driver_name: str = "bcm", bus_speed_khz: int = 2500,
                 start_clock_ns: int = 0):
        self.timestamps_ns = np.asarray(timestamps_ns, dtype=np.int64)
        self.bus_voltage = np.asarray(bus_voltage, dtype=float)
        self.current = np.asarray(current, dtype=float)
        self.flags = np.asarray(flags, dtype=np.uint8)
        n = len(self.timestamps_ns)
        if not (len(self.bus_voltage) == len(self.current) == len(self.flags) == n):
            raise ValueError("trace column lengths differ")
        if n > 1 and np.any(np.diff(self.timestamps_ns) <= 0):
            raise ValueError("trace timestamps must be strictly increasing")
        self.events = list(events)
        self.trigger_edges = list(trigger_edges)
        self.config = config
        self.driver_name = driver_name
        self.bus_speed_khz = bus_speed_khz
        self.start_clock_ns = start_clock_ns

    def __len__(self) -> int:
        return len(self.timestamps_ns)

    def __getitem__(self, i: int) -> Sample:
        return Sample(int(self.timestamps_ns[i]), float(self.bus_voltage[i]),
                      float(self.current[i]), int(self.flags[i]))

    def power(self) -> np.ndarray:
        return self.bus_voltage * self.current


# --------------------------------------------------------------------------
# Energy accounting
# --------------------------------------------------------------------------

def compute_energy(prev: Sample, new: Sample) -> float:
    """Trapezoidal energy increment between two samples, joules."""
    dt = (new.timestamp_ns - prev.timestamp_ns) * 1e-9
    if dt <= 0:
        raise ValueError("non-monotone timestamps: corrupt trace")
    new_power = new.bus_voltage * new.current
    prev_power = prev.bus_voltage * prev.current
    new_energy = new_power * dt
    new_energy -= (new_power - prev_power) * dt / 2.0
    return new_energy


@dataclass
class EnergyAccumulator:
    """Streaming trapezoid accumulator; uncountable samples break the chain."""

    energy: float = 0.0
    prev_sample: Optional[Sample] = None
    _prev_countable: bool = field(default=False, repr=False)

    def add(self, sample: Sample, countable: bool = True) -> float:
        increment = 0.0
        if self.prev_sample is not None and countable and self._prev_countable:
            increment = compute_energy(self.prev_sample, sample)
            self.energy += increment
        elif self.prev_sample is not None and sample.timestamp_ns <= self.prev_sample.timestamp_ns:
            raise ValueError("non-monotone timestamps: corrupt trace")
        self.prev_sample = sample
        self._prev_countable = countable
        return increment


def _segment_energy(ts_ns: np.ndarray, power: np.ndarray,
                    countable: np.ndarray) -> float:
    if len(ts_ns) < 2:
        return 0.0
    dt = np.diff(ts_ns) * 1e-9
    both = countable[:-1] & countable[1:]
    mids = (power[:-1] + power[1:]) / 2.0
    return float(np.sum(mids[both] * dt[both]))


def _countable_mask(trace: Trace, exclude_power_save: bool) -> np.ndarray:
    mask = (trace.flags & FLAG_WARMUP) == 0
    if exclude_power_save:
        mask &= (trace.flags & FLAG_POWER_SAVE) == 0
    return mask


def gated_energy(trace: Trace) -> float:
    """Trapezoidal energy excluding warm-up and power-save samples."""
    return _segment_energy(trace.timestamps_ns, trace.power(),
                           _countable_mask(trace, exclude_power_save=True))


def naive_energy(trace: Trace) -> float:
    """Trapezoidal energy over all post-warm-up samples, sleep included.

    Sleep currents below one LSB quantize to zero (or one count), so this
    estimate undercounts devices with announced power-save states.
    """
    return _segment_energy(trace.timestamps_ns, trace.power(),
                           _countable_mask(trace, exclude_power_save=False))


def _validated_intervals(events: Sequence[PowerModeEvent],
                         modes: dict[int, PowerSaveMode]) -> list[tuple[int, int, int]]:
    """Pair enter/exit events into (start, end, mode) intervals."""
    open_enter: dict[int, int] = {}
    intervals = []
    for ev in sorted(events, key=lambda e: e.timestamp_ns):
        if ev.mode_index not in modes:
            raise ValueError(f"event references undeclared mode {ev.mode_index}")
        if ev.kind == "enter":
            if ev.mode_index in open_enter:
                raise ValueError(f"double enter for mode {ev.mode_index}")
            open_enter[ev.mode_index] = ev.timestamp_ns
        else:
            if ev.mode_index not in open_enter:
                raise ValueError(f"exit without enter for mode {ev.mode_index}")
            start = open_enter.pop(ev.mode_index)
            if ev.timestamp_ns <= start:
                raise ValueError("power-save exit must follow its enter")
            intervals.append((start, ev.timestamp_ns, ev.mode_index))
    if open_enter:
        raise ValueError(f"unmatched enter events for modes {sorted(open_enter)}")
    intervals.sort()
    for (s0, e0, m0), (s1, e1, m1) in zip(intervals, intervals[1:]):
        if s1 < e0 and m0 != m1:
            raise ValueError("overlapping power-save intervals of different modes")
    return intervals


def hybrid_energy(trace: Trace, modes: Sequence[PowerSaveMode],
                  events: Optional[Sequence[PowerModeEvent]] = None) -> float:
    """Declared-constant energy for sleep intervals plus the awake sum.

    Sleep intervals contribute ``(t_end - t_start) * v_nominal * i_mode``.
    Awake samples contribute ``dt_j * p_j``, each sample's power weighted by
    the time since its predecessor: a delta-sigma reading is the mean of its
    conversion window, so the duration-weighted sum reconstructs the exact
    integral of the analog signal over the awake windows, which tiles
    cleanly against announced sleep boundaries (a trapezoid chain would
    systematically mistreat the boundary-straddling segments).  Samples
    flagged power-save contribute nothing; the awake sliver left uncovered
    ahead of an enter edge (its window got dropped with the flagged sample)
    is recovered by zero-order hold from the last awake sample, whose power
    is stable right before a sleep transition.  The first sample of a
    measurement has no predecessor and contributes nothing.  With no sleep
    events the sum degenerates to the plain integral of the trace.
    """
    mode_map = {m.mode_index: m for m in modes}
    ev = trace.events if events is None else events
    intervals = _validated_intervals(ev, mode_map)
    ts = trace.timestamps_ns
    power = trace.power()
    countable = _countable_mask(trace, exclude_power_save=True)
    energy = 0.0
    if len(trace) >= 2:
        dt = np.diff(ts) * 1e-9
        energy = float(np.sum(power[1:][countable[1:]] * dt[countable[1:]]))
    for start_ns, end_ns, mode_index in intervals:
        mode = mode_map[mode_index]
        energy += (end_ns - start_ns) * 1e-9 * mode.power
    energy += _enter_slivers(trace, intervals)
    return energy


def _enter_slivers(trace: Trace, intervals: Sequence[tuple]) -> float:
    """Zero-order-hold energy between the last awake sample and an enter edge.

    Applied only when the sample right after that awake one is power-save
    flagged (its window, which contained the sliver, was dropped); otherwise
    the next sample's duration-weighted term already covers the span.
    """
    if not intervals or len(trace) == 0:
        return 0.0
    ts = trace.timestamps_ns
    power = trace.power()
    flagged = (trace.flags & FLAG_POWER_SAVE) != 0
    awake_idx = np.nonzero(_countable_mask(trace, exclude_power_save=True))[0]
    if len(awake_idx) == 0:
        return 0.0
    awake_ts = ts[awake_idx]
    energy = 0.0
    for start_ns, _end_ns, _mode in intervals:
        i = int(np.searchsorted(awake_ts, start_ns)) - 1
        if i < 0:
            continue
        last = int(awake_idx[i])
        if last + 1 < len(trace) and flagged[last + 1] and start_ns > ts[last]:
            energy += float(power[last]) * (start_ns - int(ts[last])) * 1e-9
    return energy


def flag_power_save(timestamps_ns: np.ndarray,
                    intervals: Sequence[tuple[int, int, int]]) -> np.ndarray:
    """Flag bits for samples falling inside any [start, end] interval."""
    flags = np.zeros(len(timestamps_ns), dtype=np.uint8)
    for start_ns, end_ns, _ in intervals:
        inside = (timestamps_ns >= start_ns) & (timestamps_ns <= end_ns)
        flags[inside] |= FLAG_POWER_SAVE
    return flags


# --------------------------------------------------------------------------
# Readout stage shared by both samplers
# --------------------------------------------------------------------------

def build_trace(timestamps_ns, bus_voltage, current, saturated, conversion_index,
                trigger: TriggerSpec, limit_ns: Optional[int],
                intervals: Sequence[tuple[int, int, int]],
                warmup_samples: int, **meta) -> tuple[Trace, str]:
    """Gate, flag and annotate per-reading arrays into a trace.

    One entry per reading, in increasing timestamp order: its timestamp, bus
    volts and amperes, whether the chip saturated, and the 1-based index of
    the conversion it came from.  Readings outside the trigger window
    ``[start, limit_ns]`` (open-ended when ``limit_ns`` is None), and past
    the count of a count trigger, are dropped.  Power-save ``(start_ns,
    end_ns, mode)`` intervals are clipped to the window and flag the
    readings they cover.  Returns the trace, whose events are the clipped
    intervals' enter/exit edges, and the trigger status: ``'unterminated'``
    when the window never closed or the count was not reached.
    """
    start_ns, _, status = trigger.window_ns()
    ts = np.asarray(timestamps_ns, dtype=np.int64)
    lo = int(np.searchsorted(ts, start_ns, side="left"))
    hi = len(ts) if limit_ns is None else int(np.searchsorted(ts, limit_ns, side="right"))
    if trigger.mode == "count":
        hi = min(hi, lo + trigger.sample_count)
        if hi - lo < trigger.sample_count:
            status = "unterminated"
    ts = ts[lo:hi]

    clipped = []
    for s, e, mode_index in intervals:
        s = max(s, start_ns)
        if limit_ns is not None:
            e = min(e, limit_ns)
        if e > s:
            clipped.append((s, e, mode_index))
    flags = flag_power_save(ts, clipped)
    flags[np.asarray(saturated, dtype=bool)[lo:hi]] |= FLAG_SATURATED
    flags[np.asarray(conversion_index)[lo:hi] <= warmup_samples] |= FLAG_WARMUP

    events = [PowerModeEvent("enter", m, s) for s, e, m in clipped]
    events += [PowerModeEvent("exit", m, e) for s, e, m in clipped]
    events.sort(key=lambda ev: ev.timestamp_ns)
    trace = Trace(ts, np.asarray(bus_voltage)[lo:hi], np.asarray(current)[lo:hi],
                  flags, events=events, trigger_edges=list(trigger.edges), **meta)
    return trace, status


# --------------------------------------------------------------------------
# Register-level measurement loop
# --------------------------------------------------------------------------

@dataclass
class MeasurementResult:
    trace: Trace
    energy_j: float
    overruns: int
    status: str  # 'complete' | 'unterminated'


def run_measurement(bus, load, driver: DriverProfile, speed_khz: int,
                    config: SensorConfig, trigger: TriggerSpec,
                    writer=None, events: Sequence[PowerModeEvent] = (),
                    modes: Sequence[PowerSaveMode] = (),
                    warmup_samples: int = DEFAULT_WARMUP_SAMPLES,
                    rng: Optional[np.random.Generator] = None,
                    horizon_ns: Optional[int] = None,
                    max_samples: int = 2_000_000) -> MeasurementResult:
    """Run the polling sampler against a simulated bus.

    ``bus`` is a :class:`~emeter.sensor.BusBackend` whose sensor must be
    advanced against the load; ``load`` maps a nanosecond timestamp to an
    ``(amperes, volts)`` pair.  The loop polls the bus-voltage register until
    the ready flag is set, reads the shunt register and timestamps the pair.
    The sensor is never power-cycled: readings outside the trigger window
    are simply discarded.  The kept readings go through :func:`build_trace`
    and, in order and at their timestamps, to the optional buffered
    ``writer``.  ``horizon_ns`` bounds the run when the trigger itself never
    stops (an unterminated edge stream, or a count trigger the load cannot
    satisfy).
    """
    validate_operating_point(driver, speed_khz, config.supply_voltage)
    start_ns, stop_ns, _ = trigger.window_ns()
    limit_ns = stop_ns if stop_ns is not None else horizon_ns
    mode_map = {m.mode_index: m for m in modes}
    intervals = _validated_intervals(events, mode_map) if events else []

    def sensor_step(now_ns: int):
        amps, volts = load(now_ns)
        bus.sensor.step(amps, volts, now_ns)

    overhead_ns = (LOOP_OVERHEAD_US + TIMESTAMP_CALL_US) * 1000.0
    count_target = trigger.sample_count if trigger.mode == "count" else None
    # (timestamp, bus count, shunt count, overflow, conversion index)
    readings: list[tuple[int, int, int, bool, int]] = []
    now = 0.0  # simulation clock, ns
    conversions_seen = 0

    def next_delay_ns() -> float:
        return read_delay(driver, speed_khz, rng,
                          config.supply_voltage) * 1000.0

    while len(readings) < max_samples:
        # poll the ready bit (the successful poll carries the bus value)
        while True:
            now += next_delay_ns()
            sensor_step(int(now))
            bus_word = bus.read_register(REG_BUS_VOLTAGE)
            if conversion_ready(bus_word):
                break
        conversions_seen += 1
        now += next_delay_ns()
        sensor_step(int(now))
        shunt_word = bus.read_register(REG_SHUNT_VOLTAGE)
        now += overhead_ns
        ts = int(now)

        if ts >= start_ns and (limit_ns is None or ts <= limit_ns):
            readings.append((ts, bus_count_from_word(bus_word),
                             shunt_count_from_word(shunt_word),
                             bus_overflow(bus_word), conversions_seen))
        if len(readings) == count_target:
            break
        if limit_ns is not None and now > limit_ns:
            break

    ts, bus_count, shunt_count, overflow, conv_index = \
        np.array(readings, dtype=np.int64).reshape(-1, 5).T
    trace, status = build_trace(
        ts, dequantize_bus(bus_count, config),
        dequantize_shunt(shunt_count, config), overflow, conv_index,
        trigger, limit_ns, intervals, warmup_samples, config=config,
        driver_name=driver.name, bus_speed_khz=speed_khz)
    if writer is not None:
        from emeter.tracefile import trace_to_records  # imports this module
        writer.extend(trace_to_records(trace), trace.timestamps_ns)
    overruns = writer.overruns if writer is not None else 0
    return MeasurementResult(trace=trace, energy_j=gated_energy(trace),
                             overruns=overruns, status=status)

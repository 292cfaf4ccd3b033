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

The load profile declares each sleep mode as a :class:`PowerSaveMode` in
``LoadProfile.power_save_modes`` and each sleep span in seconds, as
``(start_s, end_s, mode_index)`` in ``LoadProfile.power_save_intervals``;
the profile refuses a span whose mode it does not declare, and two modes
with one index (:func:`modes_by_index`, which :func:`hybrid_energy` applies too).
``run_pipeline`` rounds a span to a ``(start_ns, end_ns, mode_index)``
interval, its form from then on: the samplers take it, and :class:`Trace`
holds it, sorted, non-empty and overlapping no other span.  Both samplers
hand :func:`build_trace` every reading of the run; it is the one gate of the
window a :class:`TriggerSpec` resolved, and clips the sleep intervals to it;
the trace carries those intervals, and every later stage reads them there.
:func:`flag_power_save` flags the readings of each interval as one slice.

A reading is a whole number of micro-units: :class:`Trace` rounds its
``bus_voltage`` and ``current`` half-even to microvolts and microamperes
(``x * 1e6``, ``rint``, ``* 1e-6``; :func:`build_trace` in place), refusing
a reading outside int32 micro-units, NaN or INT32_MIN (the trace format's
gap marker).  A trace file stores these micro-units and
:meth:`Trace.from_micro` takes them back unrounded, so the energies, the
report and the file rest on one set of numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from emeter.bus_timing import OVERHEAD_US, DriverProfile, OperatingPoint, read_delays_us
from emeter.sensor import (
    REG_BUS_VOLTAGE,
    REG_SHUNT_VOLTAGE,
    SensorConfig,
    bus_count_from_word,
    bus_overflow,
    conversion_ready,
    shunt_count_from_word,
)

FLAG_SATURATED = 0x1
FLAG_WARMUP = 0x2
FLAG_POWER_SAVE = 0x4

DEFAULT_WARMUP_SAMPLES = 5
#: One count of the default 12-bit shunt channel: a sleep draw at or above
#: it reads as counts, so it is measured, not declared a power-save mode.
POWER_SAVE_CURRENT_LIMIT_A = SensorConfig().shunt.reading(1)


@dataclass
class Sample:
    """One timestamped reading."""

    timestamp_ns: int
    bus_voltage: float
    current: float


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


def modes_by_index(modes: Sequence[PowerSaveMode]) -> dict:
    """``modes`` keyed by their ``mode_index``, which each may declare once."""
    by_index = {}
    for mode in modes:
        if mode.mode_index in by_index:
            raise ValueError(f"power-save mode {mode.mode_index} is declared twice")
        by_index[mode.mode_index] = mode
    return by_index


@dataclass(frozen=True)
class TriggerSpec:
    """Measurement window of a trigger, resolved when it is built.

    Readings count from ``start_ns`` until ``stop_ns`` (None: open-ended,
    the run's horizon closes it) or until ``sample_count`` readings were
    kept (None: no count); :meth:`limit_ns` is the window's last instant.
    """

    start_ns: int = 0
    stop_ns: Optional[int] = None
    sample_count: Optional[int] = None

    @classmethod
    def duration(cls, seconds: float) -> "TriggerSpec":
        if not 0 < seconds * 1e9 < 2 ** 63:
            raise ValueError("duration must be finite and positive, and fit in int64 "
                             f"nanoseconds, got {seconds}")
        return cls(stop_ns=int(round(seconds * 1e9)))

    def limit_ns(self, horizon_ns: Optional[int]) -> Optional[int]:
        """The stop cut at the run's ``horizon_ns``; None when neither is set."""
        return min((t for t in (self.stop_ns, horizon_ns) if t is not None), default=None)

    @classmethod
    def count(cls, n: int) -> "TriggerSpec":
        if n < DEFAULT_WARMUP_SAMPLES + 2:
            raise ValueError(
                f"sample count must be at least {DEFAULT_WARMUP_SAMPLES + 2}: "
                f"the first {DEFAULT_WARMUP_SAMPLES} samples are warm-up and "
                f"a trapezoid needs two more, got {n}")
        return cls(sample_count=n)

    @classmethod
    def external_edges(cls, edges: Sequence[tuple]) -> "TriggerSpec":
        """The window from the first fall edge to the first rise after it
        (open-ended when no rise follows)."""
        falls = [t for t, kind in edges if kind == "fall"]
        if not falls:
            raise ValueError("edge trigger stream has no start (fall) edge")
        start = falls[0]
        rises = [t for t, kind in edges if kind == "rise" and t > start]
        return cls(start_ns=start, stop_ns=rises[0] if rises else None)

    @classmethod
    def parse(cls, text: str) -> "TriggerSpec":
        """Parse ``duration:<s>``, ``count:<n>`` or ``edges:<file>``."""
        kind, _, value = text.partition(":")
        try:
            if kind == "duration":
                return cls.duration(float(value))
            if kind == "count":
                return cls.count(int(value))
        except ValueError as exc:
            raise ValueError(f"trigger spec {text!r}: {exc}") from None
        if kind == "edges":
            with open(value) as fh:
                lines = fh.read()
            try:
                return cls.external_edges(parse_trigger_edges(lines))
            except ValueError as exc:
                raise ValueError(f"{value}: {exc}") from None
        raise ValueError(f"unknown trigger spec {text!r}")


# --------------------------------------------------------------------------
# Trigger edge parsing (simulation input files)
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


# --------------------------------------------------------------------------
# Trace container
# --------------------------------------------------------------------------

def _sorted_intervals(intervals: Sequence[tuple]) -> list[tuple]:
    """The ``(start_ns, end_ns, mode_index)`` intervals in order, each
    non-empty and none overlapping another (touching ones may follow each
    other)."""
    intervals = sorted(intervals)
    if any(end <= start for start, end, _ in intervals):
        raise ValueError("power-save exit must follow its enter")
    if any(s1 < e0 for (_, e0, _), (s1, _, _) in zip(intervals, intervals[1:])):
        raise ValueError("overlapping power-save intervals")
    return intervals


def _micro(name: str, column: np.ndarray) -> np.ndarray:
    """``column``, a float array the caller gives up, in micro-units rounded
    half-even in place, or a ValueError naming the first reading refused."""
    column *= 1e6
    np.rint(column, out=column)
    column += 0.0  # an int32 has no -0: rint(-0.3) is -0.0, and -0.0 + 0.0 is 0.0
    # min and max carry a NaN, which fails both tests
    if len(column) and not (column.min() > -2 ** 31 and column.max() < 2 ** 31):
        i = int(np.argmax(~((column > -2 ** 31) & (column < 2 ** 31))))
        raise ValueError(f"sample {i}: {name} {float(column[i]) / 1e6!r} is outside "
                         "the trace format's int32 micro-units")
    return column


class Trace:
    """Ordered sample arrays, each reading a whole number of micro-units
    (module docstring), plus the power-save intervals inside them; a trace
    file's metadata is the header that :func:`~emeter.tracefile.read_trace`
    returns."""

    def __init__(self, timestamps_ns, bus_voltage, current, flags,
                 intervals: Sequence[tuple[int, int, int]] = ()):
        self._hold(timestamps_ns, _micro("bus_voltage", np.array(bus_voltage, dtype=float)),
                   _micro("current", np.array(current, dtype=float)), flags, intervals)

    @classmethod
    def from_micro(cls, timestamps_ns, bus_uv, current_ua) -> "Trace":
        """The trace of a file's readings, unflagged whole micro-units, unrounded."""
        trace = cls.__new__(cls)
        micro = [np.array(column, dtype=float) for column in (bus_uv, current_ua)]
        trace._hold(timestamps_ns, *micro, np.zeros(len(timestamps_ns), dtype=np.uint8), ())
        return trace

    def _hold(self, timestamps_ns, bus_uv, current_ua, flags, intervals) -> None:
        """Hold the columns, scaling its own float micro-units to volts and amperes."""
        self.timestamps_ns = np.asarray(timestamps_ns, dtype=np.int64)
        self.bus_voltage = np.multiply(bus_uv, 1e-6, out=bus_uv)
        self.current = np.multiply(current_ua, 1e-6, out=current_ua)
        self.flags = np.asarray(flags, dtype=np.uint8)
        n = len(self.timestamps_ns)
        if not (len(self.bus_voltage) == len(self.current) == len(self.flags) == n):
            raise ValueError("trace column lengths differ")
        # compared, not differenced: a difference can overflow int64
        if np.any(self.timestamps_ns[1:] <= self.timestamps_ns[:-1]):
            raise ValueError("trace timestamps must be strictly increasing")
        #: sorted, disjoint ``(start_ns, end_ns, mode_index)`` power-save intervals
        self.intervals = _sorted_intervals(intervals)

    def __len__(self) -> int:
        return len(self.timestamps_ns)

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

    energy: float = field(default=0.0, init=False)
    prev_sample: Optional[Sample] = field(default=None, init=False)
    _prev_countable: bool = field(default=False, init=False, repr=False)

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


def trapezoid_steps(ts_ns: np.ndarray,
                    countable: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid step lengths in seconds, and the mask of steps whose two
    samples are both countable."""
    return np.diff(ts_ns) * 1e-9, countable[:-1] & countable[1:]


def trapezoid(power: np.ndarray, dt_s: np.ndarray, both: np.ndarray) -> float:
    """Sum of the trapezoids of ``power`` over the ``both`` steps."""
    mids = power[:-1] + power[1:]
    mids /= 2.0
    mids *= dt_s
    return float(np.sum(mids[both]))


def _segment_energy(ts_ns: np.ndarray, power: np.ndarray,
                    countable: np.ndarray) -> float:
    return trapezoid(power, *trapezoid_steps(ts_ns, countable))


def countable_mask(trace: Trace, exclude_power_save: bool) -> np.ndarray:
    mask = (trace.flags & FLAG_WARMUP) == 0
    if exclude_power_save:
        mask &= (trace.flags & FLAG_POWER_SAVE) == 0
    return mask


def gated_energy(trace: Trace) -> float:
    """Trapezoidal energy excluding warm-up and power-save samples."""
    return _segment_energy(trace.timestamps_ns, trace.power(),
                           countable_mask(trace, exclude_power_save=True))


def naive_energy(trace: Trace) -> float:
    """Trapezoidal energy over all post-warm-up samples, sleep included.

    Sleep currents below one LSB quantize to zero (or one count), so this
    estimate undercounts devices with announced power-save states.
    """
    return _segment_energy(trace.timestamps_ns, trace.power(),
                           countable_mask(trace, exclude_power_save=False))


def hybrid_energy(trace: Trace, modes: Sequence[PowerSaveMode]) -> float:
    """Declared-constant energy for sleep intervals plus the awake sum.

    Sleep intervals contribute ``(t_end - t_start) * v_nominal * i_mode``.
    Awake samples contribute ``dt_j * p_j``, each sample's power weighted by
    the time since its predecessor: a delta-sigma reading is the mean of its
    conversion window, so the duration-weighted sum reconstructs the
    integral of the analog signal over the awake windows (a trapezoid chain
    would systematically mistreat the boundary-straddling segments).
    Samples flagged power-save contribute nothing, and the first sample of a
    measurement has no predecessor and contributes nothing.  With no sleep
    intervals the sum degenerates to the plain integral of the trace.

    The two sleep edges are not treated alike.  Enter: an awake sample ``j``
    whose successor is flagged holds its power up to ``s``, the start of the
    last interval that starts at or before ``t[j+1]``, when ``s > t[j]``
    (the window that held this sliver was dropped with the flagged sample).
    Exit: the first awake sample after an interval is weighted back to its
    flagged predecessor, so the stretch from that predecessor to the exit
    edge is charged twice, once at the mode's draw and once at the sample's
    power.  The overlap is kept on purpose.  On the cc2650 presets it offsets
    some other low bias of the estimate: weighted from the exit edge alone,
    their calibrated 12-bit hybrid energy lies farther from the reference
    than the naive one.
    """
    mode_map = modes_by_index(modes)
    ts = trace.timestamps_ns
    power = trace.power()
    countable = countable_mask(trace, exclude_power_save=True)
    weighted = np.diff(ts) * 1e-9
    weighted *= power[1:]
    energy = float(np.sum(weighted[countable[1:]]))
    for start_ns, end_ns, mode_index in trace.intervals:
        if mode_index not in mode_map:
            raise ValueError(f"interval references undeclared mode {mode_index}")
        energy += (end_ns - start_ns) * 1e-9 * mode_map[mode_index].power
    # the enter slivers: j awake, j + 1 flagged, s the last start by t[j + 1]
    j = np.flatnonzero(countable[:-1] & ((trace.flags[1:] & FLAG_POWER_SAVE) != 0))
    starts = np.array([iv[0] for iv in trace.intervals], dtype=np.int64)
    k = np.searchsorted(starts, ts[j + 1], side="right") - 1
    j, s = j[k >= 0], starts[k[k >= 0]]
    slivers = 0.0
    # one addition per term in interval order (sum() compensates from 3.12 on)
    for term in (power[j] * (s - ts[j]) * 1e-9)[s > ts[j]].tolist():
        slivers += term
    return energy + slivers


def flag_power_save(timestamps_ns: np.ndarray,
                    intervals: Sequence[tuple[int, int, int]]) -> np.ndarray:
    """Flag bits for the samples inside any closed ``[start, end]`` interval.

    ``timestamps_ns`` increase, so the samples of one interval are one slice,
    from its first sample at or after ``start`` to its last at or before
    ``end``; intervals may overlap and come in any order.
    """
    flags = np.zeros(len(timestamps_ns), dtype=np.uint8)
    for start_ns, end_ns, _ in intervals:
        flags[np.searchsorted(timestamps_ns, start_ns):
              np.searchsorted(timestamps_ns, end_ns, side="right")] = FLAG_POWER_SAVE
    return flags


# --------------------------------------------------------------------------
# Readout stage shared by both samplers
# --------------------------------------------------------------------------

def build_trace(timestamps_ns, bus_voltage, current, saturated,
                trigger: TriggerSpec, horizon_ns: Optional[int],
                intervals: Sequence[tuple[int, int, int]]
                ) -> tuple[Trace, str, Optional[int]]:
    """Gate, flag and annotate every reading of a run into a trace.

    One entry per reading since the run started, in increasing timestamp
    order: its timestamp, bus volts and amperes, and whether the chip
    saturated; the run's first :data:`DEFAULT_WARMUP_SAMPLES` readings are
    flagged warm-up.  Readings outside ``[trigger.start_ns, limit]``, with
    the limit ``trigger.limit_ns(horizon_ns)`` (open-ended when None), and
    past the count of a count trigger, are dropped.  The window ends at
    ``end_ns``: the last counted reading of a count trigger, else the limit.
    Power-save ``(start_ns, end_ns, mode)`` intervals are clipped to the
    window, kept on the trace, and flag the readings they cover.  Returns
    the trace, the trigger status (``'unterminated'`` when the trigger sets
    neither a stop nor a count, its stop lies past ``horizon_ns``, or the
    count was not reached) and ``end_ns``.
    """
    count = trigger.sample_count
    limit_ns = trigger.limit_ns(horizon_ns)
    ts = np.asarray(timestamps_ns, dtype=np.int64)
    lo = int(np.searchsorted(ts, trigger.start_ns, side="left"))
    hi = len(ts) if limit_ns is None else int(np.searchsorted(ts, limit_ns, side="right"))
    end_ns = limit_ns
    if count is not None:
        hi = min(hi, lo + count)
        if hi > lo:
            end_ns = int(ts[hi - 1])
    complete = ((count is None and trigger.stop_ns is not None and trigger.stop_ns == limit_ns)
                or hi - lo == count)
    ts = ts[lo:hi]

    upper = math.inf if end_ns is None else end_ns
    clipped = [(max(s, trigger.start_ns), min(e, upper), m) for s, e, m in intervals]
    clipped = [(s, e, m) for s, e, m in clipped if e > s]
    flags = flag_power_save(ts, clipped)
    flags[np.asarray(saturated, dtype=bool)[lo:hi]] |= FLAG_SATURATED
    flags[:max(DEFAULT_WARMUP_SAMPLES - lo, 0)] |= FLAG_WARMUP
    # the samplers' own readings, rounded in place: the trace holds them
    trace = Trace.__new__(Trace)
    trace._hold(ts, _micro("bus_voltage", np.asarray(bus_voltage, dtype=float)[lo:hi]),
                _micro("current", np.asarray(current, dtype=float)[lo:hi]), flags, clipped)
    return trace, "complete" if complete else "unterminated", end_ns


# --------------------------------------------------------------------------
# Register-level measurement loop
# --------------------------------------------------------------------------

#: Read delays the polling loop draws from the generator at a time.
_DELAY_BLOCK = 4096
#: Readings, in the window or not, after which the polling loop stops.
_MAX_READINGS = 2_000_000


@dataclass
class MeasurementResult:
    trace: Trace
    energy_j: float
    overruns: int  # always 0: no file is written; kept for the perfbench digest
    status: str  # 'complete' | 'unterminated'


def run_measurement(bus, load, driver: DriverProfile, speed_khz: int,
                    config: SensorConfig, trigger: TriggerSpec,
                    intervals: Sequence[tuple[int, int, int]] = (),
                    rng: Optional[np.random.Generator] = None,
                    horizon_ns: Optional[int] = None) -> MeasurementResult:
    """Run the polling sampler against a simulated bus.

    ``bus`` is a :class:`~emeter.sensor.SimulatedBus`: the loop reads
    registers through its ``read_register`` and, before each read, advances
    its ``sensor`` against the load with ``sensor.step``.  ``config`` must
    equal the sensor's own: its channels quantized the counts the loop reads
    back through them.
    ``load`` maps a nanosecond timestamp to an ``(amperes, volts)`` pair.
    The loop polls the bus-voltage register until the ready flag is set,
    reads the shunt register and timestamps the pair.  The sensor is never
    power-cycled; the loop keeps every reading until the trigger's
    :meth:`~TriggerSpec.limit_ns`, or until ``sample_count`` readings at or
    after ``start_ns`` are in.  ``intervals`` are the device's announced
    ``(start_ns, end_ns, mode_index)`` power-save spans, as
    :func:`build_trace` takes them; an empty or overlapping one fails before
    the first register read.  The result is the :func:`build_trace` of all
    the readings and its :func:`gated_energy`; no file is written.
    ``horizon_ns`` bounds the run: it closes a trigger that never stops (an
    unterminated edge stream, or a count trigger the load cannot satisfy)
    and cuts a stop past it.  With ``rng`` every read takes a jittered delay
    (see :func:`~emeter.bus_timing.read_delays_us`); the loop draws them in
    blocks and leaves ``rng`` in the state one draw per read would have left.
    """
    if config != bus.sensor.config:
        raise ValueError(f"config {config} differs from the sensor's "
                         f"{bus.sensor.config}, which quantizes the readings")
    point = OperatingPoint(driver, speed_khz, config)
    limit_ns = trigger.limit_ns(horizon_ns)
    intervals = _sorted_intervals(intervals)

    overhead_ns = OVERHEAD_US * 1000.0
    count_target = trigger.sample_count
    # (timestamp, bus-voltage word, shunt word) of every reading of the run
    readings: list[tuple[int, int, int]] = []
    now = 0.0  # simulation clock, ns

    # Read delays in ns, one per register read, popped from the end of a
    # reversed block of draws.  The generator state before the current block
    # is kept so that, however the loop ends, the caller's generator is left
    # where one draw per read would have left it.
    mean_us = point.delay_us
    half_us = driver.jitter_range_us / 2.0
    delays: list[float] = []
    block_state = None

    def next_block() -> float:
        nonlocal block_state
        if rng is None:
            delays.extend([mean_us * 1000.0] * _DELAY_BLOCK)
        else:
            block_state = rng.bit_generator.state
            block = (read_delays_us(mean_us, half_us, rng, _DELAY_BLOCK) * 1000.0).tolist()
            block.reverse()
            delays.extend(block)
        return delays.pop()

    read_register = bus.read_register
    sensor_step = bus.sensor.step
    try:
        while len(readings) < _MAX_READINGS:
            # poll the ready bit (the successful poll carries the bus value)
            while True:
                now += delays.pop() if delays else next_block()
                t = int(now)
                amps, volts = load(t)
                sensor_step(amps, volts, t)
                bus_word = read_register(REG_BUS_VOLTAGE)
                if conversion_ready(bus_word):
                    break
            now += delays.pop() if delays else next_block()
            t = int(now)
            amps, volts = load(t)
            sensor_step(amps, volts, t)
            shunt_word = read_register(REG_SHUNT_VOLTAGE)
            now += overhead_ns
            readings.append((int(now), bus_word, shunt_word))
            if limit_ns is not None and now > limit_ns:
                break
            # the last count readings are all in once the first of them is
            if (count_target is not None and len(readings) >= count_target
                    and readings[-count_target][0] >= trigger.start_ns):
                break
    finally:
        if block_state is not None:
            rng.bit_generator.state = block_state
            read_delays_us(mean_us, half_us, rng, _DELAY_BLOCK - len(delays))

    ts, bus_word, shunt_word = np.array(readings, dtype=np.int64).reshape(-1, 3).T
    trace, status, _ = build_trace(
        ts, config.bus.reading(bus_count_from_word(bus_word)),
        config.shunt.reading(shunt_count_from_word(shunt_word)),
        bus_overflow(bus_word), trigger, horizon_ns, intervals)
    return MeasurementResult(trace=trace, energy_j=gated_energy(trace),
                             overruns=0, status=status)

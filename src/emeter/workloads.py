"""Synthetic device load profiles and the reference ground-truth meter.

Profiles are piecewise-constant in both current and voltage, so every
integral used by the accuracy experiments has a closed form.  A profile
cycles through device states (sleep / processing / transmission) every
500ms; transmission states carry short rectangular current spikes whose
placement inside each dwell is seeded.  Five device presets approximate the
published behavior of one 802.15.4 sensor tag and four 802.11 boards; spike
widths and duty cycles are plausible reconstructions, not measured values.

Voltage comes from a source model: a regulated supply holds the nominal
voltage within a small ripple band, while a battery sags proportionally to
the drawn current through a per-device source resistance.

A profile is one model: its current is the sum of its current parts, and its
voltage is its voltage part, each part a piecewise-constant signal on its own
grid with its integral up to every grid point.  A :class:`LoadProfile`, the
general form for loads given as segments, has one current part and one
voltage part on the same edges.  A preset's profile, a :class:`DeviceProfile`,
has the state part (the state dwells and the tx spikes), the activity-ripple
part (uniform steps every 1.3 ms, on the presets that ripple) and, for a
regulated supply, the supply part as its voltage part (a square wave of
3.65 ms half periods).  The state part is assembled without a per-spike
loop: one draw gives the spike offsets of every tx dwell, and array slots
place the base and spike pieces.  A window's mean current is the sum of the
current parts' integrals over it, and its mean voltage the voltage part's;
the integral of i*v is the sum, over the voltage part's segments, of each
level times the current's integral across the segment.  So a supply run
integrates the parts and never merges their grids.

The merged form, ``edges``, ``current`` and ``voltage`` over the union of
the grids, is a :class:`LoadProfile`, which is its own merged form.  A
:class:`DeviceProfile` builds it on first access: one merge splits the state
pieces at the ripple steps and the half periods, and each segment takes every
part's level at its start.  A run takes two things from it: a battery
source's voltage part, the voltage following the current, and the integral
of i**2 that a board with a quadratic term reads.  Every run's mean current
and its integral of i*v integrate the profile's own current parts, against
its voltage part.  The merge also serves the readers that need segments
(``current_at``, ``time_weighted_quantile``).

Every profile declares the peak current a run picks its PGA divider for.  A
preset's is the highest state level its workload cycles through (the spike
peak for a tx state with spikes) plus its ripple, whatever the duration, so
a run's divider does not depend on how long it lasts.  A :class:`LoadProfile`
declares its largest level.

A preset whose sleep draw lies below one current LSB announces its sleep
dwells: its profile declares the draw as a :class:`~emeter.sampler.PowerSaveMode`
and holds each sleep dwell as a ``(start_s, end_s, mode_index)`` span.  A
profile refuses a span whose mode it does not declare, and two modes with
one index, so every span it holds is charged at one declared draw.

The spike offsets and the ripple steps draw from two streams keyed on the
seed, ``default_rng(seed)`` and ``default_rng([seed, 1])``, and each draws in
time order, so a profile is the start of every longer one with its seed,
apart from the dwell that its duration cuts short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from emeter.sampler import PowerSaveMode, modes_by_index

STATE_DWELL_S = 0.5
WORKLOAD_STATES = {
    1: ("sleep", "processing", "tx"),
    2: ("sleep", "tx"),
    3: ("sleep", "processing"),
    4: ("processing", "tx"),
}


@dataclass(frozen=True)
class DevicePreset:
    """Current levels and source characteristics of one device type."""

    name: str
    nominal_voltage: float
    sleep_current: float
    processing_current: float
    tx_base_current: float
    tx_peak_current: float
    spike_width_s: float
    spike_duty: float
    battery_resistance: float
    # sleep current below one sensor LSB: the device announces sleep
    # transitions so the hybrid energy model can account for them
    sleep_is_power_save: bool = False
    # fast sub-mA current activity around each state level (kernel and
    # peripheral housekeeping on the 802.11 boards); zero-mean uniform
    activity_ripple_a: float = 0.0

    @property
    def spiky(self) -> bool:
        """Whether a tx dwell carries current spikes."""
        return self.spike_duty > 0 and self.spike_width_s > 0


PRESETS = {
    "cc2650": DevicePreset(
        name="cc2650", nominal_voltage=3.3,
        sleep_current=1e-6, processing_current=6.6e-3,
        tx_base_current=1.2e-3, tx_peak_current=30e-3,
        spike_width_s=0.5e-3, spike_duty=0.02,
        battery_resistance=1.0, sleep_is_power_save=True),
    "bcm4343w": DevicePreset(
        name="bcm4343w", nominal_voltage=5.0,
        sleep_current=10.2e-3, processing_current=39.95e-3,
        tx_base_current=20.4e-3, tx_peak_current=350.2e-3,
        spike_width_s=2e-3, spike_duty=0.5,
        battery_resistance=0.1,
        activity_ripple_a=0.8e-3),
    "cyw43907": DevicePreset(
        name="cyw43907", nominal_voltage=5.0,
        sleep_current=96e-3, processing_current=140e-3,
        tx_base_current=96e-3, tx_peak_current=400e-3,
        spike_width_s=2e-3, spike_duty=0.4,
        battery_resistance=0.25,
        activity_ripple_a=0.8e-3),
    "rpizw": DevicePreset(
        name="rpizw", nominal_voltage=5.0,
        sleep_current=130e-3, processing_current=180.3e-3,
        tx_base_current=130e-3, tx_peak_current=300e-3,
        spike_width_s=2e-3, spike_duty=0.4,
        battery_resistance=0.1,
        activity_ripple_a=0.8e-3),
    "rpi3": DevicePreset(
        name="rpi3", nominal_voltage=5.0,
        sleep_current=280.4e-3, processing_current=330.4e-3,
        tx_base_current=280.4e-3, tx_peak_current=500e-3,
        spike_width_s=2e-3, spike_duty=0.4,
        battery_resistance=0.05,
        activity_ripple_a=0.8e-3),
}

SUPPLY_RIPPLE_BAND_V = 0.002      # regulated source stays inside this band
SUPPLY_RIPPLE_PERIOD_S = 0.0073   # deliberately off-grid vs. state dwells
DWELL_SLACK_S = 1e-12             # a last dwell this short is float slack, not a state


def _segment_of(edges: np.ndarray, t):
    """Index of the segment of ``edges`` holding ``t``, clipped to the ends."""
    return np.clip(np.searchsorted(edges, t, side="right") - 1, 0, len(edges) - 2)


class _Part(NamedTuple):
    """A piecewise-constant signal, ``levels[k]`` on ``[edges[k], edges[k + 1])``,
    and its integral from ``edges[0]`` to each edge."""

    edges: np.ndarray
    levels: np.ndarray
    cumulative: np.ndarray

    @classmethod
    def of(cls, edges: np.ndarray, levels: np.ndarray) -> "_Part":
        return cls(edges, levels,
                   np.concatenate([[0.0], np.cumsum(levels * np.diff(edges))]))

    def integral(self, t):
        """The integral up to each time of ``t``: exact, as the cumulative
        integral is linear between edges."""
        return np.interp(t, self.edges, self.cumulative)


def _window_means(parts, bounds_s, window_s: float) -> np.ndarray:
    """Mean of the sum of ``parts`` over each window of ``bounds_s`` (the
    shapes of :meth:`LoadProfile.window_means`): each part's integral looked
    up once per bound, summed, and differenced along the last axis."""
    total = parts[0].integral(bounds_s)
    for part in parts[1:]:
        total += part.integral(bounds_s)
    total = np.diff(total).reshape(-1)
    total /= window_s
    return total


def _mean_range(part: _Part, window_s: float) -> tuple:
    """(lowest, highest) bounds on every mean of ``part`` that
    :func:`_window_means` computes over a window ``window_s`` long: its
    lowest and highest level, each widened by the rounding bound
    ``eps * L * ((m + 20) * T / w + 8)``, with ``L`` the part's largest
    level magnitude, ``T`` its span, ``w`` the window and ``m`` the number
    of its segments shorter than two windows.

    The bound holds for windows inside ``[0, T]`` whose bounds are multiples
    of the period, or ends less the window, each rounded once or twice, as
    ``experiment.schedule`` makes them; u = eps / 2 is the unit roundoff.
    The cumulative integral at each edge is exact for the piecewise-linear
    function C through the stored points, whose slope on segment k is its
    level times (1 + 2u) at most, plus the rounding of the cumulative sum,
    at most u * L * T, over the segment's length.  C's rise over a window is
    the overlap-weighted sum of those slopes; a segment's share of the
    rounding term is at most u * L * T, and a window overlaps at most m + 2
    segments.  The overlaps sum to the window's bounds' difference, within
    eps * (T / w + 1) relative of ``w``.  Each interpolated bound adds six
    roundings of the cumulative's size, and the difference and the division
    one of the mean's each.  In all, a mean lies within
    u * L * ((m + 18) * T / w + 8) of the levels' range, half the bound used.
    """
    low, high = float(part.levels.min()), float(part.levels.max())
    span = float(part.edges[-1])
    short = np.count_nonzero(np.diff(part.edges) < 2.0 * window_s)
    slack = np.finfo(float).eps * max(-low, high) * ((short + 20) * span / window_s + 8)
    return low - slack, high + slack


class LoadProfile:
    """Piecewise-constant (current, voltage) signal with exact integrals.

    ``edges`` has ``n+1`` breakpoints in seconds from 0; ``current``/``voltage``
    hold the ``n`` segment levels, all finite.  They are the profile's one
    current part and one voltage part, each with its cumulative integral
    (that of i**2 on first use), so window means and energies reduce to exact
    linear interpolation.  Where the model has several parts (module
    docstring), ``_merged`` is the one-part form.
    """

    def __init__(self, edges: np.ndarray, current: np.ndarray,
                 voltage: np.ndarray,
                 power_save_intervals: Optional[list] = None,
                 power_save_modes: Optional[list] = None):
        edges = np.asarray(edges, dtype=float)
        current = np.asarray(current, dtype=float)
        voltage = np.asarray(voltage, dtype=float)
        if edges.ndim != 1 or len(edges) != len(current) + 1:
            raise ValueError("edges must have one more entry than levels")
        if len(voltage) != len(current):
            raise ValueError("current and voltage level counts differ")
        for name, values in (("edges", edges), ("current", current), ("voltage", voltage)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        if edges[0] != 0.0:
            raise ValueError("edges must start at 0 s")
        self._hold(float(edges[-1]), (_Part.of(edges, current),), _Part.of(edges, voltage),
                   float(current.max()), power_save_intervals or [],
                   power_save_modes or [])

    def _hold(self, duration: float, currents: tuple, voltage: Optional[_Part],
              peak_current: float, power_save_intervals: list,
              power_save_modes: list) -> None:
        """Hold the parts, refusing two modes with one index and a span whose
        mode is not declared."""
        declared = sorted(modes_by_index(power_save_modes))
        for span in power_save_intervals:
            if span[2] not in declared:
                raise ValueError(f"power-save interval {span} names an undeclared "
                                 f"mode; the declared modes are {declared}")
        self.duration = duration
        #: the current a run picks its PGA divider for (module docstring)
        self.peak_current = peak_current
        #: (t_start, t_end, mode_index) sleep intervals, seconds
        self.power_save_intervals = power_save_intervals
        #: the declared :class:`~emeter.sampler.PowerSaveMode` of every interval
        self.power_save_modes = power_save_modes
        self._currents = currents
        self._voltage = voltage

    @property
    def _merged(self) -> "LoadProfile":
        # a property, not a stored self: a reference cycle would hold every
        # profile's arrays until the garbage collector ran
        return self

    @property
    def edges(self) -> np.ndarray:
        return self._merged._voltage.edges

    @property
    def current(self) -> np.ndarray:
        return self._merged._currents[0].levels

    @property
    def voltage(self) -> np.ndarray:
        return self._merged._voltage.levels

    @cached_property
    def _i2(self) -> _Part:
        # read only for a board whose error model has a quadratic term
        return _Part.of(self.edges, self.current ** 2)

    def current_at(self, t):
        return self.current[_segment_of(self.edges, t)]

    def voltage_at(self, t):
        return self.voltage[_segment_of(self.edges, t)]

    def time_weighted_quantile(self, q: float) -> float:
        """Current level below which a fraction ``q`` of the time is spent."""
        dt = np.diff(self.edges)
        order = np.argsort(self.current, kind="stable")
        weights = np.cumsum(dt[order]) / dt.sum()
        pos = np.searchsorted(weights, q, side="left")
        pos = min(pos, len(order) - 1)
        return float(self.current[order][pos])

    @property
    def _volts(self) -> _Part:
        """The voltage part; a battery's comes from the merged form."""
        return self._merged._voltage if self._voltage is None else self._voltage

    def window_means(self, bounds_s, window_s: float, squares: bool):
        """Mean current, mean current squared (None unless ``squares``) and
        mean voltage over windows ``window_s`` long: :meth:`current_means`
        and :meth:`voltage_means`.

        ``bounds_s`` takes one of two shapes.  For windows that tile it holds
        the n + 1 boundaries, window k being ``[bounds_s[k], bounds_s[k + 1])``;
        otherwise it is an (n, 2) array of ``[start, end]`` rows.  Each
        cumulative integral is looked up once per bound and differenced along
        the last axis: one lookup per window where they tile, two elsewhere.
        """
        return (*self.current_means(bounds_s, window_s, squares),
                self.voltage_means(bounds_s, window_s))

    def current_means(self, bounds_s, window_s: float, squares: bool):
        """Mean current and mean current squared (None unless ``squares``)
        over the windows of ``bounds_s`` (:meth:`window_means`)."""
        return (_window_means(self._currents, bounds_s, window_s),
                _window_means((self._merged._i2,), bounds_s, window_s) if squares else None)

    def voltage_means(self, bounds_s, window_s: float):
        """Mean voltage over the windows of ``bounds_s`` (:meth:`window_means`)."""
        return _window_means((self._volts,), bounds_s, window_s)

    def voltage_range(self, window_s: float) -> tuple:
        """(lowest, highest) that every mean of :meth:`voltage_means` lies
        within, over windows ``window_s`` long as ``experiment.schedule``
        lays them (:func:`_mean_range`)."""
        return _mean_range(self._volts, window_s)

    def _current_integral(self, t):
        return sum(part.integral(t) for part in self._currents)

    @cached_property
    def _power(self) -> tuple:
        """The current's integral I(g) at the voltage part's edges g, and the
        power's, the sum of each voltage segment's level times its rise of I."""
        volts = self._volts
        at = self._current_integral(volts.edges)
        return at, np.concatenate([[0.0], np.cumsum(volts.levels * np.diff(at))])

    def integral_power(self, t0: float, t1: float):
        """The integral of i*v over ``[t0, t1]``: the power's integral at the
        voltage edge g before t plus the voltage there times the current's
        integral from g to t."""
        at, cumulative = self._power
        volts = self._volts
        t = np.array((t0, t1))
        k = _segment_of(volts.edges, t)
        power = cumulative[k] + volts.levels[k] * (self._current_integral(t) - at[k])
        return power[1] - power[0]


class DeviceProfile(LoadProfile):
    """A preset's profile as the sum of its parts (module docstring).

    The current parts are the state part and, where the preset ripples, the
    ripple part; the voltage part is the supply's, or None for a battery
    source, whose voltage the merge derives from the current.  The merged
    form is built on first access.
    """

    def __init__(self, preset: DevicePreset, duration: float, state: _Part,
                 ripple: Optional[_Part], supply: Optional[_Part],
                 peak_current: float, power_save_intervals: list,
                 power_save_modes: list):
        self._preset = preset
        self._hold(float(duration), (state,) if ripple is None else (state, ripple),
                   supply, peak_current, power_save_intervals, power_save_modes)

    @cached_property
    def _merged(self) -> LoadProfile:
        # Every grid point lies in [0, duration] and every grid holds both
        # ends, so the union needs no clipping.  A segment takes each part's
        # level at the last breakpoint of its grid at or before its start.
        parts = self._currents if self._voltage is None else (*self._currents, self._voltage)
        edges, index = _merge([part.edges for part in parts])
        levels = [part.levels[k[:-1]] for part, k in zip(parts, index)]
        current = levels[0]
        if len(self._currents) > 1:
            # zero-mean uniform activity steps on top of the state levels
            current += levels[1]
        if self._voltage is not None:
            return LoadProfile(edges, current, levels[-1])
        preset = self._preset
        return LoadProfile(edges, current,
                           preset.nominal_voltage - preset.battery_resistance * current)


def exact_energy(profile: LoadProfile, window: Optional[tuple] = None) -> float:
    """Closed-form integral of power over ``window`` (default: whole profile)."""
    if window is None:
        t0, t1 = 0.0, profile.duration
    else:
        t0, t1 = window
        if t0 < -1e-12 or t1 > profile.duration + 1e-12:
            raise ValueError("window outside profile duration")
    return float(profile.integral_power(t0, t1))


# --------------------------------------------------------------------------
# Profile construction
# --------------------------------------------------------------------------

def _state_pieces(t0: np.ndarray, dwell: np.ndarray, level: np.ndarray,
                  tx: np.ndarray, preset: DevicePreset,
                  rng: np.random.Generator) -> tuple:
    """Piece starts and levels of the state dwells ``[t0, t0 + dwell)``.

    A dwell holds its state's ``level``; a tx dwell carries a jittered grid
    of spikes at the preset's duty, clear of the dwell's last couple of
    milliseconds (the radio finishes its burst before the state switches).
    A dwell with ``m`` spikes fills ``2m + 1`` slots: spikes at the odd ones,
    base pieces at the even ones (from ``t0`` and from each spike's end),
    and a base piece narrower than 1e-15 s is dropped.
    """
    width, duty = preset.spike_width_s, preset.spike_duty
    end = t0 + dwell
    spiky = np.flatnonzero(tx) if preset.spiky else np.empty(0, int)
    n = np.maximum(1, np.rint(duty * dwell[spiky] / width).astype(int))
    pitch = np.maximum(dwell[spiky] - 2.0 * width - 2e-3, width) / n
    owner = np.repeat(spiky, n)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(n) - n, n)
    jitter = rng.uniform(0.0, np.repeat(np.maximum(pitch - width, 0.0), n))
    s = t0[owner] + (rank * np.repeat(pitch, n) + jitter)
    # offsets increase, so the cut-off at the dwell's end drops a suffix
    keep = s < end[owner]
    s, owner, rank = s[keep], owner[keep], rank[keep]
    e = np.minimum(s + width, end[owner])

    m = np.bincount(owner, minlength=len(t0))
    slots = 2 * m + 1
    first = np.cumsum(slots) - slots
    last = first + 2 * m
    peak = first[owner] + 2 * rank + 1
    starts = np.empty(int(slots.sum()))
    starts[first] = t0
    starts[peak] = s
    starts[peak + 1] = e
    levels = np.repeat(level, slots)
    levels[peak] = preset.tx_peak_current
    piece = np.ones(len(starts), dtype=bool)
    piece[peak - 1] = s > starts[peak - 1] + 1e-15
    piece[last] = ~tx | (starts[last] < end - 1e-15)
    return starts[piece], levels[piece]


def _merge(grids: list) -> tuple:
    """Sorted union of the sorted ``grids``; for each grid, the index of its
    last point at or before each union point."""
    points = np.concatenate(grids)
    order = np.argsort(points, kind="stable")
    points = points[order]
    last = np.append(points[1:] != points[:-1], True)  # last of equal points
    bounds = np.cumsum([0] + [len(g) for g in grids])
    return points[last], [np.cumsum((order >= lo) & (order < hi))[last] - 1
                          for lo, hi in zip(bounds, bounds[1:])]


RIPPLE_PIECE_S = 1.3e-3


def generate_profile(preset: str, workload: int,
                     seed: int = 0, duration: float = 30.0,
                     source: str = "supply") -> DeviceProfile:
    """Build the load profile for one device preset and workload.

    States cycle every 500ms in the order defined by the workload; the
    transmission state carries seeded current spikes.  ``source`` selects the
    regulated-supply or battery voltage model.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
    preset = PRESETS[preset]
    if workload not in WORKLOAD_STATES:
        raise ValueError(f"workload must be one of {sorted(WORKLOAD_STATES)}")
    if source not in ("supply", "battery"):
        raise ValueError(f"unknown source model {source!r}")
    if not (math.isfinite(duration) and duration > DWELL_SLACK_S):
        raise ValueError("duration must be finite and positive, longer than the "
                         f"{DWELL_SLACK_S} s dwell slack, got {duration}")
    states = WORKLOAD_STATES[workload]
    t0, dwell = [], []
    t = 0.0
    while t < duration - DWELL_SLACK_S:
        t0.append(t)
        dwell.append(min(STATE_DWELL_S, duration - t))
        t += dwell[-1]
    state = [states[k % len(states)] for k in range(len(t0))]
    sleep_intervals = [(a, a + d, 0) for a, d, s in zip(t0, dwell, state)
                       if s == "sleep" and preset.sleep_is_power_save]
    level = {"sleep": preset.sleep_current, "tx": preset.tx_base_current,
             "processing": preset.processing_current}
    starts, levels = _state_pieces(
        np.array(t0), np.array(dwell), np.array([level[s] for s in state]),
        np.array([s == "tx" for s in state], dtype=bool), preset,
        np.random.default_rng(seed))

    ripple = supply = None
    if preset.activity_ripple_a > 0:
        grid = np.arange(0.0, float(duration), RIPPLE_PIECE_S)
        # zero-mean uniform activity steps on top of the state levels
        steps = np.random.default_rng([seed, 1]).uniform(
            -preset.activity_ripple_a, preset.activity_ripple_a, size=len(grid))
        ripple = _Part.of(np.append(grid, duration), steps)
    if source == "supply":
        # regulated supply: square ripple of +-band/2, high in the even
        # half periods
        grid = np.arange(0.0, float(duration), SUPPLY_RIPPLE_PERIOD_S / 2.0)
        half = SUPPLY_RIPPLE_BAND_V / 2.0
        volts = (preset.nominal_voltage + np.array([half, -half]))[np.arange(len(grid)) & 1]
        supply = _Part.of(np.append(grid, duration), volts)
    top = dict(level, tx=preset.tx_peak_current) if preset.spiky else level
    modes = ([PowerSaveMode(0, preset.sleep_current, preset.nominal_voltage)]
             if preset.sleep_is_power_save else [])
    return DeviceProfile(preset, duration, _Part.of(np.append(starts, duration), levels),
                         ripple, supply,
                         max(top[s] for s in states) + preset.activity_ripple_a,
                         sleep_intervals, modes)


def constant_profile(current: float, voltage: float,
                     duration: float) -> LoadProfile:
    return LoadProfile(np.array([0.0, duration]), np.array([current]),
                       np.array([voltage]))


# --------------------------------------------------------------------------
# Reference meter
# --------------------------------------------------------------------------

#: The reference meter's current resolution: 18 bits over 1 A full scale.
REFERENCE_LSB_A = 1.0 / 2 ** 18


class ReferenceMeter:
    """Ground-truth meter; samples the same analytic signal.

    Its energy is the closed-form :func:`exact_energy` of the profile;
    sampled currents are quantized to :data:`REFERENCE_LSB_A`.
    """

    def sample_current(self, profile: LoadProfile, times) -> np.ndarray:
        counts = np.round(profile.current_at(np.asarray(times)) / REFERENCE_LSB_A)
        return counts * REFERENCE_LSB_A

    def sample_voltage(self, profile: LoadProfile, times) -> np.ndarray:
        return np.asarray(profile.voltage_at(np.asarray(times)), dtype=float)

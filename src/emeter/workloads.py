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

A profile is assembled without a per-spike loop: one draw gives the spike
offsets of every tx dwell, array slots place the base and spike pieces, and
one merge splits those pieces at the activity-ripple steps and the supply
half periods, giving each segment its state and step index on the way.

The spike offsets and the ripple steps draw from two streams keyed on the
seed, ``default_rng(seed)`` and ``default_rng([seed, 1])``, and each draws in
time order, so a profile is the start of every longer one with its seed,
apart from the dwell that its duration cuts short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

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


class LoadProfile:
    """Piecewise-constant (current, voltage) signal with exact integrals.

    ``edges`` has ``n+1`` breakpoints in seconds; ``current``/``voltage``
    hold the ``n`` segment levels.  Cumulative integrals of i, v and i*v
    are precomputed at the breakpoints (that of i**2 on first use), so window
    means and energies reduce to exact linear interpolation.
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
        dt = np.diff(edges)
        if np.any(dt <= 0):
            raise ValueError("edges must be strictly increasing")
        self.edges = edges
        self.current = current
        self.voltage = voltage
        #: (t_start, t_end, mode_index) sleep intervals, seconds
        self.power_save_intervals = power_save_intervals or []
        #: declared (mode_index, constant_current, nominal_voltage) triples
        self.power_save_modes = power_save_modes or []
        self._cum_i = np.concatenate([[0.0], np.cumsum(current * dt)])
        self._cum_v = np.concatenate([[0.0], np.cumsum(voltage * dt)])
        self._cum_p = np.concatenate([[0.0], np.cumsum(current * voltage * dt)])

    @cached_property
    def _cum_i2(self) -> np.ndarray:
        # read only for a board whose error model has a quadratic term
        return np.concatenate([[0.0], np.cumsum(self.current ** 2 * np.diff(self.edges))])

    @property
    def duration(self) -> float:
        return float(self.edges[-1] - self.edges[0])

    def current_at(self, t):
        return self.current[_segment_of(self.edges, t)]

    def voltage_at(self, t):
        return self.voltage[_segment_of(self.edges, t)]

    def _integral(self, cumulative: np.ndarray, t0, t1):
        total = np.interp(t1, self.edges, cumulative)
        total -= np.interp(t0, self.edges, cumulative)
        return total

    def _means(self, integral, window_s: float, squares: bool):
        def mean(cumulative):
            total = integral(cumulative)
            total /= window_s
            return total

        mean_i = mean(self._cum_i)
        mean_v = mean(self._cum_v)
        return mean_i, mean(self._cum_i2) if squares else None, mean_v

    def window_means(self, end_s, window_s: float, squares: bool):
        """Mean current, mean current squared (None unless ``squares``) and
        mean voltage over the windows of ``window_s`` ending at ``end_s``.

        Each window is looked up in each cumulative integral twice, at
        ``end_s - window_s`` and at ``end_s``.  Where every window starts at
        the previous one's end, :meth:`tiled_means` gives the same means
        from one lookup per boundary.
        """
        start_s = end_s - window_s
        return self._means(lambda cum: self._integral(cum, start_s, end_s),
                           window_s, squares)

    def tiled_means(self, grid_s, window_s: float, squares: bool):
        """:meth:`window_means` over windows that tile: window k is
        ``[grid_s[k], grid_s[k + 1])``, ``window_s`` long.

        Each cumulative integral is looked up once at the ``n + 1``
        boundaries and differenced, half the searches of the two-lookup
        form.  The window ends, and so the end lookups, are the same;
        a start differs only by the rounding of ``end - window_s``.
        """
        return self._means(lambda cum: np.diff(np.interp(grid_s, self.edges, cum)),
                           window_s, squares)

    def integral_power(self, t0, t1):
        return self._integral(self._cum_p, t0, t1)

    def time_weighted_quantile(self, q: float) -> float:
        """Current level below which a fraction ``q`` of the time is spent."""
        dt = np.diff(self.edges)
        order = np.argsort(self.current, kind="stable")
        weights = np.cumsum(dt[order]) / dt.sum()
        pos = np.searchsorted(weights, q, side="left")
        pos = min(pos, len(order) - 1)
        return float(self.current[order][pos])


def exact_energy(profile: LoadProfile, window: Optional[tuple] = None) -> float:
    """Closed-form integral of power over ``window`` (default: whole profile)."""
    if window is None:
        t0, t1 = profile.edges[0], profile.edges[-1]
    else:
        t0, t1 = window
        if t0 < profile.edges[0] - 1e-12 or t1 > profile.edges[-1] + 1e-12:
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
    spiky = np.flatnonzero(tx) if duty > 0 and width > 0 else np.empty(0, int)
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


def _merge(grids: list, indexed: int) -> tuple:
    """Sorted union of the sorted ``grids``; for each of the first ``indexed``
    grids, the index of its last point at or before each union point."""
    points = np.concatenate(grids)
    order = np.argsort(points, kind="stable")
    points = points[order]
    last = np.append(points[1:] != points[:-1], True)  # last of equal points
    bounds = np.cumsum([0] + [len(g) for g in grids])
    return points[last], [np.cumsum((order >= lo) & (order < hi))[last] - 1
                          for lo, hi in zip(bounds, bounds[1:indexed + 1])]


RIPPLE_PIECE_S = 1.3e-3


def generate_profile(preset: str | DevicePreset, workload: int,
                     seed: int = 0, duration: float = 30.0,
                     source: str = "supply") -> LoadProfile:
    """Build the load profile for one device preset and workload.

    States cycle every 500ms in the order defined by the workload; the
    transmission state carries seeded current spikes.  ``source`` selects the
    regulated-supply or battery voltage model.
    """
    if isinstance(preset, str):
        try:
            preset = PRESETS[preset]
        except KeyError:
            raise ValueError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
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

    # Every grid point lies in [0, duration) and the state breakpoints hold
    # both ends, so the union needs no clipping.  A segment takes its state
    # and step from the last breakpoint of each grid at or before its start.
    # A midpoint lookup would differ only for a one-ulp segment ending on a
    # state or step breakpoint; these grids' one-ulp segments all end on a
    # supply half period (checked up to 3600 s).
    grids = [np.append(starts, duration)]
    ripple = preset.activity_ripple_a > 0
    if ripple:
        grids.append(np.arange(0.0, float(duration), RIPPLE_PIECE_S))
    if source == "supply":
        grids.append(np.arange(0.0, float(duration), SUPPLY_RIPPLE_PERIOD_S / 2.0))
    edges, index = _merge(grids, 1 + ripple)
    current = levels[index[0][:-1]]
    if ripple:
        # zero-mean uniform activity steps on top of the state levels
        steps = np.random.default_rng([seed, 1]).uniform(
            -preset.activity_ripple_a, preset.activity_ripple_a, size=len(grids[1]))
        current = np.maximum(current + steps[index[1][:-1]], 0.0)
    if source == "battery":
        voltage = preset.nominal_voltage - preset.battery_resistance * current
    else:
        # regulated supply: square ripple of +-band/2, in phase
        # floor(mid / half period) % 2 (mid >= 0, so truncating floors)
        half = SUPPLY_RIPPLE_BAND_V / 2.0
        mid = (edges[:-1] + edges[1:]) / 2.0
        phase = (mid / (SUPPLY_RIPPLE_PERIOD_S / 2.0)).astype(int) & 1
        voltage = (preset.nominal_voltage + np.array([half, -half]))[phase]
    modes = ([(0, preset.sleep_current, preset.nominal_voltage)]
             if preset.sleep_is_power_save else [])
    return LoadProfile(edges, current, voltage,
                       power_save_intervals=sleep_intervals,
                       power_save_modes=modes)


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

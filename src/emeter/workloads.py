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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

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


def _segment_of(edges: np.ndarray, t):
    """Index of the segment of ``edges`` holding ``t``, clipped to the ends."""
    return np.clip(np.searchsorted(edges, t, side="right") - 1, 0, len(edges) - 2)


class LoadProfile:
    """Piecewise-constant (current, voltage) signal with exact integrals.

    ``edges`` has ``n+1`` breakpoints in seconds; ``current``/``voltage``
    hold the ``n`` segment levels.  Cumulative integrals of i, i**2, v and
    i*v are precomputed at the breakpoints, so window means and energies
    reduce to exact linear interpolation.
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
        if np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        self.edges = edges
        self.current = current
        self.voltage = voltage
        #: (t_start, t_end, mode_index) sleep intervals, seconds
        self.power_save_intervals = power_save_intervals or []
        #: declared (mode_index, constant_current, nominal_voltage) triples
        self.power_save_modes = power_save_modes or []
        dt = np.diff(edges)
        self._cum_i = np.concatenate([[0.0], np.cumsum(current * dt)])
        self._cum_i2 = np.concatenate([[0.0], np.cumsum(current ** 2 * dt)])
        self._cum_v = np.concatenate([[0.0], np.cumsum(voltage * dt)])
        self._cum_p = np.concatenate([[0.0], np.cumsum(current * voltage * dt)])

    @property
    def duration(self) -> float:
        return float(self.edges[-1] - self.edges[0])

    def current_at(self, t):
        return self.current[_segment_of(self.edges, t)]

    def voltage_at(self, t):
        return self.voltage[_segment_of(self.edges, t)]

    def _integral(self, cumulative: np.ndarray, t0, t1):
        return (np.interp(t1, self.edges, cumulative)
                - np.interp(t0, self.edges, cumulative))

    def integral_current(self, t0, t1):
        return self._integral(self._cum_i, t0, t1)

    def integral_current_sq(self, t0, t1):
        return self._integral(self._cum_i2, t0, t1)

    def integral_voltage(self, t0, t1):
        return self._integral(self._cum_v, t0, t1)

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

def _spike_starts(dwell: float, width: float, duty: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Spike start offsets inside one dwell: a jittered grid at given duty.

    The radio finishes its burst before the state scheduler switches, so
    spikes keep clear of the last couple of milliseconds of the dwell.
    """
    if duty <= 0 or width <= 0:
        return np.empty(0)
    n = max(1, int(round(duty * dwell / width)))
    span = max(dwell - 2.0 * width - 2e-3, width)
    pitch = span / n
    starts = np.arange(n) * pitch
    return starts + rng.uniform(0.0, max(pitch - width, 0.0), size=n)


def _state_segments(level_base: float, level_peak: float,
                    t0: float, dwell: float, width: float, duty: float,
                    rng: np.random.Generator):
    """Piece starts and levels for one state dwell [t0, t0+dwell)."""
    starts: list[float] = []
    levels: list[float] = []
    cursor = t0
    for off in _spike_starts(dwell, width, duty, rng):
        s = t0 + off
        if s >= t0 + dwell:
            break
        e = min(s + width, t0 + dwell)
        if s > cursor + 1e-15:
            starts.append(cursor)
            levels.append(level_base)
        starts.append(s)
        levels.append(level_peak)
        cursor = e
    if cursor < t0 + dwell - 1e-15:
        starts.append(cursor)
        levels.append(level_base)
    return starts, levels


def _refine(edges: np.ndarray, grid: np.ndarray) -> tuple:
    """Split the segments of ``edges`` at the points of ``grid``.

    Returns the merged breakpoints (clipped to the span of ``edges``), the
    midpoint of each new segment and the index of the old segment it lies in.
    """
    t_end = edges[-1]
    merged = np.union1d(edges, grid)
    merged = merged[(merged >= edges[0]) & (merged <= t_end)]
    if merged[-1] < t_end:
        merged = np.append(merged, t_end)
    mid = (merged[:-1] + merged[1:]) / 2.0
    return merged, mid, _segment_of(edges, mid)


RIPPLE_PIECE_S = 1.3e-3


def _apply_ripple(edges: np.ndarray, current: np.ndarray, amplitude: float,
                  rng: np.random.Generator) -> tuple:
    """Superimpose zero-mean uniform activity steps onto the state levels."""
    grid = np.arange(0.0, float(edges[-1]), RIPPLE_PIECE_S)
    merged, mid, base_idx = _refine(edges, grid)
    ripple_levels = rng.uniform(-amplitude, amplitude, size=len(grid) + 1)
    piece_idx = np.clip(np.searchsorted(grid, mid, side="right") - 1, 0,
                        len(ripple_levels) - 1)
    rippled = np.maximum(current[base_idx] + ripple_levels[piece_idx], 0.0)
    return merged, rippled


def _source_voltage(edges: np.ndarray, current: np.ndarray, nominal: float,
                    source: str, battery_resistance: float) -> tuple:
    """Per-segment voltage levels; may split segments for supply ripple."""
    if source == "battery":
        return edges, current, nominal - battery_resistance * current
    if source != "supply":
        raise ValueError(f"unknown source model {source!r}")
    # regulated supply: square ripple of +-band/2, merged into the grid
    half = SUPPLY_RIPPLE_BAND_V / 2.0
    ripple_edges = np.arange(0.0, edges[-1], SUPPLY_RIPPLE_PERIOD_S / 2.0)
    merged, mid, seg = _refine(edges, ripple_edges)
    i_levels = current[seg]
    phase = np.floor(mid / (SUPPLY_RIPPLE_PERIOD_S / 2.0)).astype(int) % 2
    v_levels = nominal + np.where(phase == 0, half, -half)
    return merged, i_levels, v_levels


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
    rng = np.random.default_rng(seed)
    states = WORKLOAD_STATES[workload]

    edges: list[float] = []
    levels: list[float] = []
    sleep_intervals = []
    t = 0.0
    k = 0
    while t < duration - 1e-12:
        dwell = min(STATE_DWELL_S, duration - t)
        state = states[k % len(states)]
        if state == "sleep":
            edges.append(t)
            levels.append(preset.sleep_current)
            if preset.sleep_is_power_save:
                sleep_intervals.append((t, t + dwell, 0))
        elif state == "processing":
            edges.append(t)
            levels.append(preset.processing_current)
        else:
            e, l = _state_segments(preset.tx_base_current,
                                   preset.tx_peak_current, t, dwell,
                                   preset.spike_width_s, preset.spike_duty,
                                   rng)
            edges.extend(e)
            levels.extend(l)
        t += dwell
        k += 1
    edges.append(duration)

    edge_arr = np.asarray(edges)
    level_arr = np.asarray(levels)
    if preset.activity_ripple_a > 0:
        edge_arr, level_arr = _apply_ripple(edge_arr, level_arr,
                                            preset.activity_ripple_a, rng)
    merged_edges, i_levels, v_levels = _source_voltage(
        edge_arr, level_arr, preset.nominal_voltage, source,
        preset.battery_resistance)

    modes = []
    if preset.sleep_is_power_save:
        modes.append((0, preset.sleep_current, preset.nominal_voltage))
    return LoadProfile(merged_edges, i_levels, v_levels,
                       power_save_intervals=sleep_intervals,
                       power_save_modes=modes)


def constant_profile(current: float, voltage: float,
                     duration: float) -> LoadProfile:
    return LoadProfile(np.array([0.0, duration]), np.array([current]),
                       np.array([voltage]))


def staircase_profile(levels: Iterable[float], dwell: float,
                      voltage: float) -> LoadProfile:
    """One constant-voltage step per level; used by calibration sweeps."""
    levels = np.asarray(list(levels), dtype=float)
    edges = np.arange(len(levels) + 1) * dwell
    return LoadProfile(edges, levels, np.full(len(levels), voltage))


# --------------------------------------------------------------------------
# Reference meter
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceMeter:
    """High-rate ground-truth meter; samples the same analytic signal.

    Energy is the closed-form integral of the profile, so it is exact by
    construction; sampled readings are quantized to the meter's resolution.
    """

    sampling_rate: float = 500_000.0
    resolution_bits: int = 18
    full_scale_amps: float = 1.0

    def energy(self, profile: LoadProfile, window: Optional[tuple] = None) -> float:
        return exact_energy(profile, window)

    def sample_current(self, profile: LoadProfile, times) -> np.ndarray:
        lsb = self.full_scale_amps / 2 ** self.resolution_bits
        return np.round(profile.current_at(np.asarray(times)) / lsb) * lsb

    def sample_voltage(self, profile: LoadProfile, times) -> np.ndarray:
        return np.asarray(profile.voltage_at(np.asarray(times)), dtype=float)

    def sample_times(self, t0: float, t1: float) -> np.ndarray:
        step = 1.0 / self.sampling_rate
        return np.arange(t0, t1, step)

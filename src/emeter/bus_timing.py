"""Transaction-latency model for the sensor bus.

Two driver stacks are modeled.  The BCM-like stack talks to the bus
controller directly after initialization, so a two-byte register read costs
little more than the wire time and jitters by only a few microseconds.  The
Linux-like stack routes every transaction through a syscall, which adds at
least 20us per read and widens the jitter to tens of microseconds.

The sampler loop polls the bus-voltage register until the conversion-ready
flag is set; that final poll already carries the bus value, after which one
shunt read, a timestamp call (0.445us) and the loop bookkeeping (0.46us)
complete the sample.  Because conversions run back to back and the ready
flag latches until read, a loop that keeps up collects every conversion:

    polls/sample   = max(1, ceil((T_conv - d - o) / d))
    sample period  = max(T_conv, 2*d + o)       [seconds of loop floor]

with ``d`` the mean read delay, ``T_conv`` the conversion time (the fitted
constant of :func:`emeter.sensor.conversion_time_us`) and ``o`` the fixed
loop overhead.  The per-speed delay defaults below are fitted so the
model reproduces the measured polls-per-sample table at both resolutions and
the measured throughputs (4350 sps at 9-bit/500kHz on the BCM stack, about
3360 sps on the Linux stack, just under 1000 sps at 12 bit).

Every read draws its own jittered delay.  The sampler loop takes those
draws from the caller's generator in fixed-size blocks of the same stream
(:func:`read_delays_us`) rather than one call per read; the delays, and the
generator state the loop leaves behind, are those of one draw per read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from emeter.sensor import SensorConfig, conversion_time_us

SUPPORTED_SPEEDS_KHZ = (200, 500, 800, 2500)

LOOP_OVERHEAD_US = 0.46      # sampler bookkeeping between reads
TIMESTAMP_CALL_US = 0.445    # clock_gettime-equivalent cost per sample

#: Mean two-byte register read delay in microseconds, per driver and bus
#: speed.  Fitted defaults; see module docstring.
DEFAULT_READ_DELAYS_US = {
    "bcm": {2500: 23.0, 800: 69.7, 500: 114.5, 200: 290.0},
    "linux": {2500: 44.5, 800: 110.0, 500: 150.0, 200: 390.0},
}

#: Width of the (uniform) read-delay jitter band, microseconds.
DEFAULT_JITTER_US = {"bcm": 4.0, "linux": 22.0}


class UnsupportedOperatingPoint(ValueError):
    """Raised for bus speed / supply combinations the chip cannot sustain."""


@dataclass(frozen=True)
class DriverProfile:
    """Latency profile of one driver stack."""

    name: str
    read_delay_us: dict
    jitter_range_us: float

    def mean_delay_us(self, speed_khz: int) -> float:
        if speed_khz not in self.read_delay_us:
            raise UnsupportedOperatingPoint(
                f"bus speed {speed_khz}kHz not supported (have "
                f"{sorted(self.read_delay_us)})")
        return self.read_delay_us[speed_khz]


BCM_PROFILE = DriverProfile("bcm", DEFAULT_READ_DELAYS_US["bcm"],
                            DEFAULT_JITTER_US["bcm"])
LINUX_PROFILE = DriverProfile("linux", DEFAULT_READ_DELAYS_US["linux"],
                              DEFAULT_JITTER_US["linux"])

PROFILES = {"bcm": BCM_PROFILE, "linux": LINUX_PROFILE}


@dataclass(frozen=True)
class PollingStats:
    """Expected ready-bit polls per sample and resulting throughput."""

    polls_per_sample: int
    samples_per_second: float


def validate_operating_point(profile: DriverProfile, speed_khz: int,
                             supply_voltage: float) -> None:
    """Reject combinations known to produce unreliable bus traffic."""
    if speed_khz not in SUPPORTED_SPEEDS_KHZ:
        raise UnsupportedOperatingPoint(
            f"bus speed {speed_khz}kHz not in {SUPPORTED_SPEEDS_KHZ}")
    if speed_khz == 2500 and supply_voltage == 3.3:
        raise UnsupportedOperatingPoint(
            "bus speed 2500kHz at 3.3V supply gives very unreliable bus communication")


def read_delays_us(mean_us: float, half_band_us: float,
                   rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` jittered read delays in microseconds, uniform in ``mean_us +-
    half_band_us``.

    The only statement of the jitter: the sampler loop draws blocks of it.
    Numpy's array ``uniform`` yields the same doubles as ``n`` one-draw
    calls, so a block advances the generator exactly as ``n`` one-draw reads
    would.
    """
    return mean_us + rng.uniform(-half_band_us, half_band_us, n)


def sample_period_us(profile: DriverProfile, speed_khz: int,
                     config: SensorConfig) -> float:
    """Mean time between collected samples, microseconds."""
    validate_operating_point(profile, speed_khz, config.supply_voltage)
    d = profile.mean_delay_us(speed_khz)
    overhead = LOOP_OVERHEAD_US + TIMESTAMP_CALL_US
    loop_floor = 2.0 * d + overhead
    return max(conversion_time_us(config), loop_floor)


def expected_polls(profile: DriverProfile, speed_khz: int,
                   config: SensorConfig) -> PollingStats:
    """Deterministic polling expectation using mean delays."""
    period = sample_period_us(profile, speed_khz, config)
    d = profile.mean_delay_us(speed_khz)
    overhead = LOOP_OVERHEAD_US + TIMESTAMP_CALL_US
    t_conv = conversion_time_us(config)
    polls = max(1, math.ceil((t_conv - overhead) / d) - 1)
    return PollingStats(polls_per_sample=polls,
                        samples_per_second=1e6 / period)


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

An :class:`OperatingPoint` is the one place a (driver, bus speed, sensor
configuration) point is validated and timed: its properties state each of
these quantities once.

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

LOOP_OVERHEAD_US = 0.46      # sampler bookkeeping between reads
TIMESTAMP_CALL_US = 0.445    # clock_gettime-equivalent cost per sample
#: The fixed loop overhead ``o`` of a sample.
OVERHEAD_US = LOOP_OVERHEAD_US + TIMESTAMP_CALL_US

#: Mean two-byte register read delay in microseconds per driver, at each
#: supported bus speed in kHz: the one statement of those speeds.  Fitted
#: defaults; see module docstring.
READ_DELAYS_US = {
    200: {"bcm": 290.0, "linux": 390.0},
    500: {"bcm": 114.5, "linux": 150.0},
    800: {"bcm": 69.7, "linux": 110.0},
    2500: {"bcm": 23.0, "linux": 44.5},
}
SUPPORTED_SPEEDS_KHZ = tuple(READ_DELAYS_US)


class UnsupportedOperatingPoint(ValueError):
    """Raised for bus speed / supply combinations the chip cannot sustain."""


@dataclass(frozen=True)
class DriverProfile:
    """A driver stack and the width of its uniform read-delay jitter band,
    microseconds."""

    name: str
    jitter_range_us: float


BCM_PROFILE = DriverProfile("bcm", 4.0)
LINUX_PROFILE = DriverProfile("linux", 22.0)

PROFILES = {"bcm": BCM_PROFILE, "linux": LINUX_PROFILE}


@dataclass(frozen=True)
class OperatingPoint:
    """A driver stack, bus speed and sensor configuration the chip sustains:
    the speeds of :data:`READ_DELAYS_US`, but not 2500kHz at 3.3V."""

    driver: DriverProfile
    speed_khz: int
    config: SensorConfig

    def __post_init__(self):
        supply = self.config.supply_voltage
        if self.speed_khz not in READ_DELAYS_US or (self.speed_khz, supply) == (2500, 3.3):
            raise UnsupportedOperatingPoint(
                f"bus speed {self.speed_khz}kHz at {supply}V supply is not supported: "
                f"the speeds are {SUPPORTED_SPEEDS_KHZ} kHz, and 2500kHz at 3.3V "
                "gives very unreliable bus communication")

    @property
    def delay_us(self) -> float:
        """Mean register read delay ``d``, microseconds."""
        return READ_DELAYS_US[self.speed_khz][self.driver.name]

    @property
    def period_us(self) -> float:
        """Mean time between collected samples, microseconds."""
        return max(conversion_time_us(self.config), 2.0 * self.delay_us + OVERHEAD_US)

    @property
    def window_s(self) -> float:
        """Length of one conversion window, seconds."""
        return conversion_time_us(self.config) * 1000.0 * 1e-9

    @property
    def tail_ns(self) -> float:
        """Nanoseconds from a window's end to its sample's timestamp."""
        # left to right: 1.5 * d + OVERHEAD_US is an ulp off at three delays
        return (1.5 * self.delay_us + LOOP_OVERHEAD_US + TIMESTAMP_CALL_US) * 1000.0

    @property
    def tiles(self) -> bool:
        """Whether each window starts where the last one ended."""
        return self.period_us == conversion_time_us(self.config)


@dataclass(frozen=True)
class PollingStats:
    """Expected ready-bit polls per sample and resulting throughput."""

    polls_per_sample: int
    samples_per_second: float


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


def expected_polls(profile: DriverProfile, speed_khz: int,
                   config: SensorConfig) -> PollingStats:
    """Deterministic polling expectation using mean delays."""
    point = OperatingPoint(profile, speed_khz, config)
    polls = max(1, math.ceil((conversion_time_us(config) - OVERHEAD_US) / point.delay_us) - 1)
    return PollingStats(polls_per_sample=polls,
                        samples_per_second=1e6 / point.period_us)

"""Register-level model of the current / bus-voltage monitor chip.

The monitor digitizes the voltage across a shunt resistor (current channel)
and the supply-side bus voltage.  One shunt LSB is ``40mV / (2**bits - 1)``
(about 10uV at 12 bit), so with the default 0.1 ohm shunt the current
resolution is just under 100uA.  A programmable gain divider (/1 /2 /4 /8)
extends the shunt full scale from 40mV to 320mV at the cost of a
proportionally coarser LSB.  Bus voltage is digitized over a 16V (or 32V)
range, about 4mV per count at 12 bit.

Register map (frozen for golden tests; bit positions beyond the ready flag
are fixed by this package, not by any one silicon revision):

    0x01  SHUNT_VOLTAGE signed 16-bit count, two's complement
    0x02  BUS_VOLTAGE   [15:3] unsigned count, [1] conversion ready (CNVR),
                        [0] overflow (OVF)

The configuration (divider, resolution, bus range, supply) is fixed when a
:class:`SimulatedSensor` is built, and so is its conversion window.

The conversion-ready bit is set when a conversion completes and cleared by
reading the bus-voltage register.  The ADC is modeled as an ideal averager:
the registered value is the quantized mean of the analog input over the
conversion window.  The window length is fitted, not configured:
:func:`conversion_time_us` states it once, from :data:`CONVERSION_US` and
:data:`LOW_VOLTAGE_PENALTY_US`, for the chip model and the pipeline alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

REG_SHUNT_VOLTAGE = 0x01
REG_BUS_VOLTAGE = 0x02

SHUNT_FULL_SCALE_V = 0.040  # at divider 1
VALID_PGA_DIVIDERS = (1, 2, 4, 8)
VALID_RESOLUTIONS = (9, 12)
VALID_BUS_RANGES = (16.0, 32.0)
VALID_SUPPLIES = (3.3, 5.0)

_CNVR_BIT = 0x2
_OVF_BIT = 0x1


@dataclass(frozen=True)
class SensorConfig:
    """Static configuration of one monitor channel."""

    shunt_resistance: float = 0.1
    pga_divider: int = 1
    resolution_bits: int = 12
    bus_range: float = 16.0
    supply_voltage: float = 5.0

    def __post_init__(self):
        if self.shunt_resistance <= 0:
            raise ValueError("shunt resistance must be positive")
        if self.pga_divider not in VALID_PGA_DIVIDERS:
            raise ValueError(f"pga_divider must be one of {VALID_PGA_DIVIDERS}")
        if self.resolution_bits not in VALID_RESOLUTIONS:
            raise ValueError(f"resolution_bits must be one of {VALID_RESOLUTIONS}")
        if self.bus_range not in VALID_BUS_RANGES:
            raise ValueError(f"bus_range must be one of {VALID_BUS_RANGES}")
        if self.supply_voltage not in VALID_SUPPLIES:
            raise ValueError(f"supply_voltage must be one of {VALID_SUPPLIES}")

    @property
    def shunt_lsb_volts(self) -> float:
        """Shunt LSB at divider 1 (about 9.77uV at 12 bit)."""
        return SHUNT_FULL_SCALE_V / (2 ** self.resolution_bits - 1)

    @property
    def current_lsb_amps(self) -> float:
        """Current per count at divider 1 (about 97.7uA with 0.1 ohm)."""
        return self.shunt_lsb_volts / self.shunt_resistance

    @property
    def bus_lsb_volts(self) -> float:
        return self.bus_range / (2 ** self.resolution_bits - 1)

    # cached: the chip model's scalar quantizers read these on every conversion
    @cached_property
    def max_count(self) -> int:
        return 2 ** self.resolution_bits - 1

    @cached_property
    def shunt_counts_per_volt(self) -> float:
        """Shunt register counts per volt across the shunt, this divider."""
        return self.max_count / (SHUNT_FULL_SCALE_V * self.pga_divider)

    @cached_property
    def shunt_counts_per_amp(self) -> float:
        """Shunt register counts per ampere through the shunt, this divider."""
        return self.shunt_counts_per_volt * self.shunt_resistance


# --------------------------------------------------------------------------
# Quantization
# --------------------------------------------------------------------------

# The scalar forms serve the chip model's per-conversion latch, the array
# forms the vectorized pipeline, which reads the registers back at once; both
# evaluate the same expressions in the same order, so they agree bit for bit,
# and both return the reading with whether the full-scale clamp moved it.
# The array forms work in place on the arrays they allocate: at 9 bit a 30 s
# run is ~143k readings, and every fresh full-length array is 1.1 MB.  Each
# is split in two at the floor, so that the pipeline can look at the
# pre-floor counts (how far a reading lies from the next count) before it
# floors them.

def quantize_shunt(current_a: float, config: SensorConfig) -> tuple[int, bool]:
    """Current -> (signed shunt register count, saturated): floor(current *
    R / (lsb * divider)), clamped to the signed full-scale count."""
    raw = math.floor(current_a * config.shunt_resistance
                     * config.shunt_counts_per_volt)
    count = max(-config.max_count, min(config.max_count, raw))
    return count, count != raw


def quantize_shunt_array(current_a: np.ndarray, config: SensorConfig):
    """Array form of :func:`quantize_shunt` read back by
    :func:`dequantize_shunt`: (amperes, saturated mask)."""
    return floor_shunt_array(shunt_counts_array(current_a, config), config)


def shunt_counts_array(current_a: np.ndarray, config: SensorConfig):
    """The pre-floor counts of :func:`quantize_shunt_array`, a new array."""
    raw = np.multiply(current_a, config.shunt_resistance)
    raw *= config.shunt_counts_per_volt
    return raw


def floor_shunt_array(raw: np.ndarray, config: SensorConfig):
    """The rest of :func:`quantize_shunt_array`: floors ``raw`` in place."""
    np.floor(raw, out=raw)
    amps = np.clip(raw, -config.max_count, config.max_count)
    saturated = raw != amps
    amps /= config.shunt_counts_per_amp
    return amps, saturated


def dequantize_shunt(count, config: SensorConfig):
    """Shunt register count(s) -> amperes (inverse mapping, one-LSB accurate)."""
    return count / config.shunt_counts_per_amp


def quantize_bus(voltage_v: float, config: SensorConfig) -> tuple[int, bool]:
    """Bus voltage -> (register count clamped to [0, full scale], saturated)."""
    raw = math.floor(voltage_v * config.max_count / config.bus_range)
    count = max(0, min(config.max_count, raw))
    return count, count != raw


def quantize_bus_array(voltage_v: np.ndarray, config: SensorConfig):
    """Array form of :func:`quantize_bus` read back by :func:`dequantize_bus`:
    (volts, saturated mask)."""
    return floor_bus_array(bus_counts_array(voltage_v, config), config)


def bus_counts_array(voltage_v: np.ndarray, config: SensorConfig):
    """The pre-floor counts of :func:`quantize_bus_array`, a new array."""
    raw = np.multiply(voltage_v, config.max_count)
    raw /= config.bus_range
    return raw


def floor_bus_array(raw: np.ndarray, config: SensorConfig):
    """The rest of :func:`quantize_bus_array`: floors ``raw`` in place."""
    np.floor(raw, out=raw)
    volts = np.clip(raw, 0, config.max_count)
    saturated = raw != volts
    volts *= config.bus_range
    volts /= config.max_count
    return volts, saturated


def dequantize_bus(count, config: SensorConfig):
    """Bus register count(s) -> volts."""
    return count * config.bus_range / config.max_count


# --------------------------------------------------------------------------
# Conversion timing
# --------------------------------------------------------------------------

#: Effective time to prepare one averaged sample, microseconds, per
#: resolution.  The datasheet conversion figures (532-586us at 12 bit, 84-93us
#: at 9 bit) understate the end-to-end sample preparation time; these are
#: fitted so the full polling pipeline reproduces the measured sampling rates
#: (about 950 sps at 12 bit, 4350 sps at 9 bit over a 500kHz bus with the fast
#: driver stack).
CONVERSION_US = {12: 1050.0, 9: 209.0}
#: Running the chip at 3.3V instead of 5V slows the decimator by this much.
LOW_VOLTAGE_PENALTY_US = 64.0


def conversion_time_us(config: SensorConfig) -> float:
    """Time to prepare one averaged sample, in microseconds."""
    base = CONVERSION_US[config.resolution_bits]
    if config.supply_voltage == 3.3:
        return base + LOW_VOLTAGE_PENALTY_US
    return base


# --------------------------------------------------------------------------
# Board transfer characteristics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoardCharacter:
    """Analog transfer error of a particular board build.

    The current path impedance between shunt and chip scales the sensed
    current; a quadratic term appears on breakout-style boards above about
    300mA.  Bus voltage reads low by a fixed drop.  ``sensed = quad * i**2 +
    gain * i`` and ``v_sensed = v + voltage_offset``.
    """

    name: str
    current_gain: float
    current_quad: float
    voltage_offset: float

    def sense_current(self, mean_i: float, mean_i_sq: float | None) -> float:
        if self.current_quad == 0.0:
            return self.current_gain * mean_i
        return self.current_quad * mean_i_sq + self.current_gain * mean_i

    def sense_voltage(self, mean_v: float) -> float:
        return mean_v + self.voltage_offset


IDEAL_BOARD = BoardCharacter("ideal", 1.0, 0.0, 0.0)
SHIELD_BOARD = BoardCharacter("shield", 0.9956, 0.0, -0.027)
BREAKOUT_BOARD = BoardCharacter("breakout", 0.982, 0.0074, -0.097)

BOARDS = {b.name: b for b in (IDEAL_BOARD, SHIELD_BOARD, BREAKOUT_BOARD)}


# --------------------------------------------------------------------------
# Simulated chip + bus
# --------------------------------------------------------------------------

class SimulatedSensor:
    """Behavioral model of the monitor chip against an analog input.

    Drive it by calling :meth:`step` with the applied load at increasing
    timestamps; the input is held constant between calls (zero-order hold).
    Whenever a conversion window closes, the registers are loaded with the
    quantized mean of the input over that window and the conversion-ready
    flag is set.  Reading the bus-voltage register clears the flag.
    """

    def __init__(self, config: SensorConfig,
                 board: BoardCharacter = IDEAL_BOARD):
        self.config = config
        self.board = board
        self.registers = {REG_SHUNT_VOLTAGE: 0, REG_BUS_VOLTAGE: 0}
        self.conversions_done = 0
        self._window_ns = int(round(conversion_time_us(config) * 1000.0))
        self._window_start_ns = 0
        self._now_ns = 0
        self._cur_i = 0.0
        self._cur_v = 0.0
        self._acc_i = 0.0   # integral of i over the open window, A*ns
        self._acc_i2 = 0.0  # integral of i^2, A^2*ns
        self._acc_v = 0.0   # integral of v, V*ns

    # -- analog side --------------------------------------------------

    def step(self, current_a: float, bus_v: float, now_ns: int) -> None:
        """Advance the model to ``now_ns`` with the given applied load."""
        if now_ns < self._now_ns:
            raise ValueError("time must not regress")
        # integrate the held input up to each window boundary passed, latching
        # that conversion, then up to now (one pass unless a window closed;
        # this runs once per register read of the polling loop)
        while True:
            boundary = self._window_start_ns + self._window_ns
            to_ns = now_ns if now_ns < boundary else boundary
            dt = to_ns - self._now_ns
            if dt > 0:
                self._acc_i += self._cur_i * dt
                self._acc_i2 += self._cur_i * self._cur_i * dt
                self._acc_v += self._cur_v * dt
                self._now_ns = to_ns
            if now_ns < boundary:
                break
            self._latch_conversion()
            self._window_start_ns = boundary
        self._cur_i = current_a
        self._cur_v = bus_v

    def _latch_conversion(self) -> None:
        window = float(self._window_ns)
        mean_i = self._acc_i / window
        mean_i2 = self._acc_i2 / window
        mean_v = self._acc_v / window
        self._acc_i = self._acc_i2 = self._acc_v = 0.0

        sensed_i = self.board.sense_current(mean_i, mean_i2)
        sensed_v = self.board.sense_voltage(mean_v)

        shunt_count, shunt_over = quantize_shunt(sensed_i, self.config)
        bus_count, bus_over = quantize_bus(sensed_v, self.config)

        self.registers[REG_SHUNT_VOLTAGE] = shunt_count & 0xFFFF
        word = (bus_count << 3) | _CNVR_BIT
        if shunt_over or bus_over:
            word |= _OVF_BIT
        self.registers[REG_BUS_VOLTAGE] = word
        self.conversions_done += 1

    # -- digital side ---------------------------------------------------

    def read_register(self, addr: int) -> int:
        value = self.registers[addr]
        if addr == REG_BUS_VOLTAGE:
            # ready flag is observable exactly once per conversion
            self.registers[REG_BUS_VOLTAGE] = value & ~_CNVR_BIT
        return value


class SimulatedBus:
    """The register bus, wired straight to a :class:`SimulatedSensor`."""

    def __init__(self, sensor: SimulatedSensor):
        self.sensor = sensor

    def read_register(self, addr: int) -> int:
        return self.sensor.read_register(addr)


def conversion_ready(bus_word: int) -> bool:
    return bool(bus_word & _CNVR_BIT)


def bus_overflow(bus_word):
    return (bus_word & _OVF_BIT) != 0


def bus_count_from_word(bus_word):
    return bus_word >> 3


def shunt_count_from_word(shunt_word):
    """Sign-extend 16-bit shunt word(s); every word decoder takes an int or an array."""
    return (shunt_word ^ 0x8000) - 0x8000

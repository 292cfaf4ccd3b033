"""Sensor model: quantization, register semantics, conversion timing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emeter.experiment import PipelineOptions, convert
from emeter.sensor import (
    BREAKOUT_BOARD,
    REG_BUS_VOLTAGE,
    REG_SHUNT_VOLTAGE,
    SHIELD_BOARD,
    VALID_BUS_RANGES,
    VALID_PGA_DIVIDERS,
    VALID_RESOLUTIONS,
    SensorConfig,
    SimulatedSensor,
    bus_count_from_word,
    bus_overflow,
    conversion_ready,
    conversion_time_us,
    dequantize_bus,
    dequantize_shunt,
    quantize_bus,
    quantize_bus_array,
    quantize_shunt,
    quantize_shunt_array,
    shunt_count_from_word,
)

CFG12 = SensorConfig()
CFG9 = SensorConfig(resolution_bits=9)


def brute_force_shunt_code(current_a, config):
    """Independent oracle: scan the code table for the floor code."""
    lsb_i = config.shunt_lsb_volts * config.pga_divider / config.shunt_resistance
    best = -config.max_count - 1
    for code in range(-config.max_count, config.max_count + 1):
        if code * lsb_i <= current_a:
            best = max(best, code)
    return best


class TestShuntQuantization:
    def test_lsb_sizes(self):
        # 40mV full scale over 2**12 - 1 counts, about 10uV
        assert CFG12.shunt_lsb_volts == pytest.approx(40e-3 / 4095)
        assert CFG12.current_lsb_amps == pytest.approx(97.68e-6, rel=1e-3)
        # 9-bit resolution coarsens the minimum detectable step to ~780uA
        assert CFG9.current_lsb_amps == pytest.approx(782.8e-6, rel=1e-3)

    def test_ten_milliamp_square(self):
        # 10mA across 0.1 ohm is 1mV; with the exact 40mV/4095 LSB that is
        # floor(1mV / 9.768uV) = 102 counts (the nominal "10uV, 100uA per
        # count" arithmetic would say 100)
        assert quantize_shunt(10e-3, CFG12) == (102, False)
        assert quantize_shunt(10e-3, CFG12) == (brute_force_shunt_code(10e-3, CFG12), False)

    def test_zero_is_zero(self):
        assert quantize_shunt(0.0, CFG12) == (0, False)

    def test_divider8_against_code_table(self):
        cfg = SensorConfig(pga_divider=8)
        # frozen from the brute-force enumeration of all codes
        assert brute_force_shunt_code(799.95e-3, cfg) == 1023
        assert quantize_shunt(799.95e-3, cfg) == (1023, False)

    def test_round_trip_within_one_lsb(self):
        rng = np.random.default_rng(7)
        for cfg in (CFG12, CFG9, SensorConfig(pga_divider=4)):
            full_scale = cfg.max_count / cfg.shunt_counts_per_amp
            lsb = cfg.current_lsb_amps * cfg.pga_divider
            for current in rng.uniform(-full_scale, full_scale, 500):
                code, saturated = quantize_shunt(current, cfg)
                assert not saturated
                back = dequantize_shunt(code, cfg)
                assert abs(back - current) <= lsb * (1 + 1e-9)

    def test_saturation_clamps_and_flags(self):
        cfg = SensorConfig(pga_divider=1)
        over = 0.45  # 45mV across the shunt, beyond the 40mV range
        assert quantize_shunt(over, cfg) == (cfg.max_count, True)
        assert quantize_shunt(-over, cfg) == (-cfg.max_count, True)
        # exactly at full scale is still in range
        assert quantize_shunt(0.4, cfg) == (cfg.max_count, False)

    def test_full_scale_per_divider(self):
        for divider, mv in ((1, 40), (2, 80), (4, 160), (8, 320)):
            cfg = SensorConfig(pga_divider=divider)
            assert cfg.max_count / cfg.shunt_counts_per_volt == pytest.approx(mv * 1e-3)


class TestBusQuantization:
    def test_five_volts(self):
        # direct evaluation of the LSB formula: floor(5 * 4095 / 16) = 1279
        assert quantize_bus(5.0, CFG12) == (1279, False)
        assert 5.0 - dequantize_bus(1279, CFG12) <= CFG12.bus_lsb_volts

    def test_zero_and_full_scale(self):
        assert quantize_bus(0.0, CFG12) == (0, False)
        assert quantize_bus(16.0, CFG12) == (4095, False)

    def test_saturation(self):
        assert quantize_bus(16.2, CFG12) == (4095, True)
        assert quantize_bus(-0.1, CFG12) == (0, True)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for volts in rng.uniform(0, 16, 500):
            count, saturated = quantize_bus(volts, CFG12)
            assert not saturated
            back = dequantize_bus(count, CFG12)
            assert abs(back - volts) <= CFG12.bus_lsb_volts * (1 + 1e-9)


ALL_CONFIGS = [SensorConfig(pga_divider=d, resolution_bits=r, bus_range=b)
               for r in VALID_RESOLUTIONS for d in VALID_PGA_DIVIDERS
               for b in VALID_BUS_RANGES]


def near_count_boundaries(unit: float, max_count: int):
    """Inputs at ``k * unit`` or one ulp either side, k up to 3 past full scale."""
    k = st.integers(-max_count - 3, max_count + 3)
    side = st.sampled_from([-math.inf, 0.0, math.inf])
    return st.builds(lambda k, s: math.nextafter(k * unit, s) if s else k * unit,
                     k, side)


def inputs(unit: float, max_count: int):
    span = 3 * unit * max_count
    return st.lists(st.one_of(near_count_boundaries(unit, max_count),
                              st.floats(-span, span)), min_size=1, max_size=40)


class TestScalarArrayQuantizers:
    """The chip's scalar latch and the pipeline's array path agree exactly."""

    @pytest.mark.parametrize(
        "config", ALL_CONFIGS,
        ids=lambda c: f"{c.resolution_bits}b-div{c.pga_divider}-{c.bus_range:g}V")
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_element_by_element(self, config, data):
        amps_unit = 1.0 / (config.shunt_counts_per_volt * config.shunt_resistance)
        amps = data.draw(inputs(amps_unit, config.max_count))
        current, saturated = quantize_shunt_array(np.array(amps), config)
        assert list(zip(current.tolist(), saturated.tolist())) == [
            (dequantize_shunt(count, config), over)
            for count, over in (quantize_shunt(a, config) for a in amps)]

        volts = data.draw(inputs(config.bus_range / config.max_count,
                                 config.max_count))
        bus_v, saturated = quantize_bus_array(np.array(volts), config)
        assert list(zip(bus_v.tolist(), saturated.tolist())) == [
            (dequantize_bus(count, config), over)
            for count, over in (quantize_bus(v, config) for v in volts)]

    @pytest.mark.parametrize(
        "config", ALL_CONFIGS,
        ids=lambda c: f"{c.resolution_bits}b-div{c.pga_divider}-{c.bus_range:g}V")
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_pipeline_quantize_stage(self, config, data):
        # the pipeline's conversion stage, noise off, reads back what the
        # chip latches; it clips the current at zero amperes first
        amps = data.draw(inputs(1.0 / (config.shunt_counts_per_volt
                                       * config.shunt_resistance), config.max_count))
        volts = data.draw(inputs(config.bus_range / config.max_count, config.max_count))
        n = min(len(amps), len(volts))
        amps, volts = amps[:n], volts[:n]
        quiet = PipelineOptions(noise_current_a=0.0, noise_voltage_v=0.0)
        current, bus_v, saturated = convert(quiet, config, np.array(amps), np.array(volts))
        expected = []
        for a, v in zip(amps, volts):
            shunt_count, shunt_over = quantize_shunt(max(a, 0.0), config)
            bus_count, bus_over = quantize_bus(v, config)
            expected.append((dequantize_shunt(shunt_count, config),
                             dequantize_bus(bus_count, config), shunt_over or bus_over))
        assert list(zip(current.tolist(), bus_v.tolist(), saturated.tolist())) == expected


class TestConversionTiming:
    def test_low_voltage_penalty(self):
        t5 = conversion_time_us(SensorConfig(resolution_bits=12, supply_voltage=5.0))
        t33 = conversion_time_us(SensorConfig(resolution_bits=12, supply_voltage=3.3))
        assert t33 - t5 == pytest.approx(64.0)

    def test_monotone_in_resolution(self):
        t9 = conversion_time_us(CFG9)
        t12 = conversion_time_us(CFG12)
        assert t12 > t9

    def test_deterministic(self):
        assert conversion_time_us(CFG12) == conversion_time_us(CFG12)


class TestConfigRegister:
    def test_validation(self):
        with pytest.raises(ValueError):
            SensorConfig(pga_divider=3)
        with pytest.raises(ValueError):
            SensorConfig(resolution_bits=10)
        with pytest.raises(ValueError):
            SensorConfig(bus_range=24.0)
        with pytest.raises(ValueError):
            SensorConfig(shunt_resistance=0.0)


class TestSimulatedSensor:
    def window_ns(self, sensor):
        return sensor._window_ns

    def test_constant_input_average(self):
        sensor = SimulatedSensor(CFG12)
        w = self.window_ns(sensor)
        sensor.step(5e-3, 5.0, 0)
        sensor.step(5e-3, 5.0, w)
        word = sensor.read_register(REG_BUS_VOLTAGE)
        assert conversion_ready(word)
        shunt = shunt_count_from_word(sensor.read_register(REG_SHUNT_VOLTAGE))
        # constant 5mA averages to the quantized constant exactly
        assert (shunt, False) == quantize_shunt(5e-3, CFG12)
        assert (bus_count_from_word(word), False) == quantize_bus(5.0, CFG12)
        assert not bus_overflow(word)

    def test_alternating_input_averages_inside_window(self):
        sensor = SimulatedSensor(CFG12)
        w = self.window_ns(sensor)
        # 0 and 100mA with equal dwell inside one window -> mean 50mA
        steps = 10
        for k in range(steps):
            sensor.step(0.0 if k % 2 == 0 else 100e-3, 5.0, k * w // steps)
        sensor.step(0.0, 5.0, w)
        shunt = shunt_count_from_word(sensor.read_register(REG_SHUNT_VOLTAGE))
        expected, _ = quantize_shunt(50e-3, CFG12)
        assert abs(shunt - expected) <= 1

    def test_time_regression_rejected(self):
        sensor = SimulatedSensor(CFG12)
        sensor.step(0.0, 5.0, 1000)
        with pytest.raises(ValueError):
            sensor.step(0.0, 5.0, 500)

    def test_ready_flag_observable_once_per_conversion(self):
        sensor = SimulatedSensor(CFG12)
        w = self.window_ns(sensor)
        sensor.step(1e-3, 5.0, w)
        assert conversion_ready(sensor.read_register(REG_BUS_VOLTAGE))
        # cleared by the read; no new conversion yet
        assert not conversion_ready(sensor.read_register(REG_BUS_VOLTAGE))
        sensor.step(1e-3, 5.0, 2 * w)
        assert conversion_ready(sensor.read_register(REG_BUS_VOLTAGE))

    def test_ready_flag_once_under_fast_polling(self):
        sensor = SimulatedSensor(CFG12)
        w = self.window_ns(sensor)
        seen = 0
        for t in range(0, 3 * w + 1, w // 20):
            sensor.step(2e-3, 5.0, t)
            if conversion_ready(sensor.read_register(REG_BUS_VOLTAGE)):
                seen += 1
        assert seen == sensor.conversions_done == 3

    def test_overflow_bit_sticky_within_sample(self):
        cfg = SensorConfig(pga_divider=1)
        sensor = SimulatedSensor(cfg)
        w = self.window_ns(sensor)
        sensor.step(3.0, 5.0, 0)  # far beyond 400mA full scale
        sensor.step(3.0, 5.0, w)
        word = sensor.read_register(REG_BUS_VOLTAGE)
        assert bus_overflow(word)
        shunt = shunt_count_from_word(sensor.read_register(REG_SHUNT_VOLTAGE))
        assert shunt == cfg.max_count  # clamps, never wraps

    def test_bus_overflow_sets_ovf_and_clamps_bus_count_only(self):
        sensor = SimulatedSensor(CFG12)
        w = self.window_ns(sensor)
        sensor.step(5e-3, 16.5, 0)  # above the 16V bus range
        sensor.step(5e-3, 16.5, w)
        word = sensor.read_register(REG_BUS_VOLTAGE)
        assert bus_overflow(word)
        assert bus_count_from_word(word) == CFG12.max_count
        shunt = shunt_count_from_word(sensor.read_register(REG_SHUNT_VOLTAGE))
        assert (shunt, False) == quantize_shunt(5e-3, CFG12)


class TestBoardCharacters:
    def test_shield_gain(self):
        assert SHIELD_BOARD.sense_current(0.5, 0.25) == pytest.approx(0.4978)
        assert SHIELD_BOARD.sense_voltage(5.027) == pytest.approx(5.0)

    def test_breakout_quadratic(self):
        i = 0.5
        expected = 0.0074 * i * i + 0.982 * i
        assert BREAKOUT_BOARD.sense_current(i, i * i) == pytest.approx(expected)

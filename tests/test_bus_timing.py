"""Bus timing model: polling table, throughputs, jitter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emeter.bus_timing import (
    BCM_PROFILE,
    LINUX_PROFILE,
    PROFILES,
    READ_DELAYS_US,
    SUPPORTED_SPEEDS_KHZ,
    OperatingPoint,
    UnsupportedOperatingPoint,
    expected_polls,
    read_delays_us,
)
from emeter.sensor import SensorConfig

# published polling counts per (resolution, driver, bus speed kHz)
POLLING_TABLE = {
    (12, "bcm", 2500): 45, (12, "bcm", 800): 15,
    (12, "bcm", 500): 9, (12, "bcm", 200): 3,
    (12, "linux", 2500): 23, (12, "linux", 800): 9,
    (12, "linux", 500): 6, (12, "linux", 200): 2,
    (9, "bcm", 2500): 9, (9, "bcm", 800): 2,
    (9, "bcm", 500): 1, (9, "bcm", 200): 1,
    (9, "linux", 2500): 4, (9, "linux", 800): 1,
    (9, "linux", 500): 1, (9, "linux", 200): 1,
}


def stats(res, driver, speed):
    cfg = SensorConfig(resolution_bits=res, supply_voltage=5.0)
    return expected_polls(PROFILES[driver], speed, cfg)


class TestPollingTable:
    @pytest.mark.parametrize("key,polls", sorted(POLLING_TABLE.items()))
    def test_cell_within_one_poll(self, key, polls):
        res, driver, speed = key
        assert abs(stats(res, driver, speed).polls_per_sample - polls) <= 1

    def test_polls_at_least_one(self):
        for (res, driver, speed) in POLLING_TABLE:
            assert stats(res, driver, speed).polls_per_sample >= 1

    def test_canonical_cells_exact(self):
        assert stats(12, "bcm", 2500).polls_per_sample == 45
        assert stats(12, "bcm", 200).polls_per_sample == 3


class TestThroughput:
    def test_nine_bit_rates(self):
        bcm = stats(9, "bcm", 500).samples_per_second
        linux = stats(9, "linux", 500).samples_per_second
        assert bcm == pytest.approx(4350, rel=0.10)
        assert linux == pytest.approx(3360, rel=0.10)
        assert linux < bcm

    def test_twelve_bit_rate_near_1000(self):
        assert 900 <= stats(12, "bcm", 2500).samples_per_second <= 1100

    def test_rate_monotone_in_speed(self):
        for res in (9, 12):
            for driver in ("bcm", "linux"):
                rates = [stats(res, driver, s).samples_per_second
                         for s in sorted(SUPPORTED_SPEEDS_KHZ)]
                assert all(a <= b + 1e-9 for a, b in zip(rates, rates[1:]))

    def test_linux_never_faster_than_bcm(self):
        for res in (9, 12):
            for speed in SUPPORTED_SPEEDS_KHZ:
                assert (stats(res, "linux", speed).samples_per_second
                        <= stats(res, "bcm", speed).samples_per_second + 1e-9)

    def test_low_voltage_lowers_rate(self):
        cfg5 = SensorConfig(resolution_bits=12, supply_voltage=5.0)
        cfg33 = SensorConfig(resolution_bits=12, supply_voltage=3.3)
        r5 = expected_polls(BCM_PROFILE, 500, cfg5).samples_per_second
        r33 = expected_polls(BCM_PROFILE, 500, cfg33).samples_per_second
        assert r33 < r5


class TestReadDelay:
    def test_linux_at_least_20us_slower(self):
        for delays in READ_DELAYS_US.values():
            assert delays["linux"] >= delays["bcm"] + 20.0

    def test_jitter_band(self):
        rng = np.random.default_rng(11)
        for profile in (BCM_PROFILE, LINUX_PROFILE):
            mean = READ_DELAYS_US[500][profile.name]
            half = profile.jitter_range_us / 2
            draws = read_delays_us(mean, half, rng, 2000)
            assert np.all(draws >= mean - half - 1e-12)
            assert np.all(draws <= mean + half + 1e-12)
            assert abs(draws.mean() - mean) < half / 5

    def test_jitter_widths(self):
        assert BCM_PROFILE.jitter_range_us == pytest.approx(4.0)
        assert LINUX_PROFILE.jitter_range_us == pytest.approx(22.0)

    def test_zero_band_is_the_mean(self):
        mean = READ_DELAYS_US[800]["bcm"]
        draws = read_delays_us(mean, 0.0, np.random.default_rng(3), 50)
        assert draws.tolist() == [mean] * 50

    def test_unsupported_speed(self):
        with pytest.raises(UnsupportedOperatingPoint):
            OperatingPoint(BCM_PROFILE, 1000, SensorConfig(supply_voltage=5.0))
        with pytest.raises(UnsupportedOperatingPoint):
            expected_polls(BCM_PROFILE, 1000, SensorConfig(supply_voltage=5.0))

    def test_fast_bus_low_voltage_rejected(self):
        cfg = SensorConfig(supply_voltage=3.3)
        with pytest.raises(UnsupportedOperatingPoint):
            OperatingPoint(BCM_PROFILE, 2500, cfg)
        with pytest.raises(UnsupportedOperatingPoint):
            expected_polls(BCM_PROFILE, 2500, cfg)
        # the same point at 5V is fine
        expected_polls(BCM_PROFILE, 2500, SensorConfig(supply_voltage=5.0))


class TestReadDelayBlocks:
    """The polling loop draws delays in blocks; one-draw calls must see the
    same doubles from the same generator stream."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(1, 300),
           driver=st.sampled_from(sorted(PROFILES)),
           speed=st.sampled_from(SUPPORTED_SPEEDS_KHZ))
    def test_one_draw_view_equals_array_form(self, seed, n, driver, speed):
        profile = PROFILES[driver]
        mean, half = READ_DELAYS_US[speed][driver], profile.jitter_range_us / 2.0
        one_by_one = np.random.default_rng(seed)
        draws = [float(read_delays_us(mean, half, one_by_one, 1)[0]) for _ in range(n)]
        block = np.random.default_rng(seed)
        array = read_delays_us(mean, half, block, n)
        assert draws == array.tolist()
        assert one_by_one.bit_generator.state == block.bit_generator.state


class TestDelayConfig:
    def test_period_is_conversion_bound(self):
        cfg = SensorConfig(resolution_bits=12)
        # at 12 bit every period is conversion-limited
        for speed in SUPPORTED_SPEEDS_KHZ:
            assert OperatingPoint(BCM_PROFILE, speed, cfg).period_us >= 1000.0

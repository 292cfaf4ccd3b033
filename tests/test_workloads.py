"""Load profiles, device presets and the reference meter oracle."""

import hashlib

import numpy as np
import pytest

from emeter.bus_timing import BCM_PROFILE, OperatingPoint
from emeter.experiment import schedule
from emeter.sampler import PowerSaveMode, TriggerSpec
from emeter.sensor import SensorConfig
from emeter.workloads import (
    PRESETS,
    WORKLOAD_STATES,
    LoadProfile,
    ReferenceMeter,
    constant_profile,
    exact_energy,
    generate_profile,
)


class TestExactEnergy:
    def test_constant_power(self):
        profile = constant_profile(0.2, 5.0, 2.0)  # 1W for 2s
        assert exact_energy(profile) == pytest.approx(2.0)

    def test_spike_train_rectangle_sum(self):
        # base 0.1A with 10 spikes of 0.5A, 2ms wide, at 5V
        edges, levels = [0.0], []
        t = 0.0
        for _ in range(10):
            levels += [0.1, 0.5]
            edges += [t + 0.008, t + 0.010]
            t += 0.010
        profile = LoadProfile(np.array(edges), np.array(levels),
                              np.full(len(levels), 5.0))
        expected = 5.0 * (0.1 * 0.008 + 0.5 * 0.002) * 10
        assert exact_energy(profile) == pytest.approx(expected)

    def test_window_subsets(self):
        profile = constant_profile(0.2, 5.0, 10.0)
        assert exact_energy(profile, (2.0, 7.0)) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            exact_energy(profile, (0.0, 11.0))

    def test_profile_time_starts_at_zero(self):
        # exact_energy checks a window against [0, duration]
        with pytest.raises(ValueError, match="edges must start at 0 s"):
            LoadProfile(np.array([1.0, 2.0]), np.array([0.1]), np.array([5.0]))

    def test_random_profile_vs_fine_quadrature(self):
        # oracle: per-segment midpoint quadrature, ~1e7 points total
        profile = generate_profile("bcm4343w", 1, seed=5, duration=10.0)
        edges = profile.edges
        power = profile.current * profile.voltage
        widths = np.diff(edges)
        per_seg = np.maximum((widths / widths.sum() * 1e7).astype(int), 1)
        total = 0.0
        for (t0, w, p, n) in zip(edges[:-1], widths, power, per_seg):
            total += p * w  # constant per segment: midpoint sum is exact
        oracle = total
        assert exact_energy(profile) == pytest.approx(oracle, rel=1e-8)

    def test_additive_over_windows(self):
        profile = generate_profile("rpizw", 2, seed=9, duration=6.0)
        whole = exact_energy(profile)
        parts = exact_energy(profile, (0.0, 2.5)) + exact_energy(profile, (2.5, 6.0))
        assert whole == pytest.approx(parts, rel=1e-12)


class TestGenerateProfile:
    def test_deterministic_under_seed(self):
        a = generate_profile("cyw43907", 1, seed=11, duration=5.0)
        b = generate_profile("cyw43907", 1, seed=11, duration=5.0)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.current, b.current)
        c = generate_profile("cyw43907", 1, seed=12, duration=5.0)
        assert not np.array_equal(a.current, c.current)

    def test_workload2_alternates_sleep_and_tx(self):
        profile = generate_profile("cc2650", 2, seed=0, duration=4.0)
        preset = PRESETS["cc2650"]
        # sample the middle of each 500ms dwell
        mids = np.arange(8) * 0.5 + 0.25
        currents = profile.current_at(mids)
        assert np.allclose(currents[0::2], preset.sleep_current)
        # tx dwells sit at base or peak level, never at sleep
        assert np.all(currents[1::2] >= preset.tx_base_current - 1e-12)

    def test_workload3_has_no_spikes(self):
        profile = generate_profile("rpi3", 3, seed=0, duration=4.0)
        assert profile.current.max() <= PRESETS["rpi3"].processing_current + 1e-3

    def test_cc2650_sleep_level_and_mode(self):
        preset = PRESETS["cc2650"]
        assert preset.sleep_current == pytest.approx(1e-6)
        profile = generate_profile("cc2650", 1, seed=0, duration=3.0)
        assert profile.power_save_modes == [PowerSaveMode(0, 1e-6, 3.3)]
        assert len(profile.power_save_intervals) == 2  # dwells 0 and 3
        (s0, e0, m0) = profile.power_save_intervals[0]
        assert (s0, e0, m0) == (0.0, 0.5, 0)

    def test_level_anchors(self):
        assert PRESETS["cc2650"].tx_peak_current == pytest.approx(30e-3)
        assert PRESETS["cyw43907"].sleep_current == pytest.approx(96e-3)
        assert PRESETS["cyw43907"].tx_peak_current == pytest.approx(400e-3)
        assert PRESETS["rpi3"].sleep_current == pytest.approx(280e-3, rel=0.01)
        assert PRESETS["rpi3"].tx_peak_current == pytest.approx(500e-3)
        assert PRESETS["rpizw"].sleep_current == pytest.approx(130e-3)
        assert PRESETS["rpizw"].tx_peak_current == pytest.approx(300e-3)
        assert PRESETS["bcm4343w"].sleep_current == pytest.approx(10e-3, rel=0.05)
        assert PRESETS["bcm4343w"].tx_peak_current == pytest.approx(350e-3, rel=0.01)

    def test_wifi_range_46x_wider(self):
        # robust current span (99th time-weighted percentile over minimum)
        wifi = generate_profile("cyw43907", 1, seed=0, duration=30.0)
        tag = generate_profile("cc2650", 1, seed=0, duration=30.0)
        span_wifi = wifi.time_weighted_quantile(0.99) - wifi.current.min()
        span_tag = tag.time_weighted_quantile(0.99) - tag.current.min()
        assert span_wifi / span_tag == pytest.approx(46.0, abs=2.0)

    @pytest.mark.parametrize("source", ["supply", "battery"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_shorter_profile_is_a_prefix(self, preset, source):
        # the spike offsets and the ripple steps each draw their own keyed
        # stream in time order, so a 2 s profile is the first 2 s of the 4 s
        # one; 2 s ends on a dwell boundary, so no dwell is cut short
        for workload in (1, 2, 3, 4):
            short = generate_profile(preset, workload, seed=5, duration=2.0, source=source)
            longer = generate_profile(preset, workload, seed=5, duration=4.0, source=source)
            n = len(short.current)
            assert short.edges.tobytes() == longer.edges[:n + 1].tobytes()
            assert short.current.tobytes() == longer.current[:n].tobytes()
            assert short.voltage.tobytes() == longer.voltage[:n].tobytes()
            assert short.power_save_intervals == [
                interval for interval in longer.power_save_intervals if interval[1] <= 2.0]

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_level_exceeds_the_ripple(self, name):
        # generate_profile adds the ripple steps, drawn from [-ripple,
        # ripple), to the state levels unclipped, so no level may go negative
        preset = PRESETS[name]
        for level in (preset.sleep_current, preset.processing_current,
                      preset.tx_base_current, preset.tx_peak_current):
            assert level > preset.activity_ripple_a

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            generate_profile("nonsense", 1)
        with pytest.raises(ValueError):
            generate_profile("cc2650", 5)

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("nan"), float("inf")])
    def test_duration_must_be_finite_and_positive(self, duration):
        with pytest.raises(ValueError, match="duration must be finite and positive"):
            generate_profile("cc2650", 1, duration=duration)


class TestParts:
    """A preset's profile integrates its parts, and agrees with its merged
    form to the rounding of the cumulative integrals."""

    @pytest.mark.parametrize("bits", [12, 9])
    @pytest.mark.parametrize("workload", [1, 3])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_parts_match_merged_form(self, preset, workload, bits):
        profile = generate_profile(preset, workload, seed=3, duration=30.0)
        merged = LoadProfile(profile.edges, profile.current, profile.voltage)
        point = OperatingPoint(BCM_PROFILE, 2500, SensorConfig(resolution_bits=bits))
        grid_s, _ = schedule(point, TriggerSpec.duration(30.0), 30 * 10**9)
        window_s = point.window_s
        for bounds in (grid_s, np.stack([grid_s[1:] - window_s, grid_s[1:]], axis=1)):
            mean_i, _, mean_v = profile.window_means(bounds, window_s, False)
            want_i, _, want_v = merged.window_means(bounds, window_s, False)
            assert np.abs(mean_i - want_i).max() <= 1e-10
            assert np.abs(mean_v - want_v).max() <= 1e-9
        for window in (None, (0.0123, 30.0), (7.3e-3, 20.0), (1.1, 2.7)):
            assert exact_energy(profile, window) == pytest.approx(
                exact_energy(merged, window), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_STATES))
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_declared_peak_bounds_every_level(self, name, workload):
        # the highest state level of the workload plus the ripple: no
        # segment exceeds it, and over 30 s a ripple step near its top lands
        # on that level
        profile = generate_profile(name, workload, seed=3, duration=30.0)
        headroom = profile.peak_current - profile.current.max()
        assert 0.0 <= headroom <= 2 * PRESETS[name].activity_ripple_a

    def test_general_profile_declares_its_largest_level(self):
        profile = LoadProfile(np.array([0.0, 0.1, 0.3]), np.array([0.2, 0.05]),
                              np.full(2, 5.0))
        assert profile.peak_current == 0.2


class TestProfileExact:
    """``generate_profile``'s outputs are pinned bit for bit: a change to any
    breakpoint, current or voltage level, or power-save interval fails here."""

    # sha256 over edges, current, voltage, power-save intervals and modes of
    # every {supply, battery} x {30 s, 2.3 s} x seeds {0, 11} profile
    DIGESTS = {
        ("bcm4343w", 1):
            "9eff0b26999de935da9c8ba787c58d5dfb87e8c82cfccc863fa008e592a81d8f",
        ("bcm4343w", 2):
            "98f4a3a85e6a59afe6e6f86c7c653e98841bb1d759a5ed33a8e2c9a54a389d5b",
        ("bcm4343w", 3):
            "ccd33deefc7a249b938a08be8f138fdef5db700238f78745c1b1824350b35613",
        ("bcm4343w", 4):
            "c6e1b4cf5ddacd776e07fa8a2a66a8ccd369225a2bdd36fa72ef562bd08efa84",
        ("cc2650", 1):
            "029effc300df7f01c05bd9d0ca991597b12356c154bceb539f6001b7d1d3a5cb",
        ("cc2650", 2):
            "80c63f1532cc5ad4082cba0ade90583cc8ae7fc03373a3d9d0d52522ebd40b43",
        ("cc2650", 3):
            "7d2317d4e306ac9c15bab7a33447d9806a6c0befbf1ca661e025133629771bd7",
        ("cc2650", 4):
            "4edc383988f72e49f24182741c2acb88ede7a238d441229b4e5e2f9d8b70d05e",
        ("cyw43907", 1):
            "e43fcdd5306986424e93b3ec3651f20279425dfd0e34c14a42f851d7645259e5",
        ("cyw43907", 2):
            "48b391d54c1197adc2f491c7a16ed5823498ecf040f2df13b70a00f68f35195a",
        ("cyw43907", 3):
            "b64c6956215780493b13ded2b4522ec77cdc8217fd33fbd8b09861ebf4cc1c60",
        ("cyw43907", 4):
            "44ad92256b12adb9d3a1fb1104d3adc356af74df371681a989ddc9d72f76caee",
        ("rpi3", 1):
            "d2f70622c2e8cbc5ef94c7803bd3233f38923c3205ef284160088260b6475135",
        ("rpi3", 2):
            "71ec2a577c054912d1321f033024edd1798fc74ffd2dc4faf52eb378893b499f",
        ("rpi3", 3):
            "cb40ea2d422cbe1662993279e9f56709d147fa7179213dc7f99052b9998130ad",
        ("rpi3", 4):
            "5ca430e5cd1e42d9c9bbcfc8d3d8e91e2445d8ec3e35f8e8794978165c7f0b19",
        ("rpizw", 1):
            "a1a454d6037b4c62b03311a50af617b2902816b91da3a693a349892628bb9930",
        ("rpizw", 2):
            "4f41eb6eeafc06e8288a6b67a052f5ee9b959d7ba3b7cff6114d4c4d5401dfc3",
        ("rpizw", 3):
            "854e97e8d9bdb0d19d46eed2d5affe240b0c2bf88c89e03f2ff8c1359f46b8fd",
        ("rpizw", 4):
            "c6b17406fd329979c759623f55f9dcdb9215ea8bf61218b40446fc1022a92181",
    }

    @staticmethod
    def digest(preset, workload):
        h = hashlib.sha256()
        for source in ("supply", "battery"):
            for duration in (30.0, 2.3):
                for seed in (0, 11):
                    p = generate_profile(preset, workload, seed=seed,
                                         duration=duration, source=source)
                    for column in (p.edges, p.current, p.voltage):
                        h.update(column.tobytes())
                    modes = [(m.mode_index, m.constant_current, m.nominal_voltage)
                             for m in p.power_save_modes]
                    h.update(repr((p.power_save_intervals, modes)).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("preset,workload", sorted(DIGESTS))
    def test_profile_matches_recorded_digest(self, preset, workload):
        assert self.digest(preset, workload) == self.DIGESTS[preset, workload]


class TestSourceModels:
    def test_battery_sags_with_current(self):
        profile = generate_profile("cyw43907", 1, seed=0, duration=6.0,
                                   source="battery")
        preset = PRESETS["cyw43907"]
        v_low = profile.voltage[np.argmax(profile.current)]
        v_high = profile.voltage[np.argmin(profile.current)]
        assert v_low < v_high < preset.nominal_voltage
        sag = preset.battery_resistance * profile.current
        assert np.allclose(profile.voltage, preset.nominal_voltage - sag)

    def test_supply_holds_2mv_band(self):
        profile = generate_profile("cyw43907", 1, seed=0, duration=6.0,
                                   source="supply")
        assert profile.voltage.max() - profile.voltage.min() <= 0.002 + 1e-12
        assert np.allclose(profile.voltage.mean(), 5.0, atol=1e-3)

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            generate_profile("cyw43907", 1, source="fusion")


class TestReferenceMeter:
    def test_sampled_current_quantized_to_18_bits(self):
        meter = ReferenceMeter()
        profile = constant_profile(0.123456789, 5.0, 1.0)
        value = float(meter.sample_current(profile, 0.5))
        lsb = 1.0 / 2 ** 18
        assert abs(value - 0.123456789) <= lsb / 2

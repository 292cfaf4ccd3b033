"""Load profiles, device presets and the reference meter oracle."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("edges,current,voltage,name", [
        ([0.0, math.nan, 2.0], [0.1, 0.1], [5.0, 5.0], "edges"),
        ([0.0, math.inf], [0.1], [5.0], "edges"),
        ([0.0, 1.0], [math.nan], [5.0], "current"),
        ([0.0, 1.0], [-math.inf], [5.0], "current"),
        ([0.0, 1.0], [0.1], [math.nan], "voltage"),
    ], ids=["nan-edge", "inf-last-edge", "nan-current", "inf-current", "nan-voltage"])
    def test_non_finite_input_is_refused(self, edges, current, voltage, name):
        # a NaN edge passes the increasing check, an inf last edge makes the
        # duration inf, and a NaN level gave a run a NaN device energy
        # reported as a complete run with 0.0 % error
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            LoadProfile(np.array(edges), np.array(current), np.array(voltage))

    @settings(max_examples=200, deadline=None)
    @given(duration=st.floats(1e-3, 1e3),
           cuts=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                         max_size=30),
           levels=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(3.0, 5.5)),
                           min_size=31, max_size=31),
           window=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    @example(duration=1.0, cuts=[0.5], levels=[(0.5, 5.0), (0.25, 3.0)] * 15 + [(0.1, 4.0)],
             window=(0.0, 1.0))
    def test_energy_is_the_sum_over_segments(self, duration, cuts, levels, window):
        # oracle: each segment's i * v times its overlap with the window,
        # summed; the integrator's rounding is relative to the energy up to
        # the window's end, as it differences cumulative integrals, and
        # absolute below the smallest normal float, where products lose
        # their relative precision
        edges = np.unique(np.concatenate([[0.0, duration], np.array(cuts) * duration]))
        current, voltage = np.array(levels[:len(edges) - 1]).T
        profile = LoadProfile(edges, current, voltage)
        t0, t1 = sorted(window)
        t0, t1 = t0 * duration, t1 * duration

        def overlap(lo, hi):
            return np.clip(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo), 0.0, None)

        power = current * voltage
        want = float(np.sum(power * overlap(t0, t1)))
        scale = float(np.sum(power * overlap(0.0, t1)))
        assert abs(exact_energy(profile, (t0, t1)) - want) <= (
            1e-12 * scale + np.finfo(float).tiny)

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

    @pytest.mark.parametrize("source", ["supply", "battery"])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_merged_segments_carry_their_parts_levels(self, name, source):
        # bit for bit: the merged grid is the union of the parts' grids, and
        # each segment holds every part's level at its start, the state plus
        # ripple current, and the supply voltage or the battery's sag
        profile = generate_profile(name, 1, seed=3, duration=30.0, source=source)
        parts = [*profile._currents] + ([profile._voltage] if source == "supply" else [])
        union = parts[0].edges
        for part in parts[1:]:
            union = np.union1d(union, part.edges)
        assert profile.edges.tobytes() == union.tobytes()
        starts = profile.edges[:-1]

        def at_start(part):
            return part.levels[np.searchsorted(part.edges, starts, side="right") - 1]

        current = at_start(profile._currents[0])
        for part in profile._currents[1:]:
            current = current + at_start(part)
        assert profile.current.tobytes() == current.tobytes()
        if source == "supply":
            voltage = at_start(profile._voltage)
        else:
            preset = PRESETS[name]
            voltage = preset.nominal_voltage - preset.battery_resistance * current
        assert profile.voltage.tobytes() == voltage.tobytes()

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
    # every {supply, battery} x {30 s, 2.3 s} x seeds {0, 11} profile;
    # re-recorded for the rippled presets when a merged segment took the
    # supply part's level at its start, not the phase of its midpoint
    DIGESTS = {
        ("bcm4343w", 1):
            "aa091243d6c19fbf5c755c149a268f4bfbcde952d8e88be1e96105546e5a2aa1",
        ("bcm4343w", 2):
            "92d3c2a0bfa0f0d11e141cfd6428c829be81f4a4133bfc03898baad200bfb3bd",
        ("bcm4343w", 3):
            "884d6907c258fe99a38393aac375554dccc3b5d06cc3f399d8456034fd4cdfe0",
        ("bcm4343w", 4):
            "ff3a75a035eaf9dc74d2c1c39834dd2019f60214f247b8d2bd50c43db0dfa87d",
        ("cc2650", 1):
            "029effc300df7f01c05bd9d0ca991597b12356c154bceb539f6001b7d1d3a5cb",
        ("cc2650", 2):
            "80c63f1532cc5ad4082cba0ade90583cc8ae7fc03373a3d9d0d52522ebd40b43",
        ("cc2650", 3):
            "7d2317d4e306ac9c15bab7a33447d9806a6c0befbf1ca661e025133629771bd7",
        ("cc2650", 4):
            "4edc383988f72e49f24182741c2acb88ede7a238d441229b4e5e2f9d8b70d05e",
        ("cyw43907", 1):
            "56312c10af08e1e39949dd50273e470611f8380c58782506d839718f1a531415",
        ("cyw43907", 2):
            "065e771a1b97e722721d3f171feed145012d67334dd542948cf1290e479248b7",
        ("cyw43907", 3):
            "6edc93ed9f3cf40645b88a02eeb72008d646d65a395c39811bf92d1cc0f0d29a",
        ("cyw43907", 4):
            "7f87037f70f41053e8e110364935b1f5158025512a3b8c397cb4a5096005a744",
        ("rpi3", 1):
            "a20f7b6850ab0d8a3784b79c9cc1fa71466faea081a911aa9e449368d4d2b123",
        ("rpi3", 2):
            "ab1ef1853a9f8676356c2b1a729cec1b468b68f6d24aeca727e1f4fb0bd6e9c0",
        ("rpi3", 3):
            "d16dcca32dd7a06fdf5b055f02a1d296116a95eba4dca0001f13dc452ee165fc",
        ("rpi3", 4):
            "97e81acd470d3576ac8c38a45a0048d09bdcb7d52dc6b0be1bb6cda6772089d9",
        ("rpizw", 1):
            "843fb56e04e51febd82b1d5c1a7e29698114de9eb955126c6cfbcf2fa5be20e7",
        ("rpizw", 2):
            "72fdc5b9decd519839cc0ee807d67c49f4e618eab338fdeae956b4452331fb96",
        ("rpizw", 3):
            "d99dd1dc5e166a38630376548d5739c2964cfcbbd87ee483f61ef72a60bc73dd",
        ("rpizw", 4):
            "82df0b5edfb6df92be0d1a9e91755115e9894c56b8d73f0bc88bec6f1ebe663b",
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

"""Load profiles, device presets and the reference meter oracle."""

import hashlib

import numpy as np
import pytest

from emeter.workloads import (
    PRESETS,
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
        assert profile.power_save_modes == [(0, 1e-6, 3.3)]
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

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            generate_profile("nonsense", 1)
        with pytest.raises(ValueError):
            generate_profile("cc2650", 5)

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("nan"), float("inf")])
    def test_duration_must_be_finite_and_positive(self, duration):
        with pytest.raises(ValueError, match="duration must be finite and positive"):
            generate_profile("cc2650", 1, duration=duration)


class TestProfileExact:
    """``generate_profile``'s outputs are pinned bit for bit: a change to any
    breakpoint, current or voltage level, or power-save interval fails here."""

    # sha256 over edges, current, voltage, power-save intervals and modes of
    # every {supply, battery} x {30 s, 2.3 s} x seeds {0, 11} profile
    DIGESTS = {
        ("bcm4343w", 1):
            "610b178ff0bd16579ad3920d4b128d1aeae0274d337506cd4877db44a64541bb",
        ("bcm4343w", 2):
            "f74d3a1178ba14734c3fa684bea31a30cb80abfdbf9dc36c3aa07692059930b2",
        ("bcm4343w", 3):
            "60645a50740c370b141468377db5adcd8ab1c2bb20dcdb44162a3ed8811a0a22",
        ("bcm4343w", 4):
            "47dc406e487e0f86dc06d9652f46c3db06a9ed744363ae4a614242168e40126c",
        ("cc2650", 1):
            "029effc300df7f01c05bd9d0ca991597b12356c154bceb539f6001b7d1d3a5cb",
        ("cc2650", 2):
            "80c63f1532cc5ad4082cba0ade90583cc8ae7fc03373a3d9d0d52522ebd40b43",
        ("cc2650", 3):
            "7d2317d4e306ac9c15bab7a33447d9806a6c0befbf1ca661e025133629771bd7",
        ("cc2650", 4):
            "4edc383988f72e49f24182741c2acb88ede7a238d441229b4e5e2f9d8b70d05e",
        ("cyw43907", 1):
            "56d71aa52cec18f5180bc058d11e25fc962266ecfbb790288e9eaea175a633db",
        ("cyw43907", 2):
            "baafd697fdb567507b07896e3d6402ec3193cdd8ed318874b4032123ef127a01",
        ("cyw43907", 3):
            "0019d5dbb39f4b6befc6b4d9f26a79794978950534792756bcfc77765da2161c",
        ("cyw43907", 4):
            "3407c5678ec0cf421420a1296a0179d002a4dd6e32e5f106e8c5c842cb78cf96",
        ("rpi3", 1):
            "fa4a008ae6e2153f48b5bcdc28b8c32b2f748c0b3f5adac0cb3891ffad8a23eb",
        ("rpi3", 2):
            "06b349a644229648309820fafea7cee9d27f8d51efaa9ed4e90a83f00889ca76",
        ("rpi3", 3):
            "bf108f6c5a4ea78333f40d4cb7ee428c5e3a91fc7f42a6d013ce87c28e322b95",
        ("rpi3", 4):
            "eeb026b1ac31be5a6f4a395cfaddb84f7aca821a77d090d76b29e042d16766de",
        ("rpizw", 1):
            "bb1a166218456a389f78311fa19648cd40cbb3a15a9576d0c1824188ceae3256",
        ("rpizw", 2):
            "703dba6d1223be1e3de20b1aa343b6f6a61eec696b169cc421ec06223393c878",
        ("rpizw", 3):
            "4262945f3ab2734732eb4fe3a93124b74e0be7cdf4e367e5fa7c367435a20b52",
        ("rpizw", 4):
            "f86e701858ebe3d679b671177310f7c1d378b22b5e444aba3e9ba057737901f3",
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
                    h.update(repr((p.power_save_intervals,
                                   p.power_save_modes)).encode())
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

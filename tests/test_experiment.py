"""Experiment pipeline: cross-checks against the register-level loop."""

import hashlib
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emeter.buffering import BufferPolicy
from emeter.bus_timing import (
    BCM_PROFILE,
    LINUX_PROFILE,
    LOOP_OVERHEAD_US,
    PROFILES,
    SUPPORTED_SPEEDS_KHZ,
    TIMESTAMP_CALL_US,
    UnsupportedOperatingPoint,
    sample_period_us,
    validate_operating_point,
)
from emeter.calibration import CalibrationCurve, apply_current
from emeter.experiment import (
    PipelineOptions,
    calibrate,
    pick_pga_divider,
    quantize,
    run_experiment,
    run_pipeline,
    schedule,
    sense,
)
from emeter.sampler import (
    FLAG_POWER_SAVE,
    FLAG_WARMUP,
    TriggerSpec,
    naive_energy,
    run_measurement,
)
from emeter.sensor import (
    BREAKOUT_BOARD,
    IDEAL_BOARD,
    SHIELD_BOARD,
    VALID_RESOLUTIONS,
    VALID_SUPPLIES,
    SensorConfig,
    SimulatedBus,
    SimulatedSensor,
    conversion_time_us,
    quantize_bus_array,
    quantize_shunt_array,
)
from emeter.tracefile import decode_trace
from emeter.workloads import (
    PRESETS,
    LoadProfile,
    constant_profile,
    exact_energy,
    generate_profile,
)


class TestDividerSelection:
    def test_smallest_covering_divider(self):
        assert pick_pga_divider(0.030) == 1
        assert pick_pga_divider(0.399) == 1
        assert pick_pga_divider(0.401) == 2
        assert pick_pga_divider(0.500) == 2
        assert pick_pga_divider(1.2) == 4
        assert pick_pga_divider(3.0) == 8


class TestPipelineVsRegisterLoop:
    def test_constant_load_agrees(self):
        # the vectorized pipeline and the polling register loop realize the
        # same sampling semantics; on a constant load they must agree on
        # readings, sample count and energy
        cfg = SensorConfig()
        profile = constant_profile(5e-3, 5.0, 1.0)
        options = PipelineOptions(noise_current_a=0.0, noise_voltage_v=0.0,
                                  board="ideal", pga_divider=1)
        vec = run_pipeline(profile, options, TriggerSpec.duration(1.0))

        sensor = SimulatedSensor(cfg)
        bus = SimulatedBus(sensor)
        loop = run_measurement(bus, lambda t: (5e-3, 5.0), BCM_PROFILE, 2500,
                               cfg, TriggerSpec.duration(1.0))

        assert abs(len(vec.trace) - len(loop.trace)) <= 1
        assert np.allclose(vec.trace.current[6:], loop.trace.current[6:len(vec.trace)])
        e_vec = vec.energy_gated_j
        assert e_vec == pytest.approx(loop.energy_j, rel=2e-3)

    def test_horizon_cuts_a_later_stop(self):
        # a 0.5 s duration trigger on a 0.2 s run: both samplers stop at the
        # horizon, short of the stop, and say so
        cfg = SensorConfig()
        options = PipelineOptions(noise_current_a=0.0, noise_voltage_v=0.0,
                                  board="ideal", pga_divider=1)
        trigger = TriggerSpec.duration(0.5)
        vec = run_pipeline(constant_profile(5e-3, 5.0, 0.2), options, trigger)
        loop = run_measurement(SimulatedBus(SimulatedSensor(cfg)), lambda t: (5e-3, 5.0),
                               BCM_PROFILE, 2500, cfg, trigger, horizon_ns=200_000_000)
        assert vec.report.status == loop.status == "unterminated"
        assert len(loop.trace) == len(vec.trace) == 190
        assert loop.trace.timestamps_ns[-1] <= 200_000_000

    def test_sample_rate_anchor(self):
        profile = constant_profile(5e-3, 5.0, 1.0)
        vec = run_pipeline(profile, PipelineOptions(), TriggerSpec.duration(1.0))
        assert 900 <= len(vec.trace) <= 1100  # about 1000 sps at 12 bit


class TestPipelineSemantics:
    def test_warmup_and_power_save_flags(self):
        result = run_experiment("cc2650", 1, PipelineOptions(seed=0), duration=3.0)
        tr = result.trace
        assert np.all(tr.flags[:5] & FLAG_WARMUP)
        assert not np.any(tr.flags[5:] & FLAG_WARMUP)
        inside = (tr.timestamps_ns <= int(0.5e9))
        # first dwell of workload 1 is the announced sleep state
        assert np.all(tr.flags[inside & ~ (tr.flags & FLAG_WARMUP).astype(bool)]
                      & FLAG_POWER_SAVE)

    def test_count_trigger(self):
        profile = constant_profile(5e-3, 5.0, 2.0)
        result = run_pipeline(profile, PipelineOptions(), TriggerSpec.count(100))
        assert len(result.trace) == 100
        assert result.report.status == "complete"

    def test_count_trigger_reference_closes_at_last_sample(self):
        profile = generate_profile("rpi3", 1, seed=2, duration=3.0)
        result = run_pipeline(profile, PipelineOptions(seed=2), TriggerSpec.count(2000))
        last_s = result.trace.timestamps_ns[-1] * 1e-9
        assert last_s < 2.5
        assert result.report.e_reference_j == exact_energy(profile, (0.0, last_s))
        # as accurate as the duration trigger that ends at the same sample
        by_duration = run_pipeline(profile, PipelineOptions(seed=2),
                                   TriggerSpec.duration(last_s))
        assert len(by_duration.trace) == 2000
        assert result.report.error_percent == pytest.approx(
            by_duration.report.error_percent, abs=0.05)

    def test_count_trigger_clips_sleep_to_last_sample(self):
        # cc2650 announces its sleep states: the hybrid energy must not count
        # sleep past the last counted sample
        result = run_experiment("cc2650", 1, PipelineOptions(),
                                trigger=TriggerSpec.count(200), duration=3.0)
        last = int(result.trace.timestamps_ns[-1])
        assert result.trace.intervals[-1][1] == last
        assert result.report.error_percent < 1.0

    def test_count_trigger_unreachable(self):
        profile = constant_profile(5e-3, 5.0, 0.5)
        result = run_pipeline(profile, PipelineOptions(), TriggerSpec.count(10_000))
        assert result.report.status == "unterminated"

    def test_edge_window(self):
        profile = constant_profile(5e-3, 5.0, 2.0)
        spec = TriggerSpec.external_edges([(int(0.5e9), "fall"), (int(1.5e9), "rise")])
        result = run_pipeline(profile, PipelineOptions(), spec)
        ts = result.trace.timestamps_ns
        assert ts.min() >= int(0.5e9) and ts.max() <= int(1.5e9)

    def test_trace_file_output_with_buffering(self):
        fh = io.BytesIO()
        options = PipelineOptions(buffering=BufferPolicy("two_buffer", 256))
        result = run_experiment("rpizw", 1, options, duration=2.0, trace_fh=fh)
        header, records = decode_trace(fh.getvalue())
        data = [r for r in records if not r.is_gap]
        assert len(data) == len(result.trace)
        assert header.resolution_bits == 12
        assert result.report.overrun_count == 0
        assert result.flush_log.count("flush") == len(result.trace) // 256 + 1

    def test_saturation_flagged_on_overrange(self):
        # 500mA load measured with divider 1 (40mV full scale) saturates
        profile = constant_profile(0.5, 5.0, 0.5)
        result = run_pipeline(profile, PipelineOptions(pga_divider=1),
                              TriggerSpec.duration(0.5))
        from emeter.sampler import FLAG_SATURATED
        assert np.all(result.trace.flags[6:] & FLAG_SATURATED)
        assert result.trace.current.max() <= 0.41

    def test_report_error_definition(self):
        result = run_experiment("rpi3", 1, PipelineOptions(seed=1), duration=2.0)
        r = result.report
        assert r.error_percent == pytest.approx(
            abs(r.e_device_j - r.e_reference_j) / r.e_reference_j * 100)

    def test_hybrid_only_for_mode_presets(self):
        with_modes = run_experiment("cc2650", 1, PipelineOptions(), duration=2.0)
        without = run_experiment("rpi3", 1, PipelineOptions(), duration=2.0)
        assert with_modes.energy_hybrid_j is not None
        assert without.energy_hybrid_j is None

    @pytest.mark.parametrize("bits", [12, 9])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_naive_energy_skipped_only_without_sleep(self, preset, bits):
        # a trace with no power-save interval has no power-save flag, so
        # run_pipeline reuses the gated energy as the naive one
        result = run_experiment(preset, 1, PipelineOptions(resolution_bits=bits, seed=3),
                                duration=2.0)
        assert result.energy_naive_j == naive_energy(result.trace)
        if result.trace.intervals:
            assert preset == "cc2650"
            assert result.energy_naive_j != result.energy_gated_j
        else:
            assert preset != "cc2650"
            assert result.energy_naive_j == result.energy_gated_j


class TestPipelineExact:
    """``run_pipeline``'s outputs are pinned bit for bit: a change to any
    reading, timestamp, flag, event, energy, report field or trace-file byte
    fails here, not only in hand-run benchmark digests."""

    # sha256 over the trace columns, events, energies, flush log and report of
    # each 2 s workload-1 run, and over the file bytes of two buffered captures
    DIGESTS = {
        ("cc2650", 9, "bcm"):
            "746e62e6671233f5a6fa7493e7faa052f637238f938e1f1ad1c2c54532484309",
        ("cc2650", 9, "linux"):
            "d5e9d1a8f050baadbacf96c4ad8355c3f63b88f141b6c6c202de0150de4ae864",
        ("cc2650", 12, "bcm"):
            "1a162f4d9cadab2ffd6eaabca258fd00f5b3d6cf620f1ada0ae11afd53a461cd",
        ("cc2650", 12, "linux"):
            "09ce9a19cd988fccf2bee64298a27ffe3d862eb1c04a0c037942a1664ed8aa33",
        ("rpi3", 9, "bcm"):
            "c1dfe814574a6cb0911def98717221f052d17d251176dba2f688e676c90dcfb6",
        ("rpi3", 9, "linux"):
            "15e25b1c1f6cd11035e24f4b8758f89036f799bfd1f706bdd830aacb7207932f",
        ("rpi3", 12, "bcm"):
            "b03b47153164c01fbe262d5dbf2ce1b810b048d6a7cacf08a8ec03038a5e1881",
        ("rpi3", 12, "linux"):
            "c03e3712bb06eff454f9baef2185a3c9041a0fa5ecf9820eb8d7761ec537faf5",
    }
    FILE_DIGESTS = {
        "two_buffer":
            "59af5724ac21dbdf26bb4639055e243f78fd234f559b5f7f21bcca4b5128d15d",
        "circular":
            "f4ec0fbeb7c9a2f97d3d191bb4f3b294c6f63bbd3cad084d75cfd14a1657f687",
    }

    @staticmethod
    def digest(result, file_bytes=b""):
        tr = result.trace
        h = hashlib.sha256()
        for column in (tr.timestamps_ns, tr.bus_voltage, tr.current, tr.flags):
            h.update(column.tobytes())
        # the intervals as (kind, mode, t) edges, an exit before an enter
        # at equal timestamps
        edges = sorted([(start, 1, mode) for start, _, mode in tr.intervals]
                       + [(end, 0, mode) for _, end, mode in tr.intervals])
        h.update(repr([("enter" if enter else "exit", mode, t)
                       for t, enter, mode in edges]).encode())
        h.update(repr((result.energy_gated_j, result.energy_naive_j,
                       result.energy_hybrid_j, result.flush_log)).encode())
        h.update(result.report.to_json().encode())
        h.update(file_bytes)
        return h.hexdigest()

    @pytest.mark.parametrize("preset,bits,driver", sorted(DIGESTS))
    def test_outputs_match_recorded_digest(self, preset, bits, driver):
        options = PipelineOptions(resolution_bits=bits, driver=driver, seed=11)
        result = run_experiment(preset, 1, options, duration=2.0)
        assert self.digest(result) == self.DIGESTS[preset, bits, driver]

    # the circular capture writes slower than the 9-bit rate, so it drops
    # entries and carries gap markers
    @pytest.mark.parametrize("kind,preset,bits,driver,write_speed_bps", [
        ("two_buffer", "rpi3", 9, "linux", 40e6),
        ("circular", "cc2650", 9, "bcm", 0.5e6),
    ])
    def test_trace_file_matches_recorded_digest(self, kind, preset, bits, driver,
                                                write_speed_bps):
        fh = io.BytesIO()
        options = PipelineOptions(resolution_bits=bits, driver=driver, seed=11,
                                  buffering=BufferPolicy(kind, 512),
                                  write_speed_bps=write_speed_bps)
        result = run_experiment(preset, 1, options, duration=2.0, trace_fh=fh)
        assert self.digest(result, fh.getvalue()) == self.FILE_DIGESTS[kind]


# (trigger, run horizon, the window's limit) of a pipeline run
LIMIT_CASES = [
    (TriggerSpec.duration(0.05), 10**9, 50_000_000),
    (TriggerSpec.duration(2.0), 30_000_017, 30_000_017),
    (TriggerSpec.count(10), 10**9, 10**9),
    (TriggerSpec(start_ns=7_000_000, sample_count=12), 10**9, 10**9),
]


class TestStages:
    """Each stage of ``run_pipeline`` on its own."""

    # the polling loop runs without a horizon unless its caller sets one
    @pytest.mark.parametrize("trigger,horizon_ns,limit_ns", LIMIT_CASES + [
        (TriggerSpec.duration(0.05), None, 50_000_000),
        (TriggerSpec.count(10), None, None),
    ])
    def test_trigger_limit(self, trigger, horizon_ns, limit_ns):
        assert trigger.limit_ns(horizon_ns) == limit_ns

    @pytest.mark.parametrize("driver,speed,bits", [
        (BCM_PROFILE, 2500, 12), (BCM_PROFILE, 500, 9), (LINUX_PROFILE, 800, 9)])
    @pytest.mark.parametrize("trigger,horizon_ns,limit_ns", LIMIT_CASES)
    def test_schedule_grid(self, driver, speed, bits, trigger, horizon_ns, limit_ns):
        config = SensorConfig(resolution_bits=bits)
        grid_s, ts = schedule(driver, speed, config, trigger, horizon_ns)
        period_ns = sample_period_us(driver, speed, config) * 1000.0
        tail_ns = (1.5 * driver.mean_delay_us(speed)
                   + LOOP_OVERHEAD_US + TIMESTAMP_CALL_US) * 1000.0
        conversion = np.arange(1, len(ts) + 1)
        assert np.array_equal(ts, (conversion * period_ns + tail_ns).astype(np.int64))
        # n + 1 boundaries from 0; the window ends are bit for bit k * period
        assert len(grid_s) == len(ts) + 1 and grid_s[0] == 0.0
        assert grid_s[1:].tobytes() == (conversion * period_ns * 1e-9).tobytes()
        n = len(ts)
        if trigger.sample_count is None:
            # every conversion whose reading lands inside the limit
            assert n * period_ns + tail_ns <= limit_ns < (n + 1) * period_ns + tail_ns
        else:
            # one past the conversion that reaches the count
            assert n == trigger.start_ns // period_ns + trigger.sample_count + 1

    def test_window_means_brute_force(self):
        edges = np.array([0.0, 0.1, 0.25, 0.4, 0.42, 1.0])
        current = np.array([0.2, 0.35, 0.05, 0.5, 0.1])
        voltage = np.array([5.0, 4.9, 5.1, 4.8, 5.0])
        profile = LoadProfile(edges, current, voltage)
        window = 0.07
        end_s = np.array([0.07, 0.1, 0.13, 0.3, 0.41, 0.45, 0.99])
        mean_i, mean_i2, mean_v = profile.window_means(end_s, window, True)

        def brute(levels, t1):
            overlap = np.clip(np.minimum(edges[1:], t1)
                              - np.maximum(edges[:-1], t1 - window), 0.0, None)
            return float(np.sum(levels * overlap)) / window

        for k, t1 in enumerate(end_s):
            assert mean_i[k] == pytest.approx(brute(current, t1), rel=1e-12)
            assert mean_i2[k] == pytest.approx(brute(current ** 2, t1), rel=1e-12)
            assert mean_v[k] == pytest.approx(brute(voltage, t1), rel=1e-12)
        assert profile.window_means(end_s, window, False)[1] is None

    def test_window_means_constant_profile_exact(self):
        # dyadic times and levels: every step of the closed form is exact
        profile = constant_profile(0.5, 4.0, 1.0)
        mean_i, mean_i2, mean_v = profile.window_means(
            np.array([0.25, 0.5, 0.75, 1.0]), 0.25, True)
        assert mean_i.tolist() == [0.5] * 4
        assert mean_i2.tolist() == [0.25] * 4
        assert mean_v.tolist() == [4.0] * 4

    def test_sense_ideal_board_without_noise_is_identity(self):
        rng = np.random.default_rng(1)
        mean_i, mean_v = rng.uniform(0.0, 0.5, 100), rng.uniform(3.0, 5.0, 100)
        options = PipelineOptions(noise_current_a=0.0, noise_voltage_v=0.0)
        sensed_i, sensed_v = sense(options, IDEAL_BOARD, mean_i, None, mean_v)
        assert np.array_equal(sensed_i, mean_i)
        assert np.array_equal(sensed_v, mean_v)

    def test_sense_noise_draws_current_then_voltage(self):
        rng = np.random.default_rng(1)
        mean_i, mean_v = rng.uniform(0.0, 0.5, 100), rng.uniform(3.0, 5.0, 100)
        options = PipelineOptions(noise_current_a=3e-3, noise_voltage_v=2e-3, seed=5)
        sensed_i, sensed_v = sense(options, IDEAL_BOARD, mean_i, None, mean_v)
        draws = np.random.default_rng(5)
        expected_i = np.maximum(mean_i + draws.normal(0.0, 3e-3, 100), 0.0)
        expected_v = mean_v + draws.normal(0.0, 2e-3, 100)
        assert np.array_equal(sensed_i, expected_i)
        assert np.array_equal(sensed_v, expected_v)

    def test_calibrate_without_curve_passes_through(self):
        current, bus_v = np.array([0.1, 0.2]), np.array([5.0, 4.9])
        out_i, out_v = calibrate(None, current, bus_v)
        assert out_i is current and out_v is bus_v


def assert_inputs_unchanged(stage, *inputs):
    """Call ``stage(*inputs)`` and check that no input array changed."""
    before = [np.array(a, copy=True) for a in inputs]
    stage(*inputs)
    for k, (now, then) in enumerate(zip(inputs, before)):
        assert np.asarray(now).tobytes() == then.tobytes(), f"input {k} was written"


class TestStagesLeaveInputs:
    """Stages work in place only on arrays they allocated themselves."""

    CONFIG = SensorConfig(resolution_bits=9)
    # negative, in range and over full scale on both channels
    CURRENT = np.linspace(-0.05, 0.5, 257)
    BUS_V = np.linspace(-1.0, 18.0, 257)

    def test_schedule_outputs_are_separate(self):
        grid_s, ts = schedule(BCM_PROFILE, 2500, self.CONFIG,
                              TriggerSpec.duration(0.05), 10**9)
        # the timestamps are the boundaries shifted in place after grid_s
        assert not np.shares_memory(grid_s, ts)

    @pytest.mark.parametrize("squares", [False, True])
    def test_window_means(self, squares):
        # both forms, each given the boundaries as _readings passes them: the
        # gapped form their window-end view, the tiled form the whole grid
        profile = generate_profile("rpi3", 1, seed=1, duration=0.5)
        grid_s = np.arange(0, 500) * 1e-3
        for means in (lambda grid: profile.window_means(grid[1:], 0.001, squares),
                      lambda grid: profile.tiled_means(grid, 0.001, squares)):
            assert_inputs_unchanged(
                lambda grid, *_: means(grid), grid_s, profile.edges,
                profile._cum_i, profile._cum_v, profile._cum_p, profile._cum_i2)

    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    @pytest.mark.parametrize("board", [SHIELD_BOARD, BREAKOUT_BOARD], ids=lambda b: b.name)
    def test_sense(self, board, noise):
        options = PipelineOptions(noise_current_a=noise, noise_voltage_v=noise)
        squares = board.current_quad != 0.0
        assert_inputs_unchanged(
            lambda i, i2, v: sense(options, board, i, i2 if squares else None, v),
            self.CURRENT, self.CURRENT ** 2, self.BUS_V)

    def test_quantize(self):
        assert_inputs_unchanged(lambda i, v: quantize(i, v, self.CONFIG),
                                self.CURRENT, self.BUS_V)
        assert_inputs_unchanged(lambda i: quantize_shunt_array(i, self.CONFIG), self.CURRENT)
        assert_inputs_unchanged(lambda v: quantize_bus_array(v, self.CONFIG), self.BUS_V)

    @pytest.mark.parametrize("curve", [
        CalibrationCurve("linear", 0.9956, voltage_offset=0.027, current_max_a=0.8),
        CalibrationCurve("quadratic", 0.982, 0.0074, 0.097, current_max_a=0.8),
    ], ids=["linear", "quadratic"])
    def test_calibrate(self, curve):
        current = np.linspace(0.0, 0.5, 257)
        assert_inputs_unchanged(lambda i, v: calibrate(curve, i, v), current, self.BUS_V)
        assert_inputs_unchanged(lambda i: apply_current(curve, i), current)


def operating_points():
    """(driver, bus speed kHz, supply V, resolution bits) of every supported point."""
    points = []
    for driver in PROFILES.values():
        for speed in SUPPORTED_SPEEDS_KHZ:
            for supply in VALID_SUPPLIES:
                try:
                    validate_operating_point(driver, speed, supply)
                except UnsupportedOperatingPoint:
                    continue
                points.extend((driver, speed, supply, bits) for bits in VALID_RESOLUTIONS)
    return points


def tiles(driver, speed, supply, bits):
    config = SensorConfig(resolution_bits=bits, supply_voltage=supply)
    return sample_period_us(driver, speed, config) == conversion_time_us(config)


TILED_POINTS = [point for point in operating_points() if tiles(*point)]


class TestTiledWindows:
    """Back-to-back conversion windows take one lookup per boundary."""

    def test_pipeline_tiles_exactly_where_period_is_conversion(self, monkeypatch):
        forms = []
        for form in ("window_means", "tiled_means"):
            method = getattr(LoadProfile, form)
            monkeypatch.setattr(LoadProfile, form,
                                lambda self, *args, _m=method, _f=form:
                                forms.append(_f) or _m(self, *args))
        profile = constant_profile(0.1, 5.0, 0.01)
        tiled = []
        for driver, speed, supply, bits in operating_points():
            forms.clear()
            options = PipelineOptions(resolution_bits=bits, driver=driver.name,
                                      speed_khz=speed, supply_voltage=supply)
            run_pipeline(profile, options, TriggerSpec.duration(0.01))
            assert forms == (["tiled_means"] if tiles(driver, speed, supply, bits)
                             else ["window_means"]), (driver.name, speed, supply, bits)
            tiled.append(forms == ["tiled_means"])
        # every 12-bit point and the default tile; 8 points at 9 bit leave gaps
        assert (len(tiled), sum(tiled)) == (28, 20)
        assert (BCM_PROFILE, 2500, 5.0, 9) in TILED_POINTS
        assert all(tiles(*point) for point in operating_points() if point[3] == 12)

    def test_gapped_point_readings_unchanged(self):
        # TestPipelineExact.digest of this run, recorded when every point took
        # the two-lookup form; the breakout board also takes the i**2 path
        options = PipelineOptions(resolution_bits=9, driver="linux", speed_khz=800,
                                  board="breakout", seed=11)
        assert not tiles(LINUX_PROFILE, 800, 5.0, 9)
        result = run_experiment("rpi3", 1, options, duration=0.5)
        assert len(result.trace) == 2262
        assert TestPipelineExact.digest(result) == (
            "8687d91007f43939b86cb35aedaac579e8439c670823661f4583a495c82e1123")

    def test_constant_profile_exact(self):
        # dyadic times and levels: every step of the tiled form is exact
        profile = constant_profile(0.5, 4.0, 1.0)
        mean_i, mean_i2, mean_v = profile.tiled_means(
            np.array([0.0, 0.25, 0.5, 0.75, 1.0]), 0.25, True)
        assert mean_i.tolist() == [0.5] * 4
        assert mean_i2.tolist() == [0.25] * 4
        assert mean_v.tolist() == [4.0] * 4

    @settings(max_examples=200, deadline=None)
    @given(point=st.sampled_from(TILED_POINTS),
           horizon_ns=st.integers(1_000_000, 40_000_000),
           cuts=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                         max_size=40),
           levels=st.lists(st.tuples(st.floats(0.0, 0.6), st.floats(3.0, 5.5)),
                           min_size=41, max_size=41),
           squares=st.booleans())
    def test_tiled_means_match_two_lookups(self, point, horizon_ns, cuts, levels,
                                           squares):
        driver, speed, supply, bits = point
        config = SensorConfig(resolution_bits=bits, supply_voltage=supply)
        grid_s, ts = schedule(driver, speed, config, TriggerSpec.duration(1.0), horizon_ns)
        window_s = conversion_time_us(config) * 1000.0 * 1e-9
        period_ns = sample_period_us(driver, speed, config) * 1000.0
        ends = np.arange(1, len(ts) + 1) * period_ns * 1e-9
        assert grid_s[1:].tobytes() == ends.tobytes()

        horizon_s = horizon_ns * 1e-9
        edges = np.unique(np.concatenate([[0.0, horizon_s], np.array(cuts) * horizon_s]))
        current, voltage = np.array(levels[:len(edges) - 1]).T
        profile = LoadProfile(edges, current, voltage)
        tiled = profile.tiled_means(grid_s, window_s, squares)
        gapped = profile.window_means(grid_s[1:], window_s, squares)

        # A window start is end - window rounded, not the boundary before it;
        # the gap is a few ulps of the end.  A cumulative integral moves by
        # at most that times its steepest slope, the largest level; each
        # lookup and difference adds a rounding of the cumulative's size,
        # and the division one of the mean's.
        start_shift = np.abs(grid_s[:-1] - (grid_s[1:] - window_s))
        assert np.all(start_shift <= 4 * np.spacing(grid_s[1:]))
        eps = np.finfo(float).eps
        for k, (levels_k, cumulative) in enumerate([
                (current, profile._cum_i), (current ** 2, profile._cum_i2),
                (voltage, profile._cum_v)]):
            if k == 1 and not squares:
                assert tiled[1] is None and gapped[1] is None
                continue
            bound = ((start_shift * levels_k.max() + 5 * eps * cumulative.max()) / window_s
                     + eps * np.abs(gapped[k]))
            assert np.all(np.abs(tiled[k] - gapped[k]) <= bound)


def test_traced_layers_fire(tmp_path, monkeypatch):
    # perfbench times layers by wrapping names the program looks up in its
    # modules; a refactor that stops calling one of them through
    # emeter.experiment would silently read 0 for that layer
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import spans

    tracer = spans.Tracer()
    tracer.begin_op(0)
    spans.install(tracer)
    try:
        with open(tmp_path / "run.bin", "wb") as fh:
            run_experiment("rpi3", 1, PipelineOptions(), duration=1.0, trace_fh=fh,
                           calibration=CalibrationCurve("linear", 0.9956,
                                                        voltage_offset=0.027))
    finally:
        tracer.unpatch_all()
    assert {span[3] for span in tracer.spans} >= {
        "workloads.profile", "workloads.reference", "experiment.pipeline",
        "calibration.apply", "sampler.energy", "tracefile.encode"}

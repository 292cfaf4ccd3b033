"""Experiment pipeline: cross-checks against the register-level loop."""

import contextlib
import dataclasses
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emeter.buffering import BufferPolicy
from emeter.bus_timing import (
    BCM_PROFILE,
    LINUX_PROFILE,
    LOOP_OVERHEAD_US,
    PROFILES,
    READ_DELAYS_US,
    TIMESTAMP_CALL_US,
    OperatingPoint,
    UnsupportedOperatingPoint,
    expected_polls,
)
from emeter import experiment
from emeter.calibration import CalibrationCurve, apply_current
from emeter.experiment import (
    REACH,
    REACH_SLACK_COUNTS,
    PipelineOptions,
    _near,
    calibrate,
    convert,
    pick_pga_divider,
    run_experiment,
    run_pipeline,
    schedule,
    sense,
)
from emeter.sampler import (
    FLAG_POWER_SAVE,
    FLAG_WARMUP,
    PowerSaveMode,
    TriggerSpec,
    countable_mask,
    gated_energy,
    hybrid_energy,
    naive_energy,
    run_measurement,
    trapezoid,
    trapezoid_steps,
)
from emeter.sensor import (
    BOARDS,
    BREAKOUT_BOARD,
    IDEAL_BOARD,
    SHIELD_BOARD,
    VALID_PGA_DIVIDERS,
    VALID_RESOLUTIONS,
    VALID_SUPPLIES,
    SensorConfig,
    SimulatedBus,
    SimulatedSensor,
)
from emeter.tracefile import TraceHeader, decode_trace, records_to_trace, trace_to_records
from emeter.workloads import (
    PRESETS,
    WORKLOAD_STATES,
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

    @pytest.mark.parametrize("divider", [1, 2, 4])
    def test_full_scale_reads_at_its_divider(self, divider):
        # 0.4 A across the 0.1 ohm shunt is the 40 mV full scale at divider
        # 1; the product 0.4 * 0.1 rounds above 0.04, the channel reads it
        # as its top count
        assert pick_pga_divider(0.4 * divider) == divider

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_STATES))
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_divider_does_not_depend_on_the_duration(self, preset, workload):
        # the first second of workload 1 holds no tx dwell, so a peak read
        # off the profile gave cyw43907 and rpi3 divider 1 at 1 s and 2 at 2 s
        dividers = {run_experiment(preset, workload, PipelineOptions(), duration=duration)
                    .report.config["pga_divider"] for duration in (1.0, 2.0)}
        assert len(dividers) == 1

    @pytest.mark.parametrize("bits", VALID_RESOLUTIONS)
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_supply_run_builds_no_merged_form(self, monkeypatch, preset, bits):
        # a supply run integrates the profile's parts; the merged form is
        # built only where something reads it, as a battery run's voltage does
        profiles = []

        def generate(*args, **kwargs):
            profiles.append(generate_profile(*args, **kwargs))
            return profiles[-1]

        monkeypatch.setattr(experiment, "generate_profile", generate)
        options = PipelineOptions(resolution_bits=bits)
        for source in ("supply", "battery"):
            run_experiment(preset, 1, options, source=source, duration=1.0,
                           trace_fh=io.BytesIO())
        supply, battery = profiles
        assert "_merged" not in vars(supply)
        assert "_merged" in vars(battery)


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


class TestFileReproducesReport:
    """A run's trace written as records and read back, given the run's flags
    and intervals, gives the run's energies bit for bit: the trace holds the
    micro-units its file stores."""

    SECONDS = 1.5  # one cycle of workload 1: sleep, processing, then tx with spikes

    @staticmethod
    def from_file(trace):
        back = records_to_trace(trace_to_records(trace))
        back.flags, back.intervals = trace.flags, trace.intervals
        return back

    @pytest.mark.parametrize("bits", VALID_RESOLUTIONS)
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_pipeline(self, preset, bits):
        profile = generate_profile(preset, 1, seed=3, duration=self.SECONDS)
        result = run_pipeline(profile, PipelineOptions(resolution_bits=bits, seed=3),
                              TriggerSpec.duration(self.SECONDS))
        back = self.from_file(result.trace)
        assert gated_energy(back) == result.energy_gated_j
        if preset == "cc2650":
            assert back.intervals
            assert hybrid_energy(back, profile.power_save_modes) == result.report.e_device_j
        else:
            assert gated_energy(back) == result.report.e_device_j

    @pytest.mark.parametrize("bits", VALID_RESOLUTIONS)
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_register_loop(self, preset, bits):
        profile = generate_profile(preset, 1, seed=3, duration=self.SECONDS)
        config = SensorConfig(pga_divider=pick_pga_divider(profile.peak_current),
                              resolution_bits=bits)
        intervals = [(round(s * 1e9), round(e * 1e9), mode)
                     for s, e, mode in profile.power_save_intervals]
        result = run_measurement(
            SimulatedBus(SimulatedSensor(config, board=SHIELD_BOARD)),
            lambda t: (float(profile.current_at(t * 1e-9)), float(profile.voltage_at(t * 1e-9))),
            BCM_PROFILE, 2500, config, TriggerSpec.duration(self.SECONDS),
            intervals=intervals, rng=np.random.default_rng(3))
        back = self.from_file(result.trace)
        assert gated_energy(back) == result.energy_j
        if preset == "cc2650":
            assert back.intervals
            modes = profile.power_save_modes
            assert hybrid_energy(back, modes) == hybrid_energy(result.trace, modes)


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
        run = result.report.config
        assert header.config == SensorConfig(pga_divider=run["pga_divider"],
                                             resolution_bits=run["resolution_bits"],
                                             supply_voltage=run["supply_voltage"])
        assert (header.driver_name, header.bus_speed_khz) == (run["driver"], run["speed_khz"])
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


def sleep_profile(modes, mode_index=0):
    """50 mA, a 150 uA sleep span from 0.3 to 0.5 s naming ``mode_index``,
    then 50 mA again, all at 3.3 V."""
    return LoadProfile(np.array([0.0, 0.3, 0.5, 1.0]), np.array([50e-3, 150e-6, 50e-3]),
                       np.full(3, 3.3), power_save_intervals=[(0.3, 0.5, mode_index)],
                       power_save_modes=modes)


class TestDeclaredSleep:
    """A profile charges every sleep span it holds or is not built, so a span
    it cannot charge fails before the run and nothing reaches a trace file."""

    @pytest.mark.parametrize("build,message", [
        (lambda: sleep_profile([PowerSaveMode(0, 150e-6, 3.3)]),
         "power-save current must be below the sensor LSB"),
        (lambda: sleep_profile([PowerSaveMode(0, 1e-6, 3.3)], mode_index=1),
         r"interval \(0\.3, 0\.5, 1\) names an undeclared mode; the declared modes are \[0\]"),
        (lambda: sleep_profile([]),
         r"interval \(0\.3, 0\.5, 0\) names an undeclared mode; the declared modes are \[\]"),
        (lambda: sleep_profile([PowerSaveMode(0, 1e-6, 3.3), PowerSaveMode(0, 90e-6, 3.3)]),
         "power-save mode 0 is declared twice"),
        (lambda: sleep_profile([PowerSaveMode(0, 90e-6, 3.3), PowerSaveMode(0, 1e-6, 3.3)]),
         "power-save mode 0 is declared twice"),
    ], ids=["mode-at-150uA", "undeclared-mode", "no-mode", "mode-twice", "mode-twice-reversed"])
    def test_span_it_cannot_charge_fails_when_built(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()
        fh = io.BytesIO()
        with pytest.raises(ValueError, match=message):
            run_pipeline(build(), PipelineOptions(), TriggerSpec.duration(1.0), trace_fh=fh)
        assert fh.getvalue() == b""

    @pytest.mark.parametrize("currents", [(1e-6, 90e-6), (90e-6, 1e-6)])
    def test_hybrid_energy_refuses_a_mode_declared_twice(self, currents):
        # a trace built without a profile reaches hybrid_energy unchecked;
        # a span charged at whichever mode came last would depend on order
        trace = run_pipeline(sleep_profile([PowerSaveMode(0, 1e-6, 3.3)]), PipelineOptions(),
                             TriggerSpec.duration(1.0)).trace
        modes = [PowerSaveMode(0, current, 3.3) for current in currents]
        with pytest.raises(ValueError, match="power-save mode 0 is declared twice"):
            hybrid_energy(trace, modes)

    def test_preset_sleep_is_announced_only_below_one_lsb(self, monkeypatch):
        # a sleep that reads as counts is measured; one below a count is not
        for sleep, announced in ((150e-6, False), (97e-6, True)):
            monkeypatch.setitem(PRESETS, "cc2650",
                                dataclasses.replace(PRESETS["cc2650"], sleep_current=sleep))
            profile = generate_profile("cc2650", 1, duration=1.0)
            assert len(profile.power_save_modes) == announced
            assert len(profile.power_save_intervals) == announced  # one sleep dwell
            result = run_experiment("cc2650", 1, PipelineOptions(), duration=1.0,
                                    trace_fh=io.BytesIO())
            assert (result.energy_hybrid_j is not None) == announced
            assert result.report.status == "complete"


TRACE_COLUMNS = ("timestamps_ns", "bus_voltage", "current", "flags")


def board_input(board, sensed):
    """Window means (i, i**2 or None) that ``board`` senses as about ``sensed``."""
    if board.current_quad == 0.0:
        mean_i = sensed / board.current_gain
    else:
        root = np.sqrt(np.maximum(board.current_gain ** 2 + 4 * board.current_quad * sensed,
                                  0.0))
        mean_i = np.where(sensed >= 0, (root - board.current_gain) / (2 * board.current_quad),
                          sensed / board.current_gain)
    return mean_i, mean_i * mean_i if board.current_quad else None


def assert_far_readings_keep_count(config, board, channel, sigma, targets, z):
    """Through the quantizers' own expressions: a reading at ``targets``
    counts that the pipeline classifies far gets the same count and
    saturation flag from every draw the clip lets through, so it need not
    draw; the noisy count is monotone in the draw, so the two ends and the
    draw ``z`` between them check the whole range."""
    per_unit = channel.scale * channel.per
    reach = REACH * sigma * per_unit + REACH_SLACK_COUNTS
    floor = 0.0 if channel is config.shunt else None
    if channel is config.shunt:
        mean_i, mean_i2 = board_input(board, targets / per_unit)
        sensed = sense(board, mean_i, mean_i2, targets)[0]
    else:
        squares = targets ** 2 if board.current_quad else None
        sensed = sense(board, targets, squares, targets / per_unit)[1]
    raw = channel.counts(sensed if floor is None else np.maximum(sensed, floor))
    far = np.ones(len(raw), dtype=bool)
    far[_near(raw, reach)] = False
    clean, clean_saturated = channel.floor(raw)
    for z in (-REACH, REACH, z):
        noisy = z * sigma + sensed
        if floor is not None:
            noisy = np.maximum(noisy, floor)
        readings, saturated = channel.floor(channel.counts(noisy))
        assert readings[far].tobytes() == clean[far].tobytes(), (channel, z)
        assert np.array_equal(saturated[far], clean_saturated[far]), (channel, z)


class TestNoiseReach:
    """Noise is drawn only for readings it can move, from one keyed stream
    per channel, so a reading depends on its seed and its conversion only."""

    @pytest.mark.parametrize("board", [BOARDS[name] for name in sorted(BOARDS)],
                             ids=lambda b: b.name)
    @pytest.mark.parametrize("bits,divider", [(bits, divider) for bits in VALID_RESOLUTIONS
                                              for divider in VALID_PGA_DIVIDERS])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_far_reading_keeps_count_for_every_draw(self, bits, divider, board, data):
        config = SensorConfig(pga_divider=divider, resolution_bits=bits)
        top = 3 * config.max_count
        for channel in (config.shunt, config.bus):
            per_unit = channel.scale * channel.per
            # a reach below half a count, where some readings are far
            sigma = data.draw(st.floats(1e-6, 0.49)) / (REACH * per_unit)
            reach = REACH * sigma * per_unit + REACH_SLACK_COUNTS
            edge = st.builds(lambda k, side, gap: k + side * (reach + gap),
                             st.integers(-top, top), st.sampled_from([-1.0, 1.0]),
                             st.floats(0.0, 1e-9))
            targets = np.array(data.draw(st.lists(st.one_of(st.floats(-top, top), edge),
                                                  min_size=1, max_size=40)))
            assert_far_readings_keep_count(config, board, channel, sigma, targets,
                                           data.draw(st.floats(-REACH, REACH)))

    @pytest.mark.parametrize("bits,divider,board,channel,fraction,boundary", [
        (9, 1, "ideal", "shunt", 0.375, 22),
        (9, 1, "ideal", "bus", 0.1, 2),
        (12, 8, "ideal", "bus", 0.1, 2),
        (12, 8, "shield", "shunt", 0.1, 3),
        (9, 8, "breakout", "shunt", 0.375, 34),
    ])
    def test_reading_a_reach_below_a_boundary_keeps_count(self, bits, divider, board,
                                                           channel, fraction, boundary):
        # readings the test above draws only now and then: a reach of
        # ``fraction`` counts below a boundary, where the quantizer's
        # rounding carries a draw at +-REACH across it unless the reach
        # holds REACH_SLACK_COUNTS
        config = SensorConfig(pga_divider=divider, resolution_bits=bits)
        channel = getattr(config, channel)
        sigma = fraction / (REACH * channel.scale * channel.per)
        assert_far_readings_keep_count(config, BOARDS[board], channel, sigma,
                                       np.array([boundary - fraction]), 0.0)

    @pytest.mark.parametrize("bits", VALID_RESOLUTIONS)
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @settings(max_examples=6, deadline=None)
    @given(stops=st.lists(st.floats(0.02, 0.6), min_size=2, max_size=2, unique=True),
           count=st.integers(7, 2000), seed=st.integers(0, 2**16))
    def test_moving_the_stop_keeps_earlier_readings(self, preset, bits, stops, count, seed):
        profile = generate_profile(preset, 1, seed=seed, duration=0.6)
        options = PipelineOptions(resolution_bits=bits, seed=seed)
        full = run_pipeline(profile, options, TriggerSpec.duration(0.6)).trace
        for trigger in [TriggerSpec.duration(stop) for stop in stops] + [
                TriggerSpec.count(count)]:
            trace = run_pipeline(profile, options, trigger).trace
            n = len(trace)
            for column in TRACE_COLUMNS:
                assert (getattr(trace, column).tobytes()
                        == getattr(full, column)[:n].tobytes()), (trigger, column)

    @pytest.mark.parametrize("bits", VALID_RESOLUTIONS)
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_a_longer_run_starts_with_the_shorter(self, preset, bits):
        # the profile's streams are keyed too: 1 s of load, and its readings,
        # are the first second of a 2 s run with the same seed; both pick
        # the divider of the workload's declared peak
        options = PipelineOptions(resolution_bits=bits, seed=5)
        short = run_experiment(preset, 1, options, duration=1.0).trace
        longer = run_experiment(preset, 1, options, duration=2.0).trace
        n = len(short)
        assert n > 0
        for column in TRACE_COLUMNS:
            assert getattr(short, column).tobytes() == getattr(longer, column)[:n].tobytes()

    @pytest.mark.parametrize("bits", VALID_RESOLUTIONS)
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @settings(max_examples=4, deadline=None)
    @given(split=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    def test_window_energies_add_up(self, preset, bits, split, seed):
        # split a 2 s window at an instant t between two readings: its gated
        # energy is that of [0, t] and [t, T] plus the trapezoid straddling
        # t, and the reference adds up over the same split
        stop_ns = 2 * 10**9
        profile = generate_profile(preset, 1, seed=seed, duration=2.0)
        options = PipelineOptions(resolution_bits=bits, seed=seed)
        full = run_pipeline(profile, options, TriggerSpec(stop_ns=stop_ns))
        ts = full.trace.timestamps_ns
        k = min(int(split * (len(ts) - 1)), len(ts) - 2)
        t = (int(ts[k]) + int(ts[k + 1])) // 2
        assert ts[k] < t < ts[k + 1]
        before = run_pipeline(profile, options, TriggerSpec(stop_ns=t))
        after = run_pipeline(profile, options, TriggerSpec(start_ns=t, stop_ns=stop_ns))
        assert (len(before.trace), len(after.trace)) == (k + 1, len(ts) - k - 1)
        pair = slice(k, k + 2)
        straddle = trapezoid(full.trace.power()[pair], *trapezoid_steps(
            ts[pair], countable_mask(full.trace, exclude_power_save=True)[pair]))
        assert (before.energy_gated_j + after.energy_gated_j + straddle
                == pytest.approx(full.energy_gated_j, rel=1e-12, abs=0.0))
        t_s, stop_s = t * 1e-9, stop_ns * 1e-9
        assert (exact_energy(profile, (0.0, t_s)) + exact_energy(profile, (t_s, stop_s))
                == pytest.approx(exact_energy(profile, (0.0, stop_s)), rel=1e-12, abs=0.0))

    @pytest.mark.parametrize("bits", VALID_RESOLUTIONS)
    @settings(max_examples=10, deadline=None)
    @given(preset=st.sampled_from(sorted(PRESETS)),
           kind=st.sampled_from(["two_buffer", "circular"]),
           write_speed_bps=st.sampled_from([0.4e6, 40e6]), seed=st.integers(0, 2**16))
    def test_persisting_changes_no_reading(self, bits, preset, kind, write_speed_bps, seed):
        # the writer drops entries from the file, never from the run
        options = PipelineOptions(resolution_bits=bits, seed=seed,
                                  buffering=BufferPolicy(kind, 512),
                                  write_speed_bps=write_speed_bps)
        kept = run_experiment(preset, 1, options, duration=0.4)
        written = run_experiment(preset, 1, options, duration=0.4, trace_fh=io.BytesIO())
        for column in TRACE_COLUMNS:
            assert getattr(kept.trace, column).tobytes() == getattr(written.trace, column).tobytes()
        assert ((kept.energy_gated_j, kept.energy_naive_j, kept.energy_hybrid_j)
                == (written.energy_gated_j, written.energy_naive_j, written.energy_hybrid_j))
        assert kept.report.e_device_j == written.report.e_device_j

    @pytest.mark.parametrize("bits", VALID_RESOLUTIONS)
    @settings(max_examples=10, deadline=None)
    @given(preset=st.sampled_from(sorted(PRESETS)),
           seeds=st.lists(st.integers(0, 2**32), min_size=2, max_size=2, unique=True))
    def test_ideal_board_without_noise_ignores_the_seed(self, bits, preset, seeds):
        profile = generate_profile(preset, 1, seed=7, duration=0.3)
        traces = [run_pipeline(profile, PipelineOptions(
            resolution_bits=bits, board="ideal", noise_current_a=0.0,
            noise_voltage_v=0.0, seed=seed), TriggerSpec.duration(0.3)).trace
            for seed in seeds]
        for column in TRACE_COLUMNS:
            assert getattr(traces[0], column).tobytes() == getattr(traces[1], column).tobytes()


class TestPipelineExact:
    """``run_pipeline``'s outputs are pinned bit for bit: a change to any
    reading, timestamp, flag, event, energy, report field or trace-file byte
    fails here, not only in hand-run benchmark digests."""

    # sha256 over the trace columns, events, energies, flush log and report of
    # each 2 s workload-1 run, and over the file bytes of two buffered captures;
    # re-recorded for readings in whole micro-units (the file bytes kept)
    DIGESTS = {
        ("cc2650", 9, "bcm"):
            "107c4951c59e9be89d402dd0ab3636b10f7942abe06b67cc8c6767c28cf5788c",
        ("cc2650", 9, "linux"):
            "8cba44dd7d091c7e197ae57ed4d5ed4b8ddb42cc701c43a6740df96d432c844c",
        ("cc2650", 12, "bcm"):
            "2e29df59d466b6c4c9b8d97ef3b631734b0b61dc7be8d5bd45be67e437f09663",
        ("cc2650", 12, "linux"):
            "b1827954818e1dde9a2c6821b81f51b94931181f69dfc138b6517749ad4207b6",
        ("rpi3", 9, "bcm"):
            "53ef2e8bed15c3dd4a66a300c4f3c5f8e3a719d0f33e2a346453733344684b12",
        ("rpi3", 9, "linux"):
            "bc31e19ec8bbe87edd45a7b632da2f6b31cf23924e50e924f38e51243e1730a9",
        ("rpi3", 12, "bcm"):
            "9d7e9d1731608aa501c4c6235548daa2a4c29c231f281db2ed2e251b011c0dcc",
        ("rpi3", 12, "linux"):
            "e25a1899d2141306a9cb99ba2336a0d905dee25615b68d1bcdd993758a669910",
    }
    FILE_DIGESTS = {
        "two_buffer":
            "c5718b0636cfab7a665e47e1759cac3c2a15974067deb26fa68a4e5452c6ba57",
        "circular":
            "6314f548bcf7b03584c46d68b887e155d0c37368503a96ca072d3ba56b931970",
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
        point = OperatingPoint(driver, speed, config)
        bounds_s, ts = schedule(point, trigger, horizon_ns)
        period_ns = point.period_us * 1000.0
        tail_ns = (1.5 * READ_DELAYS_US[speed][driver.name]
                   + LOOP_OVERHEAD_US + TIMESTAMP_CALL_US) * 1000.0
        conversion = np.arange(1, len(ts) + 1)
        assert np.array_equal(ts, (conversion * period_ns + tail_ns).astype(np.int64))
        # the window ends are bit for bit k * period
        ends = conversion * period_ns * 1e-9
        if (driver.name, speed, config.supply_voltage, bits, True) in OPERATING_POINTS:
            # n + 1 boundaries from 0
            assert bounds_s.shape == (len(ts) + 1,) and bounds_s[0] == 0.0
            assert bounds_s[1:].tobytes() == ends.tobytes()
        else:
            # one [end - window, end] row per conversion
            assert bounds_s.shape == (len(ts), 2)
            assert bounds_s[:, 1].tobytes() == ends.tobytes()
            assert bounds_s[:, 0].tobytes() == (ends - point.window_s).tobytes()
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

        def brute(levels, t1):
            overlap = np.clip(np.minimum(edges[1:], t1)
                              - np.maximum(edges[:-1], t1 - window), 0.0, None)
            return float(np.sum(levels * overlap)) / window

        # gapped [end - window, end] rows, and the boundaries of tiled windows
        gapped_ends = np.array([0.07, 0.1, 0.13, 0.3, 0.41, 0.45, 0.99])
        grid = np.arange(15) * window
        for bounds, end_s in ((np.stack([gapped_ends - window, gapped_ends], axis=1),
                               gapped_ends), (grid, grid[1:])):
            mean_i, mean_i2, mean_v = profile.window_means(bounds, window, True)
            assert mean_i.shape == end_s.shape
            for k, t1 in enumerate(end_s):
                assert mean_i[k] == pytest.approx(brute(current, t1), rel=1e-12)
                assert mean_i2[k] == pytest.approx(brute(current ** 2, t1), rel=1e-12)
                assert mean_v[k] == pytest.approx(brute(voltage, t1), rel=1e-12)
            assert profile.window_means(bounds, window, False)[1] is None

    @pytest.mark.parametrize("bounds", [
        np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
        np.array([[0.0, 0.25], [0.25, 0.5], [0.5, 0.75], [0.75, 1.0]]),
    ], ids=["tiled", "gapped"])
    def test_window_means_constant_profile_exact(self, bounds):
        # dyadic times and levels: every step of the closed form is exact
        profile = constant_profile(0.5, 4.0, 1.0)
        mean_i, mean_i2, mean_v = profile.window_means(bounds, 0.25, True)
        assert mean_i.tolist() == [0.5] * 4
        assert mean_i2.tolist() == [0.25] * 4
        assert mean_v.tolist() == [4.0] * 4

    def test_sense_ideal_board_without_noise_is_identity(self):
        rng = np.random.default_rng(1)
        mean_i, mean_v = rng.uniform(0.0, 0.5, 100), rng.uniform(3.0, 5.0, 100)
        sensed_i, sensed_v = sense(IDEAL_BOARD, mean_i, None, mean_v)
        assert np.array_equal(sensed_i, mean_i)
        assert np.array_equal(sensed_v, mean_v)

    @pytest.mark.parametrize("bits,divider", [(9, 1), (9, 8), (12, 8)])
    def test_convert_draws_keyed_streams_at_near_readings(self, bits, divider):
        # the current draws default_rng(seed), the bus default_rng([seed, 1]);
        # a reading takes its channel's next draw only if its pre-floor count
        # lies within REACH sigma of a count boundary, in reading order, and
        # every reading draws where that reach covers half a count
        config = SensorConfig(pga_divider=divider, resolution_bits=bits)
        rng = np.random.default_rng(1)
        sensed_i = rng.uniform(-0.01, 0.5, 2000)
        sensed_v = rng.uniform(3.0, 5.0, 2000)
        options = PipelineOptions(resolution_bits=bits, seed=5)
        current, bus_v, saturated = convert(options, config, sensed_i, sensed_v)

        expected = []
        for sensed, sigma, key, channel, floor in (
                (sensed_i, options.noise_current_a, 5, config.shunt, 0.0),
                (sensed_v, options.noise_voltage_v, [5, 1], config.bus, -np.inf)):
            reach = REACH * sigma * (channel.scale * channel.per) + REACH_SLACK_COUNTS
            pre_floor = channel.counts(np.maximum(sensed, floor))
            near = np.abs(pre_floor - np.rint(pre_floor)) <= reach
            if reach >= 0.5:
                near[:] = True
            assert 0 < near.sum() and (reach >= 0.5) == near.all()
            draws = np.random.default_rng(key).standard_normal(near.sum())
            noisy = np.maximum(sensed, floor)
            noisy[near] = np.maximum(draws * sigma + sensed[near], floor)
            expected.append(channel.floor(channel.counts(noisy)))
        (expected_i, sat_i), (expected_v, sat_v) = expected
        assert current.tobytes() == expected_i.tobytes()
        assert bus_v.tobytes() == expected_v.tobytes()
        assert np.array_equal(saturated, sat_i | sat_v)
        # each channel's stream is its own: the other channel's noise does
        # not move it
        quiet = PipelineOptions(resolution_bits=bits, seed=5, noise_voltage_v=0.0)
        assert convert(quiet, config, sensed_i, sensed_v)[0].tobytes() == current.tobytes()

    @pytest.mark.parametrize("noise", [-1e-12, float("nan"), float("inf")])
    def test_bad_noise_sigma_named(self, noise):
        # convert has no noise-free branch: a tiny negative sigma would
        # draw at the readings within REACH_SLACK_COUNTS of a boundary
        for name in ("noise_current_a", "noise_voltage_v"):
            with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
                PipelineOptions(**{name: noise})

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
        # the timestamps are the boundaries shifted in place after the tiled
        # bounds are taken (2500 kHz) and before the gapped rows are (500 kHz)
        for speed in (2500, 500):
            bounds_s, ts = schedule(OperatingPoint(BCM_PROFILE, speed, self.CONFIG),
                                    TriggerSpec.duration(0.05), 10**9)
            assert not np.shares_memory(bounds_s, ts)

    @pytest.mark.parametrize("squares", [False, True])
    def test_window_means(self, squares):
        # both shapes of bounds: tiled boundaries and gapped rows; a supply
        # profile integrates its parts, and the squares its merged form
        profile = generate_profile("rpi3", 1, seed=1, duration=0.5)
        grid_s = np.arange(0, 500) * 1e-3
        parts = [*profile._currents, profile._voltage]
        if squares:
            merged = profile._merged
            parts += [*merged._currents, merged._voltage, merged._i2]
        for bounds in (grid_s, np.stack([grid_s[1:] - 0.001, grid_s[1:]], axis=1)):
            assert_inputs_unchanged(
                lambda b, *_: profile.window_means(b, 0.001, squares), bounds,
                *[array for part in parts for array in part])

    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    @pytest.mark.parametrize("board", [SHIELD_BOARD, BREAKOUT_BOARD], ids=lambda b: b.name)
    def test_sense(self, board, noise):
        # the window means through the board, and the board's outputs
        # through the conversion at this noise
        options = PipelineOptions(noise_current_a=noise, noise_voltage_v=noise)
        squares = board.current_quad != 0.0
        assert_inputs_unchanged(
            lambda i, i2, v: sense(board, i, i2 if squares else None, v),
            self.CURRENT, self.CURRENT ** 2, self.BUS_V)
        sensed = sense(board, self.CURRENT, self.CURRENT ** 2 if squares else None,
                       self.BUS_V)
        assert_inputs_unchanged(lambda i, v: convert(options, self.CONFIG, i, v), *sensed)

    def test_quantize(self):
        # no noise; the default noise, where both channels draw at near
        # readings only; and 1 mA, where every current reading draws
        for noise_i, noise_v in [(0.0, 0.0), (20e-6, 0.2e-3), (1e-3, 1e-3)]:
            options = PipelineOptions(noise_current_a=noise_i, noise_voltage_v=noise_v)
            assert_inputs_unchanged(lambda i, v: convert(options, self.CONFIG, i, v),
                                    self.CURRENT, self.BUS_V)
        for channel, values in ((self.CONFIG.shunt, self.CURRENT),
                                (self.CONFIG.bus, self.BUS_V)):
            # floor works in place on the array counts allocated
            assert_inputs_unchanged(lambda x: channel.floor(channel.counts(x)), values)

    @pytest.mark.parametrize("curve", [
        CalibrationCurve("linear", 0.9956, voltage_offset=0.027, current_max_a=0.8),
        CalibrationCurve("quadratic", 0.982, 0.0074, 0.097, current_max_a=0.8),
    ], ids=["linear", "quadratic"])
    def test_calibrate(self, curve):
        current = np.linspace(0.0, 0.5, 257)
        assert_inputs_unchanged(lambda i, v: calibrate(curve, i, v), current, self.BUS_V)
        assert_inputs_unchanged(lambda i: apply_current(curve, i), current)


#: Every supported (driver, bus speed kHz, supply V, resolution bits) point
#: and whether its windows tile, written out apart from the code.  Every
#: 12-bit point tiles; at 9 bit the gaps are 200 kHz, 500 kHz at 5 V, linux
#: at 500 kHz and 3.3 V, and linux at 800 kHz and 5 V.
OPERATING_POINTS = [
    ("bcm", 200, 3.3, 12, True), ("bcm", 200, 3.3, 9, False),
    ("bcm", 200, 5.0, 12, True), ("bcm", 200, 5.0, 9, False),
    ("bcm", 500, 3.3, 12, True), ("bcm", 500, 3.3, 9, True),
    ("bcm", 500, 5.0, 12, True), ("bcm", 500, 5.0, 9, False),
    ("bcm", 800, 3.3, 12, True), ("bcm", 800, 3.3, 9, True),
    ("bcm", 800, 5.0, 12, True), ("bcm", 800, 5.0, 9, True),
    ("bcm", 2500, 5.0, 12, True), ("bcm", 2500, 5.0, 9, True),
    ("linux", 200, 3.3, 12, True), ("linux", 200, 3.3, 9, False),
    ("linux", 200, 5.0, 12, True), ("linux", 200, 5.0, 9, False),
    ("linux", 500, 3.3, 12, True), ("linux", 500, 3.3, 9, False),
    ("linux", 500, 5.0, 12, True), ("linux", 500, 5.0, 9, False),
    ("linux", 800, 3.3, 12, True), ("linux", 800, 3.3, 9, True),
    ("linux", 800, 5.0, 12, True), ("linux", 800, 5.0, 9, False),
    ("linux", 2500, 5.0, 12, True), ("linux", 2500, 5.0, 9, True),
]
TILED_POINTS = [point[:4] for point in OPERATING_POINTS if point[4]]


def unsupported_message(speed, supply):
    return (f"bus speed {speed}kHz at {supply}V supply is not supported: the speeds "
            "are (200, 500, 800, 2500) kHz, and 2500kHz at 3.3V gives very "
            "unreliable bus communication")


class TestOperatingPoints:
    def test_supported_points_are_the_table(self):
        accepted = set()
        for driver in PROFILES.values():
            for speed in (0, 100, 200, 400, 500, 800, 1000, 2500, 3400):
                for supply in VALID_SUPPLIES:
                    for bits in VALID_RESOLUTIONS:
                        config = SensorConfig(resolution_bits=bits, supply_voltage=supply)
                        try:
                            OperatingPoint(driver, speed, config)
                        except UnsupportedOperatingPoint as exc:
                            assert str(exc) == unsupported_message(speed, supply)
                            continue
                        accepted.add((driver.name, speed, supply, bits))
        assert accepted == {point[:4] for point in OPERATING_POINTS}
        assert (len(OPERATING_POINTS), len(TILED_POINTS)) == (28, 20)

    @pytest.mark.parametrize("driver,speed,supply,bits,tiles", OPERATING_POINTS)
    def test_tiles(self, driver, speed, supply, bits, tiles):
        config = SensorConfig(resolution_bits=bits, supply_voltage=supply)
        assert OperatingPoint(PROFILES[driver], speed, config).tiles == tiles

    ENTRY_POINTS = {
        "OperatingPoint": lambda driver, speed, config:
            OperatingPoint(PROFILES[driver], speed, config),
        # schedule takes a built point, so its rejection is the point's own
        "schedule": lambda driver, speed, config:
            schedule(OperatingPoint(PROFILES[driver], speed, config),
                     TriggerSpec.duration(0.01), 10**7),
        "run_measurement": lambda driver, speed, config:
            run_measurement(SimulatedBus(SimulatedSensor(config)), lambda t: (5e-3, 3.3),
                            PROFILES[driver], speed, config, TriggerSpec.duration(0.01)),
        "expected_polls": lambda driver, speed, config:
            expected_polls(PROFILES[driver], speed, config),
        "TraceHeader": lambda driver, speed, config: TraceHeader(config, driver, speed),
        "run_pipeline": lambda driver, speed, config:
            run_pipeline(constant_profile(5e-3, 3.3, 0.01),
                         PipelineOptions(resolution_bits=config.resolution_bits,
                                         driver=driver, speed_khz=speed,
                                         supply_voltage=config.supply_voltage),
                         TriggerSpec.duration(0.01)),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("driver", ["bcm", "linux"])
    @pytest.mark.parametrize("speed", [1000, 0, 2500])
    def test_one_rejection_for_every_entry_point(self, entry, driver, speed):
        config = SensorConfig(supply_voltage=3.3)
        with pytest.raises(UnsupportedOperatingPoint) as raised:
            self.ENTRY_POINTS[entry](driver, speed, config)
        assert str(raised.value) == unsupported_message(speed, 3.3)


class TestTiledWindows:
    """Back-to-back conversion windows take one lookup per boundary."""

    def test_pipeline_tiles_exactly_where_period_is_conversion(self, monkeypatch):
        # the number of axes of the bounds each channel integrates: 1 where
        # the windows tile, 2 for [start, end] rows; a 9-bit run reads this
        # profile's bus as one count and integrates its current only
        shapes = []
        for name in ("current_means", "voltage_means"):
            method = getattr(LoadProfile, name)
            monkeypatch.setattr(LoadProfile, name,
                                lambda self, bounds, *args, method=method:
                                shapes.append(bounds.ndim) or method(self, bounds, *args))
        profile = constant_profile(0.1, 5.0, 0.01)
        for driver, speed, supply, bits, tiles in OPERATING_POINTS:
            shapes.clear()
            options = PipelineOptions(resolution_bits=bits, driver=driver,
                                      speed_khz=speed, supply_voltage=supply)
            run_pipeline(profile, options, TriggerSpec.duration(0.01))
            assert shapes == [1 if tiles else 2] * (2 if bits == 12 else 1), (
                driver, speed, supply, bits)

    def test_gapped_point_readings_unchanged(self):
        # TestPipelineExact.digest of this run, recorded when every point took
        # the two-lookup form and re-recorded for the keyed noise streams,
        # for the declared peak's divider 2 and for readings in whole
        # micro-units; the breakout board also takes the i**2 path
        options = PipelineOptions(resolution_bits=9, driver="linux", speed_khz=800,
                                  board="breakout", seed=11)
        assert ("linux", 800, 5.0, 9, False) in OPERATING_POINTS
        result = run_experiment("rpi3", 1, options, duration=0.5)
        assert len(result.trace) == 2262
        assert TestPipelineExact.digest(result) == (
            "de34b758871f8ae9601a7ed44ad7cf5f4cb329c4adb97dc73443877f4b408a2f")

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
        operating_point = OperatingPoint(PROFILES[driver], speed, config)
        grid_s, ts = schedule(operating_point, TriggerSpec.duration(1.0), horizon_ns)
        window_s = operating_point.window_s
        period_ns = operating_point.period_us * 1000.0
        ends = np.arange(1, len(ts) + 1) * period_ns * 1e-9
        assert grid_s[1:].tobytes() == ends.tobytes()

        horizon_s = horizon_ns * 1e-9
        edges = np.unique(np.concatenate([[0.0, horizon_s], np.array(cuts) * horizon_s]))
        current, voltage = np.array(levels[:len(edges) - 1]).T
        profile = LoadProfile(edges, current, voltage)
        tiled = profile.window_means(grid_s, window_s, squares)
        gapped = profile.window_means(
            np.stack([grid_s[1:] - window_s, grid_s[1:]], axis=1), window_s, squares)

        # A window start is end - window rounded, not the boundary before it;
        # the gap is a few ulps of the end.  A cumulative integral moves by
        # at most that times its steepest slope, the largest level; each
        # lookup and difference adds a rounding of the cumulative's size,
        # and the division one of the mean's.
        start_shift = np.abs(grid_s[:-1] - (grid_s[1:] - window_s))
        assert np.all(start_shift <= 4 * np.spacing(grid_s[1:]))
        eps = np.finfo(float).eps
        for k, (levels_k, cumulative) in enumerate([
                (current, profile._currents[0].cumulative),
                (current ** 2, profile._i2.cumulative),
                (voltage, profile._voltage.cumulative)]):
            if k == 1 and not squares:
                assert tiled[1] is None and gapped[1] is None
                continue
            bound = ((start_shift * levels_k.max() + 5 * eps * cumulative.max()) / window_s
                     + eps * np.abs(gapped[k]))
            assert np.all(np.abs(tiled[k] - gapped[k]) <= bound)


def stage_readings(profile, options, board, point, calibration, bounds_s):
    """The per-reading stages: every window's means, the board transfer,
    each channel's noise and quantization, then the calibration."""
    means = profile.window_means(bounds_s, point.window_s, board.current_quad != 0.0)
    current, bus_v, saturated = convert(options, point.config, *sense(board, *means))
    return (*calibrate(calibration, current, bus_v), saturated)


@contextlib.contextmanager
def recorded(profile):
    """Record each noise draw as (key, count) and each of ``profile``'s
    per-channel window means by name, in call order."""
    draws, means = [], []
    noisy = experiment._noisy

    def draw(sensed, sigma, key, lowest):
        draws.append((key, len(sensed)))
        return noisy(sensed, sigma, key, lowest)

    for name in ("current_means", "voltage_means"):
        method = getattr(profile, name)
        setattr(profile, name, lambda *args, name=name, method=method:
                means.append(name) or method(*args))
    experiment._noisy = draw
    try:
        yield draws, means
    finally:
        experiment._noisy = noisy
        del profile.current_means, profile.voltage_means


def assert_readings_are_the_stages(profile, options, trigger, calibration=None):
    """``_readings`` equals the per-reading stages byte for byte and takes
    the same draws; returns the per-channel means it computed."""
    board = options.named("board", BOARDS)
    config = SensorConfig(
        pga_divider=options.pga_divider or pick_pga_divider(profile.peak_current),
        resolution_bits=options.resolution_bits, supply_voltage=options.supply_voltage)
    point = OperatingPoint(options.named("driver", PROFILES), options.speed_khz, config)
    bounds_s, _ = schedule(point, trigger, round(profile.duration * 1e9))
    with recorded(profile) as (draws, means):
        chained = experiment._readings(profile, options, board, point, calibration, bounds_s)
        chain_draws, chain_means = list(draws), list(means)
    with recorded(profile) as (draws, _):
        staged = stage_readings(profile, options, board, point, calibration, bounds_s)
    assert chain_draws == draws
    for name, got, want in zip(("current", "bus_voltage", "saturated"), chained, staged):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    return chain_means


def level_past(channel, transfer, level, target, side):
    """From ``level`` near it, the level nearest ``target`` whose pre-floor
    count through ``transfer`` and ``channel`` lies beyond it on ``side``:
    the lowest above where ``side`` is +1, the highest below where it is -1."""
    def beyond(x):
        return side * (channel.counts(transfer(np.array([x])))[0] - target) > 0

    # bracket the level between one short of the target and one past it,
    # then halve the bracket down to adjacent doubles
    short = past = level
    step = abs(level) * 2.0 ** -40
    while beyond(short):
        short -= side * step
        step *= 2
    step = abs(level) * 2.0 ** -40
    while not beyond(past):
        past += side * step
        step *= 2
    while True:
        middle = (short + past) / 2
        if middle in (short, past):
            return past
        short, past = (short, middle) if beyond(middle) else (middle, past)


#: A general profile near count boundaries: (operating point, board, noise
#: on, divider, seed, duration s, cuts as fractions of it, the current's and
#: the bus's count, and per segment each one's pre-floor target as (shift,
#: side, beyond)): the lower boundary of the count moved by ``shift``, plus
#: the reach and ``beyond`` where ``side`` is +1, its upper boundary less
#: them where it is -1.  ``beyond`` runs from well inside the reach to just
#: past the rounding bound of the window means.
BEYOND_REACH = [-0.03, -1e-6, -1e-10, 0.0, 1e-13, 1e-11, 1e-9, 1e-7, 1e-4, 0.05]
near_boundary_runs = st.tuples(
    st.sampled_from(OPERATING_POINTS), st.sampled_from(sorted(BOARDS)), st.booleans(),
    st.sampled_from(VALID_PGA_DIVIDERS), st.integers(0, 2**16), st.floats(0.01, 0.15),
    st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=5),
    st.tuples(st.integers(3, 100), st.integers(3, 100)),
    st.lists(st.tuples(*[st.tuples(st.sampled_from([0] * 8 + [1, -2]),
                                   st.sampled_from([1, -1]),
                                   st.sampled_from(BEYOND_REACH))] * 2),
             min_size=6, max_size=6))
#: the default point and the shield board at 9 bit, with noise, reading 50
#: current counts and 158 bus counts
DEFAULT_9_BIT = (("bcm", 2500, 5.0, 9, True), "shield", True, 1, 5, 0.1)
#: a gapped 9-bit point and the ideal board, without noise
GAPPED_QUIET = (("linux", 800, 5.0, 9, False), "ideal", False, 2, 6, 0.1)
#: one level a rounding of the means past the reach: the means that round
#: inside it draw, so the check must not fill the bus
PAST_REACH = DEFAULT_9_BIT + ([], (50, 158), [((0, 1, 0.05), (0, 1, 1e-13))] * 6)
#: one level well inside the reach: every reading draws
INSIDE_REACH = DEFAULT_9_BIT + ([], (50, 158), [((0, 1, 0.05), (0, 1, -0.03))] * 6)
#: the first level reads 158 bus counts, the second 161
TWO_COUNTS = DEFAULT_9_BIT + ([0.5], (50, 158), [((0, 1, 0.05), (0, 1, 0.05)),
                                                 ((0, 1, 0.05), (3, 1, 0.05))] * 3)
#: every level one count beyond the reach: the bus is filled, and the
#: current, which has no such check, integrates its means
ONE_COUNT = DEFAULT_9_BIT + ([0.3, 0.6], (50, 158), [((0, 1, 0.05), (0, -1, 0.05)),
                                                     ((0, -1, 0.05), (0, 1, 0.05))] * 3)


class TestOneCount:
    """A bus whose window means all read as one count beyond the noise's
    reach reads that count with no means and no draws, exactly as the
    per-reading stages would."""

    @staticmethod
    def run(case):
        ((driver, speed, supply, bits, _), board, noise, divider, seed, duration,
         cuts, counts, targets) = case
        options = PipelineOptions(resolution_bits=bits, driver=driver, speed_khz=speed,
                                  supply_voltage=supply, board=board, pga_divider=divider,
                                  seed=seed, **({} if noise else dict(
                                      noise_current_a=0.0, noise_voltage_v=0.0)))
        config = SensorConfig(pga_divider=divider, resolution_bits=bits,
                              supply_voltage=supply)
        board = BOARDS[board]
        edges = np.unique(np.concatenate([[0.0, duration], np.array(cuts) * duration]))
        levels = []
        for channel, transfer, inverse, sigma, column in (
                (config.shunt, lambda i: board.sense_current(i, i * i),
                 lambda sensed: board_input(board, sensed)[0], options.noise_current_a, 0),
                (config.bus, board.sense_voltage,
                 lambda sensed: sensed - board.voltage_offset, options.noise_voltage_v, 1)):
            per_unit = channel.scale * channel.per
            reach = REACH * sigma * per_unit + REACH_SLACK_COUNTS
            column_levels = []
            for segment in targets[:len(edges) - 1]:
                shift, side, beyond = segment[column]
                target = counts[column] + shift + 0.5 - side * (0.5 - reach - beyond)
                start = float(inverse(np.array([target / per_unit]))[0])
                column_levels.append(level_past(channel, transfer, start, target, side))
            levels.append(column_levels)
        profile = LoadProfile(edges, *levels)
        return assert_readings_are_the_stages(profile, options,
                                              TriggerSpec.duration(duration))

    @settings(max_examples=100, deadline=None)
    @given(case=near_boundary_runs)
    @example(case=PAST_REACH)
    @example(case=INSIDE_REACH)
    @example(case=TWO_COUNTS)
    @example(case=ONE_COUNT)
    @example(case=GAPPED_QUIET + ONE_COUNT[6:])
    def test_readings_are_the_stages_near_count_boundaries(self, case):
        self.run(case)

    BOTH = ["current_means", "voltage_means"]

    @pytest.mark.parametrize("case,means", [
        (PAST_REACH, BOTH), (INSIDE_REACH, BOTH), (TWO_COUNTS, BOTH),
        (ONE_COUNT, ["current_means"]),
        (GAPPED_QUIET + ONE_COUNT[6:], ["current_means"])], ids=[
            "past-reach", "inside-reach", "two-counts", "one-count", "one-count-gapped"])
    def test_examples_fill_or_integrate(self, case, means):
        # the examples above take both sides of the check
        assert self.run(case) == means

    @pytest.mark.parametrize("board", sorted(BOARDS))
    @pytest.mark.parametrize("source", ["supply", "battery"])
    @pytest.mark.parametrize("bits", VALID_RESOLUTIONS)
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_preset_readings_are_the_stages(self, preset, bits, source, board):
        profile = generate_profile(preset, 1, seed=9, duration=0.15, source=source)
        for driver, speed in (("bcm", 2500), ("linux", 800)):
            for noise in ({}, dict(noise_current_a=0.0, noise_voltage_v=0.0)):
                options = PipelineOptions(resolution_bits=bits, driver=driver,
                                          speed_khz=speed, board=board, seed=4, **noise)
                assert_readings_are_the_stages(profile, options, TriggerSpec.duration(0.15))

    @pytest.mark.parametrize("bits", VALID_RESOLUTIONS)
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_bus_reads_one_count_at_9_bit(self, preset, bits):
        # the supply's 2 mV band reads as one count beyond the noise's reach
        # at 9 bit; at 12 bit every reading draws
        profile = generate_profile(preset, 1, seed=3)
        with recorded(profile) as (draws, means):
            run_pipeline(profile, PipelineOptions(resolution_bits=bits, seed=3),
                         TriggerSpec.duration(profile.duration))
        assert means == (["current_means"] if bits == 9
                         else ["current_means", "voltage_means"])
        assert [key for key, _ in draws] == ([3] if bits == 9 else [3, [3, 1]])


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

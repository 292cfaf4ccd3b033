"""Sampler loop, trapezoidal accumulation, triggers, hybrid sleep model."""

import io

import numpy as np
import pytest

from emeter.buffering import TwoBufferWriter
from emeter.bus_timing import BCM_PROFILE, expected_polls
from emeter.sampler import (
    EnergyAccumulator,
    FLAG_POWER_SAVE,
    FLAG_WARMUP,
    PowerModeEvent,
    PowerSaveMode,
    Sample,
    Trace,
    TriggerSpec,
    compute_energy,
    gated_energy,
    hybrid_energy,
    naive_energy,
    parse_power_mode_events,
    parse_trigger_edges,
    run_measurement,
)
from emeter.sensor import SensorConfig, SimulatedBus, SimulatedSensor
from emeter.tracefile import HEADER_SIZE, TraceHeader, trace_to_records


def s(ts_ns, volts, amps, flags=0):
    return Sample(int(ts_ns), volts, amps, flags)


class TestComputeEnergy:
    def test_constant_power_one_second(self):
        assert compute_energy(s(0, 1.0, 1.0), s(1_000_000_000, 1.0, 1.0)) == pytest.approx(1.0)

    def test_linear_ramp_trapezoid(self):
        # 1W to 3W over 2s: area of the trapezoid is 4J
        assert compute_energy(s(0, 1.0, 1.0), s(2_000_000_000, 1.0, 3.0)) == pytest.approx(4.0)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            compute_energy(s(1000, 1.0, 1.0), s(1000, 1.0, 1.0))
        with pytest.raises(ValueError):
            compute_energy(s(2000, 1.0, 1.0), s(1000, 1.0, 1.0))

    def test_matches_fine_riemann_oracle(self):
        # random piecewise-linear power signal: accumulate over the samples,
        # then Riemann-sum the same linear interpolation 1000x finer
        # (midpoint rule per sub-interval, segment breakpoints preserved)
        rng = np.random.default_rng(5)
        ts = np.cumsum(rng.integers(100_000, 2_000_000, 1000))
        power = rng.uniform(0.1, 4.0, 1000)
        acc = EnergyAccumulator()
        for t, p in zip(ts, power):
            acc.add(s(t, 1.0, p))
        sub = 1000
        offsets = (np.arange(sub) + 0.5) / sub
        seg_t = ts[:-1, None] + np.outer(np.diff(ts), offsets)
        seg_h = (np.diff(ts) / sub)[:, None]
        mid_p = np.interp(seg_t.ravel(), ts, power).reshape(seg_t.shape)
        oracle = float(np.sum(mid_p * seg_h) * 1e-9)
        assert acc.energy == pytest.approx(oracle, rel=1e-9)

    def test_piecewise_linear_exact_at_breakpoints(self):
        ts = np.array([0, 1, 3, 4, 10]) * 1_000_000_000
        power = np.array([2.0, 0.5, 1.5, 1.5, 0.0])
        exact = sum((power[i] + power[i + 1]) / 2 * (ts[i + 1] - ts[i]) * 1e-9
                    for i in range(len(ts) - 1))
        acc = EnergyAccumulator()
        for t, p in zip(ts, power):
            acc.add(s(t, 1.0, p))
        assert acc.energy == pytest.approx(exact, rel=1e-15)

    def test_energy_non_decreasing(self):
        rng = np.random.default_rng(9)
        acc = EnergyAccumulator()
        last = 0.0
        for k in range(200):
            acc.add(s((k + 1) * 10_000_000, 1.0, rng.uniform(0, 2)))
            assert acc.energy >= last - 1e-15
            last = acc.energy


def make_trace(ts_s, power_w, flags=None, events=(), volts=1.0):
    ts = (np.asarray(ts_s) * 1e9).astype(np.int64)
    power = np.asarray(power_w, dtype=float)
    flags = np.zeros(len(ts), dtype=np.uint8) if flags is None else np.asarray(flags)
    return Trace(ts, np.full(len(ts), volts), power / volts, flags, events=events)


class TestTraceEnergies:
    def test_additivity_at_sample_boundary(self):
        rng = np.random.default_rng(2)
        ts = np.cumsum(rng.uniform(0.001, 0.01, 400))
        power = rng.uniform(0, 3, 400)
        whole = gated_energy(make_trace(ts, power))
        k = 137
        prefix = gated_energy(make_trace(ts[:k + 1], power[:k + 1]))
        suffix = gated_energy(make_trace(ts[k:], power[k:]))
        assert whole == pytest.approx(prefix + suffix, rel=1e-12)

    def test_warmup_excluded_but_present(self):
        flags = np.zeros(10, dtype=np.uint8)
        flags[:3] = FLAG_WARMUP
        tr = make_trace(np.arange(10) * 0.1, np.ones(10), flags)
        assert len(tr) == 10
        # only segments with both endpoints past warm-up count: 6 x 0.1s x 1W
        assert gated_energy(tr) == pytest.approx(0.6)

    def test_monotone_timestamps_enforced(self):
        with pytest.raises(ValueError):
            Trace([0, 0], [1, 1], [1, 1], [0, 0])


class TestHybridEnergy:
    MODE = PowerSaveMode(0, 1e-6, 3.3)

    def test_mode_current_must_be_below_lsb(self):
        with pytest.raises(ValueError):
            PowerSaveMode(0, 150e-6, 3.3)
        PowerSaveMode(1, 99e-6, 3.3)

    def test_no_events_equals_plain_trapezoid(self):
        # constant power: duration-weighted and trapezoid sums coincide
        tr = make_trace(np.arange(20) * 0.05, np.full(20, 2.5))
        assert hybrid_energy(tr, [self.MODE]) == pytest.approx(gated_energy(tr), rel=1e-12)

    def test_pure_standby_interval(self):
        # 10s in a 1uA standby at 3.3V and nothing else: 33uJ
        ts = np.arange(0, 10.5, 0.5)
        flags = np.full(len(ts), FLAG_POWER_SAVE, dtype=np.uint8)
        events = [PowerModeEvent("enter", 0, 0),
                  PowerModeEvent("exit", 0, 10_000_000_000)]
        tr = make_trace(ts, np.zeros(len(ts)), flags, events)
        assert hybrid_energy(tr, [self.MODE]) == pytest.approx(33e-6)

    def test_undeclared_mode_rejected(self):
        tr = make_trace([0.0, 1.0], [1.0, 1.0],
                        events=[PowerModeEvent("enter", 7, 100),
                                PowerModeEvent("exit", 7, 200)])
        with pytest.raises(ValueError):
            hybrid_energy(tr, [self.MODE])

    def test_overlapping_modes_rejected(self):
        events = [PowerModeEvent("enter", 0, 100),
                  PowerModeEvent("enter", 1, 150),
                  PowerModeEvent("exit", 0, 300),
                  PowerModeEvent("exit", 1, 400)]
        tr = make_trace([0.0, 1.0], [1.0, 1.0], events=events)
        with pytest.raises(ValueError):
            hybrid_energy(tr, [self.MODE, PowerSaveMode(1, 2e-6, 3.3)])

    def test_malformed_events_rejected(self):
        tr = make_trace([0.0, 1.0], [1.0, 1.0],
                        events=[PowerModeEvent("exit", 0, 100)])
        with pytest.raises(ValueError):
            hybrid_energy(tr, [self.MODE])
        tr = make_trace([0.0, 1.0], [1.0, 1.0],
                        events=[PowerModeEvent("enter", 0, 100)])
        with pytest.raises(ValueError):
            hybrid_energy(tr, [self.MODE])

    def test_gating_identity(self):
        # flagging an interval removes its duration-weighted sample energy
        # and substitutes mode power; slivers recover the enter boundary
        period = 0.01
        n = 1000
        ts = np.arange(1, n + 1) * period
        power = np.full(n, 2.0)
        t_s, t_e = 3.20501, 6.40501  # strictly between samples
        base = hybrid_energy(make_trace(ts, power), [self.MODE])

        flags = np.zeros(n, dtype=np.uint8)
        inside = (ts >= t_s) & (ts <= t_e)
        flags[inside] = FLAG_POWER_SAVE
        events = [PowerModeEvent("enter", 0, int(t_s * 1e9)),
                  PowerModeEvent("exit", 0, int(t_e * 1e9))]
        gated = hybrid_energy(make_trace(ts, power, flags, events), [self.MODE])

        # independent accounting of the documented rule
        removed = 2.0 * (np.sum(np.diff(ts)[inside[1:]]))  # flagged dt*p terms
        last_awake = ts[~inside & (ts < t_s)].max()
        sliver = 2.0 * (t_s - last_awake)
        added = (t_e - t_s) * self.MODE.power + sliver
        assert gated - base == pytest.approx(added - removed, rel=1e-9)

    def test_hybrid_tracks_oracle_on_sleepy_workload(self):
        # synthetic device: 1uA sleep intervals alternating with active
        # levels that are exact LSB multiples (no quantization error), so
        # the only naive-vs-hybrid difference is the sleep accounting
        period = 0.001
        n = 20_000
        ts = np.arange(1, n + 1) * period
        lsb_power = 97.68e-6 * 3.3
        active = 60 * lsb_power
        sleep_spans = [(2.0005, 5.0005), (9.0005, 13.0005)]
        power = np.full(n, active)
        flags = np.zeros(n, dtype=np.uint8)
        events = []
        true_e = 0.0
        mode = PowerSaveMode(0, 1e-6, 3.3)
        inside_any = np.zeros(n, dtype=bool)
        for t0, t1 in sleep_spans:
            m = (ts >= t0) & (ts <= t1)
            inside_any |= m
            power[m] = 0.0  # below one LSB quantizes to nothing
            flags[m] = FLAG_POWER_SAVE
            events += [PowerModeEvent("enter", 0, int(t0 * 1e9)),
                       PowerModeEvent("exit", 0, int(t1 * 1e9))]
        total_sleep = sum(t1 - t0 for t0, t1 in sleep_spans)
        true_e = active * (ts[-1] - ts[0] - total_sleep) + mode.power * total_sleep

        tr = make_trace(ts, power, flags, events)
        e_hybrid = hybrid_energy(tr, [mode])
        e_naive = naive_energy(tr)
        assert abs(e_hybrid - true_e) / true_e < 0.005
        assert abs(e_hybrid - true_e) < abs(e_naive - true_e)


class TestTriggerSpec:
    def test_parse(self):
        assert TriggerSpec.parse("duration:30").duration_s == 30.0
        assert TriggerSpec.parse("count:500").sample_count == 500
        with pytest.raises(ValueError):
            TriggerSpec.parse("bogus:1")
        with pytest.raises(ValueError):
            TriggerSpec.parse("duration:0")

    def test_edges_window(self):
        spec = TriggerSpec.external_edges([(0, "fall"), (500_000_000, "rise")])
        assert spec.window_ns() == (0, 500_000_000, "complete")

    def test_unterminated_stream(self):
        spec = TriggerSpec.external_edges([(100, "fall")])
        start, stop, status = spec.window_ns()
        assert (start, stop, status) == (100, None, "unterminated")

    def test_edge_stream_parsing(self):
        edges = parse_trigger_edges("0 fall\n# note\n500 rise\n")
        assert edges == [(0, "fall"), (500, "rise")]
        with pytest.raises(ValueError):
            parse_trigger_edges("12 wiggle")

    def test_event_stream_parsing(self):
        events = parse_power_mode_events("100 enter 0\n900 exit 0\n")
        assert events[0] == PowerModeEvent("enter", 0, 100)
        with pytest.raises(ValueError):
            parse_power_mode_events("100 sleep 0")


class TestRunMeasurement:
    CFG = SensorConfig()

    def run(self, trigger, load=None, seconds=1.2, **kw):
        sensor = SimulatedSensor(self.CFG)
        bus = SimulatedBus(sensor)
        load = load or (lambda t: (5e-3, 5.0))
        return run_measurement(bus, load, BCM_PROFILE, 2500, self.CFG, trigger,
                               horizon_ns=int(seconds * 1e9), **kw)

    def test_duration_trigger_sample_count(self):
        result = self.run(TriggerSpec.duration(1.0))
        # fitted timing: ~952 samples per second at 12 bit
        assert 950 <= len(result.trace) <= 1050
        assert result.status == "complete"

    def test_rate_matches_timing_model(self):
        result = self.run(TriggerSpec.duration(1.0))
        expected = expected_polls(BCM_PROFILE, 2500, self.CFG).samples_per_second
        assert len(result.trace) == pytest.approx(expected, abs=2)

    def test_count_trigger(self):
        result = self.run(TriggerSpec.count(50))
        assert len(result.trace) == 50

    def test_edge_gating(self):
        spec = TriggerSpec.external_edges([(0, "fall"), (500_000_000, "rise")])
        result = self.run(spec)
        ts = result.trace.timestamps_ns
        assert len(ts) > 0
        assert ts.min() >= 0 and ts.max() <= 500_000_000

    def test_unterminated_status(self):
        spec = TriggerSpec.external_edges([(0, "fall")])
        result = self.run(spec, seconds=0.3)
        assert result.status == "unterminated"
        assert len(result.trace) > 0

    def test_warmup_flagged_and_excluded(self):
        result = self.run(TriggerSpec.duration(1.0), load=lambda t: (0.2, 5.0))
        tr = result.trace
        assert all(tr[i].warmup for i in range(5))
        assert not tr[5].warmup
        # constant 1W-ish source: energy about (1 - 6/rate) * P * 1s
        power = tr.bus_voltage[10] * tr.current[10]
        n = len(tr)
        lost = power * 6 / n
        assert result.energy_j == pytest.approx(power * 1.0 - lost, abs=2.5 * power / n)

    def test_constant_load_quantization(self):
        result = self.run(TriggerSpec.count(20), load=lambda t: (5e-3, 5.0))
        tr = result.trace
        from emeter.sensor import dequantize_shunt, quantize_shunt
        expected = dequantize_shunt(quantize_shunt(5e-3, self.CFG), self.CFG)
        assert np.allclose(tr.current[5:], expected)

    def test_power_save_flagging(self):
        events = [PowerModeEvent("enter", 0, 200_000_000),
                  PowerModeEvent("exit", 0, 600_000_000)]
        modes = [PowerSaveMode(0, 1e-6, 5.0)]
        result = self.run(TriggerSpec.duration(1.0), events=events, modes=modes)
        tr = result.trace
        inside = (tr.timestamps_ns >= 200_000_000) & (tr.timestamps_ns <= 600_000_000)
        assert np.all((tr.flags[inside] & FLAG_POWER_SAVE) != 0)
        assert np.all((tr.flags[~inside] & FLAG_POWER_SAVE) == 0)

    def test_energy_matches_streaming_accumulator(self):
        events = [PowerModeEvent("enter", 0, 200_000_000),
                  PowerModeEvent("exit", 0, 400_000_000)]
        modes = [PowerSaveMode(0, 1e-6, 5.0)]
        result = self.run(TriggerSpec.duration(1.0), load=lambda t: (0.2, 5.0),
                          events=events, modes=modes,
                          rng=np.random.default_rng(1))
        tr = result.trace
        assert np.any(tr.flags & FLAG_WARMUP) and np.any(tr.flags & FLAG_POWER_SAVE)
        acc = EnergyAccumulator()
        for i in range(len(tr)):
            acc.add(tr[i], countable=not tr.flags[i] & (FLAG_WARMUP | FLAG_POWER_SAVE))
        assert result.energy_j == pytest.approx(acc.energy, rel=1e-12)

    def test_writer_gets_every_sample_in_order(self):
        fh = io.BytesIO()
        header = TraceHeader.from_config(self.CFG, "bcm", 2500)
        writer = TwoBufferWriter(fh, header, 64, write_speed_bps=40e6)
        result = self.run(TriggerSpec.duration(0.3), writer=writer)
        writer.close()
        assert result.overruns == 0
        assert fh.getvalue()[HEADER_SIZE:] == trace_to_records(result.trace).tobytes()

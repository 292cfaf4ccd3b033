"""Sampler loop, trapezoidal accumulation, triggers, hybrid sleep model."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emeter.bus_timing import BCM_PROFILE, PROFILES, expected_polls
from emeter.sampler import (
    DEFAULT_WARMUP_SAMPLES,
    EnergyAccumulator,
    FLAG_POWER_SAVE,
    FLAG_WARMUP,
    PowerSaveMode,
    Sample,
    Trace,
    TriggerSpec,
    build_trace,
    compute_energy,
    countable_mask,
    flag_power_save,
    gated_energy,
    hybrid_energy,
    naive_energy,
    parse_trigger_edges,
    run_measurement,
)
from emeter.sensor import SHIELD_BOARD, SensorConfig, SimulatedBus, SimulatedSensor


def s(ts_ns, volts, amps):
    return Sample(int(ts_ns), volts, amps)


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


def make_trace(ts_s, power_w, flags=None, intervals=(), volts=1.0):
    ts = (np.asarray(ts_s) * 1e9).astype(np.int64)
    power = np.asarray(power_w, dtype=float)
    flags = np.zeros(len(ts), dtype=np.uint8) if flags is None else np.asarray(flags)
    return Trace(ts, np.full(len(ts), volts), power / volts, flags, intervals=intervals)


class TestTraceReadings:
    def test_readings_round_half_even_to_micro_units(self):
        trace = Trace([5, 9], [3.3, 4.9999985], [12.345e-3, -2.5e-6], [0, 0])
        assert trace.bus_voltage.tobytes() == (np.array([3_300_000, 4_999_998]) * 1e-6).tobytes()
        assert trace.current.tobytes() == (np.array([12_345, -2]) * 1e-6).tobytes()

    def test_micro_units_are_not_rounded_again(self):
        micro = np.array([3_300_000, -2, 2 ** 31 - 1, -2 ** 31], dtype=np.int32)
        trace = Trace.from_micro([1, 2, 3, 4], micro, micro[::-1])
        assert trace.bus_voltage.tobytes() == (micro * 1e-6).tobytes()
        assert trace.current.tobytes() == (micro[::-1] * 1e-6).tobytes()


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

    def test_order_test_does_not_overflow(self):
        # both differences overflow int64: the first pair rises, the second falls
        assert len(Trace([-2**63, 2**63 - 1], [1, 1], [1, 1], [0, 0])) == 2
        with pytest.raises(ValueError, match="strictly increasing"):
            Trace([2**62 + 1, -2**62 - 1], [1, 1], [1, 1], [0, 0])

    @settings(max_examples=300, deadline=None)
    @given(spans=st.lists(st.tuples(st.integers(0, 12), st.integers(-1, 4),
                                    st.sampled_from([0, 1])), max_size=6))
    def test_accepts_exactly_non_empty_disjoint_intervals(self, spans):
        # dense starts and short lengths: empty, inverted, touching and
        # overlapping intervals all come up
        intervals = [(start, start + length, mode) for start, length, mode in spans]
        valid = (all(start < end for start, end, _ in intervals)
                 and all(max(a[0], b[0]) >= min(a[1], b[1])
                         for a, b in itertools.combinations(intervals, 2)))
        if valid:
            trace = make_trace([0.0, 1.0], [1.0, 1.0], intervals=intervals)
            assert trace.intervals == sorted(intervals)
        else:
            with pytest.raises(ValueError, match="exit must follow its enter|overlapping"):
                make_trace([0.0, 1.0], [1.0, 1.0], intervals=intervals)


class TestHybridEnergy:
    MODE = PowerSaveMode(0, 1e-6, 3.3)

    def test_mode_current_must_be_below_lsb(self):
        # the 12-bit divider-1 shunt channel reads 97.68 uA and up as counts
        shunt = SensorConfig().shunt
        assert shunt.quantize(97e-6)[0] == 0
        PowerSaveMode(1, 97e-6, 3.3)
        for current in (shunt.reading(1), 98e-6, 99e-6, 150e-6):
            assert shunt.quantize(current)[0] == 1
            with pytest.raises(ValueError, match="below the sensor LSB"):
                PowerSaveMode(0, current, 3.3)

    def test_no_events_equals_plain_trapezoid(self):
        # constant power: duration-weighted and trapezoid sums coincide
        tr = make_trace(np.arange(20) * 0.05, np.full(20, 2.5))
        assert hybrid_energy(tr, [self.MODE]) == pytest.approx(gated_energy(tr), rel=1e-12)

    def test_pure_standby_interval(self):
        # 10s in a 1uA standby at 3.3V and nothing else: 33uJ
        ts = np.arange(0, 10.5, 0.5)
        flags = np.full(len(ts), FLAG_POWER_SAVE, dtype=np.uint8)
        tr = make_trace(ts, np.zeros(len(ts)), flags, [(0, 10_000_000_000, 0)])
        assert hybrid_energy(tr, [self.MODE]) == pytest.approx(33e-6)

    def test_undeclared_mode_rejected(self):
        tr = make_trace([0.0, 1.0], [1.0, 1.0], intervals=[(100, 200, 7)])
        with pytest.raises(ValueError, match="undeclared mode 7"):
            hybrid_energy(tr, [self.MODE])

    def test_overlapping_modes_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            make_trace([0.0, 1.0], [1.0, 1.0], intervals=[(100, 300, 0), (150, 400, 1)])

    @pytest.mark.parametrize("intervals", [
        [(100, 300, 0), (150, 400, 0)],
        [(100, 400, 0), (150, 200, 0)],
        [(100, 200, 0), (100, 200, 0)],
    ])
    def test_same_mode_overlap_rejected(self, intervals):
        with pytest.raises(ValueError, match="overlapping"):
            make_trace([0.0, 1.0], [1.0, 1.0], intervals=intervals)

    @pytest.mark.parametrize("interval", [(100, 100, 0), (200, 100, 0)])
    def test_empty_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="exit must follow its enter"):
            make_trace([0.0, 1.0], [1.0, 1.0], intervals=[interval])

    def test_touching_intervals_accepted(self):
        # one sleep span split at 5 s: the same energy as the whole span
        ts = np.arange(0, 10.5, 0.5)
        flags = np.full(len(ts), FLAG_POWER_SAVE, dtype=np.uint8)
        halves = [(5_000_000_000, 10_000_000_000, 0), (0, 5_000_000_000, 0)]
        split = make_trace(ts, np.zeros(len(ts)), flags, halves)
        assert split.intervals == sorted(halves)
        assert hybrid_energy(split, [self.MODE]) == pytest.approx(33e-6)

    @pytest.mark.parametrize("spans,millijoules", [
        ([(4.5, 7.5)], 6.5),
        ([(4.5, 6.0), (6.0, 7.5)], 6.5),  # the span split into touching pieces
        ([(4.2, 4.4), (4.5, 7.5)], 6.5),  # a sample-less span ahead of it
        ([(5.0, 7.5)], 7.0),  # entered on the first flagged sample
    ], ids=["one-span", "touching", "sample-less", "on-a-sample"])
    def test_enter_sliver_is_charged_once(self, spans, millijoules):
        # ten samples 1 ms apart at 1 W, the ones from 5 to 7 ms flagged
        # asleep at zero draw: the awake steps give 6 mJ, and the sample at
        # 4 ms holds its power up to the enter edge, however the sleep is
        # declared around it
        mode = PowerSaveMode(0, 0.0, 3.3)
        ts = np.arange(10) * 1e-3
        flags = np.where((ts >= 4.5e-3) & (ts <= 7.5e-3), FLAG_POWER_SAVE, 0)
        intervals = [(round(a * 1e6), round(b * 1e6), 0) for a, b in spans]
        trace = make_trace(ts, np.ones(10), flags, intervals)
        assert hybrid_energy(trace, [mode]) == pytest.approx(millijoules * 1e-3, rel=1e-12)

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
        intervals = [(int(t_s * 1e9), int(t_e * 1e9), 0)]
        gated = hybrid_energy(make_trace(ts, power, flags, intervals), [self.MODE])

        # independent accounting of the documented rule
        removed = 2.0 * (np.sum(np.diff(ts)[inside[1:]]))  # flagged dt*p terms
        last_awake = ts[~inside & (ts < t_s)].max()
        sliver = 2.0 * (t_s - last_awake)
        added = (t_e - t_s) * self.MODE.power + sliver
        assert gated - base == pytest.approx(added - removed, rel=1e-9)

    def test_hybrid_tracks_oracle_on_sleepy_workload(self):
        # synthetic device: 1uA sleep intervals alternating with active
        # levels that are exact LSB multiples in whole microamperes at 1 V
        # (no quantization error), so the only naive-vs-hybrid difference
        # is the sleep accounting
        period = 0.001
        n = 20_000
        ts = np.arange(1, n + 1) * period
        lsb_power = 97.68e-6 * 3.3
        active = round(60 * lsb_power, 6)
        sleep_spans = [(2.0005, 5.0005), (9.0005, 13.0005)]
        power = np.full(n, active)
        flags = np.zeros(n, dtype=np.uint8)
        intervals = []
        true_e = 0.0
        mode = PowerSaveMode(0, 1e-6, 3.3)
        inside_any = np.zeros(n, dtype=bool)
        for t0, t1 in sleep_spans:
            m = (ts >= t0) & (ts <= t1)
            inside_any |= m
            power[m] = 0.0  # below one LSB quantizes to nothing
            flags[m] = FLAG_POWER_SAVE
            intervals.append((int(t0 * 1e9), int(t1 * 1e9), 0))
        total_sleep = sum(t1 - t0 for t0, t1 in sleep_spans)
        true_e = active * (ts[-1] - ts[0] - total_sleep) + mode.power * total_sleep

        tr = make_trace(ts, power, flags, intervals)
        e_hybrid = hybrid_energy(tr, [mode])
        e_naive = naive_energy(tr)
        assert abs(e_hybrid - true_e) / true_e < 0.005
        assert abs(e_hybrid - true_e) < abs(e_naive - true_e)


# Per-interval and per-step loops, kept as oracles for the vectorized
# flag_power_save and hybrid_energy.
def flag_power_save_oracle(timestamps_ns, intervals):
    flags = np.zeros(len(timestamps_ns), dtype=np.uint8)
    for start_ns, end_ns, _ in intervals:
        inside = (timestamps_ns >= start_ns) & (timestamps_ns <= end_ns)
        flags[inside] |= FLAG_POWER_SAVE
    return flags


def hybrid_energy_terms(trace, modes):
    """The terms of the hybrid energy, step by step: each interval's declared
    energy, each awake sample's power over the step before it, and each
    enter sliver: an awake sample ``j`` followed by a flagged one holds its
    power up to ``s``, the start of the last interval starting at or before
    ``t[j+1]``, when ``s > t[j]``."""
    ts = trace.timestamps_ns.tolist()
    power = trace.power().tolist()
    awake = ((trace.flags & (FLAG_WARMUP | FLAG_POWER_SAVE)) == 0).tolist()
    flagged = ((trace.flags & FLAG_POWER_SAVE) != 0).tolist()
    by_index = {mode.mode_index: mode for mode in modes}
    terms = [(end - start) * 1e-9 * by_index[m].power for start, end, m in trace.intervals]
    for j in range(1, len(ts)):
        if awake[j]:
            terms.append((ts[j] - ts[j - 1]) * 1e-9 * power[j])
    for j in range(len(ts) - 1):
        if awake[j] and flagged[j + 1]:
            starts = [start for start, _, _ in trace.intervals if start <= ts[j + 1]]
            if starts and starts[-1] > ts[j]:
                terms.append(power[j] * (starts[-1] - ts[j]) * 1e-9)
    return terms


@st.composite
def power_save_cases(draw):
    """A trace and sorted same-mode intervals.  Interval ends fall on a
    timestamp, next to one or anywhere, also outside the trace, and the
    intervals may overlap.  The trace holds them made disjoint, each start
    moved up to the ends before it, so that overlapping ones touch and one
    inside another goes.  The power-save flags are either the intervals'
    own or arbitrary, so every sliver condition is reached."""
    gaps = draw(st.lists(st.integers(1, 1000), max_size=40))
    ts = np.cumsum(np.array(gaps, dtype=np.int64))
    n = len(ts)

    def point():
        if n and draw(st.booleans()):
            return int(draw(st.sampled_from(ts.tolist()))) + draw(st.sampled_from([-1, 0, 1]))
        return draw(st.integers(-2000, (int(ts[-1]) if n else 0) + 2000))

    intervals = []
    for _ in range(draw(st.integers(0, 6))):
        a, b = point(), point()
        intervals.append((min(a, b), max(a, b) + (a == b), 0))
    intervals.sort()
    disjoint, reached = [], -np.inf
    for start, end, mode in intervals:
        if end > reached:
            disjoint.append((max(start, reached), end, mode))
            reached = end
    flag_values = [0, FLAG_WARMUP, FLAG_POWER_SAVE, FLAG_WARMUP | FLAG_POWER_SAVE]
    flags = np.array(draw(st.lists(st.sampled_from(flag_values), min_size=n, max_size=n)),
                     dtype=np.uint8)
    if draw(st.booleans()):
        flags = (flags & FLAG_WARMUP) | flag_power_save_oracle(ts, intervals)
    # whole microamperes, as the trace holds them: a float strategy's many
    # tiny values would round to a zero power that hides a sliver
    micro_amps = st.lists(st.integers(-10_000, 1_000_000), min_size=n, max_size=n)
    current = np.array(draw(micro_amps)) * 1e-6
    volts = draw(st.lists(st.floats(0.5, 5.5), min_size=n, max_size=n))
    return Trace(ts, volts, current, flags, disjoint), intervals


class TestPowerSaveStageOracle:
    """The vectorized power-save stage equals its loops: the flags exactly,
    the hybrid energy to the rounding of its sum."""

    MODES = [PowerSaveMode(0, 50e-6, 3.3)]

    @settings(max_examples=300, deadline=None)
    @given(case=power_save_cases())
    def test_flags_equal_oracle(self, case):
        trace, intervals = case
        flags = flag_power_save(trace.timestamps_ns, intervals)
        assert flags.dtype == np.uint8
        assert np.array_equal(flags, flag_power_save_oracle(trace.timestamps_ns, intervals))

    @settings(max_examples=300, deadline=None)
    @given(case=power_save_cases())
    def test_hybrid_energy_equals_oracle(self, case):
        # both sum the same terms, in another order: each sum is within
        # (n - 1) * u * sum(|term|) of the exact one
        trace, _ = case
        terms = hybrid_energy_terms(trace, self.MODES)
        bound = len(terms) * np.finfo(float).eps * math.fsum(map(abs, terms))
        assert abs(hybrid_energy(trace, self.MODES) - math.fsum(terms)) <= bound


@st.composite
def build_trace_cases(draw):
    """Readings at random increasing timestamps, sleep intervals of two
    modes that may touch but never overlap, placed anywhere around the
    readings, and a duration, count or edge trigger whose window a horizon
    may cut short or, for a count or open edge trigger, close."""
    gaps = draw(st.lists(st.integers(1, 1000), max_size=40))
    ts = np.cumsum(np.array(gaps, dtype=np.int64))
    n = len(ts)
    span = (int(ts[-1]) if n else 0) + 500
    cuts = sorted(draw(st.lists(st.integers(-500, span), max_size=12, unique=True)))
    intervals = [(a, b, draw(st.sampled_from([0, 1])))
                 for a, b in zip(cuts, cuts[1:]) if draw(st.booleans())]
    kind = draw(st.sampled_from(["duration", "count", "edges"]))
    if kind == "duration":
        trigger = TriggerSpec.duration(draw(st.integers(1, span)) * 1e-9)
    elif kind == "count":
        trigger = TriggerSpec.count(draw(st.integers(DEFAULT_WARMUP_SAMPLES + 2, 50)))
    else:
        fall = draw(st.integers(-500, span))
        edges = [(fall, "fall")]
        if draw(st.booleans()):
            edges.append((draw(st.integers(fall + 1, span + 1)), "rise"))
        trigger = TriggerSpec.external_edges(edges)
    horizon = draw(st.one_of(st.none(), st.integers(0, span)))
    # the window's limit, worked out apart from TriggerSpec.limit_ns
    limit = trigger.stop_ns
    if horizon is not None:
        limit = horizon if limit is None else min(limit, horizon)
    columns = dict(
        bus_voltage=draw(st.lists(st.floats(0.5, 5.5), min_size=n, max_size=n)),
        current=draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)),
        saturated=draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return ts, columns, trigger, horizon, limit, intervals


class TestBuildTrace:
    MODES = {0: PowerSaveMode(0, 1e-6, 3.3), 1: PowerSaveMode(1, 2e-6, 3.3)}

    @settings(max_examples=300, deadline=None)
    @given(case=build_trace_cases())
    def test_window_flags_status_and_intervals(self, case):
        ts, columns, trigger, horizon, limit, intervals = case
        trace, status, end_ns = build_trace(
            ts, columns["bus_voltage"], columns["current"], columns["saturated"],
            trigger, horizon, intervals)
        count = trigger.sample_count

        # the kept readings: those in [start, limit], cut at the count
        inside = (ts >= trigger.start_ns) & (ts <= (np.inf if limit is None else limit))
        assert np.array_equal(trace.timestamps_ns, ts[inside][:count])
        # warm-up: the run's first readings, by position, kept or not
        position = np.nonzero(inside)[0][:count]
        assert np.array_equal((trace.flags & FLAG_WARMUP) != 0,
                              position < DEFAULT_WARMUP_SAMPLES)
        if count is not None and len(trace):
            assert end_ns == trace.timestamps_ns[-1]
        else:
            assert end_ns == limit

        upper = np.inf if end_ns is None else end_ns
        assert np.all((trace.timestamps_ns >= trigger.start_ns)
                      & (trace.timestamps_ns <= upper))
        assert trace.intervals == sorted(trace.intervals)
        for start, end, _ in trace.intervals:
            assert trigger.start_ns <= start < end <= upper

        assert np.array_equal(trace.flags & FLAG_POWER_SAVE,
                              flag_power_save(trace.timestamps_ns, trace.intervals))
        # a stop past the limit: the horizon cut the window short
        unterminated = ((trigger.stop_ns is None and count is None)
                        or (count is not None and len(trace) < count)
                        or (trigger.stop_ns is not None and trigger.stop_ns > limit))
        assert status == ("unterminated" if unterminated else "complete")
        for (_, e0, _), (s1, _, _) in zip(trace.intervals, trace.intervals[1:]):
            assert e0 <= s1
        assert {mode for _, _, mode in trace.intervals} <= set(self.MODES)


class TestTriggerSpec:
    def test_parse(self):
        assert TriggerSpec.parse("duration:30") == TriggerSpec(stop_ns=30_000_000_000)
        assert TriggerSpec.parse("count:500") == TriggerSpec(sample_count=500)
        with pytest.raises(ValueError):
            TriggerSpec.parse("bogus:1")

    @pytest.mark.parametrize("spec,message", [
        ("count:abc", "invalid literal for int() with base 10: 'abc'"),
        ("count:2.5", "invalid literal for int() with base 10: '2.5'"),
        ("duration:x", "could not convert string to float: 'x'"),
        ("duration:", "could not convert string to float: ''"),
    ])
    def test_bad_number_names_the_spec(self, spec, message):
        with pytest.raises(ValueError) as exc:
            TriggerSpec.parse(spec)
        assert str(exc.value) == f"trigger spec {spec!r}: {message}"

    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
    def test_duration_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="duration must be finite and positive"):
            TriggerSpec.parse(f"duration:{value}")

    @pytest.mark.parametrize("n", [-1, 0, 1, 5, 6])
    def test_count_must_reach_past_warmup(self, n):
        # the first DEFAULT_WARMUP_SAMPLES samples integrate nothing, and a
        # trapezoid needs two countable samples
        with pytest.raises(ValueError, match="first 5 samples are warm-up"):
            TriggerSpec.count(n)
        with pytest.raises(ValueError, match="first 5 samples are warm-up"):
            TriggerSpec.parse(f"count:{n}")

    def test_smallest_count_integrates_one_trapezoid(self):
        assert DEFAULT_WARMUP_SAMPLES + 2 == 7
        config = SensorConfig()
        result = run_measurement(SimulatedBus(SimulatedSensor(config)),
                                 lambda t: (0.1, 5.0), BCM_PROFILE, 2500, config,
                                 TriggerSpec.count(7))
        assert len(result.trace) == 7
        assert np.count_nonzero(result.trace.flags & FLAG_WARMUP) == 5
        assert result.status == "complete"
        assert result.energy_j > 0

    def test_edges_window(self):
        spec = TriggerSpec.external_edges([(0, "fall"), (500_000_000, "rise")])
        assert spec == TriggerSpec(start_ns=0, stop_ns=500_000_000)
        # a rise before the first fall does not stop the window
        spec = TriggerSpec.external_edges([(50, "rise"), (100, "fall"), (200, "fall"),
                                           (300, "rise"), (400, "rise")])
        assert spec == TriggerSpec(start_ns=100, stop_ns=300)

    def test_unterminated_stream(self):
        spec = TriggerSpec.external_edges([(100, "fall")])
        assert spec == TriggerSpec(start_ns=100, stop_ns=None)

    def test_stream_without_fall_rejected(self):
        with pytest.raises(ValueError, match="no start"):
            TriggerSpec.external_edges([(100, "rise")])

    def test_edge_stream_parsing(self):
        edges = parse_trigger_edges("0 fall\n# note\n500 rise\n")
        assert edges == [(0, "fall"), (500, "rise")]
        with pytest.raises(ValueError):
            parse_trigger_edges("12 wiggle")


class CountingBus(SimulatedBus):
    def __init__(self, sensor):
        super().__init__(sensor)
        self.reads = 0

    def read_register(self, addr):
        self.reads += 1
        return super().read_register(addr)


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
        assert np.all(tr.flags[:5] & FLAG_WARMUP)
        assert not tr.flags[5] & FLAG_WARMUP
        # constant 1W-ish source: energy about (1 - 6/rate) * P * 1s
        power = tr.bus_voltage[10] * tr.current[10]
        n = len(tr)
        lost = power * 6 / n
        assert result.energy_j == pytest.approx(power * 1.0 - lost, abs=2.5 * power / n)

    def test_constant_load_quantization(self):
        result = self.run(TriggerSpec.count(20), load=lambda t: (5e-3, 5.0))
        tr = result.trace
        count, saturated = self.CFG.shunt.quantize(5e-3)
        assert not saturated
        # the reading in whole microamperes, as a trace holds it
        expected = np.rint(self.CFG.shunt.reading(count) * 1e6) * 1e-6
        assert np.all(tr.current[5:] == expected)

    def test_power_save_flagging(self):
        result = self.run(TriggerSpec.duration(1.0), intervals=[(200_000_000, 600_000_000, 0)])
        tr = result.trace
        inside = (tr.timestamps_ns >= 200_000_000) & (tr.timestamps_ns <= 600_000_000)
        assert np.all((tr.flags[inside] & FLAG_POWER_SAVE) != 0)
        assert np.all((tr.flags[~inside] & FLAG_POWER_SAVE) == 0)

    def test_energy_matches_streaming_accumulator(self):
        result = self.run(TriggerSpec.duration(1.0), load=lambda t: (0.2, 5.0),
                          intervals=[(200_000_000, 400_000_000, 0)],
                          rng=np.random.default_rng(1))
        tr = result.trace
        assert np.any(tr.flags & FLAG_WARMUP) and np.any(tr.flags & FLAG_POWER_SAVE)
        acc = EnergyAccumulator()
        for t, v, i, f in zip(tr.timestamps_ns.tolist(), tr.bus_voltage.tolist(),
                              tr.current.tolist(), tr.flags.tolist()):
            acc.add(Sample(t, v, i), countable=not f & (FLAG_WARMUP | FLAG_POWER_SAVE))
        assert result.energy_j == pytest.approx(acc.energy, rel=1e-12)

    @pytest.mark.parametrize("intervals,message", [
        ([(400_000_000, 200_000_000, 0)], "exit must follow its enter"),
        ([(200_000_000, 400_000_000, 0), (300_000_000, 500_000_000, 1)], "overlapping"),
        # past the window, where clipping would drop it
        ([(3_000_000_000, 2_000_000_000, 0)], "exit must follow its enter"),
    ])
    def test_bad_intervals_fail_before_any_read(self, intervals, message):
        bus = CountingBus(SimulatedSensor(self.CFG))
        with pytest.raises(ValueError, match=message):
            run_measurement(bus, lambda t: (5e-3, 5.0), BCM_PROFILE, 2500, self.CFG,
                            TriggerSpec.duration(1.0), intervals=intervals)
        assert bus.reads == 0

    def test_config_must_equal_the_sensors(self):
        # the loop would dequantize 9-bit counts with the 12-bit scale
        bus = CountingBus(SimulatedSensor(SensorConfig(resolution_bits=9)))
        with pytest.raises(ValueError, match="resolution_bits=12.*resolution_bits=9"):
            run_measurement(bus, lambda t: (5e-3, 5.0), BCM_PROFILE, 2500, self.CFG,
                            TriggerSpec.duration(1.0))
        assert bus.reads == 0
        # an equal config built apart is the same config
        result = run_measurement(bus, lambda t: (5e-3, 5.0), BCM_PROFILE, 2500,
                                 SensorConfig(resolution_bits=9), TriggerSpec.count(20))
        assert len(result.trace) == 20


def _stepped_load(t_ns):
    """A 5 ms cycle of four current levels with a sagging supply."""
    level = (t_ns // 1_250_000) % 4
    return 0.02 + 0.045 * level, 5.0 - 0.01 * level


class TestRegisterLoopExact:
    """The polling loop's outputs and its use of the caller's generator are
    pinned bit for bit: every run below spans several thousand reads, so
    more than one block of jitter draws."""

    # sha256 over the trace arrays, energy, status, register reads and
    # conversions of each run, recorded from the one-draw-per-read loop and
    # re-recorded for readings in whole micro-units
    DIGESTS = {
        ("bcm", 9):
            "25e7c8c17afa869ccd42aa47d53d841eb74fb5e750d26733453b4b7062c17139",
        ("bcm", 12):
            "73513e6adcf2cd22be9c1a8cc27fb1fbd0e340855700abfe2afc55f62a22b24e",
        ("linux", 9):
            "76f8479f6bbc0a79670ada545465e5e565b6e0dd1dfa9a525db0f5a56b5f3052",
        ("linux", 12):
            "d7f3b55818399f6016de25c5756c7c0055123254ce22ef6e988ab9de2bb6be82",
    }

    @staticmethod
    def run(driver, bits, seed=7, seconds=0.5):
        config = SensorConfig(resolution_bits=bits, pga_divider=4)
        bus = CountingBus(SimulatedSensor(config, board=SHIELD_BOARD))
        rng = np.random.default_rng(seed)
        result = run_measurement(bus, _stepped_load, PROFILES[driver], 2500,
                                 config, TriggerSpec.duration(seconds),
                                 intervals=[(150_000_000, 230_000_000, 0)], rng=rng)
        return result, bus, rng

    @pytest.mark.parametrize("driver,bits", sorted(DIGESTS))
    def test_outputs_match_recorded_digest(self, driver, bits):
        result, bus, _ = self.run(driver, bits)
        assert bus.reads > 2 * 4096
        tr = result.trace
        h = hashlib.sha256()
        for column in (tr.timestamps_ns, tr.bus_voltage, tr.current, tr.flags):
            h.update(column.tobytes())
        h.update(repr((result.energy_j, result.status, result.overruns, bus.reads,
                       bus.sensor.conversions_done)).encode())
        assert h.hexdigest() == self.DIGESTS[driver, bits]

    @pytest.mark.parametrize("driver,bits", [("bcm", 12), ("linux", 9)])
    def test_generator_left_as_one_draw_per_read(self, driver, bits):
        _, bus, rng = self.run(driver, bits, seed=3)
        fresh = np.random.default_rng(3)
        fresh.uniform(size=bus.reads)
        assert rng.bit_generator.state == fresh.bit_generator.state

    def test_generator_left_as_one_draw_per_read_on_error(self):
        config = SensorConfig()
        bus = CountingBus(SimulatedSensor(config))
        calls = 0

        def failing_load(t_ns):
            nonlocal calls
            calls += 1
            if calls == 5000:
                raise RuntimeError("load model failed")
            return 0.05, 5.0

        rng = np.random.default_rng(5)
        with pytest.raises(RuntimeError):
            run_measurement(bus, failing_load, BCM_PROFILE, 2500, config,
                            TriggerSpec.duration(1.0), rng=rng)
        # every read drew its delay before the load was asked for
        fresh = np.random.default_rng(5)
        fresh.uniform(size=5000)
        assert bus.reads == 4999
        assert rng.bit_generator.state == fresh.bit_generator.state

"""Persistence under both buffering policies, plus the overhead model identities."""

import io

import numpy as np
import pytest

from emeter.buffering import (
    REPLAY_PUSH_BUDGET,
    BufferPolicy,
    OverheadModel,
    SustainedOverrunError,
    overhead_energy_closed,
    overhead_energy_schedule,
    persist,
    simulate_overhead_power,
)
from emeter.experiment import PipelineOptions, run_experiment
from emeter.tracefile import (
    HEADER_SIZE,
    RECORD,
    TraceHeader,
    TraceRecord,
    decode_trace,
)

HEADER = TraceHeader()


def persist_all(kind, capacity, write_speed_bps, records, period_ns=1_000_000):
    out = io.BytesIO()
    push_ns = (np.arange(len(records)) + 1) * period_ns
    stats = persist(out, HEADER, np.array(records, dtype=RECORD), push_ns,
                    BufferPolicy(kind, capacity), write_speed_bps)
    return out, stats


def records_n(n):
    return [TraceRecord((k + 1) * 1_000_000, 5_000_000, k) for k in range(n)]


class TestTwoBuffer:
    def test_flush_log_batches(self):
        _, stats = persist_all("two_buffer", 4, 1e9, records_n(10))
        # full buffers at samples 4 and 8, remainder at the last push
        assert [n for _, n in stats.flush_log] == [4, 4, 2]
        assert stats.flush_log[0][0] == 4_000_000
        assert stats.flush_log[1][0] == 8_000_000
        ts = [t for t, _ in stats.flush_log]
        assert ts == sorted(ts)

    def test_file_length(self):
        out, _ = persist_all("two_buffer", 4, 1e9, records_n(10))
        assert len(out.getvalue()) == HEADER_SIZE + 16 * 10

    def test_no_loss_or_reorder_when_consumer_keeps_up(self):
        records = records_n(100)
        out, stats = persist_all("two_buffer", 8, 1e8, records)
        assert stats.overruns == 0
        _, decoded = decode_trace(out.getvalue())
        assert decoded == records

    def test_overrun_drops_whole_buffer_with_gap(self):
        # 128 bits per record at 100 bits/s: flushing 4 records takes 5.12s
        # of simulated time while pushes arrive every 1ms
        out, stats = persist_all("two_buffer", 4, 100.0, records_n(12))
        assert stats.overruns > 0
        _, decoded = decode_trace(out.getvalue())
        gaps = [r for r in decoded if r.is_gap]
        data = [r for r in decoded if not r.is_gap]
        assert len(gaps) == stats.overruns
        assert len(data) == 12 - 4 * stats.overruns
        ts = [r.timestamp_ns for r in data]
        assert ts == sorted(ts)

    def test_write_done_at_the_next_handoff_is_not_dropped(self):
        # one record takes 128 bits / 128 kb/s = 1 ms to write, exactly the
        # push period: each buffer is written by the time the next one fills
        out, stats = persist_all("two_buffer", 1, 1.28e5, records_n(5))
        assert stats.overruns == 0
        assert len(out.getvalue()) == HEADER_SIZE + 16 * 5
        _, late = persist_all("two_buffer", 1, 1.28e5 - 1, records_n(5))
        assert late.overruns > 0

    def test_format_flush_log(self):
        # the pipeline reports the flush log as "<ns> flush <n>" lines
        options = PipelineOptions(buffering=BufferPolicy("two_buffer", 2))
        result = run_experiment("rpi3", 1, options, duration=0.01, trace_fh=io.BytesIO())
        lines = result.flush_log.splitlines()
        assert lines[0].endswith(" flush 2")
        assert len(lines) == (len(result.trace) + 1) // 2
        assert int(lines[0].split()[0]) == result.trace.timestamps_ns[1]


class TestCircular:
    def test_identical_output_to_two_buffer(self):
        out_a, _ = persist_all("two_buffer", 4, 1e9, records_n(10))
        out_b, _ = persist_all("circular", 4, 1e9, records_n(10))
        assert out_a.getvalue() == out_b.getvalue()

    def test_empty_stream_header_only(self):
        out, stats = persist_all("circular", 4, 40e6, [])
        assert len(out.getvalue()) == HEADER_SIZE
        assert (stats.overruns, stats.records_written) == (0, 0)

    def test_interleaving_stress_gaps_in_order(self):
        # each record write takes 128/800 = 0.16s; pushes every 16ms: the
        # producer runs 10x faster than the consumer with an 8-deep ring
        out, stats = persist_all("circular", 8, 800.0, records_n(200),
                                 period_ns=16_000_000)
        assert stats.overruns > 0
        _, decoded = decode_trace(out.getvalue())
        data = [r for r in decoded if not r.is_gap]
        assert any(r.is_gap for r in decoded)
        ts = [r.timestamp_ns for r in data]
        assert ts == sorted(ts)
        assert len(data) == 200 - stats.overruns

    @pytest.mark.parametrize("kind", ["two_buffer", "circular"])
    def test_strided_records_write_as_their_copy(self, kind):
        # with nothing dropped the records reach the file unindexed, so a
        # strided view must write the bytes of its contiguous copy
        every_other = np.array(records_n(40), dtype=RECORD)[::2]
        push_ns = (np.arange(20) + 1) * 1_000_000
        outs = []
        for records in (every_other, every_other.copy()):
            outs.append(io.BytesIO())
            stats = persist(outs[-1], HEADER, records, push_ns, BufferPolicy(kind, 4), 1e9)
            assert stats.overruns == 0
        assert outs[0].getvalue() == outs[1].getvalue()

    def test_policy_factory(self):
        # persist dispatches on the policy: only the two-buffer scheme flushes
        _, two = persist_all("two_buffer", 4, 1e9, records_n(10))
        _, ring = persist_all("circular", 4, 1e9, records_n(10))
        assert len(two.flush_log) == 3
        assert ring.flush_log == ()
        with pytest.raises(ValueError):
            BufferPolicy("triple", 4)
        with pytest.raises(ValueError):
            BufferPolicy("circular", 0)


def model(p_b=1.26, p_wb=2.46, w=1.28e6, r_s=1000.0, l_s=128, l_b=1024):
    return OverheadModel(buffer_power_w=p_b, write_power_w=p_wb,
                         write_speed_bps=w, sample_rate_sps=r_s,
                         sample_bits=l_s, buffer_samples=l_b)


class TestOverheadModel:
    def test_equal_powers_degenerate(self):
        m = model(p_wb=1.26)
        assert overhead_energy_schedule(m) == pytest.approx(1.26)
        assert overhead_energy_closed(m) == pytest.approx(1.26)

    def test_infinite_write_speed_limit(self):
        m = model(w=1e15)
        assert overhead_energy_schedule(m) == pytest.approx(1.26, abs=1e-6)

    def test_power_level_anchor(self):
        # write fraction l_s*r_s/w = 0.1, so 1.26 + 0.1*(2.46-1.26) = 1.38
        m = model()
        assert overhead_energy_closed(m) == pytest.approx(1.38)
        assert overhead_energy_schedule(m) == pytest.approx(1.38)

    def test_forms_agree_randomized(self):
        rng = np.random.default_rng(23)
        n = 100_000
        p_b = rng.uniform(0.5, 3.0, n)
        p_wb = p_b + rng.uniform(0.0, 2.0, n)
        r_s = rng.uniform(100, 5000, n)
        l_s = 128.0
        w = l_s * r_s / rng.uniform(0.01, 1.0, n)  # keeps t_w <= t_b
        t_frac = l_s * r_s / w
        closed = (p_b * w + l_s * r_s * (p_wb - p_b)) / w
        schedule = p_b * (1 - t_frac) + p_wb * t_frac
        rel = np.abs(closed - schedule) / np.abs(closed)
        assert rel.max() < 1e-12

    def test_buffer_size_cancels(self):
        values = {overhead_energy_closed(model(l_b=l)) for l in (64, 1024, 65536)}
        assert len(values) == 1
        sched = {overhead_energy_schedule(model(l_b=l)) for l in (64, 1024, 65536)}
        assert max(sched) - min(sched) < 1e-12

    def test_monotone_in_rate(self):
        assert overhead_energy_closed(model(r_s=2000)) > overhead_energy_closed(model(r_s=500))

    def test_sustained_overrun_rejected(self):
        m = model(w=1000.0)  # t_w far beyond t_b
        with pytest.raises(SustainedOverrunError):
            overhead_energy_schedule(m)
        with pytest.raises(SustainedOverrunError):
            overhead_energy_closed(m)

    def test_zero_write_speed_rejected(self):
        with pytest.raises(ValueError):
            overhead_energy_closed(model(w=0.0))

    def test_invalid_powers_rejected(self):
        with pytest.raises(ValueError):
            model(p_wb=1.0)

    def test_infinite_write_speed_accepted(self):
        m = model(w=float("inf"))
        assert overhead_energy_closed(m) == overhead_energy_schedule(m) == 1.26

    @pytest.mark.parametrize("m", [
        pytest.param(model(l_b=64), id="64"),
        pytest.param(model(l_b=1024), id="1024"),
        pytest.param(model(l_b=65536), id="65536"),
        # 64-bit records at a rate that 128-bit records could not sustain
        pytest.param(model(l_s=64, r_s=12000.0), id="ls64-rs12000"),
    ])
    def test_event_replay_matches_closed_form(self, m):
        replay = simulate_overhead_power(m)
        assert replay == pytest.approx(overhead_energy_closed(m), rel=0.01)

    def test_event_replay_rejects_buffer_past_push_budget(self):
        # 25 fills of 80001 entries are 2000025 push times, just past the
        # budget; 80000 entries fit it exactly
        assert REPLAY_PUSH_BUDGET == 25 * 80_000
        with pytest.raises(ValueError, match=r"^buffer samples 80001 is too large to replay"):
            simulate_overhead_power(model(l_b=80_001))

    def test_event_replay_rejects_push_times_past_int64(self):
        # 409600 pushes 1e18 ns apart: the cast to int64 would wrap
        m = model(p_b=1.0, p_wb=2.0, w=1e6, r_s=1e-9)
        with pytest.raises(ValueError, match=r"^sample rate 1e-09 is too low to replay"):
            simulate_overhead_power(m)

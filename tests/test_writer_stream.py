"""``buffering.persist`` against the per-entry streaming writers it replaced,
plus its input checks and the written-once-or-dropped invariant."""

import io

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from emeter.buffering import SAMPLE_BITS, BufferPolicy, persist
from emeter.tracefile import HEADER_SIZE, RECORD, TraceHeader, is_gap
from writer_oracle import CircularWriter, TwoBufferWriter

HEADER = TraceHeader()
KIND = {TwoBufferWriter: "two_buffer", CircularWriter: "circular"}
# every write speed the package, its tests, demos and benchmark use: entry
# times of 3.2 us up to 1.28 s against pushes up to 3 ms apart, so the
# consumer keeps up on some streams and falls behind on others
WRITE_SPEEDS = [40e6, 1e6, 0.5e6, 0.4e6, 1.28e5, 12_800.0, 800.0, 100.0]
#: the 9-bit pipeline's sample period: its push times are exactly periodic
PIPELINE_9BIT_PERIOD_NS = 209_000


def stream(n, period_ns=1_000_000):
    records = np.zeros(n, dtype=RECORD)
    push_ns = (np.arange(n) + 1) * period_ns
    records["t"] = push_ns
    records["uv"] = 5_000_000
    records["ua"] = np.arange(n)
    return records, push_ns


def run_persist(kind, capacity, bps, records, push_ns):
    out = io.BytesIO()
    stats = persist(out, HEADER, records, push_ns, BufferPolicy(kind, capacity), bps)
    return out, stats


def body(out):
    return np.frombuffer(out.getvalue(), dtype=RECORD, offset=HEADER_SIZE)


class TestRecordsWritten:
    def test_two_buffer_counts_data_records_only(self):
        # flushing 4 records at 100 bits/s takes 5.12 s; pushes come every 1 ms
        out, stats = run_persist("two_buffer", 4, 100.0, *stream(12))
        assert stats.overruns == 2
        rows = body(out)
        assert np.count_nonzero(is_gap(rows)) == 2
        assert stats.records_written == 4 == np.count_nonzero(~is_gap(rows))

    def test_circular_counts_data_records_only(self):
        out, stats = run_persist("circular", 8, 800.0, *stream(200, period_ns=16_000_000))
        rows = body(out)
        assert stats.overruns > 0
        assert np.count_nonzero(is_gap(rows)) > 0
        assert stats.records_written == 200 - stats.overruns
        assert stats.records_written == np.count_nonzero(~is_gap(rows))


class TestExtendChecks:
    """``persist`` rejects the streams the writers' ``extend`` rejected."""

    @pytest.mark.parametrize("cls", [TwoBufferWriter, CircularWriter])
    def test_time_must_not_regress(self, cls):
        records, _ = stream(3)
        for push_ns in ([5, 4, 6], [-1, 4, 6]):
            with pytest.raises(ValueError, match="regress"):
                cls(io.BytesIO(), HEADER, capacity=4).extend(records, push_ns)
            with pytest.raises(ValueError, match="regress"):
                run_persist(KIND[cls], 4, 40e6, records, push_ns)
        _, stats = run_persist(KIND[cls], 4, 40e6, records, [5, 5, 6])
        assert stats.records_written == 3

    @pytest.mark.parametrize("cls", [TwoBufferWriter, CircularWriter])
    def test_one_push_time_per_record(self, cls):
        with pytest.raises(ValueError, match="one push time"):
            cls(io.BytesIO(), HEADER, capacity=4).extend(stream(3)[0], [1, 2])
        with pytest.raises(ValueError, match="one push time"):
            run_persist(KIND[cls], 4, 40e6, stream(3)[0], [1, 2])


@st.composite
def streams(draw):
    """Records tagged with their input index in ``ua``; push times may repeat."""
    n = draw(st.integers(0, 60))
    steps = draw(st.lists(st.one_of(st.just(0), st.integers(1, 3_000_000)),
                          min_size=n, max_size=n))
    push_ns = np.cumsum(np.array(steps, dtype=np.int64))
    records = np.zeros(n, dtype=RECORD)
    records["t"] = push_ns
    records["uv"] = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
    records["ua"] = np.arange(n)
    return records, push_ns


@settings(max_examples=300, deadline=None)
@given(cls=st.sampled_from([TwoBufferWriter, CircularWriter]),
       capacity=st.integers(1, 16), bps=st.sampled_from(WRITE_SPEEDS),
       stream=streams())
def test_persist_equals_push_per_record_oracle(cls, capacity, bps, stream):
    records, push_ns = stream
    expected = io.BytesIO()
    writer = cls(expected, HEADER, capacity, write_speed_bps=bps)
    for record, t_ns in zip(records, push_ns):
        writer.push(record, int(t_ns))
    writer.close()
    out, stats = run_persist(KIND[cls], capacity, bps, records, push_ns)
    event(f"{cls.__name__} {'overran' if writer.overruns else 'kept up'}")
    assert out.getvalue() == expected.getvalue()
    assert stats.overruns == writer.overruns
    assert stats.records_written == writer.records_written
    assert list(stats.flush_log) == writer.flush_log


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["two_buffer", "circular"]),
       capacity=st.integers(1, 16), bps=st.sampled_from(WRITE_SPEEDS),
       stream=streams())
def test_every_record_written_once_or_dropped(kind, capacity, bps, stream):
    records, push_ns = stream
    out, stats = run_persist(kind, capacity, bps, records, push_ns)
    rows = body(out)
    gaps = is_gap(rows)
    data = rows[~gaps]
    index = data["ua"].astype(np.int64)
    event(f"{kind} {'overran' if stats.overruns else 'kept up'}")

    # the data rows are an in-order subsequence of the input, copied exactly
    assert np.all(np.diff(index) > 0)
    assert data.tobytes() == records[index].tobytes()
    # every record not written is covered by a counted drop
    dropped = len(records) - len(data)
    assert stats.records_written == len(data)
    assert dropped == stats.overruns * (capacity if kind == "two_buffer" else 1)
    # a drop is never silent: gap markers sit right before the first written
    # record after each run of dropped ones, and nowhere else
    jumps = np.diff(index, prepend=-1) != 1
    assert np.array_equal(np.concatenate(([False], gaps))[:-1][~gaps], jumps)
    assert not len(rows) or not gaps[-1]
    if kind == "two_buffer":
        assert np.count_nonzero(gaps) == stats.overruns
    else:
        assert np.count_nonzero(gaps) == np.count_nonzero(jumps) <= stats.overruns


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["two_buffer", "circular"]),
       capacity=st.integers(1, 16), bps=st.sampled_from(WRITE_SPEEDS),
       stream=streams())
def test_gap_marker_time_lies_between_its_readings(kind, capacity, bps, stream):
    records, push_ns = stream
    out, stats = run_persist(kind, capacity, bps, records, push_ns)
    rows = body(out)
    gaps = is_gap(rows)
    event(f"{kind} {'overran' if stats.overruns else 'kept up'}")
    # the row of the nearest reading before and after each row
    t, index = rows["t"], np.arange(len(rows))
    before = np.maximum.accumulate(np.where(gaps, -1, index))
    after = np.minimum.accumulate(np.where(gaps, len(rows), index)[::-1])[::-1]
    for k in np.flatnonzero(gaps):
        assert before[k] < 0 or t[before[k]] <= t[k]
        assert t[k] <= t[after[k]]  # a reading follows every marker


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["two_buffer", "circular"]),
       capacity=st.integers(1, 16), bps=st.sampled_from(WRITE_SPEEDS),
       stream=streams(), seed=st.integers(0, 2**32 - 1))
def test_drops_depend_on_push_times_only(kind, capacity, bps, stream, seed):
    records, push_ns = stream
    rng = np.random.default_rng(seed)
    other = records.copy()
    other["t"] = rng.integers(0, 2**63, len(records), dtype=np.uint64)
    other["uv"] = rng.integers(-10**6, 10**6, len(records))
    out, stats = run_persist(kind, capacity, bps, records, push_ns)
    other_out, other_stats = run_persist(kind, capacity, bps, other, push_ns)
    event(f"{kind} {'overran' if stats.overruns else 'kept up'}")
    assert other_stats == stats
    rows, other_rows = body(out), body(other_out)
    gaps = is_gap(rows)
    assert np.array_equal(is_gap(other_rows), gaps)
    assert rows[gaps].tobytes() == other_rows[gaps].tobytes()
    # the same entries are kept; each body holds its own array's readings
    index = rows["ua"][~gaps]
    assert np.array_equal(other_rows["ua"][~gaps], index)
    assert rows[~gaps].tobytes() == records[index].tobytes()
    assert other_rows[~gaps].tobytes() == other[index].tobytes()


@pytest.mark.parametrize("bps", WRITE_SPEEDS)
def test_entry_time_is_whole_ns(bps):
    # the float oracle and the integer ring scan agree because of this
    entry_ns = SAMPLE_BITS * 1e9 / bps
    assert entry_ns == int(entry_ns)


class TestWriteSpeedChecks:
    @pytest.mark.parametrize("kind", ["two_buffer", "circular"])
    @pytest.mark.parametrize("bps", [0.0, -1.0, float("nan")])
    def test_non_positive_speed_rejected_before_writing(self, kind, bps):
        out = io.BytesIO()
        with pytest.raises(ValueError, match="write speed must be positive, got"):
            persist(out, HEADER, *stream(3), BufferPolicy(kind, 2), bps)
        assert out.getvalue() == b""

    @pytest.mark.parametrize("kind", ["two_buffer", "circular"])
    def test_infinite_speed_writes_instantly(self, kind):
        records, push_ns = stream(10)
        push_ns[:] = 7  # one instant: even a ring of one never overruns
        out, stats = run_persist(kind, 1, float("inf"), records, push_ns)
        assert stats.overruns == 0
        assert body(out).tobytes() == records.tobytes()


LONG_SHAPES = ["bursts", "near critical", "9-bit period"]


def long_stream(shape, seed, capacity, bps):
    """Up to ~3000 pushes of one of three shapes; ``ua`` tags the index.

    ``bursts``: runs of ``capacity + 1`` equal push times with idle gaps of
    up to three ring drains between them; ``near critical``: pushes about
    one entry time apart, with jitter; ``9-bit period``: the pipeline's
    periodic pushes.
    """
    rng = np.random.default_rng(seed)
    entry_ns = SAMPLE_BITS * 1e9 / bps
    n = int(rng.integers(1, 3001))
    if shape == "bursts":
        gaps = rng.integers(0, int(3 * (capacity + 1) * entry_ns) + 2,
                            n // (capacity + 1) + 1)
        push_ns = np.repeat(np.cumsum(gaps), capacity + 1)[:n]
    elif shape == "near critical":
        period = entry_ns * rng.uniform(0.9, 1.1)
        steps = rng.normal(period, period * rng.uniform(0.0, 0.5), n)
        push_ns = np.cumsum(np.maximum(steps, 0.0)).astype(np.int64)
    else:
        push_ns = (int(rng.integers(0, PIPELINE_9BIT_PERIOD_NS))
                   + np.arange(n) * PIPELINE_9BIT_PERIOD_NS)
    records = np.zeros(n, dtype=RECORD)
    records["t"] = push_ns
    records["ua"] = np.arange(n)
    return records, push_ns.astype(np.int64)


def regime_switches(push_ns, kept, entry_ns):
    """Times the ring's consumer goes from keeping up to falling behind (an
    entry is overwritten) or back (it waits for a kept entry's push)."""
    switches, free, behind = 0, 0.0, False
    for t_ns, keep in zip(push_ns.tolist(), kept.tolist()):
        if not keep:
            switches += not behind
            behind = True
            continue
        if behind and t_ns > free:
            switches += 1
            behind = False
        free = max(t_ns, free) + entry_ns
    return switches


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(LONG_SHAPES), seed=st.integers(0, 2**32 - 1),
       capacity=st.one_of(st.integers(1, 64), st.just(1024)),
       bps=st.sampled_from(WRITE_SPEEDS))
def test_long_circular_stream_equals_oracle(shape, seed, capacity, bps):
    records, push_ns = long_stream(shape, seed, capacity, bps)
    expected = io.BytesIO()
    writer = CircularWriter(expected, HEADER, capacity, write_speed_bps=bps)
    writer.extend(records, push_ns)
    writer.close()
    out, stats = run_persist("circular", capacity, bps, records, push_ns)
    assert out.getvalue() == expected.getvalue()
    assert stats.overruns == writer.overruns
    assert stats.records_written == writer.records_written

    rows = body(out)
    kept = np.zeros(len(records), dtype=bool)
    kept[rows["ua"][~is_gap(rows)]] = True
    switches = regime_switches(push_ns, kept, SAMPLE_BITS * 1e9 / bps)
    label = next(label for lo, label in [(100, "100+"), (10, "10-99"), (3, "3-9"),
                                         (1, "1-2"), (0, "0")] if switches >= lo)
    event(f"{shape}: {label} regime switches")

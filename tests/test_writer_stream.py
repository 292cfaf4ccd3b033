"""The writers' array entry point: ``extend`` is ``push`` for many records."""

import io

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from emeter.buffering import CircularWriter, TwoBufferWriter
from emeter.tracefile import HEADER_SIZE, RECORD, TraceHeader, is_gap

HEADER = TraceHeader()


def stream(n, period_ns=1_000_000):
    records = np.zeros(n, dtype=RECORD)
    push_ns = (np.arange(n) + 1) * period_ns
    records["t"] = push_ns
    records["uv"] = 5_000_000
    records["ua"] = np.arange(n)
    return records, push_ns


def body(out):
    return np.frombuffer(out.getvalue(), dtype=RECORD, offset=HEADER_SIZE)


class TestRecordsWritten:
    def test_two_buffer_counts_data_records_only(self):
        # flushing 4 records at 100 bits/s takes 5.12 s; pushes come every 1 ms
        out = io.BytesIO()
        writer = TwoBufferWriter(out, HEADER, capacity=4, write_speed_bps=100.0)
        writer.extend(*stream(12))
        writer.close()
        assert writer.overruns == 2
        rows = body(out)
        assert np.count_nonzero(is_gap(rows)) == 2
        assert writer.records_written == 4 == np.count_nonzero(~is_gap(rows))

    def test_circular_counts_data_records_only(self):
        out = io.BytesIO()
        writer = CircularWriter(out, HEADER, capacity=8, write_speed_bps=800.0)
        writer.extend(*stream(200, period_ns=16_000_000))
        writer.close()
        rows = body(out)
        assert writer.overruns > 0
        assert np.count_nonzero(is_gap(rows)) > 0
        assert writer.records_written == 200 - writer.overruns
        assert writer.records_written == np.count_nonzero(~is_gap(rows))


class TestExtendChecks:
    @pytest.mark.parametrize("cls", [TwoBufferWriter, CircularWriter])
    def test_time_must_not_regress(self, cls):
        writer = cls(io.BytesIO(), HEADER, capacity=4)
        records, _ = stream(3)
        with pytest.raises(ValueError, match="regress"):
            writer.extend(records, [5, 4, 6])
        writer.extend(records, [5, 5, 6])
        with pytest.raises(ValueError, match="regress"):
            writer.push(records[0], 5)

    @pytest.mark.parametrize("cls", [TwoBufferWriter, CircularWriter])
    def test_one_push_time_per_record(self, cls):
        writer = cls(io.BytesIO(), HEADER, capacity=4)
        with pytest.raises(ValueError):
            writer.extend(stream(3)[0], [1, 2])


@st.composite
def chunked_streams(draw):
    n = draw(st.integers(0, 60))
    steps = draw(st.lists(st.one_of(st.just(0), st.integers(1, 3_000_000)),
                          min_size=n, max_size=n))
    push_ns = np.cumsum(np.array(steps, dtype=np.int64))
    records = np.zeros(n, dtype=RECORD)
    records["t"] = push_ns
    records["uv"] = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
    records["ua"] = np.arange(n)
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    return records, push_ns, [0] + cuts + [n]


def replay(cls, capacity, bps, records, push_ns, bounds=None):
    out = io.BytesIO()
    writer = cls(out, HEADER, capacity, write_speed_bps=bps)
    if bounds is None:
        drops = sum(not writer.push(r, int(t)) for r, t in zip(records, push_ns))
    else:
        drops = sum(writer.extend(records[a:b], push_ns[a:b])
                    for a, b in zip(bounds, bounds[1:]))
    writer.close()
    assert drops == writer.overruns
    return (out.getvalue(), writer.flush_log, writer.overruns,
            writer.records_written)


# entry times of 1.28 s down to 3.2 us against pushes up to 3 ms apart: the
# consumer keeps up on some streams and falls behind on others
@settings(max_examples=150, deadline=None)
@given(cls=st.sampled_from([TwoBufferWriter, CircularWriter]),
       capacity=st.integers(1, 16),
       bps=st.sampled_from([100.0, 12_800.0, 1.28e5, 1e6, 40e6]),
       stream=chunked_streams())
def test_extend_in_chunks_equals_push_per_record(cls, capacity, bps, stream):
    records, push_ns, bounds = stream
    by_push = replay(cls, capacity, bps, records, push_ns)
    assert replay(cls, capacity, bps, records, push_ns, bounds) == by_push
    data, _, overruns, written = by_push
    event(f"{cls.__name__} {'overran' if overruns else 'kept up'}")
    rows = np.frombuffer(data, dtype=RECORD, offset=HEADER_SIZE)
    assert written == np.count_nonzero(~is_gap(rows))
    if overruns == 0:
        assert rows.tobytes() == records.tobytes()

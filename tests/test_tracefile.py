"""Binary trace format: golden bytes, round trips, CSV export."""

import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csv_oracle import export_csv_rows
from emeter.bus_timing import SUPPORTED_SPEEDS_KHZ
from emeter.sampler import Trace
from emeter.sensor import (
    VALID_BUS_RANGES,
    VALID_PGA_DIVIDERS,
    VALID_RESOLUTIONS,
    VALID_SUPPLIES,
    SensorConfig,
)
from emeter.tracefile import (
    GAP_SENTINEL,
    HEADER_SIZE,
    RECORD,
    RECORD_SIZE,
    TraceHeader,
    TraceRecord,
    decode_header,
    decode_trace,
    encode_header,
    encode_record,
    encode_trace,
    export_csv,
    is_gap,
    load_trace,
    read_trace,
    records_to_trace,
    trace_to_records,
    write_trace,
)


class TestRecordCodec:
    def test_record_is_16_bytes(self):
        assert RECORD_SIZE == 16
        assert len(encode_record(TraceRecord(0, 0, 0))) == 16

    def test_golden_record_bytes(self):
        # 1s timestamp, 3.3V, 12.345mA, assembled by hand:
        #   u64 1_000_000_000  -> 00 ca 9a 3b 00 00 00 00
        #   i32 3_300_000 uV   -> a0 5a 32 00
        #   i32 12_345 uA      -> 39 30 00 00
        record = TraceRecord(1_000_000_000, 3_300_000, 12_345)
        golden = bytes([0x00, 0xCA, 0x9A, 0x3B, 0, 0, 0, 0,
                        0xA0, 0x5A, 0x32, 0x00,
                        0x39, 0x30, 0x00, 0x00])
        assert encode_record(record) == golden
        assert decode_trace(encode_header(TraceHeader()) + golden)[1] == [record]

    def test_negative_current(self):
        record = TraceRecord(1, 5_000_000, -250)
        assert decode_trace(encode_trace(TraceHeader(), [record]))[1] == [record]

    def test_gap_marker(self):
        gap = TraceRecord.gap(42)
        assert gap.is_gap
        assert decode_trace(encode_trace(TraceHeader(), [gap]))[1][0].is_gap

    def test_short_buffer_rejected(self):
        with pytest.raises(ValueError, match="15-byte partial record at byte offset 64"):
            decode_trace(encode_header(TraceHeader()) + b"\x00" * 15)


class TestHeader:
    def test_header_is_64_bytes(self):
        assert HEADER_SIZE == 64
        assert len(encode_header(TraceHeader())) == 64

    def test_round_trip(self):
        # 9 bit, divider 4, 32 V range, 3.3 V, 0.1 ohm, linux at 500 kHz,
        # assembled by hand field by field
        header = TraceHeader(SensorConfig(pga_divider=4, resolution_bits=9,
                                          bus_range=32.0, supply_voltage=3.3),
                             "linux", 500, start_clock_ns=1_694_000_000_000_000_000)
        golden = (b"EMP1" + bytes([1, 0, 9, 4, 32, 33]) + (100_000).to_bytes(4, "little")
                  + b"linux\x00\x00\x00" + (500).to_bytes(4, "little")
                  + (1_694_000_000_000_000_000).to_bytes(8, "little") + bytes(30))
        assert encode_header(header) == golden
        assert decode_header(golden) == header

    def test_bad_magic_rejected(self):
        buf = bytearray(encode_header(TraceHeader()))
        buf[0] = 0x58
        with pytest.raises(ValueError):
            decode_header(bytes(buf))

    def test_config_round_trip(self):
        cfg = SensorConfig(pga_divider=2, resolution_bits=9)
        assert decode_header(encode_header(TraceHeader(cfg, "bcm", 800))).config == cfg

    @pytest.mark.parametrize("kwargs, message", [
        ({"driver_name": "foo"}, "unknown driver 'foo'"),
        ({"driver_name": "linux_long"}, "unknown driver 'linux_long'"),
        ({"bus_speed_khz": 1234}, "bus speed 1234kHz at 5.0V supply"),
        ({"config": SensorConfig(supply_voltage=3.3)}, "bus speed 2500kHz at 3.3V"),
        # encodes as 0 uohm, which its own reader rejects
        ({"config": SensorConfig(shunt_resistance=4e-7)}, "shunt_resistance"),
        # would read back as 0.1
        ({"config": SensorConfig(shunt_resistance=0.1000004)}, "shunt_resistance"),
        # beyond u32 microohms
        ({"config": SensorConfig(shunt_resistance=5000.0)}, "shunt_resistance"),
    ])
    def test_header_no_run_could_write_is_not_built(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TraceHeader(**kwargs)


def random_records(rng, n):
    ts = np.cumsum(rng.integers(1, 10_000_000, n))
    return [TraceRecord(int(t),
                        int(rng.integers(-8_000_000, 8_000_000)),
                        int(rng.integers(-1_000_000, 1_000_000)))
            for t in ts]


class TestFileRoundTrip:
    def test_many_random_traces_byte_identical(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            records = random_records(rng, int(rng.integers(0, 50)))
            header = TraceHeader(bus_speed_khz=int(rng.choice([200, 500, 800, 2500])))
            blob = encode_trace(header, records)
            header2, records2 = decode_trace(blob)
            assert header2 == header
            assert records2 == records
            assert encode_trace(header2, records2) == blob

    def test_file_length_is_header_plus_records(self):
        records = random_records(np.random.default_rng(1), 37)
        blob = encode_trace(TraceHeader(), records)
        assert len(blob) == HEADER_SIZE + 16 * 37

    def test_trace_to_records_and_back(self):
        ts = np.array([1_000_000, 2_000_000, 3_000_000], dtype=np.int64)
        trace = Trace(ts, [5.0, 5.0, 4.996], [0.1, 0.2, 0.15], [0, 0, 0])
        records = trace_to_records(trace)
        back = records_to_trace(records)
        assert np.array_equal(back.timestamps_ns, trace.timestamps_ns)
        assert np.allclose(back.current, trace.current, atol=1e-6)

    def test_trace_to_records_is_the_record_dtype(self):
        trace = Trace([5, 9], [3.3, 4.999998], [12.345e-3, -2e-6], [0, 0])
        records = trace_to_records(trace)
        assert records.dtype == RECORD
        assert records.tolist() == [(5, 3_300_000, 12_345), (9, 4_999_998, -2)]

    def test_trace_to_records_peaks_at_one_float_column(self):
        # the write path's memory peak: the record array and the one float
        # column that each field is scaled and rounded in, in turn; a 30 s
        # 9-bit run has this many readings
        n = 143_540
        rng = np.random.default_rng(3)
        trace = Trace(np.arange(1, n + 1), rng.uniform(3.0, 5.0, n),
                      rng.uniform(0.0, 0.5, n), np.zeros(n))
        tracemalloc.start()
        try:
            records = trace_to_records(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= records.nbytes + 8 * n + 64 * 1024

    @pytest.mark.parametrize("column, value, name", [
        ("current", np.nan, "current"),
        ("current", 3000.0, "current"),
        ("current", -2147.483648, "current"),  # the gap sentinel itself
        ("bus_voltage", np.inf, "bus_voltage"),
    ])
    def test_unrepresentable_reading_names_sample(self, column, value, name):
        # a Trace refuses it, so no trace reaches trace_to_records with it
        columns = {"bus_voltage": [5.0, 5.0, 5.0], "current": [0.1, 0.2, 0.3]}
        columns[column][1] = value
        with pytest.raises(ValueError, match=f"sample 1: {name} {value!r} is outside "
                                             "the trace format's int32 micro-units"):
            Trace([1, 2, 3], columns["bus_voltage"], columns["current"], [0, 0, 0])

    def test_gap_records_skipped_on_load(self, tmp_path):
        records = [TraceRecord(100, 1, 1), TraceRecord.gap(150),
                   TraceRecord(200, 2, 2)]
        path = tmp_path / "t.bin"
        path.write_bytes(encode_trace(TraceHeader(), records))
        trace = load_trace(str(path))
        assert trace.timestamps_ns.tolist() == [100, 200]
        assert trace.current.tolist() == [1e-6, 2e-6]


# every reading whose micro-units lie inside int32 and off INT32_MIN
READING = st.floats(-2147.483647, 2147.483647)


@settings(max_examples=200, deadline=None)
@given(columns=st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.lists(READING, min_size=n, max_size=n), st.lists(READING, min_size=n, max_size=n))))
@example(columns=([3.3, 4.9999985, -2147.483647], [2.5e-6, -2.5e-6, 2147.483647]))
@example(columns=([0.0, -0.0], [-0.0, -3e-7]))  # no -0.0 survives the rounding
def test_trace_holds_whole_micro_units_that_load_back_bit_for_bit(columns):
    bus_voltage, current = columns
    n = len(current)
    trace = Trace(np.arange(n), bus_voltage, current, np.zeros(n))
    for column in (trace.bus_voltage, trace.current):
        micro = column * 1e6
        assert np.all(np.abs(micro - np.rint(micro)) <= 1e-6)
    back = records_to_trace(trace_to_records(trace))
    for name in ("timestamps_ns", "bus_voltage", "current", "flags"):
        assert getattr(back, name).tobytes() == getattr(trace, name).tobytes()


class TestReadTrace:
    def test_reads_the_record_array(self, tmp_path):
        records = random_records(np.random.default_rng(5), 9)
        path = tmp_path / "t.bin"
        path.write_bytes(encode_trace(TraceHeader(), records))
        header, array = read_trace(str(path))
        assert header == TraceHeader()
        assert array.dtype == RECORD
        assert array.tolist() == records

    @pytest.mark.parametrize("extra", [1, 15])
    def test_partial_record_names_file_and_offset(self, tmp_path, extra):
        path = tmp_path / "t.bin"
        path.write_bytes(encode_trace(TraceHeader(), random_records(
            np.random.default_rng(6), 3)) + b"\x01" * extra)
        offset = HEADER_SIZE + 3 * RECORD_SIZE
        with pytest.raises(ValueError, match=f"{path}: .*byte offset {offset}"):
            read_trace(str(path))

    def test_short_header_names_file(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"EMP1")
        with pytest.raises(ValueError, match=str(path)):
            read_trace(str(path))

    def test_out_of_order_reading_names_file_record_and_offset(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(encode_trace(TraceHeader(), [
            TraceRecord(10, 1, 1), TraceRecord.gap(5), TraceRecord(30, 1, 1),
            TraceRecord(30, 1, 1)]))
        offset = HEADER_SIZE + 3 * RECORD_SIZE
        with pytest.raises(ValueError, match=f"^{path}: record 3 at byte offset {offset}: "
                                             "trace timestamps must be strictly increasing$"):
            read_trace(str(path))

    def test_gap_marker_times_are_not_checked(self, tmp_path):
        # only readings must be in time order; a gap marker carries the time
        # of the dropped span, which the check leaves alone
        records = [TraceRecord(10, 1, 1), TraceRecord.gap(50), TraceRecord.gap(50),
                   TraceRecord(20, 1, 1)]
        path = tmp_path / "t.bin"
        path.write_bytes(encode_trace(TraceHeader(), records))
        assert read_trace(str(path))[1].tolist() == [records[0], records[3]]


_GAP_OR_READING = st.one_of(
    st.none(),
    # timestamps from 2**63 up are negative as Trace's int64 timestamps
    st.integers(0, 40), st.sampled_from([2**63 - 1, 2**63, 2**64 - 1]))


@settings(max_examples=200, deadline=None)
@given(times=st.lists(_GAP_OR_READING, max_size=12))
def test_read_trace_accepts_what_trace_accepts(tmp_path_factory, times):
    # None is a gap marker at time 0; every file read_trace accepts must
    # also build a Trace, so no reader meets an order error without a file.
    # read_trace also rejects a time of 2**63 or more, which a Trace holds
    # as negative, and judges the order of the file's own u64 times
    path = tmp_path_factory.mktemp("order") / "t.bin"
    path.write_bytes(encode_trace(TraceHeader(), [
        TraceRecord.gap(0) if t is None else TraceRecord(t, 1, 1) for t in times]))
    readings = [t for t in times if t is not None]
    try:
        Trace(np.array(readings, dtype=np.uint64), np.ones(len(readings)),
              np.ones(len(readings)), np.zeros(len(readings)))
    except ValueError:
        accepted = False
    else:
        accepted = all(t < 2**63 for t in readings)
    if accepted:
        assert len(records_to_trace(read_trace(str(path))[1])) == len(readings)
    else:
        with pytest.raises(ValueError, match=f"^{path}: record "):
            read_trace(str(path))


class TestCsvExport:
    def test_format(self):
        records = [TraceRecord(1000, 5_000_000, 123_450)]
        out = io.StringIO()
        n = export_csv(out, records)
        assert n == 1
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == "timestamp_ns,bus_mV,current_mA"
        assert lines[1] == "1000,5000.000,123.450"

    def test_gap_rows_skipped(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(encode_trace(TraceHeader(), [
            TraceRecord.gap(5), TraceRecord(7, 1000, 2000), TraceRecord.gap(9)]))
        out = io.StringIO()
        assert export_csv(out, read_trace(str(path))[1]) == 1
        assert out.getvalue().splitlines()[1:] == ["7,1.000,2.000"]

    def test_empty_and_all_gap_write_only_the_header(self, tmp_path):
        path = tmp_path / "t.bin"
        for records in ([], [TraceRecord.gap(5), TraceRecord.gap(9)]):
            path.write_bytes(encode_trace(TraceHeader(), records))
            out = io.StringIO()
            assert export_csv(out, read_trace(str(path))[1]) == 0
            assert out.getvalue() == "timestamp_ns,bus_mV,current_mA\n"

    def test_small_negative_reading_keeps_its_sign(self):
        out = io.StringIO()
        export_csv(out, [TraceRecord(7, -1, -999), TraceRecord(8, 0, -1000)])
        assert out.getvalue().splitlines()[1:] == ["7,-0.001,-0.999", "8,0.000,-1.000"]

    def test_timestamp_extremes(self):
        out = io.StringIO()
        export_csv(out, [TraceRecord(0, 1, 1), TraceRecord(2**64 - 1, 1, 1)])
        assert out.getvalue().splitlines()[1:] == [
            "0,0.001,0.001", "18446744073709551615,0.001,0.001"]

    def test_one_sentinel_field_is_a_reading(self):
        # only both fields at INT32_MIN make a gap marker
        out = io.StringIO()
        n = export_csv(out, [TraceRecord(1, GAP_SENTINEL, 5),
                             TraceRecord(2, 5, GAP_SENTINEL)])
        assert n == 2
        assert out.getvalue().splitlines()[1:] == [
            "1,-2147483.648,0.005", "2,0.005,-2147483.648"]


_U64 = st.integers(0, 2**64 - 1)
_INT32 = st.integers(-2**31, 2**31 - 1)
_GROUP_EDGE = st.sampled_from(
    [0] + [sign * v for v in (999, 1000, 9_999_999, 10_000_000, 2**31 - 1) for sign in (1, -1)])
_ROW = st.one_of(
    st.tuples(_U64, _INT32, _INT32),
    # gap markers, and readings with one field at the gap sentinel
    st.tuples(_U64, st.just(GAP_SENTINEL), st.just(GAP_SENTINEL)),
    st.tuples(_U64, st.just(GAP_SENTINEL), _INT32),
    st.tuples(_U64, _INT32, st.just(GAP_SENTINEL)),
    # values whose digit counts sit next to the powers of ten
    st.tuples(st.sampled_from([0, 9, 10, 2**53 + 1, 10**19 - 1, 10**19, 2**64 - 1]),
              st.integers(-1000, 1000), st.integers(-10**6, 10**6)),
    # values next to the boundaries of the four-digit groups: below and at
    # 10**k, and integer parts of 9999 and 10000 milli-units
    st.tuples(st.sampled_from([10**k + d for k in (4, 8, 12, 16) for d in (-1, 0)]),
              _GROUP_EDGE, _GROUP_EDGE),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_ROW, max_size=40))
# drawn often, but not every run: a five-digit timestamp and integer part,
# each 0 in its lowest group, and a zero integer part
@example(rows=[(10_000, 0, 10_000_000)])
def test_export_csv_equals_per_row_oracle(rows):
    # export_csv takes readings, as read_trace returns them; the oracle
    # skips the gap markers itself
    records = np.array(rows, dtype=RECORD)
    readings = records[~is_gap(records)]
    batched, per_row = io.StringIO(), io.StringIO()
    assert export_csv(batched, readings) == export_csv_rows(per_row, records)
    assert batched.getvalue() == per_row.getvalue()


_NOT_SENTINEL = _INT32.filter(lambda v: v != GAP_SENTINEL)
# a reading's (uv, ua): both fields at the sentinel would be a gap marker
_READING = st.one_of(st.tuples(_INT32, _NOT_SENTINEL), st.tuples(_NOT_SENTINEL, _INT32))


@st.composite
def _readings_and_markers(draw):
    """Readings with strictly increasing times, and sorted marker places in
    ``[0, n]`` with marker times."""
    times = sorted(draw(st.sets(st.integers(0, 2**63 - 1), max_size=30)))
    values = draw(st.lists(_READING, min_size=len(times), max_size=len(times)))
    readings = np.array([(t, uv, ua) for t, (uv, ua) in zip(times, values)], dtype=RECORD)
    marker_at = sorted(draw(st.lists(st.integers(0, len(times)), max_size=8)))
    marker_ns = draw(st.lists(_U64, min_size=len(marker_at), max_size=len(marker_at)))
    return readings, marker_at, marker_ns


@st.composite
def _headers(draw):
    """Headers a run could write: any sensor configuration, a positive
    shunt in whole microohms, either driver at a speed its supply allows."""
    supply = draw(st.sampled_from(VALID_SUPPLIES))
    config = SensorConfig(shunt_resistance=draw(st.integers(1, 2**32 - 1)) / 1e6,
                          pga_divider=draw(st.sampled_from(VALID_PGA_DIVIDERS)),
                          resolution_bits=draw(st.sampled_from(VALID_RESOLUTIONS)),
                          bus_range=draw(st.sampled_from(VALID_BUS_RANGES)),
                          supply_voltage=supply)
    speeds = [s for s in SUPPORTED_SPEEDS_KHZ if (s, supply) != (2500, 3.3)]
    return TraceHeader(config, draw(st.sampled_from(["bcm", "linux"])),
                       draw(st.sampled_from(speeds)), draw(_U64))


@settings(max_examples=200, deadline=None)
@given(body=_readings_and_markers(), header=_headers())
def test_write_trace_round_trip(tmp_path_factory, body, header):
    readings, marker_at, marker_ns = body
    out = io.BytesIO()
    write_trace(out, header, readings, marker_at, marker_ns)
    path = tmp_path_factory.mktemp("round") / "t.bin"
    path.write_bytes(out.getvalue())
    header_read, readings_read = read_trace(str(path))
    assert header_read == header
    assert encode_header(header_read) == out.getvalue()[:HEADER_SIZE]
    assert readings_read.dtype == RECORD
    assert readings_read.tobytes() == readings.tobytes()
    _, records = decode_trace(out.getvalue())
    assert len(records) == len(readings) + len(marker_at)
    at = (np.array(marker_at, dtype=np.int64) + np.arange(len(marker_at))).tolist()
    assert [k for k, r in enumerate(records) if r.is_gap] == at
    assert [records[k].timestamp_ns for k in at] == marker_ns


# per header field: its byte offset and struct format, values outside its
# set, and the words an error for it names
_BAD_FIELDS = {
    "resolution": (6, "B", st.integers(0, 255).filter(lambda v: v not in VALID_RESOLUTIONS),
                   "resolution_bits"),
    "divider": (7, "B", st.integers(0, 255).filter(lambda v: v not in VALID_PGA_DIVIDERS),
                "pga_divider"),
    "bus range": (8, "B", st.integers(0, 255).filter(lambda v: v not in VALID_BUS_RANGES),
                  "bus_range"),
    "supply": (9, "B", st.integers(0, 255).filter(lambda v: v / 10 not in VALID_SUPPLIES),
               "supply_voltage"),
    "shunt": (10, "<I", st.just(0), "shunt resistance"),
    "driver": (14, "8s", st.binary(max_size=8).filter(
        lambda b: b.rstrip(b"\x00") not in (b"bcm", b"linux")), "unknown driver"),
    "speed": (22, "<I", st.integers(0, 2**32 - 1).filter(
        lambda v: v not in SUPPORTED_SPEEDS_KHZ), "bus speed"),
    "reserved": (34, "30s", st.binary(min_size=1, max_size=30).filter(any), "reserved"),
}


@settings(max_examples=200, deadline=None)
@given(header=_headers(), field=st.sampled_from(sorted(_BAD_FIELDS)), data=st.data())
def test_header_no_run_could_write_is_rejected(tmp_path_factory, header, field, data):
    offset, fmt, values, named = _BAD_FIELDS[field]
    buf = bytearray(encode_header(header))
    struct.pack_into(fmt, buf, offset, data.draw(values))
    path = tmp_path_factory.mktemp("bad") / "t.bin"
    path.write_bytes(bytes(buf))
    with pytest.raises(ValueError) as info:
        read_trace(str(path))
    assert str(info.value).startswith(f"{path}: ")
    assert named in str(info.value)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_ROW, max_size=40))
def test_is_gap_equals_two_field_test(rows):
    # half-gap rows (one field at the sentinel) come from _ROW; the slices
    # are strided views of the record array
    records = np.array(rows, dtype=RECORD)
    for view in (records, records[::2], records[1::3], records[::-1]):
        expected = (view["uv"] == GAP_SENTINEL) & (view["ua"] == GAP_SENTINEL)
        assert np.array_equal(is_gap(view), expected)

"""Binary trace format: golden bytes, round trips, CSV export."""

import io

import numpy as np
import pytest

from emeter.sampler import Trace
from emeter.tracefile import (
    HEADER_SIZE,
    RECORD,
    RECORD_SIZE,
    TraceHeader,
    TraceRecord,
    decode_header,
    decode_record,
    decode_trace,
    encode_header,
    encode_record,
    encode_trace,
    export_csv,
    read_trace,
    records_to_trace,
    trace_to_records,
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
        assert decode_record(golden) == record

    def test_negative_current(self):
        record = TraceRecord(1, 5_000_000, -250)
        assert decode_record(encode_record(record)) == record

    def test_gap_marker(self):
        gap = TraceRecord.gap(42)
        assert gap.is_gap
        assert decode_record(encode_record(gap)).is_gap

    def test_short_buffer_rejected(self):
        with pytest.raises(ValueError):
            decode_record(b"\x00" * 15)


class TestHeader:
    def test_header_is_64_bytes(self):
        assert HEADER_SIZE == 64
        assert len(encode_header(TraceHeader())) == 64

    def test_round_trip(self):
        header = TraceHeader(resolution_bits=9, pga_divider=4, bus_range=32,
                             supply_voltage=3.3, shunt_uohm=100_000,
                             driver_name="linux", bus_speed_khz=500,
                             start_clock_ns=1_694_000_000_000_000_000)
        assert decode_header(encode_header(header)) == header

    def test_bad_magic_rejected(self):
        buf = bytearray(encode_header(TraceHeader()))
        buf[0] = 0x58
        with pytest.raises(ValueError):
            decode_header(bytes(buf))

    def test_config_round_trip(self):
        from emeter.sensor import SensorConfig
        cfg = SensorConfig(pga_divider=2, resolution_bits=9)
        header = TraceHeader.from_config(cfg, "bcm", 800)
        assert header.to_config() == cfg


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
        back = records_to_trace(TraceHeader(), records)
        assert np.array_equal(back.timestamps_ns, trace.timestamps_ns)
        assert np.allclose(back.current, trace.current, atol=1e-6)

    def test_trace_to_records_is_the_record_dtype(self):
        trace = Trace([5, 9], [3.3, 4.9999985], [12.345e-3, -2.5e-6], [0, 0])
        records = trace_to_records(trace)
        assert records.dtype == RECORD
        # micro-units, halves rounded to even
        assert records.tolist() == [(5, 3_300_000, 12_345), (9, 4_999_998, -2)]

    @pytest.mark.parametrize("column, value, name", [
        ("current", np.nan, "current"),
        ("current", 3000.0, "current"),
        ("current", -2147.483648, "current"),  # the gap sentinel itself
        ("bus_voltage", np.inf, "bus_voltage"),
    ])
    def test_unrepresentable_reading_names_sample(self, column, value, name):
        columns = {"bus_voltage": [5.0, 5.0, 5.0], "current": [0.1, 0.2, 0.3]}
        columns[column][1] = value
        trace = Trace([1, 2, 3], columns["bus_voltage"], columns["current"], [0, 0, 0])
        with pytest.raises(ValueError, match=f"sample 1: {name} "):
            trace_to_records(trace)

    def test_gap_records_skipped_on_load(self):
        records = [TraceRecord(100, 1, 1), TraceRecord.gap(150),
                   TraceRecord(200, 2, 2)]
        trace = records_to_trace(TraceHeader(), records)
        assert len(trace) == 2


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


class TestCsvExport:
    def test_format(self):
        records = [TraceRecord(1000, 5_000_000, 123_450)]
        out = io.StringIO()
        n = export_csv(out, TraceHeader(), records)
        assert n == 1
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == "timestamp_ns,bus_mV,current_mA"
        assert lines[1] == "1000,5000.000,123.450"

    def test_gap_rows_skipped(self):
        out = io.StringIO()
        n = export_csv(out, TraceHeader(), [TraceRecord.gap(5)])
        assert n == 0

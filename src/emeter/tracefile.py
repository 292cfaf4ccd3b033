"""Bit-exact binary trace format.

Every sample entry is one 16-byte element of :data:`RECORD`, little-endian:

    offset 0   u64  t   timestamp, nanoseconds since measurement start
    offset 8   i32  uv  bus voltage, microvolts
    offset 12  i32  ua  current, microamperes

Integer micro-units are lossless up to about 2.1kV / 2.1kA, far beyond the
device range.  Records are preceded by one fixed 64-byte header:

    offset 0   4s   magic 'EMP1'
    offset 4   u16  format version (currently 1)
    offset 6   u8   resolution bits
    offset 7   u8   PGA divider
    offset 8   u8   bus range, volts
    offset 9   u8   supply voltage * 10
    offset 10  u32  shunt resistance, microohms
    offset 14  8s   driver profile name, NUL padded
    offset 22  u32  bus speed, kHz
    offset 26  u64  start wall clock, nanoseconds
    offset 34  30x  reserved (zero)

The body is a plain ``RECORD`` array, written with ``tobytes`` and read
with ``np.frombuffer``.  A dropped-buffer gap is recorded in-line as a gap
marker: a record whose voltage and current fields both hold INT32_MIN.
Decoders must surface gaps rather than treat them as readings.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from emeter.sampler import Trace
from emeter.sensor import SensorConfig

MAGIC = b"EMP1"
FORMAT_VERSION = 1
HEADER_SIZE = 64
GAP_SENTINEL = -(2 ** 31)
RECORD = np.dtype([("t", "<u8"), ("uv", "<i4"), ("ua", "<i4")])
RECORD_SIZE = RECORD.itemsize

_HEADER = struct.Struct("<4sHBBBBI8sIQ30x")

assert _HEADER.size == HEADER_SIZE


def is_gap(records: np.ndarray) -> np.ndarray:
    """Mask of the gap markers in a ``RECORD`` array."""
    return (records["uv"] == GAP_SENTINEL) & (records["ua"] == GAP_SENTINEL)


def gap_records(timestamps_ns) -> np.ndarray:
    """Gap markers at the given timestamps, as a ``RECORD`` array."""
    gaps = np.empty(len(timestamps_ns), dtype=RECORD)
    gaps["t"] = timestamps_ns
    gaps["uv"] = gaps["ua"] = GAP_SENTINEL
    return gaps


class TraceRecord(NamedTuple):
    """One ``RECORD`` row as a tuple, for building and comparing small traces."""

    timestamp_ns: int
    bus_uv: int
    current_ua: int

    @property
    def is_gap(self) -> bool:
        return self.bus_uv == GAP_SENTINEL and self.current_ua == GAP_SENTINEL

    @classmethod
    def gap(cls, timestamp_ns: int) -> "TraceRecord":
        return cls(timestamp_ns, GAP_SENTINEL, GAP_SENTINEL)


def encode_record(record: TraceRecord) -> bytes:
    return np.array([record], dtype=RECORD).tobytes()


def decode_record(buf: bytes) -> TraceRecord:
    if len(buf) != RECORD_SIZE:
        raise ValueError(f"record must be exactly {RECORD_SIZE} bytes")
    return TraceRecord._make(np.frombuffer(buf, dtype=RECORD).item(0))


@dataclass(frozen=True)
class TraceHeader:
    resolution_bits: int = 12
    pga_divider: int = 1
    bus_range: int = 16
    supply_voltage: float = 5.0
    shunt_uohm: int = 100_000
    driver_name: str = "bcm"
    bus_speed_khz: int = 2500
    start_clock_ns: int = 0

    @classmethod
    def from_config(cls, config: SensorConfig, driver_name: str,
                    bus_speed_khz: int) -> "TraceHeader":
        return cls(resolution_bits=config.resolution_bits,
                   pga_divider=config.pga_divider,
                   bus_range=int(config.bus_range),
                   supply_voltage=config.supply_voltage,
                   shunt_uohm=int(round(config.shunt_resistance * 1e6)),
                   driver_name=driver_name, bus_speed_khz=bus_speed_khz)

    def to_config(self) -> SensorConfig:
        return SensorConfig(shunt_resistance=self.shunt_uohm / 1e6,
                            pga_divider=self.pga_divider,
                            resolution_bits=self.resolution_bits,
                            bus_range=float(self.bus_range),
                            supply_voltage=self.supply_voltage)


def encode_header(header: TraceHeader) -> bytes:
    return _HEADER.pack(MAGIC, FORMAT_VERSION, header.resolution_bits,
                        header.pga_divider, header.bus_range,
                        int(round(header.supply_voltage * 10)),
                        header.shunt_uohm,
                        header.driver_name.encode()[:8],
                        header.bus_speed_khz, header.start_clock_ns)


def decode_header(buf: bytes) -> TraceHeader:
    if len(buf) != HEADER_SIZE:
        raise ValueError(f"header must be exactly {HEADER_SIZE} bytes")
    (magic, version, res, pga, bus_range, supply10, shunt_uohm, driver,
     speed, start_clock) = _HEADER.unpack(buf)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    return TraceHeader(resolution_bits=res, pga_divider=pga,
                       bus_range=bus_range, supply_voltage=supply10 / 10.0,
                       shunt_uohm=shunt_uohm,
                       driver_name=driver.rstrip(b"\x00").decode(),
                       bus_speed_khz=speed, start_clock_ns=start_clock)


# --------------------------------------------------------------------------
# Whole-file encode / decode
# --------------------------------------------------------------------------

def encode_trace(header: TraceHeader, records) -> bytes:
    """Header plus records (a ``RECORD`` array or rows of one) as file bytes."""
    return encode_header(header) + np.asarray(records, dtype=RECORD).tobytes()


def _decode(data: bytes) -> tuple[TraceHeader, np.ndarray]:
    header = decode_header(data[:HEADER_SIZE])
    partial = (len(data) - HEADER_SIZE) % RECORD_SIZE
    if partial:
        raise ValueError(f"truncated trace: {partial}-byte partial record "
                         f"at byte offset {len(data) - partial}")
    return header, np.frombuffer(data, dtype=RECORD, offset=HEADER_SIZE)


def decode_trace(data: bytes) -> tuple[TraceHeader, list[TraceRecord]]:
    header, records = _decode(data)
    return header, list(map(TraceRecord._make, records.tolist()))


def read_trace(path: str) -> tuple[TraceHeader, np.ndarray]:
    """Header and ``RECORD`` array of a trace file; errors name the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _decode(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def trace_to_records(trace: Trace) -> np.ndarray:
    """The ``RECORD`` array a trace persists as: micro-units, half-even."""
    if len(trace) and trace.timestamps_ns[0] < 0:
        raise ValueError("sample 0: negative timestamp")
    records = np.empty(len(trace), dtype=RECORD)
    records["t"] = trace.timestamps_ns
    for field, name in (("uv", "bus_voltage"), ("ua", "current")):
        values = getattr(trace, name)
        micro = np.round(values * 1e6)
        # NaN fails both tests; INT32_MIN is reserved for gap markers
        bad = ~((micro > GAP_SENTINEL) & (micro < 2 ** 31))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(f"sample {i}: {name} {float(values[i])!r} is outside "
                             "the trace format's int32 micro-units")
        records[field] = micro
    return records


def records_to_trace(records) -> Trace:
    """Build an in-memory trace from decoded records (gaps skipped)."""
    records = np.asarray(records, dtype=RECORD)
    readings = records[~is_gap(records)]
    return Trace(readings["t"], readings["uv"] * 1e-6, readings["ua"] * 1e-6,
                 np.zeros(len(readings), dtype=np.uint8))


def load_trace(path: str) -> Trace:
    """The readings of a trace file; its header is :func:`read_trace`'s."""
    return records_to_trace(read_trace(path)[1])


def export_csv(fh, records) -> int:
    """Write ``timestamp_ns,bus_mV,current_mA`` rows; returns the row count."""
    records = np.asarray(records, dtype=RECORD)
    rows = records[~is_gap(records)].tolist()
    fh.write("timestamp_ns,bus_mV,current_mA\n" + "".join(
        f"{t},{uv / 1000.0:.3f},{ua / 1000.0:.3f}\n" for t, uv, ua in rows))
    return len(rows)

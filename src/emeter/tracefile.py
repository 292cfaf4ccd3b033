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
:func:`is_gap` finds them with one compare per record: it views the
``(uv, ua)`` pair as one 8-byte word and tests it against the marker's
word, through a view of the same 16-byte record size, so a strided slice
works too.

This module owns the body layout both ways.  Where a boolean mask moves
rows, they move whole as ``V16``, 16 bytes at a time, where ``RECORD``
copies field by field.  :func:`write_trace` puts each gap marker after the
readings placed before it, stamped with the time given for it;
:mod:`emeter.buffering` picks both.  :func:`read_trace`, the one reader of
trace files, is the one place markers are separated: it returns the
readings alone, which :func:`records_to_trace` and :func:`export_csv` take.
It is also the one place a file's time order is checked, as
:class:`~emeter.sampler.Trace` checks it: strictly increasing reading
timestamps.  A file that breaks this fails naming the file, the record (gap
markers counted) and its byte offset, ``64 + 16 * k``, so ``export-csv``
rejects the same files as the commands that build a ``Trace``.  A gap
marker's own time is not checked.

:func:`export_csv` writes the readings as text: the line
``timestamp_ns,bus_mV,current_mA``, then one line per reading with the
timestamp in integer nanoseconds and the voltage and current in mV and mA
with exactly three decimals.  A micro-unit integer divided by 1000 has
exactly three decimals, so each value is printed from its integer digits
(sign, ``|v| // 1000``, ``.``, ``|v| % 1000``) with no float formatting;
that is the same text as ``f"{v / 1000.0:.3f}"``, since an int32 over
1000.0 is far closer to its decimal than half a unit in the third place.
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


def gap_records(timestamps_ns) -> np.ndarray:
    """Gap markers at the given timestamps, as a ``RECORD`` array."""
    gaps = np.empty(len(timestamps_ns), dtype=RECORD)
    gaps["t"] = timestamps_ns
    gaps["uv"] = gaps["ua"] = GAP_SENTINEL
    return gaps


# a record's (uv, ua) fields as one 8-byte word
_PAIR = np.dtype([("t", "<u8"), ("pair", "<u8")])
_GAP_PAIR = gap_records([0]).view(_PAIR)["pair"][0]


def is_gap(records: np.ndarray) -> np.ndarray:
    """Mask of the gap markers in a ``RECORD`` array."""
    return records.view(_PAIR)["pair"] == _GAP_PAIR


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


def write_trace(fh, header: TraceHeader, readings, marker_at, marker_ns) -> None:
    """Write ``header`` and a body of ``readings`` (a ``RECORD`` array) to
    ``fh``; gap marker k, stamped ``marker_ns[k]``, follows the first
    ``marker_at[k]`` readings (``marker_at`` sorted)."""
    body = np.insert(readings.view("V16"), marker_at, gap_records(marker_ns).view("V16"))
    fh.write(encode_header(header))
    fh.write(body.tobytes())


def read_trace(path: str) -> tuple[TraceHeader, np.ndarray]:
    """Header and readings (``RECORD`` rows, gap markers left out) of a
    trace file; errors name the file.  The order test is :class:`Trace`'s,
    so every file read here also loads as a ``Trace``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        header, records = _decode(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    kept = ~is_gap(records)
    readings = records.view("V16")[kept].view(RECORD)
    t = readings["t"].view(np.int64)  # Trace's timestamps, and its test
    unordered = t[1:] <= t[:-1]
    if unordered.any():
        k = int(np.flatnonzero(kept)[1 + np.argmax(unordered)])
        raise ValueError(f"{path}: record {k} at byte offset "
                         f"{HEADER_SIZE + k * RECORD_SIZE}: "
                         "trace timestamps must be strictly increasing")
    return header, readings


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


def records_to_trace(readings) -> Trace:
    """Build an in-memory trace from readings (``RECORD`` rows, no gap markers)."""
    readings = np.asarray(readings, dtype=RECORD)
    return Trace(readings["t"], readings["uv"] * 1e-6, readings["ua"] * 1e-6,
                 np.zeros(len(readings), dtype=np.uint8))


def load_trace(path: str) -> Trace:
    """The readings of a trace file; its header is :func:`read_trace`'s."""
    return records_to_trace(read_trace(path)[1])


_POWERS_OF_TEN = 10 ** np.arange(20, dtype=np.uint64)  # 1 .. 10**19
_BLANK = ord(" ")


def _decimal(values: np.ndarray, shown: int) -> np.ndarray:
    """ASCII matrix of uint64 ``values``, one right-aligned row each.

    The matrix is as wide as the largest value needs, and at least
    ``shown``.  The last ``shown`` digits are always printed; zeros left of
    them are blank.  The width comes from a search in the powers of ten,
    which is exact over all of uint64 where a float log10 is not.
    """
    width = max(shown, int(np.searchsorted(_POWERS_OF_TEN, values.max(initial=0),
                                           side="right")))
    out = np.empty((len(values), width), dtype=np.uint8)
    for col in range(width - 1, -1, -1):
        quotient = values // 10
        digit = (values - quotient * 10).astype(np.uint8) + ord("0")
        out[:, col] = np.where(values == 0, _BLANK, digit) if col < width - shown else digit
        values = quotient
    return out


def _column(char: str, n: int) -> np.ndarray:
    return np.full((n, 1), ord(char), dtype=np.uint8)


def _milli(micro: np.ndarray) -> np.ndarray:
    """ASCII matrix of int32 micro-units as milli-units with three decimals:
    a sign (blank when not negative), the integer part, a point and the
    fraction."""
    micro = micro.astype(np.int64)
    digits = _decimal(np.abs(micro).astype(np.uint64), 4)
    sign = np.where(micro < 0, ord("-"), _BLANK).astype(np.uint8)
    return np.hstack((sign[:, None], digits[:, :-3], _column(".", len(micro)),
                      digits[:, -3:]))


def export_csv(fh, readings) -> int:
    """Write ``timestamp_ns,bus_mV,current_mA`` rows, one per reading
    (``RECORD`` rows, no gap markers); returns the row count.

    Every column becomes a blank-padded ASCII matrix, the rows are joined
    into one byte string and the padding is dropped: a CSV line never holds
    a space.
    """
    rows = np.asarray(readings, dtype=RECORD)
    n = len(rows)
    table = np.hstack((_decimal(rows["t"], 1), _column(",", n), _milli(rows["uv"]),
                       _column(",", n), _milli(rows["ua"]), _column("\n", n)))
    fh.write("timestamp_ns,bus_mV,current_mA\n"
             + table.tobytes().replace(b" ", b"").decode("ascii"))
    return n

"""Bit-exact binary trace format.

Every sample entry is one 16-byte element of :data:`RECORD`, little-endian:

    offset 0   u64  t   timestamp, nanoseconds since measurement start
    offset 8   i32  uv  bus voltage, microvolts
    offset 12  i32  ua  current, microamperes

A :class:`~emeter.sampler.Trace` holds exactly these micro-units, so a file's
readings load back bit for bit; they reach about 2.1kV / 2.1kA, far beyond
the device range.  Records are preceded by one fixed 64-byte header:

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

The header is a :class:`TraceHeader`: the run's
:class:`~emeter.sensor.SensorConfig` (the first five fields), its driver
profile, bus speed and start clock.  Building one checks what a run
checks, a valid ``SensorConfig``, a driver of
:data:`~emeter.bus_timing.PROFILES` and an
:class:`~emeter.bus_timing.OperatingPoint` of the three, and a shunt of
whole microohms in u32, so that it reads back as built.  So the writer
builds only a header some run could write, and :func:`decode_header`
rejects any other, naming the field, as it rejects non-zero reserved bytes;
:func:`read_trace` adds the file.

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
It is also the one place a file's time order is checked: strictly
increasing reading timestamps, each below ``2**63``, so that the file's u64
times are also a :class:`~emeter.sampler.Trace`'s int64 times in the order
a ``Trace`` checks.  A file that breaks this fails naming the file, the
record (gap markers counted) and its byte offset, ``64 + 16 * k``, so
``export-csv`` rejects the same files as the commands that build a
``Trace``.  A gap marker's own time is not checked.

:func:`export_csv` writes the readings as text: the line
``timestamp_ns,bus_mV,current_mA``, then one line per reading with the
timestamp in integer nanoseconds and the voltage and current in mV and mA
with exactly three decimals.  A micro-unit integer divided by 1000 has
exactly three decimals, so each value is printed from its integer digits
(sign, ``|v| // 1000``, ``.``, ``|v| % 1000``) with no float formatting;
that is the same text as ``f"{v / 1000.0:.3f}"``, since an int32 over
1000.0 is far closer to its decimal than half a unit in the third place.
The text comes from lookup tables built once at import: every group of four
digits is one gather from a 10,000-entry table of 4-byte ASCII cells
(blank-padded for a value's most significant group, zero-padded below it),
and the three decimals one gather from a 1,000-entry ``.ddd`` table.  A
line is a fixed run of such cells, with a comma-and-sign cell before each
value and a newline cell at the end, all blank-padded; one
``bytes.translate`` drops the blanks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from emeter.bus_timing import PROFILES, OperatingPoint
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


@dataclass(frozen=True)
class TraceHeader:
    """The run a trace holds: its sensor configuration, driver stack, bus
    speed and start clock.  Only an operating point the pipeline can run
    builds one, so a header read back is one a run could have written."""

    config: SensorConfig = SensorConfig()
    driver_name: str = "bcm"
    bus_speed_khz: int = 2500
    start_clock_ns: int = 0

    def __post_init__(self):
        if self.driver_name not in PROFILES:
            raise ValueError(f"unknown driver {self.driver_name!r}; have {sorted(PROFILES)}")
        OperatingPoint(PROFILES[self.driver_name], self.bus_speed_khz, self.config)
        uohm = self.config.shunt_resistance * 1e6
        if not (0 < uohm < 2 ** 32 and round(uohm) / 1e6 == self.config.shunt_resistance):
            raise ValueError("shunt_resistance must be a whole number of microohms "
                             f"in u32, got {self.config.shunt_resistance!r} ohm")


def encode_header(header: TraceHeader) -> bytes:
    config = header.config
    return _HEADER.pack(MAGIC, FORMAT_VERSION, config.resolution_bits,
                        config.pga_divider, int(config.bus_range),
                        int(round(config.supply_voltage * 10)),
                        int(round(config.shunt_resistance * 1e6)),
                        header.driver_name.encode(),
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
    if any(buf[34:]):
        raise ValueError("reserved header bytes 34-63 must be zero")
    config = SensorConfig(shunt_resistance=shunt_uohm / 1e6, pga_divider=pga,
                          resolution_bits=res, bus_range=float(bus_range),
                          supply_voltage=supply10 / 10.0)
    # latin-1 takes any bytes, one character each; a name no profile has,
    # UTF-8 or not, is rejected by TraceHeader
    return TraceHeader(config, driver.rstrip(b"\x00").decode("latin-1"), speed,
                       start_clock)


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
    ``marker_at[k]`` readings (``marker_at`` sorted).  The body is written
    from the array itself, and without a marker it is ``readings``, uncopied."""
    body = np.ascontiguousarray(readings).view("V16")
    if len(marker_at):
        body = np.insert(body, marker_at, gap_records(marker_ns).view("V16"))
    fh.write(encode_header(header))
    fh.write(body)


def read_trace(path: str) -> tuple[TraceHeader, np.ndarray]:
    """Header and readings (``RECORD`` rows, gap markers left out) of a
    trace file; errors name the file.  Past the order and bound tests,
    every file read here also loads as a :class:`Trace`."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        header, records = _decode(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    kept = ~is_gap(records)
    readings = records.view("V16")[kept].view(RECORD)
    t = readings["t"]
    unordered = t[1:] <= t[:-1]
    if unordered.any():
        i, why = 1 + np.argmax(unordered), "trace timestamps must be strictly increasing"
    elif len(t) and t[-1] >= 2 ** 63:
        # a Trace holds int64 times; ordered, the last is the largest
        i = np.argmax(t >= 2 ** 63)
        why = f"timestamp {t[i]} is not below 2**63 ns"
    else:
        return header, readings
    k = int(np.flatnonzero(kept)[i])
    raise ValueError(f"{path}: record {k} at byte offset "
                     f"{HEADER_SIZE + k * RECORD_SIZE}: {why}")


def trace_to_records(trace: Trace) -> np.ndarray:
    """The ``RECORD`` array a trace persists as: its whole micro-units."""
    if len(trace) and trace.timestamps_ns[0] < 0:
        raise ValueError("sample 0: negative timestamp")
    records = np.empty(len(trace), dtype=RECORD)
    records["t"] = trace.timestamps_ns
    micro = np.empty(len(trace))  # one float column, for both fields in turn
    for field, column in (("uv", trace.bus_voltage), ("ua", trace.current)):
        records[field] = np.rint(np.multiply(column, 1e6, out=micro), out=micro)
    return records


def records_to_trace(readings) -> Trace:
    """Build an in-memory trace from readings (``RECORD`` rows, no gap markers)."""
    readings = np.asarray(readings, dtype=RECORD)
    return Trace.from_micro(readings["t"], readings["uv"], readings["ua"])


def load_trace(path: str) -> Trace:
    """The readings of a trace file; its header is :func:`read_trace`'s."""
    return records_to_trace(read_trace(path)[1])


def _quads(ascii_rows: np.ndarray) -> np.ndarray:
    """Rows of four ASCII codes, one ``<u4`` cell each."""
    return np.ascontiguousarray(ascii_rows, dtype=np.uint8).view("<u4").ravel()


# row g: the ASCII digits of g, zero-padded to four (%04d)
_ZERO_PADDED = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
# row g: which of those digits are leading zeros (%4d, where 0 has four)
_LEADING = (np.arange(10_000, dtype=np.uint16)[:, None]
            < np.array([1000, 100, 10, 1], dtype=np.uint16))
# the cell of a group of four digits g: _GROUP[g] is g blank-padded (%4d, with
# 0 all blanks), for the most significant group of a value or one wholly
# above it; _GROUP[10_000 + g] is g zero-padded (%04d), for an inner group
_GROUP = _quads(np.vstack((np.where(_LEADING, ord(" "), _ZERO_PADDED), _ZERO_PADDED)))
# the same for a value's lowest group, where 0 prints as 0
_LOWEST_GROUP = _GROUP.copy()
_LOWEST_GROUP[0] = np.frombuffer(b"   0", dtype="<u4")[0]
# ".ddd" for 0 .. 999
_FRACTION = _quads(np.hstack((np.full((1000, 1), ord(".")), _ZERO_PADDED[:1000, 1:])))
_COMMA = np.frombuffer(b",   ,  -", dtype="<u4")  # before a value, indexed by "is negative"
_NEWLINE = np.frombuffer(b"\n   ", dtype="<u4")[0]


def _group_count(values: np.ndarray) -> int:
    """Groups of four digits in the largest of ``values``, at least one."""
    return (len(str(int(values.max(initial=0)))) + 3) // 4


def _write_groups(cells: np.ndarray, values: np.ndarray) -> None:
    """Write unsigned ``values`` into ``cells``, an (n, g) view of 4-byte
    cells, right-aligned in groups of four digits, least significant last;
    every value needs no more than g groups."""
    table = _LOWEST_GROUP
    for col in range(cells.shape[1] - 1, 0, -1):
        above = values // 10_000
        group = values - above * 10_000
        # values < group + 10_000 exactly when no digit lies above the group
        cells[:, col] = table.take(np.minimum(values, group + 10_000))
        table = _GROUP
        values = above
    cells[:, 0] = table.take(values)


def export_csv(fh, readings) -> int:
    """Write ``timestamp_ns,bus_mV,current_mA`` rows, one per reading
    (``RECORD`` rows, no gap markers); returns the row count.

    Each row is a fixed run of 4-byte cells in one ``(n, cells)`` matrix:
    the timestamp's digit groups, then per value a comma-and-sign cell, the
    integer part's groups and the ``.ddd`` cell, then the newline.  The
    matrix's bytes are joined and the padding dropped: a CSV line never
    holds a space.
    """
    rows = np.asarray(readings, dtype=RECORD)
    micro = (rows["uv"], rows["ua"])
    # abs wraps INT32_MIN to itself, whose uint32 view is 2**31
    magnitudes = [np.abs(v).view(np.uint32) for v in micro]
    wholes = [m // 1000 for m in magnitudes]
    widths = [_group_count(rows["t"])] + [_group_count(w) for w in wholes]
    cells = np.empty((len(rows), sum(widths) + 5), dtype="<u4")
    end = widths[0]
    _write_groups(cells[:, :end], rows["t"])
    for v, magnitude, whole, width in zip(micro, magnitudes, wholes, widths[1:]):
        cells[:, end] = _COMMA.take(v < 0)
        _write_groups(cells[:, end + 1:end + 1 + width], whole)
        end += width + 2
        cells[:, end - 1] = _FRACTION.take(magnitude - whole * 1000)
    cells[:, end] = _NEWLINE
    fh.write("timestamp_ns,bus_mV,current_mA\n")
    fh.write(cells.tobytes().translate(None, b" ").decode("ascii"))
    return len(rows)

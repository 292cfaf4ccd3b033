"""Batched (two-buffer) and continuous (circular) trace persistence.

One producer hands samples in, one consumer moves them to the file.  In
two-buffer mode the producer fills one fixed array while the consumer
flushes the other; the handoff happens exactly when a buffer fills, and the
producer never waits for I/O.  In circular mode every entry is signaled to
the consumer individually under mutual exclusion.  Both modes produce
byte-identical files for the same sample stream as long as the consumer
keeps up.

File writing takes simulated time (``write_speed_bps``); when the consumer
falls behind, data is dropped loudly -- a whole buffer in two-buffer mode,
the oldest ring entry in circular mode -- and a gap marker record lands in
the file where the drop occurred.  Overruns are counted, never silent.

The steady-state cost of the two-buffer scheme has a closed form.  With
buffering-only power ``p_b``, buffering+writing power ``p_wb``, fill time
``t_b = buffer_samples / sample_rate`` and write time ``t_w = buffer_samples
* sample_bits / write_speed``, the average power is

    E = p_b * (t_b - t_w) / t_b + p_wb * t_w / t_b                 (schedule)
    E = (p_b * write_speed + sample_bits * sample_rate * (p_wb - p_b))
        / write_speed                                              (closed)

The two forms are algebraically identical (the buffer size cancels).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import BinaryIO, Optional

import numpy as np

from emeter.tracefile import (
    RECORD,
    RECORD_SIZE,
    TraceHeader,
    encode_header,
    gap_records,
    is_gap,
)

SAMPLE_BITS = RECORD_SIZE * 8  # 128 bits per entry
DEFAULT_WRITE_SPEED_BPS = 40e6


class SustainedOverrunError(ValueError):
    """The consumer cannot keep up in steady state (write regime invalid)."""


@dataclass(frozen=True)
class BufferPolicy:
    kind: str  # 'two_buffer' | 'circular'
    capacity: int

    def __post_init__(self):
        if self.kind not in ("two_buffer", "circular"):
            raise ValueError(f"unknown buffering kind {self.kind!r}")
        if self.capacity < 1:
            raise ValueError("buffer capacity must be >= 1")


class _Writer:
    """What both writers share: the header, the entry point and the counters."""

    def __init__(self, fh: BinaryIO, header: TraceHeader, capacity: int,
                 write_speed_bps: float):
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.fh = fh
        self.capacity = capacity
        self.write_speed_bps = write_speed_bps
        self.overruns = 0
        #: data records in the file; gap markers are not counted
        self.records_written = 0
        #: (timestamp_ns, record_count) per flush trigger
        self.flush_log: list[tuple[int, int]] = []
        self._last_ns = 0
        fh.write(encode_header(header))

    def push(self, record, t_ns: int) -> bool:
        """Add one entry at ``t_ns``; False when the push forced a drop."""
        return self.extend(np.array([record], dtype=RECORD), [t_ns]) == 0

    def extend(self, records, push_ns) -> int:
        """Add a ``RECORD`` array, entry k pushed at the non-decreasing time
        ``push_ns[k]``; returns the number of drops forced."""
        records = np.asarray(records, dtype=RECORD)
        push_ns = np.asarray(push_ns, dtype=np.int64)
        if len(records) != len(push_ns):
            raise ValueError("need one push time per record")
        if not len(records):
            return 0
        if push_ns[0] < self._last_ns or np.any(np.diff(push_ns) < 0):
            raise ValueError("time must not regress")
        self._last_ns = int(push_ns[-1])
        drops = self._accept(records, push_ns.tolist())
        self.overruns += drops
        return drops

    def _write(self, records: np.ndarray) -> None:
        self.fh.write(records.tobytes())
        self.records_written += len(records) - int(np.count_nonzero(is_gap(records)))

    def format_flush_log(self) -> str:
        return "\n".join(f"{ts} flush {n}" for ts, n in self.flush_log)


class TwoBufferWriter(_Writer):
    """Producer fills one buffer while the consumer flushes the other."""

    def __init__(self, fh: BinaryIO, header: TraceHeader, capacity: int,
                 write_speed_bps: float = DEFAULT_WRITE_SPEED_BPS):
        super().__init__(fh, header, capacity, write_speed_bps)
        self._active = np.empty(0, dtype=RECORD)
        self._pending: Optional[np.ndarray] = None
        self._pending_done_ns = 0

    def _accept(self, records: np.ndarray, push_ns: list[int]) -> int:
        drops = i = 0
        while i < len(records):
            # the schedule only moves when a push fills the buffer
            j = min(len(records), i + self.capacity - len(self._active))
            t_ns = push_ns[j - 1]
            if self._pending is not None and t_ns >= self._pending_done_ns:
                self._write(self._pending)
                self._pending = None
            self._active = np.concatenate((self._active, records[i:j]))
            i = j
            if len(self._active) < self.capacity:
                break
            # buffer full: hand it to the consumer and keep producing
            if self._pending is not None:
                # both buffers full: drop the oldest unflushed buffer whole,
                # but keep any gap markers it carried so drops stay visible
                drops += 1
                self._active = np.concatenate((self._pending[is_gap(self._pending)],
                                               gap_records([t_ns]), self._active))
            self.flush_log.append((t_ns, len(self._active)))
            self._pending, self._active = self._active, self._active[:0]
            self._pending_done_ns = t_ns + int(round(
                len(self._pending) * SAMPLE_BITS * 1e9 / self.write_speed_bps))
        return drops

    def close(self) -> None:
        """Drain both buffers; partial data flushes on close."""
        if self._pending is not None:
            self._write(self._pending)
            self._pending = None
        if len(self._active):
            self.flush_log.append((self._last_ns, len(self._active)))
            self._write(self._active)
            self._active = self._active[:0]


class CircularWriter(_Writer):
    """Single shared ring; every entry is signaled to the consumer.

    The consumer writes the ring's entries oldest first, one entry duration
    each; a gap marker precedes an entry that does not follow the last one.
    """

    def __init__(self, fh: BinaryIO, header: TraceHeader, capacity: int,
                 write_speed_bps: float = DEFAULT_WRITE_SPEED_BPS):
        super().__init__(fh, header, capacity, write_speed_bps)
        self._ring = np.empty(0, dtype=RECORD)
        self._ring_ns: list[int] = []
        self._order: list[int] = []  # ring indices to write; i + len for a gap
        self._expect = 0  # ring index the consumer writes next without a gap
        self._consumer_free_ns = 0.0

    def _drain(self, lo: int, hi: int, t_ns: float) -> int:
        """Write ring entries lo..hi-1 done by ``t_ns``; returns the new lo."""
        ring_ns, entry_ns = self._ring_ns, SAMPLE_BITS * 1e9 / self.write_speed_bps
        free = self._consumer_free_ns
        while lo < hi:
            finish = max(ring_ns[lo], free) + entry_ns
            if finish > t_ns:
                break
            if lo != self._expect:
                # entries were overwritten while we were busy
                self._order.append(len(ring_ns) + lo)
            self._order.append(lo)
            self._expect = lo + 1
            free = finish
            lo += 1
        self._consumer_free_ns = free
        return lo

    def _accept(self, records: np.ndarray, push_ns: list[int]) -> int:
        first = len(self._ring)
        self._ring = np.concatenate((self._ring, records))
        self._ring_ns += push_ns
        lo = drops = 0
        for k in range(first, len(self._ring)):
            lo = self._drain(lo, k, self._ring_ns[k])
            if k - lo >= self.capacity:
                lo += 1  # the ring is full: overwrite the oldest entry
                drops += 1
        self._flush(lo)
        return drops

    def _flush(self, lo: int) -> None:
        """Write the drained entries in one call; forget ring indices < lo."""
        if self._order:
            self._write(np.concatenate(
                (self._ring, gap_records(self._ring_ns)))[self._order])
        self._ring, self._order = self._ring[lo:], []
        del self._ring_ns[:lo]
        self._expect -= lo

    def close(self) -> None:
        self._flush(self._drain(0, len(self._ring), float("inf")))


def make_writer(policy: BufferPolicy, fh: BinaryIO, header: TraceHeader,
                write_speed_bps: float = DEFAULT_WRITE_SPEED_BPS):
    if policy.kind == "two_buffer":
        return TwoBufferWriter(fh, header, policy.capacity, write_speed_bps)
    return CircularWriter(fh, header, policy.capacity, write_speed_bps)


# --------------------------------------------------------------------------
# Buffering overhead model
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OverheadModel:
    """Average-power model of two-buffer persistence."""

    buffer_power_w: float        # power while only buffering
    write_power_w: float         # power while buffering and writing
    write_speed_bps: float       # file write speed, bits/s
    sample_rate_sps: float       # samples collected per second
    sample_bits: int = SAMPLE_BITS
    buffer_samples: int = 1024

    def __post_init__(self):
        if self.write_power_w < self.buffer_power_w:
            raise ValueError("write+buffer power cannot be below buffer power")
        if self.sample_rate_sps <= 0 or self.buffer_samples < 1:
            raise ValueError("sample rate and buffer size must be positive")

    @property
    def fill_time_s(self) -> float:
        return self.buffer_samples / self.sample_rate_sps

    @property
    def write_time_s(self) -> float:
        if self.write_speed_bps <= 0:
            raise ValueError("write speed must be positive")
        return self.buffer_samples * self.sample_bits / self.write_speed_bps


def overhead_energy_schedule(model: OverheadModel) -> float:
    """Average watts from the explicit fill/flush schedule.

    ``p_b * (t_b - t_w)/t_b + p_wb * t_w/t_b``, evaluated as the base power
    plus the write-time-weighted excess so the equal-power case is exact.
    """
    t_b = model.fill_time_s
    t_w = model.write_time_s
    if t_w > t_b:
        raise SustainedOverrunError(
            "file writes take longer than buffer fills; the two-buffer "
            "schedule cannot sustain this rate")
    return (model.buffer_power_w
            + (model.write_power_w - model.buffer_power_w) * (t_w / t_b))


def overhead_energy_closed(model: OverheadModel) -> float:
    """Average watts in closed form; the buffer size cancels.

    ``(p_b * W + L_s * R_s * (p_wb - p_b)) / W`` rearranged around the base
    power for the same equal-power exactness as the schedule form.
    """
    if model.write_speed_bps <= 0:
        raise ValueError("write speed must be positive")
    if model.write_time_s > model.fill_time_s:
        raise SustainedOverrunError(
            "file writes take longer than buffer fills; the two-buffer "
            "schedule cannot sustain this rate")
    return (model.buffer_power_w
            + model.sample_bits * model.sample_rate_sps
            * (model.write_power_w - model.buffer_power_w) / model.write_speed_bps)


def simulate_overhead_power(model: OverheadModel) -> float:
    """Replay the actual flush schedule and time-weight the two power levels.

    Drives a real :class:`TwoBufferWriter` with a few hundred buffer fills at
    the model's sample rate, then averages ``buffer_power_w`` /
    ``write_power_w`` over the resulting write-activity intervals.  The
    cycle count keeps the partial-final-flush edge effect well under a
    percent without replaying an unbounded number of samples.
    """
    n_buffers = max(25, min(400, 2_000_000 // model.buffer_samples))
    n_samples = n_buffers * model.buffer_samples
    period_ns = 1e9 / model.sample_rate_sps
    writer = TwoBufferWriter(io.BytesIO(), TraceHeader(),
                             model.buffer_samples, model.write_speed_bps)
    push_ns = (np.arange(1, n_samples + 1) * period_ns).astype(np.int64)
    writer.extend(np.zeros(n_samples, dtype=RECORD), push_ns)
    horizon_ns = n_samples * period_ns
    write_dur_ns = model.buffer_samples * model.sample_bits * 1e9 / model.write_speed_bps
    busy_ns = 0.0
    for ts, n in writer.flush_log:
        end = min(ts + write_dur_ns * (n / model.buffer_samples), horizon_ns)
        busy_ns += max(0.0, end - ts)
    frac = busy_ns / horizon_ns
    return model.buffer_power_w * (1.0 - frac) + model.write_power_w * frac

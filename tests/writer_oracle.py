"""Per-entry streaming writers: the reference that ``buffering.persist`` must
reproduce byte for byte.

These are the two-buffer and circular writers as the package shipped them
before persistence became one array stage, except that a two-buffer gap
marker takes the push time of the first entry written after its drop, as a
ring marker does.  They take records one ``push`` (or one ``extend``) at a
time and run the consumer rule entry by entry, so they are slow but easy to
check against the prose of the mechanisms.
"""

from __future__ import annotations

from typing import BinaryIO, Optional

import numpy as np

from emeter.buffering import DEFAULT_WRITE_SPEED_BPS, SAMPLE_BITS
from emeter.tracefile import RECORD, TraceHeader, encode_header, gap_records, is_gap


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
            if not len(self._active):
                self._first_ns = push_ns[i]
            self._active = np.concatenate((self._active, records[i:j]))
            i = j
            if len(self._active) < self.capacity:
                break
            # buffer full: hand it to the consumer and keep producing
            if self._pending is not None:
                # both buffers full: drop the oldest unflushed buffer whole,
                # but keep any gap markers it carried so drops stay visible;
                # they all take the push time of this buffer's first entry
                drops += 1
                markers = np.count_nonzero(is_gap(self._pending)) + 1
                self._active = np.concatenate(
                    (gap_records([self._first_ns] * markers), self._active))
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

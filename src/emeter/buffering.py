"""Batched (two-buffer) and continuous (circular) trace persistence.

One producer hands samples in, one consumer moves them to the file.  In
two-buffer mode the producer fills one fixed array while the consumer
flushes the other; the handoff happens exactly when a buffer fills, and the
producer never waits for I/O.  In circular mode every entry is signaled to
the consumer individually under mutual exclusion.  Both modes produce
byte-identical files for the same sample stream as long as the consumer
keeps up.

A mechanism is a schedule over push times: from the push times, the
capacity and the write speed alone it decides which entries are dropped,
and returns that mask, the places of the gap markers (the number of kept
entries before each) and the flush log.  It never sees a record, so two
record arrays with the same push times drop the same entries.
:func:`persist` is the one persistence stage: it runs the mechanism of a
policy, stamps the gap markers and hands the kept records, the marker places
and the marker times to :func:`~emeter.tracefile.write_trace`, which owns
the body layout, then returns the counters as :class:`PersistStats`, which
count an overrun as one dropped reading under either policy.  A gap marker
takes the push time of the kept entry that follows it, so it lies between
the readings around it in time as well as in order.

File writing takes simulated time (``write_speed_bps``); when the consumer
falls behind, data is dropped loudly -- a whole buffer in two-buffer mode,
the oldest ring entry in circular mode -- and a gap marker record lands in
the file where the drop occurred.  Overruns are counted, never silent.

Writing one entry takes ``d = round(sample_bits * 1e9 / write_speed)`` whole
ns.  With push times ``t``, capacity ``K`` and ``C`` the consumer's last
completion time (0 at the start), the ring's oldest unwritten entry ``j``
survives iff ``max(t[j], C) + d <= t[j + K]``; otherwise push ``j + K``
overwrites it.  An entry with ``j + K >= n`` is always written.  The ring is
replayed stretch by stretch, each in one of two closed forms:

    keep-up, from entry j0 at C0, while no entry is dropped:
        C[j] = (j + 1) * d + max(C0 - j0 * d, cummax(t[i] - i * d)),
        ending at the first j with C[j] > t[j + K] (j is dropped)
    backlog, from entry j0 at C0, while the consumer is never idle:
        the m-th write (m = 0, 1, ...) ends at C0 + (m + 1) * d and goes to
        w[m] = m + max(j0, cummax(a(C0 + i * d) - i)),
        a(c) = searchsorted(t[K:] - d, c), skipping the entries it overwrote;
        ending at the first m with t[w[m]] > C0 + m * d

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

from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from emeter.tracefile import RECORD, RECORD_SIZE, TraceHeader, write_trace

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


DEFAULT_POLICY = BufferPolicy("two_buffer", 4096)


@dataclass(frozen=True)
class PersistStats:
    """``overruns``, the report's ``overrun_count``, counts the dropped
    readings: ``overruns + records_written`` is the number pushed."""

    overruns: int
    #: data records in the file; gap markers are not counted
    records_written: int
    #: (timestamp_ns, record_count) per two-buffer flush trigger
    flush_log: tuple[tuple[int, int], ...]


def persist(fh: BinaryIO, header: TraceHeader, records, push_ns,
            policy: BufferPolicy, write_speed_bps: float) -> PersistStats:
    """Write ``header`` and the ``RECORD`` array ``records`` (readings, no
    gap markers) to ``fh`` as the buffered consumer would, entry k handed
    over at the non-decreasing time ``push_ns[k]``.

    Runs the policy's mechanism and hands the kept rows, the marker places
    and the marker times to :func:`~emeter.tracefile.write_trace`.
    """
    if not write_speed_bps > 0:
        raise ValueError(f"write speed must be positive, got {write_speed_bps!r}")
    records = np.asarray(records, dtype=RECORD)
    push_ns = np.asarray(push_ns, dtype=np.int64)
    if len(records) != len(push_ns):
        raise ValueError("need one push time per record")
    if len(push_ns) and (push_ns[0] < 0 or np.any(np.diff(push_ns) < 0)):
        raise ValueError("time must not regress")
    mechanism = _two_buffer if policy.kind == "two_buffer" else _circular
    dropped, marker_at, flush_log = mechanism(push_ns, policy.capacity, write_speed_bps)
    if dropped.any():
        kept = np.flatnonzero(~dropped)
        records, marker_ns = records[kept], push_ns[kept[marker_at]]
    else:
        marker_ns = push_ns[marker_at]
    write_trace(fh, header, records, marker_at, marker_ns)
    return PersistStats(len(push_ns) - len(records), len(records), flush_log)


def _two_buffer(push_ns, capacity, write_speed_bps):
    """The schedule of a producer that fills one buffer while the consumer
    flushes the other; a buffer that fills before the previous one's flush
    ends drops that one whole, ``capacity`` readings.

    The schedule only moves when a push fills a buffer; a partial last
    buffer flushes at the last push time.  A dropped buffer hands the gap
    markers it carried on to the buffer that replaced it, which flushes
    them ahead of its entries.
    """
    dropped = np.zeros(len(push_ns), dtype=bool)
    marker_at, flush_log = [], []
    carried = done_ns = 0  # the previous buffer's gap markers and flush end
    n_full = len(push_ns) // capacity * capacity
    for i in range(0, n_full, capacity):
        t_ns = int(push_ns[i + capacity - 1])
        if t_ns < done_ns:  # both buffers full: drop the unflushed one whole
            dropped[i - capacity:i] = True
            carried += 1
            marker_at.append(i - (len(marker_at) + 1) * capacity)
        else:
            carried = 0
        flush_log.append((t_ns, capacity + carried))
        done_ns = t_ns + int(round((capacity + carried) * SAMPLE_BITS * 1e9 / write_speed_bps))
    if n_full < len(push_ns):
        flush_log.append((int(push_ns[-1]), len(push_ns) - n_full))
    return dropped, np.array(marker_at, dtype=np.int64), tuple(flush_log)


def _circular(push_ns, capacity, write_speed_bps):
    """The schedule of a ring whose consumer writes entries oldest first; an
    overrun drops one entry, and there is no flush log.

    Each entry takes the consumer ``d`` whole ns from its push or from the
    previous write, whichever is later.  A push that finds ``capacity``
    entries unwritten overwrites the oldest: entry ``j`` survives iff
    ``max(t[j], C) + d <= t[j + capacity]``.  :func:`_overwritten` applies
    that rule in the keep-up and backlog closed forms of the module
    docstring.  One gap marker stands for each run of overwritten entries.
    """
    dropped = _overwritten(push_ns, capacity, write_speed_bps)
    kept = ~dropped
    after_drop = kept & np.concatenate(([False], dropped))[:-1]
    return dropped, np.flatnonzero(after_drop[kept]), ()


#: entries (keep-up) or writes (backlog) a stretch of the ring scan looks
#: ahead at first; the window doubles while the stretch lasts, so a stream
#: that switches regime every few entries costs a few numpy calls per
#: switch, not a scan to the stream's end
_STRETCH_WINDOW = 64


def _overwritten(t, capacity, write_speed_bps):
    """Mask of the ring entries that a later push overwrites.

    Replays the survival rule stretch by stretch: a keep-up stretch
    (:func:`_keep_up`) while the consumer is idle at the oldest unwritten
    entry, a backlog stretch (:func:`_backlog`) while it is busy.
    """
    dropped = np.zeros(len(t), dtype=bool)
    if len(t) <= capacity:
        return dropped
    # whole ns, rounded as ``_two_buffer`` rounds its write time; a write
    # longer than the whole stream fails every comparison either way, so the
    # cap changes no outcome and keeps the int64 arithmetic from overflowing
    d = min(int(round(SAMPLE_BITS * 1e9 / write_speed_bps)), int(t[-1]) + 1)
    due = t[capacity:] - d  # entry j survives iff its write starts by due[j]
    j, free = 0, 0  # the oldest unwritten entry; the consumer idles from free
    while j < len(due):  # entries from len(due) on are never overwritten
        stretch = _keep_up if t[j] > free else _backlog
        j, free = stretch(t, due, d, j, free, dropped)
    return dropped


def _keep_up(t, due, d, j, free, dropped):
    """Write entries ``j, j+1, ...`` until one is dropped.

    Without drops the write of entry ``i`` starts at ``max(free, cummax(t[l]
    - (l-j)*d for l in j..i)) + (i-j)*d``.  Returns the entry after the
    dropped one and the consumer's free time then.
    """
    window = _STRETCH_WINDOW
    while j < len(due):
        end = min(j + window, len(due))
        step = np.arange(end - j) * d
        start = t[j:end] - step
        start[0] = max(start[0], free)
        start = np.maximum.accumulate(start) + step
        late = start > due[j:end]
        k = int(late.argmax())
        if late[k]:
            dropped[j + k] = True
            return j + k + 1, int(start[k - 1]) + d if k else free
        j, free = end, int(start[-1]) + d
        window *= 2
    return j, free


def _backlog(t, due, d, j, free, dropped):
    """Write while the consumer is never idle, skipping overwritten entries.

    The m-th write from here starts at ``free + m*d``, on the first entry
    after the previous write that is still due then: ``written[m] = m +
    cummax(max(j, searchsorted(due, free + m*d) - m))``.  Stops at the first
    entry the consumer would wait for and returns it with the consumer's
    free time.
    """
    window = _STRETCH_WINDOW
    while j < len(due):
        m = np.arange(window + 1)
        starts = free + m * d
        written = np.maximum.accumulate(
            np.maximum(np.searchsorted(due, starts) - m, j)) + m
        stop = (written >= len(due)) | (t[np.minimum(written, len(due))] > starts)
        stop[-1] = True  # the window's end: go on from there
        k = int(stop.argmax())
        dropped[j:written[k]] = True
        dropped[written[:k]] = False
        j, free = int(written[k]), free + k * d
        if k < window:
            break
        window *= 2
    return j, free


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
        if not 0 <= self.buffer_power_w <= self.write_power_w < np.inf:
            raise ValueError("powers must be finite with 0 <= buffer power <= write "
                             f"power, got buffer power {self.buffer_power_w!r} W "
                             f"and write power {self.write_power_w!r} W")
        if not 0 < self.sample_rate_sps < np.inf:
            raise ValueError("sample rate must be finite and positive, "
                             f"got {self.sample_rate_sps!r}")
        if not self.write_speed_bps > 0:
            raise ValueError("write speed must be positive, "
                             f"got {self.write_speed_bps!r}")
        if not (self.sample_bits >= 1 and self.buffer_samples >= 1):
            raise ValueError("sample bits and buffer samples must be >= 1, got "
                             f"{self.sample_bits!r} and {self.buffer_samples!r}")

    @property
    def fill_time_s(self) -> float:
        return self.buffer_samples / self.sample_rate_sps

    @property
    def write_time_s(self) -> float:
        return self.buffer_samples * self.sample_bits / self.write_speed_bps


def _require_sustained(model: OverheadModel) -> None:
    if model.write_time_s > model.fill_time_s:
        raise SustainedOverrunError(
            "file writes take longer than buffer fills; the two-buffer "
            "schedule cannot sustain this rate")


def overhead_energy_schedule(model: OverheadModel) -> float:
    """Average watts from the explicit fill/flush schedule.

    ``p_b * (t_b - t_w)/t_b + p_wb * t_w/t_b``, evaluated as the base power
    plus the write-time-weighted excess so the equal-power case is exact.
    """
    _require_sustained(model)
    t_b = model.fill_time_s
    t_w = model.write_time_s
    return (model.buffer_power_w
            + (model.write_power_w - model.buffer_power_w) * (t_w / t_b))


def overhead_energy_closed(model: OverheadModel) -> float:
    """Average watts in closed form; the buffer size cancels.

    ``(p_b * W + L_s * R_s * (p_wb - p_b)) / W`` rearranged around the base
    power for the same equal-power exactness as the schedule form.
    """
    _require_sustained(model)
    return (model.buffer_power_w
            + model.sample_bits * model.sample_rate_sps
            * (model.write_power_w - model.buffer_power_w) / model.write_speed_bps)


#: Most push times :func:`simulate_overhead_power` replays: 16 MB of int64
#: nanoseconds, and as much again for the float product they are cast from.
REPLAY_PUSH_BUDGET = 2_000_000


def simulate_overhead_power(model: OverheadModel) -> float:
    """Replay the actual flush schedule and time-weight the two power levels.

    Runs the two-buffer schedule over 25 to 400 fills' push times at the
    model's sample rate (no records: the schedule depends on the push times
    alone), then averages ``buffer_power_w`` / ``write_power_w`` over the
    resulting write-activity intervals.  The cycle count keeps the
    partial-final-flush edge effect well under a percent; a buffer whose 25
    fills exceed :data:`REPLAY_PUSH_BUDGET` push times is rejected.
    """
    n_buffers = max(25, min(400, REPLAY_PUSH_BUDGET // model.buffer_samples))
    n_samples = n_buffers * model.buffer_samples
    if n_samples > REPLAY_PUSH_BUDGET:
        raise ValueError(f"buffer samples {model.buffer_samples!r} is too large to replay: "
                         f"{n_buffers} fills take {n_samples} push times, over the "
                         f"budget of {REPLAY_PUSH_BUDGET}")
    period_ns = 1e9 / model.sample_rate_sps
    horizon_ns = n_samples * period_ns
    if horizon_ns >= 2 ** 63:
        raise ValueError(f"sample rate {model.sample_rate_sps!r} is too low to replay: "
                         f"{n_samples} push times overflow int64 nanoseconds")
    push_ns = (np.arange(1, n_samples + 1) * period_ns).astype(np.int64)
    # the schedule writes SAMPLE_BITS per entry: give each the model's write time
    *_, flush_log = _two_buffer(push_ns, model.buffer_samples,
                                model.write_speed_bps * SAMPLE_BITS / model.sample_bits)
    write_dur_ns = model.buffer_samples * model.sample_bits * 1e9 / model.write_speed_bps
    busy_ns = 0.0
    for ts, n in flush_log:
        end = min(ts + write_dur_ns * (n / model.buffer_samples), horizon_ns)
        busy_ns += max(0.0, end - ts)
    frac = busy_ns / horizon_ns
    return model.buffer_power_w * (1.0 - frac) + model.write_power_w * frac

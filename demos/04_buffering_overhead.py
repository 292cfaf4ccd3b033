"""Two-buffer vs circular persistence and the buffering power model.

Both mechanisms produce byte-identical files while the consumer keeps up;
when it falls behind, drops are counted and marked in-line.  The average
power of the two-buffer scheme has a closed form that the buffer size
cancels out of.
"""

import io

import numpy as np

from emeter.buffering import (
    BufferPolicy,
    OverheadModel,
    overhead_energy_closed,
    overhead_energy_schedule,
    persist,
    simulate_overhead_power,
)
from emeter.tracefile import RECORD, TraceHeader

header = TraceHeader()
# one 16-byte record per sample: timestamp ns, bus microvolts, microamperes
push_ns = np.arange(1, 11) * 1_000_000
records = np.zeros(10, dtype=RECORD)
records["t"] = push_ns
records["uv"] = 5_000_000
records["ua"] = 1000 * np.arange(10)

out_two, out_ring = io.BytesIO(), io.BytesIO()
two = persist(out_two, header, records, push_ns, BufferPolicy("two_buffer", 4), 1e9)
persist(out_ring, header, records, push_ns, BufferPolicy("circular", 4), 1e9)

print("identical bytes:", out_two.getvalue() == out_ring.getvalue())
print("flush log (two-buffer, capacity 4):")
for ts, n in two.flush_log:
    print(f"{ts} flush {n}")
print()

# starve the consumer: 128-bit records at 100 bits/s, pushes every 1ms
slow = persist(io.BytesIO(), header, np.repeat(records[:1], 16),
               np.arange(1, 17) * 1_000_000, BufferPolicy("two_buffer", 4), 100.0)
print("overruns with a starved consumer:", slow.overruns,
      "(whole buffers dropped, gaps marked in-line)")
print()

# overhead model: measured power levels in and out of the write phase
model = OverheadModel(buffer_power_w=1.26, write_power_w=2.46,
                      write_speed_bps=1.28e6, sample_rate_sps=1000.0)
print("schedule form :", round(overhead_energy_schedule(model), 6), "W")
print("closed form   :", round(overhead_energy_closed(model), 6), "W")
print("event replay  :", round(simulate_overhead_power(model), 6), "W")
for l_b in (64, 1024, 65536):
    m = OverheadModel(1.26, 2.46, 1.28e6, 1000.0, 128, l_b)
    print(f"  buffer size {l_b:6d} -> {overhead_energy_closed(m):.6f} W "
          "(size cancels)")

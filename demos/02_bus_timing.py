"""Polling counts and sampling throughput per driver stack and bus speed.

The fast (BCM-like) driver talks to the bus controller directly; the
Linux-like stack pays a syscall per transaction, at least 20us per read.
The sampler polls the ready bit until a conversion completes, so slower
reads mean fewer polls but also lower throughput.
"""

import numpy as np

from emeter.bus_timing import (
    PROFILES,
    SUPPORTED_SPEEDS_KHZ,
    expected_polls,
    read_delays_us,
)
from emeter.sensor import SensorConfig

speeds = sorted(SUPPORTED_SPEEDS_KHZ, reverse=True)

for res in (12, 9):
    print(f"--- {res}-bit resolution ---")
    print("driver " + "".join(f"{s:>10d}kHz" for s in speeds))
    for name in ("bcm", "linux"):
        cfg = SensorConfig(resolution_bits=res, supply_voltage=5.0)
        cells = [expected_polls(PROFILES[name], s, cfg) for s in speeds]
        print(f"{name:6s} " + "".join(f"{c.polls_per_sample:>13d}" for c in cells)
              + "   polls/sample")
        print(f"{'':6s} " + "".join(f"{c.samples_per_second:>13.0f}" for c in cells)
              + "   samples/s")
    print()

# jittered read delays: the Linux stack spreads about 22us, BCM about 4us
rng = np.random.default_rng(0)
for name in ("bcm", "linux"):
    profile = PROFILES[name]
    draws = read_delays_us(profile.mean_delay_us(500), profile.jitter_range_us / 2.0,
                           rng, 5000)
    print(f"{name:6s} read at 500kHz: mean {draws.mean():6.1f} us, "
          f"spread {draws.max() - draws.min():5.1f} us")

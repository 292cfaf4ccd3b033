"""Per-step staircase and pairing: the reference that ``emeter.calibration``
must reproduce bit for bit.

These are the staircase builder and the mid-dwell pairing as the package
shipped them before the load program became a table.  They walk the program
one step at a time, pick branches largest-current-first with ``sorted`` and
round the pot code with Python's ``round``, so they are slow but read like
the prose of the procedure.
"""

from __future__ import annotations

import numpy as np


def code_for_current(target_a: float, pot) -> int:
    """Pot code whose output is nearest the target (clamped to range)."""
    target_a = min(max(target_a, pot.min_current), pot.max_current)
    resistance = pot.v_in / target_a
    code = round((resistance - pot.r_wiper) * pot.code_count / pot.r_max)
    return int(min(max(code, 0), pot.code_count))


def build_staircase(pot, network, step_a: float, max_a: float):
    """``(pot_code, switch_mask)`` per step of the staircase to ``max_a``,
    or to the load's top where that is lower."""
    branches = network.branch_resistances
    steps = []
    target = pot.min_current
    top = min(max_a, network.max_current(pot))
    while target <= top + 1e-12:
        remainder = target
        mask = 0
        # enable branches largest-current-first until the pot can cover the rest
        amps = [pot.v_in / r for r in branches]
        for j in sorted(range(len(branches)), key=lambda j: -amps[j]):
            amp = amps[j]
            if remainder - amp >= pot.min_current - 1e-9:
                mask |= 1 << j
                remainder -= amp
        steps.append((code_for_current(remainder, pot), mask))
        target += step_a
    return steps


def step_current(code: int, mask: int, pot, network) -> float:
    """Pot current at ``code`` plus the enabled branches, summed in order."""
    total = 0.0
    for j, r in enumerate(network.branch_resistances):
        if mask & (1 << j):
            total += pot.v_in / r
    return pot.v_in / ((code / pot.code_count) * pot.r_max + pot.r_wiper) + total


def pair(instants_s, dwell_s: float, trace, profile, reference):
    """``(i_a, i_e, v_a, v_e, instant_ns)`` per instant with a device sample
    within half a dwell, and the number of instants without one."""
    device_ts = trace.timestamps_ns
    pairs, unpaired = [], 0
    for instant in instants_s:
        instant_ns = int(round(instant * 1e9))
        idx = int(np.searchsorted(device_ts, instant_ns))
        candidates = [i for i in (idx - 1, idx) if 0 <= i < len(trace)]
        best = min(candidates, key=lambda i: abs(int(device_ts[i]) - instant_ns))
        if abs(int(device_ts[best]) - instant_ns) > dwell_s * 1e9 / 2.0:
            unpaired += 1
            continue
        pairs.append((float(reference.sample_current(profile, instant)),
                      float(trace.current[best]),
                      float(reference.sample_voltage(profile, instant)),
                      float(trace.bus_voltage[best]),
                      instant_ns))
    return pairs, unpaired

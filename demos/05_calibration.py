"""Calibrate the measurement chain against the programmable load.

The load is an 8-bit potentiometer plus a bank of switched resistors; the
pot fine-tunes below 20mA and each branch adds a 20mA or 100mA step, up to
about 1A at 5V.  Both meters pair readings at mid-dwell settling instants,
so no clock synchronization is needed.
"""

import numpy as np

from emeter.calibration import (
    PotentiometerModel,
    SwitchNetwork,
    apply_current,
    apply_voltage,
    build_staircase,
    current_resolution,
    fit_current,
    fit_voltage,
    pot_resistance,
    run_calibration_sweep,
)
from emeter.experiment import PipelineOptions, device_pipeline
from emeter.workloads import ReferenceMeter

pot = PotentiometerModel()
print("pot resistance : %.1f .. %.1f ohm (code 0 .. %d)"
      % (pot_resistance(0, pot), pot_resistance(pot.code_count, pot), pot.code_count))
print("output current : %.4f mA .. %.2f mA"
      % (pot.min_current * 1e3, pot.max_current * 1e3))
finest = min(current_resolution(x, pot) for x in range(1, pot.code_count + 1))
print("finest step    : %.2f uA" % (finest * 1e6))

network = SwitchNetwork()
print("with all %d branches enabled: %.1f mA max"
      % (len(network.branch_resistances), network.max_current(pot) * 1e3))
print()

program = build_staircase(pot, network, step_a=5e-3, max_a=0.8, dwell_s=0.05)
currents = program.programmed_currents(pot, network)
print("staircase: %d steps, %.3f mA .. %.1f mA, largest jump %.1f mA"
      % (len(currents), currents.min() * 1e3, currents.max() * 1e3,
         np.diff(currents).max() * 1e3))
print("first steps (pot code, switch mask, dwell):")
for code, mask in zip(program.pot_codes[:3], program.switch_masks[:3]):
    print(f"   {code} {mask:#x} {program.dwell_s * 1e3:g} ms")
print()

# sweep the simulated shield board against the reference meter and fit
pairs = run_calibration_sweep(program, device_pipeline(PipelineOptions(seed=1)),
                              ReferenceMeter(), pot=pot, network=network)
curve = fit_current(pairs)
curve = fit_voltage(pairs, curve)
print("fitted: %s, gain %.5f, voltage offset %+.4f V, R^2 %.6f"
      % (curve.current_form, curve.current_gain, curve.voltage_offset,
         curve.r_squared))
print("apply  : device 497.80 mA -> %.2f mA actual"
      % (apply_current(curve, 0.4978) * 1e3))
print("         device 5.000 V   -> %.3f V actual" % apply_voltage(curve, 5.0))
print()

# the breakout-style board bends quadratic above ~300mA; the fit notices
pairs_b = run_calibration_sweep(program,
                                device_pipeline(PipelineOptions(seed=1, board="breakout")),
                                ReferenceMeter(), pot=pot, network=network)
curve_b = fit_current(pairs_b)
print("breakout board: %s fit, quad %.4f, gain %.4f"
      % (curve_b.current_form, curve_b.current_quad, curve_b.current_gain))

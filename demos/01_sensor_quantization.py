"""Walk through the monitor's quantization and register behavior.

The chip digitizes the shunt voltage drop (current channel) and the bus
voltage into two read-only registers, under a configuration fixed when the
sensor is built.  This script prints the effective step sizes, shows a few
quantization round trips through the two register channels, and pokes the
simulated register file.
"""

from emeter.sensor import (
    REG_BUS_VOLTAGE,
    REG_SHUNT_VOLTAGE,
    SensorConfig,
    SimulatedSensor,
    bus_count_from_word,
    conversion_ready,
    conversion_time_us,
    shunt_count_from_word,
)

cfg = SensorConfig()  # 0.1 ohm shunt, divider 1, 12 bit, 16V range, 5V supply
lsb_amps = cfg.shunt.reading(1)
print("shunt LSB      : %.3f uV" % (lsb_amps * cfg.shunt_resistance * 1e6))
print("current LSB    : %.2f uA" % (lsb_amps * 1e6))
print("bus LSB        : %.3f mV" % (cfg.bus.reading(1) * 1e3))
print("conversion time: %.0f us (12 bit, 5V supply)" % conversion_time_us(cfg))
print()

for amps in (0.0, 10e-3, 137.4e-3, 399.9e-3):
    code, saturated = cfg.shunt.quantize(amps)
    back = cfg.shunt.reading(code)
    print(f"{amps * 1e3:8.2f} mA -> code {code:5d} -> {back * 1e3:8.3f} mA "
          f"(error {abs(back - amps) * 1e6:6.1f} uA, saturated {saturated})")
print()

print("bus 5.000 V -> (count, saturated)", cfg.bus.quantize(5.0))
print("bus 16.00 V -> (count, saturated)", cfg.bus.quantize(16.0), "(full scale)")
print()

# out-of-range current clamps at full scale instead of wrapping
hot = SensorConfig(pga_divider=1)
print("450mA at divider 1 -> (count, saturated)", hot.shunt.quantize(0.45),
      "(clamped to", hot.max_count, "counts)")
print("same at divider 2  -> (count, saturated)",
      SensorConfig(pga_divider=2).shunt.quantize(0.45))
print()

# drive the register file: conversions latch window averages and set the
# ready flag, reading the bus register clears it
sensor = SimulatedSensor(cfg)
window_ns = int(conversion_time_us(cfg) * 1000)
sensor.step(5e-3, 5.0, 0)
sensor.step(5e-3, 5.0, window_ns)
word = sensor.read_register(REG_BUS_VOLTAGE)
print("after one window: ready =", conversion_ready(word),
      " bus count =", bus_count_from_word(word))
print("read again      : ready =",
      conversion_ready(sensor.read_register(REG_BUS_VOLTAGE)))
print("shunt register  :",
      shunt_count_from_word(sensor.read_register(REG_SHUNT_VOLTAGE)),
      "counts (5mA constant input)")

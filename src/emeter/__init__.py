"""Desk-scale energy measurement pipeline built around a simulated
current/bus-voltage monitor.

The package models the full path from an analog load to an energy figure:

* :mod:`emeter.sensor` -- register-level monitor model (quantization, PGA
  ranges, conversion timing, simulated register bus).
* :mod:`emeter.bus_timing` -- transaction-latency model for the sensor bus
  (BCM-like vs Linux-like driver stacks) and the resulting polling/throughput
  figures.
* :mod:`emeter.sampler` -- the polling sampler loop, trapezoidal energy
  accumulation, trigger gating, warm-up handling and the hybrid sleep-mode
  energy model.
* :mod:`emeter.tracefile` / :mod:`emeter.buffering` -- the 16-byte binary
  trace format, the one persistence stage (two-buffer or circular), and the
  buffering overhead model.
* :mod:`emeter.calibration` -- programmable-load model and least-squares
  calibration curves.
* :mod:`emeter.workloads` -- synthetic device load profiles and the
  closed-form reference meter used as ground truth.
* :mod:`emeter.experiment` / :mod:`emeter.analysis` / :mod:`emeter.cli` --
  experiment orchestration, ECDF / voltage-effect analysis, command line.
"""

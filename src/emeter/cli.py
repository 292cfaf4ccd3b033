"""Command-line front end.

Subcommands::

    emeter sample          run a simulated measurement, write trace + report
    emeter calibrate       sweep the programmable load and fit a curve file
    emeter ecdf            empirical CDF of trace currents as CSV
    emeter voltage-effect  per-sample vs mean-voltage energy comparison
    emeter overhead        buffering overhead model evaluations
    emeter export-csv      binary trace to timestamp_ns,bus_mV,current_mA

All commands are deterministic under ``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import nullcontext, suppress

from emeter import analysis
from emeter.buffering import (
    SAMPLE_BITS,
    BufferPolicy,
    OverheadModel,
    overhead_energy_closed,
    overhead_energy_schedule,
    simulate_overhead_power,
)
from emeter.bus_timing import PROFILES, SUPPORTED_SPEEDS_KHZ
from emeter.calibration import (
    CalibrationCurve,
    PotentiometerModel,
    SwitchNetwork,
    build_staircase,
    fit_current,
    fit_voltage,
    run_calibration_sweep,
)
from emeter.experiment import PipelineOptions, device_pipeline, run_experiment
from emeter.sampler import TriggerSpec
from emeter.sensor import BOARDS, VALID_RESOLUTIONS, VALID_SUPPLIES
from emeter.tracefile import export_csv, load_trace, read_trace
from emeter.workloads import PRESETS, ReferenceMeter


class _OnceAction(argparse.Action):
    """Reject a flag given twice (conflicting trigger specs and the like)."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, f"_seen_{self.dest}", False):
            parser.error(f"conflicting {option_string} flags: given more than once")
        setattr(namespace, f"_seen_{self.dest}", True)
        setattr(namespace, self.dest, values)


def _add_sensor_flags(p: argparse.ArgumentParser) -> None:
    """Flags that set up the simulated meter, shared by sample and calibrate."""
    p.add_argument("--res", type=int, choices=VALID_RESOLUTIONS, default=12,
                   help="sampling resolution bits")
    p.add_argument("--driver", choices=sorted(PROFILES), default="bcm")
    p.add_argument("--speed", type=int, choices=SUPPORTED_SPEEDS_KHZ,
                   default=2500, help="bus speed, kHz")
    p.add_argument("--supply", type=float, choices=VALID_SUPPLIES, default=5.0,
                   help="sensor supply voltage")
    p.add_argument("--board", choices=sorted(BOARDS), default="shield")
    p.add_argument("--seed", type=int, default=0)


def _sensor_options(args, **kwargs) -> PipelineOptions:
    return PipelineOptions(
        resolution_bits=args.res, driver=args.driver, speed_khz=args.speed,
        supply_voltage=args.supply, board=args.board, seed=args.seed, **kwargs)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing keeps no state on the parser, and
    # _OnceAction keeps its seen-flags on each call's namespace
    parser = argparse.ArgumentParser(
        prog="emeter",
        description="simulated energy-measurement pipeline and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="run a measurement against a preset load")
    p.add_argument("--preset", choices=sorted(PRESETS), default="cc2650")
    p.add_argument("--workload", type=int, choices=[1, 2, 3, 4], default=1)
    _add_sensor_flags(p)
    p.add_argument("--buffering", choices=["two", "circular"], default="two")
    p.add_argument("--buffer-samples", type=int, default=4096)
    p.add_argument("--trigger", action=_OnceAction,
                   help="duration:<s>, count:<n> or edges:<file> "
                        "(default: duration:<--duration>)")
    p.add_argument("--duration", type=float, default=30.0,
                   help="simulated load duration, seconds")
    p.add_argument("--source", choices=["supply", "battery"], default="supply")
    p.add_argument("--calib", help="calibration curve file to apply")
    p.add_argument("--out", help="trace file path (binary)")
    p.add_argument("--report", help="machine-readable report path (JSON)")

    p = sub.add_parser("calibrate", help="sweep the programmable load, fit curves")
    _add_sensor_flags(p)
    p.add_argument("--step-ma", type=float, default=5.0,
                   help="staircase step, milliamps")
    p.add_argument("--max-ma", type=float, default=800.0)
    p.add_argument("--dwell-ms", type=float, default=50.0)
    p.add_argument("--form", choices=["auto", "linear", "quadratic"],
                   default="auto")
    p.add_argument("--out", required=True, help="curve file path")

    p = sub.add_parser("ecdf", help="empirical CDF of trace currents")
    p.add_argument("trace")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.add_argument("--gnuplot", action="store_true",
                   help="also emit a gnuplot script next to the CSV")

    p = sub.add_parser("voltage-effect",
                       help="energy delta when mean voltage replaces samples")
    p.add_argument("trace")

    p = sub.add_parser("overhead", help="two-buffer overhead model")
    p.add_argument("--buffer-power", type=float, required=True,
                   help="watts while only buffering")
    p.add_argument("--write-power", type=float, required=True,
                   help="watts while buffering and writing")
    p.add_argument("--write-speed", type=float, required=True, help="bits/s")
    p.add_argument("--rate", type=float, required=True, help="samples/s")
    p.add_argument("--sample-bits", type=int, default=SAMPLE_BITS)
    p.add_argument("--buffer-samples", type=int, default=1024)

    p = sub.add_parser("export-csv", help="binary trace to CSV")
    p.add_argument("trace")
    p.add_argument("--out", help="CSV path (default stdout)")
    return parser


def _cmd_sample(args) -> int:
    trigger = TriggerSpec.parse(args.trigger) if args.trigger else None
    options = _sensor_options(args, buffering=BufferPolicy(
        "two_buffer" if args.buffering == "two" else "circular",
        args.buffer_samples))
    curve = None
    if args.calib:
        with open(args.calib) as fh:
            text = fh.read()
        try:
            curve = CalibrationCurve.parse(text)
        except ValueError as exc:
            raise ValueError(f"{args.calib}: {exc}") from None
    # a run that fails after creating --out leaves none of its files behind:
    # no header-only trace, no flush log, no report
    created = []
    try:
        with open(args.out, "wb") if args.out else nullcontext() as trace_fh:
            if args.out:
                created.append(args.out)
            result = run_experiment(args.preset, args.workload, options,
                                    trigger=trigger, calibration=curve,
                                    source=args.source, duration=args.duration,
                                    trace_fh=trace_fh)
        if result.report.sample_count == 0:
            raise ValueError("no samples inside the trigger window")
        sidecars = {}
        if result.flush_log and args.out:
            sidecars[args.out + ".flush.log"] = result.flush_log
        if args.report:
            sidecars[args.report] = result.report.to_json()
        for path, text in sidecars.items():
            with open(path, "w") as fh:
                created.append(path)
                fh.write(text + "\n")
    except BaseException:
        for path in created:
            with suppress(OSError):
                os.remove(path)
        raise
    print(result.report.to_text())
    return 0


def _cmd_calibrate(args) -> int:
    pot = PotentiometerModel(v_in=args.supply)
    network = SwitchNetwork()
    program = build_staircase(pot, network, step_a=args.step_ma * 1e-3,
                              max_a=args.max_ma * 1e-3,
                              dwell_s=args.dwell_ms * 1e-3)
    pairs = run_calibration_sweep(program, device_pipeline(_sensor_options(args)),
                                  ReferenceMeter(), pot=pot, network=network)
    curve = fit_current(pairs, form=args.form)
    curve = fit_voltage(pairs, curve)
    with open(args.out, "w") as fh:
        fh.write(curve.serialize())
    print(f"fitted {curve.current_form} curve over {len(pairs)} pairs: "
          f"gain={curve.current_gain:.6f} quad={curve.current_quad:.6f} "
          f"voffset={curve.voltage_offset:.4f} rmse={curve.rmse_a:.3e} "
          f"r2={curve.r_squared:.6f}")
    return 0


def _cmd_ecdf(args) -> int:
    if args.gnuplot and not args.out:
        raise ValueError("--gnuplot needs --out: the script plots the CSV file")
    trace = load_trace(args.trace)
    if len(trace) == 0:
        raise ValueError("empty trace")
    csv_text = analysis.ecdf_csv(trace.current)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        if args.gnuplot:
            with open(args.out + ".gp", "w") as fh:
                fh.write(analysis.gnuplot_script(args.out))
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_voltage_effect(args) -> int:
    result = analysis.voltage_effect(load_trace(args.trace))
    print(f"per-sample voltage energy : {result['e_per_sample_j']:.6g} J")
    print(f"mean-voltage energy       : {result['e_mean_voltage_j']:.6g} J")
    print(f"mean voltage              : {result['mean_voltage_v']:.4f} V")
    print(f"delta                     : {result['delta_percent']:.4f} %")
    return 0


def _cmd_overhead(args) -> int:
    model = OverheadModel(buffer_power_w=args.buffer_power,
                          write_power_w=args.write_power,
                          write_speed_bps=args.write_speed,
                          sample_rate_sps=args.rate,
                          sample_bits=args.sample_bits,
                          buffer_samples=args.buffer_samples)
    schedule = overhead_energy_schedule(model)
    closed = overhead_energy_closed(model)
    simulated = simulate_overhead_power(model)
    print(f"schedule form : {schedule:.6f} W")
    print(f"closed form   : {closed:.6f} W")
    print(f"event replay  : {simulated:.6f} W")
    print(f"max spread    : {max(schedule, closed, simulated) - min(schedule, closed, simulated):.3e} W")
    return 0


def _cmd_export_csv(args) -> int:
    _, readings = read_trace(args.trace)
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
        export_csv(out, readings)
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "calibrate": _cmd_calibrate,
    "ecdf": _cmd_ecdf,
    "voltage-effect": _cmd_voltage_effect,
    "overhead": _cmd_overhead,
    "export-csv": _cmd_export_csv,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

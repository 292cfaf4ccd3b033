"""Benchmark of the emeter measurement pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload capture_9bit --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in turn in one process.  Each workload
is a closed loop in one process: one op at a time, no pool.  The ops are a
fixed cycle of at least 100 distinct ops built from ``--seed``; the loop
repeats whole cycles until ``--seconds`` have passed and every op ran at
least ``MIN_CYCLES`` times.  An op's latency is the lower quartile of its
repetitions, which discounts the repetitions that other tenants of a shared
machine slowed down; ``op_ms_p50`` and ``op_ms_p90`` are taken over the
distinct ops, so ten or more lie beyond the p90.  Every time is reported at a fixed
machine speed (see ``REFERENCE_S``); the raw values are printed too.  The
first pass over the cycle checks every output and hashes it; a repeated op
must reproduce that hash exactly.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced cycles and reports the per-layer metrics plus the
tracing overhead (traced over untraced median op latency); its spans are
written to ``.bench_build/spans/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_build"
MIN_CYCLES = 3
SETUP_REPEATS = 3
# a run must end within 180 s; stop repeating cycles well before that
HARD_STOP_S = 120.0
# Other tenants of a shared machine change how fast this process runs by
# 10-30% for minutes at a time, longer than a run, so even lower-quartile
# latencies drift from run to run.  A fixed kernel that does not touch emeter
# is timed between cycles, and every reported time is scaled to the machine
# speed at which that kernel's lower-quartile time is REFERENCE_S.  A change
# to emeter cannot move the kernel, so it moves scaled and raw times alike.
REFERENCE_S = 5e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "sim_s_per_host_s": "s/s",
    "samples_per_host_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; "_ms" values are medians over the traced ops that
# reached the layer, counts are per-op means over one traced cycle
PER_LAYER_UNITS = {
    "workloads.profile_ms": "ms", "workloads.segments": "count",
    "workloads.reference_ms": "ms",
    "experiment.pipeline_self_ms": "ms",
    "calibration.sweep_ms": "ms", "calibration.apply_ms": "ms",
    "sampler.energy_ms": "ms", "sampler.loop_self_ms": "ms",
    "sampler.samples": "count", "sampler.warmup": "count",
    "sampler.saturated": "count", "sampler.power_save": "count",
    "sensor.ms": "ms", "sensor.register_reads": "count",
    "sensor.conversions": "count",
    "bus_timing.read_delay_ms": "ms", "bus_timing.read_delay_calls": "count",
    "bus_timing.useful_read_ratio": "ratio",
    "tracefile.encode_ms": "ms", "tracefile.decode_ms": "ms",
    "tracefile.to_trace_ms": "ms", "tracefile.csv_ms": "ms",
    "tracefile.records_read": "count", "tracefile.gaps_read": "count",
    "buffering.push_ms": "ms", "buffering.close_ms": "ms",
    "buffering.records_pushed": "count", "buffering.records_written": "count",
    "buffering.flushes": "count", "buffering.overruns": "count",
    "buffering.written_ratio": "ratio",
    "analysis.ecdf_ms": "ms", "analysis.voltage_effect_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# the exact counts printed by the untraced run as well
EXACT_COUNTS = ("sampler.samples", "buffering.overruns", "buffering.flushes",
                "sensor.register_reads", "workloads.segments")


def environment(seed: int, loadavg) -> dict:
    import numpy
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_model": cpu, "nproc": os.cpu_count(), "loadavg_start": loadavg,
            "seed": seed, "git_commit": git_commit()}


def import_seconds() -> float:
    """Median wall time of fresh interpreters importing numpy and emeter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import suite"], check=True,
                       cwd=Path(__file__).parent, env=env)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class SpeedReference:
    """Timings of a fixed interpreter-bound and numpy-bound kernel."""

    def __init__(self):
        import numpy as np
        self._x = np.random.default_rng(0).normal(size=100_000)
        self.python_s: list[float] = []
        self.numpy_s: list[float] = []

    def sample(self, repeats: int = 3) -> None:
        import numpy as np
        for _ in range(repeats):
            start = time.perf_counter()
            table, acc = {}, 0.0
            for i in range(20_000):
                table[i & 1023] = acc
                acc += (i % 7) * 0.5
            middle = time.perf_counter()
            x = np.sort(self._x)
            np.interp(self._x[:50_000], x, np.cumsum(x))
            end = time.perf_counter()
            self.python_s.append(middle - start)
            self.numpy_s.append(end - middle)

    def scale(self) -> float:
        """Factor from raw host seconds to seconds at the reference speed."""
        return REFERENCE_S / math.sqrt(lower_quartile(self.python_s)
                                       * lower_quartile(self.numpy_s))


class OpRecord:
    __slots__ = ("cycle", "index", "seconds", "traced", "outcome", "problem", "layer")

    def __init__(self, cycle, index, seconds, traced):
        self.cycle, self.index, self.seconds, self.traced = cycle, index, seconds, traced
        self.outcome = None
        self.problem = ""
        self.layer = None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float, min_cycles: int = MIN_CYCLES,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    import spans
    import suite

    workload = suite.WORKLOADS[name]()
    tracer = spans.Tracer() if trace else None
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        setup_times, sweep_ms = [], []
        for k in range(setup_repeats):
            if tracer:
                tracer.begin_op(f"setup{k}")
                spans.install(tracer)
            start = time.perf_counter()
            ops = workload.setup(seed, workdir)
            setup_times.append(time.perf_counter() - start)
            if tracer:
                tracer.unpatch_all()
                sweep_ms.append(tracer.totals["calibration.sweep"] * 1e3)

        speed = SpeedReference()
        records = _loop(workload, ops, seconds, tracer, min_cycles, speed)
        if tracer:
            spans_dir = WORK_ROOT / "spans"
            spans_dir.mkdir(exist_ok=True)
            tracer.dump(spans_dir / f"{name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(workdir)

    first = {r.index: r for r in records if r.cycle == 0}
    failed = [r for r in records if r.problem]
    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "ops_per_cycle": len(ops), "attempted": len(records), "failed": len(failed),
        "problems": sorted({r.problem for r in failed})[:5],
        "digest": _digest(first, len(ops)),
    }
    typical, repeats = _typical([r for r in records if not r.traced])
    op_ms = [typical[i] * 1e3 for i in sorted(typical)]
    outcomes = [(typical[i], r.outcome) for i, r in first.items() if r.outcome]
    host_s = sum(seconds for seconds, _ in outcomes)
    errors = [r.outcome.error_pct for r in first.values()
              if r.outcome and r.outcome.error_pct is not None]
    counts = _per_op_counts([r.outcome.counts for r in first.values() if r.outcome],
                            len(ops))
    result["exact_counts"] = {k: counts[k] for k in EXACT_COUNTS if k in counts}
    result["ops_failed_frac"] = len(failed) / len(records)
    result["op_count"] = len(op_ms)
    result["repeats"] = repeats
    if errors:
        result["energy_error_pct_p50"] = statistics.median(errors)
    raw = {
        "setup_s": import_s + statistics.median(setup_times),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": statistics.quantiles(op_ms, n=10, method="inclusive")[8],
        "sim_s_per_host_s": sum(o.sim_s for _, o in outcomes) / host_s,
        "samples_per_host_s": sum(o.samples for _, o in outcomes) / host_s,
    }
    scale = speed.scale()
    result["speed"] = {"scale": scale,
                       "reference_python_ms": lower_quartile(speed.python_s) * 1e3,
                       "reference_numpy_ms": lower_quartile(speed.numpy_s) * 1e3}
    result["raw_end_to_end"] = raw
    result["end_to_end"] = {
        "setup_s": raw["setup_s"] * scale,
        "op_ms_p50": raw["op_ms_p50"] * scale,
        "op_ms_p90": raw["op_ms_p90"] * scale,
        "sim_s_per_host_s": raw["sim_s_per_host_s"] / scale,
        "samples_per_host_s": raw["samples_per_host_s"] / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        traced = [r for r in records if r.traced]
        result["traced_digest"] = _digest(
            {r.index: r for r in traced if r.cycle == 1}, len(ops))
        result["per_layer"] = _per_layer(traced, counts, len(ops), sweep_ms,
                                         raw["op_ms_p50"], scale)
    return result


def lower_quartile(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def _typical(records) -> tuple[dict, int]:
    """Each op's lower-quartile latency, and the fewest repetitions of any op.

    Under light interference the fastest repetitions track the program's
    own cost; under heavy interference there are no quiet repetitions and
    only a central statistic is stable.  The lower quartile held up in both
    regimes on the machine the benchmark was built on.
    """
    seconds: dict[int, list] = {}
    for r in records:
        seconds.setdefault(r.index, []).append(r.seconds)
    return ({i: lower_quartile(v) for i, v in seconds.items()},
            min(len(v) for v in seconds.values()))


def _loop(workload, ops, seconds, tracer, min_cycles, speed) -> list:
    import spans

    records: list[OpRecord] = []
    first_digest: dict[int, str] = {}
    gc.collect()
    start = time.perf_counter()
    cycle = 0
    while True:
        traced = tracer is not None and cycle % 2 == 1
        for i, op in enumerate(ops):
            if traced:
                tracer.begin_op((cycle, i))
                spans.install(tracer)
            t0 = time.perf_counter()
            try:
                result = workload.run(op)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            rec = OpRecord(cycle, i, time.perf_counter() - t0, traced)
            if traced:
                tracer.unpatch_all()
                rec.layer = (dict(tracer.totals), dict(tracer.selfs), dict(tracer.counts))
            records.append(rec)
            if error:
                rec.problem = error
                continue
            try:
                rec.outcome = workload.inspect(op, result, full=i not in first_digest)
            except Exception as exc:  # a check that cannot even run failed
                rec.problem = f"check raised {type(exc).__name__}: {exc}"
                continue
            rec.problem = rec.outcome.problem
            if i not in first_digest:
                first_digest[i] = rec.outcome.digest
            elif rec.outcome.digest != first_digest[i]:
                rec.problem = "output differs from the first run of the same op"
            if rec.problem:
                print(f"op {cycle}/{i} {op!r} failed: {rec.problem}", file=sys.stderr)
        speed.sample()
        cycle += 1
        elapsed = time.perf_counter() - start
        # traced runs alternate, so count untraced and traced cycles alike
        done = cycle // 2 if tracer else cycle
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and done >= min_cycles):
            return records


def _digest(by_index: dict, n_ops: int) -> str:
    h = hashlib.sha256()
    for i in range(n_ops):
        rec = by_index.get(i)
        h.update((rec.outcome.digest if rec and rec.outcome else "no-output").encode())
    return h.hexdigest()


def _per_op_counts(count_dicts, n_ops: int) -> dict:
    totals: dict[str, float] = {}
    for counts in count_dicts:
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
    return {key: value / n_ops for key, value in totals.items()}


def _per_layer(traced, outcome_counts, n_ops, sweep_ms, untraced_p50, scale) -> dict:
    def layer_ms(pick) -> float:
        values = [pick(r) * 1e3 * scale for r in traced if pick(r) > 0]
        return statistics.median(values) if values else 0.0

    def total(*names):
        return lambda r: sum(r.layer[0].get(n, 0.0) for n in names)

    def self_time(name):
        return lambda r: r.layer[1].get(name, 0.0)

    one_cycle = [r for r in traced if r.cycle == 1]
    tallied = _per_op_counts([r.layer[2] for r in one_cycle], n_ops)
    counts = dict(outcome_counts)
    for key in ("workloads.segments", "buffering.records_written",
                "buffering.overruns", "buffering.flushes",
                "tracefile.records_read", "tracefile.gaps_read"):
        counts[key] = tallied.get(key, 0.0)
    counts["bus_timing.read_delay_calls"] = tallied.get("bus_timing.read_delay", 0.0)
    counts["buffering.records_pushed"] = tallied.get("buffering.push", 0.0)
    reads = counts.get("sensor.register_reads", 0.0)
    pushed = counts["buffering.records_pushed"]
    typical, _ = _typical(traced)
    traced_p50 = statistics.median(typical.values()) * 1e3
    metrics = {
        "workloads.profile_ms": layer_ms(total("workloads.profile")),
        "workloads.reference_ms": layer_ms(total("workloads.reference")),
        "experiment.pipeline_self_ms": layer_ms(self_time("experiment.pipeline")),
        "calibration.sweep_ms": statistics.median(sweep_ms) * scale,
        "calibration.apply_ms": layer_ms(total("calibration.apply")),
        "sampler.energy_ms": layer_ms(total("sampler.energy")),
        "sampler.loop_self_ms": layer_ms(self_time("sampler.loop")),
        "sensor.ms": layer_ms(total("sensor.read_register", "sensor.step")),
        "bus_timing.read_delay_ms": layer_ms(total("bus_timing.read_delay")),
        "bus_timing.useful_read_ratio":
            counts.get("sampler.samples", 0.0) / reads if reads else 0.0,
        "tracefile.encode_ms": layer_ms(total("tracefile.encode")),
        "tracefile.decode_ms": layer_ms(total("tracefile.decode")),
        "tracefile.to_trace_ms": layer_ms(total("tracefile.to_trace")),
        "tracefile.csv_ms": layer_ms(total("tracefile.csv")),
        "buffering.push_ms": layer_ms(total("buffering.push")),
        "buffering.close_ms": layer_ms(total("buffering.close")),
        "buffering.written_ratio":
            counts["buffering.records_written"] / pushed if pushed else 0.0,
        "analysis.ecdf_ms": layer_ms(total("analysis.ecdf")),
        "analysis.voltage_effect_ms": layer_ms(total("analysis.voltage_effect")),
        "cli.self_ms": layer_ms(self_time("cli.main")),
        "trace.overhead_ratio": traced_p50 / untraced_p50,
    }
    for key, unit in PER_LAYER_UNITS.items():
        if unit == "count":
            metrics[key] = float(counts.get(key, 0.0))
    return {key: metrics[key] for key in PER_LAYER_UNITS}


def report(result: dict) -> dict:
    """Print one workload's figures; return its contract metrics."""
    trace = result["trace"]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    values = result["per_layer"] if trace else result["end_to_end"]
    print(f"== {result['workload']} (seed {result['seed']}, trace {trace})")
    for key, unit in units.items():
        extra = (f"  ({result['op_count']} ops, each the lower quartile of "
                 f"{result['repeats']}+ runs)"
                 if key == "op_ms_p90" else "")
        print(f"{key:32s} {values[key]:.6g} {unit}{extra}")
    if "energy_error_pct_p50" in result:
        print(f"{'energy_error_pct_p50':32s} {result['energy_error_pct_p50']:.6g} %")
    print(f"{'ops_failed_frac':32s} {result['ops_failed_frac']:.6g} 1  "
          f"({result['failed']} of {result['attempted']})")
    for key, value in result["exact_counts"].items():
        print(f"{key:32s} {value:.10g} count/op")
    print(f"{'speed_scale':32s} {result['speed']['scale']:.6g} "
          f"(times are scaled by it; raw ones are in the detail line)")
    print(f"{'digest':32s} {result['digest']}")
    if trace:
        print(f"{'traced_digest':32s} {result['traced_digest']}")
    detail = {k: v for k, v in result.items() if k not in ("end_to_end", "per_layer")}
    print(json.dumps({"detail": detail}, sort_keys=True))
    return {key: {"value": values[key], "unit": unit} for key, unit in units.items()}


def main(argv=None) -> int:
    loadavg = list(os.getloadavg())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy  # noqa: F401
        import emeter.calibration
        import suite
    except ImportError as exc:
        print(f"error: cannot import the emeter package from {src}: {exc}",
              file=sys.stderr)
        return 2
    if Path(emeter.__file__).resolve().parent.parent != src:
        print(f"error: emeter was imported from {emeter.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import_s = import_seconds()
    # calibrated 9-bit readings slightly past the fitted range are expected
    warnings.simplefilter("ignore", emeter.calibration.ExtrapolationWarning)

    names = list(suite.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in suite.WORKLOADS for n in names):
        parser.error(f"--workload must be 'all' or one of {sorted(suite.WORKLOADS)}")
    env = environment(args.seed, loadavg)
    print(json.dumps({"environment": env}, sort_keys=True))
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), import_s)
               for n in names]
    metrics = {}
    for result in results:
        for key, value in report(result).items():
            metrics[key if len(results) == 1 else f"{result['workload']}.{key}"] = value
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

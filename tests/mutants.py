"""Re-run the mutation checks that the change log claims.

Each row of :data:`MUTANTS` names a file of the package, an exact piece of
its text, the text to put in its place, and the pytest node ids that must
fail once the edit is made.  For each row the script copies ``src/`` into a
temporary directory, makes the edit in the copy and runs only the row's node
ids, with ``PYTHONPATH`` at the copy; the mutant is caught when pytest
reports a failing test.  The unmutated copy runs every named node id once,
first, and must pass.  A row whose old text does not occur exactly once in
its file fails the script, so a change that moves the text updates the row.

Run it from anywhere, with the test dependencies installed:

    python tests/mutants.py

It exits 0 when the unmutated copy passes and every mutant is caught.
Pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    why: str
    path: str  # relative to the repository root, under src/
    old: str
    new: str
    nodes: tuple


ONE_COUNT_DIFFERENTIAL = ("tests/test_experiment.py::TestOneCount::"
                          "test_readings_are_the_stages_near_count_boundaries")

MUTANTS = [
    Mutant("a profile takes a span whose mode it does not declare",
           "src/emeter/workloads.py",
           "            if span[2] not in declared:\n",
           "            if False:\n",
           ("tests/test_experiment.py::TestDeclaredSleep::"
            "test_span_it_cannot_charge_fails_when_built[undeclared-mode]",
            "tests/test_experiment.py::TestDeclaredSleep::"
            "test_span_it_cannot_charge_fails_when_built[no-mode]")),
    Mutant("a power-save slice stops before the sample at its end",
           "src/emeter/sampler.py",
           'np.searchsorted(timestamps_ns, end_ns, side="right")',
           'np.searchsorted(timestamps_ns, end_ns, side="left")',
           ("tests/test_sampler.py::TestPowerSaveStageOracle::test_flags_equal_oracle",)),
    Mutant("an enter sliver is charged where its interval starts by its awake sample",
           "src/emeter/sampler.py",
           "    for term in (power[j] * (s - ts[j]) * 1e-9)[s > ts[j]].tolist():\n",
           "    for term in (power[j] * (s - ts[j]) * 1e-9).tolist():\n",
           ("tests/test_sampler.py::TestPowerSaveStageOracle::test_hybrid_energy_equals_oracle",)),
    Mutant("an enter sliver runs to the first interval's start, not the last one's by t[j+1]",
           "src/emeter/sampler.py",
           '    k = np.searchsorted(starts, ts[j + 1], side="right") - 1\n',
           '    k = np.minimum(np.searchsorted(starts, ts[j + 1], side="right") - 1, 0)\n',
           ("tests/test_sampler.py::TestHybridEnergy::"
            "test_enter_sliver_is_charged_once[sample-less]",
            "tests/test_sampler.py::TestPowerSaveStageOracle::test_hybrid_energy_equals_oracle")),
    Mutant("an enter sliver skips an interval that starts at its flagged sample",
           "src/emeter/sampler.py",
           '    k = np.searchsorted(starts, ts[j + 1], side="right") - 1\n',
           '    k = np.searchsorted(starts, ts[j + 1], side="left") - 1\n',
           ("tests/test_sampler.py::TestHybridEnergy::"
            "test_enter_sliver_is_charged_once[on-a-sample]",
            "tests/test_sampler.py::TestPowerSaveStageOracle::test_hybrid_energy_equals_oracle")),
    Mutant("a rippled preset has a level within its ripple",
           "src/emeter/workloads.py",
           "sleep_current=10.2e-3,",
           "sleep_current=0.5e-3,",
           ("tests/test_workloads.py::TestGenerateProfile::"
            "test_every_level_exceeds_the_ripple[bcm4343w]",)),
    Mutant("the shunt step stops growing past divider 4",
           "src/emeter/sensor.py",
           "(SHUNT_FULL_SCALE_V * self.pga_divider)",
           "(SHUNT_FULL_SCALE_V * min(self.pga_divider, 4))",
           ("tests/test_sensor.py::TestShuntQuantization::test_step_scales_with_divider",)),
    Mutant("a trace header checks nothing",
           "src/emeter/tracefile.py",
           "    def __post_init__(self):\n"
           "        if self.driver_name not in PROFILES:\n",
           "    def __post_init__(self):\n"
           "        return\n"
           "        if self.driver_name not in PROFILES:\n",
           ("tests/test_tracefile.py::TestHeader::test_header_no_run_could_write_is_not_built",)),
    Mutant("the branch currents run at the network's 5 V, not the pot's supply",
           "src/emeter/calibration.py",
           "            total += pot.v_in / r\n",
           "            total += self.v_in / r\n",
           ("tests/test_calibration.py::TestLoadProgram::test_staircase_stops_at_the_load_top",)),
    Mutant("2500 kHz at 3.3 V is an operating point",
           "src/emeter/bus_timing.py",
           "if self.speed_khz not in READ_DELAYS_US or (self.speed_khz, supply) == (2500, 3.3):",
           "if self.speed_khz not in READ_DELAYS_US:",
           ("tests/test_experiment.py::TestOperatingPoints::test_supported_points_are_the_table",)),
    Mutant("no 9-bit window tiles",
           "src/emeter/bus_timing.py",
           "return self.period_us == conversion_time_us(self.config)",
           "return (self.period_us == conversion_time_us(self.config)\n"
           "                and self.config.resolution_bits == 12)",
           ("tests/test_experiment.py::TestOperatingPoints::test_tiles",)),
    Mutant("a header shunt need not read back as itself",
           "src/emeter/tracefile.py",
           "if not (0 < uohm < 2 ** 32 and round(uohm) / 1e6 == self.config.shunt_resistance):",
           "if not 0 < uohm < 2 ** 32:",
           ("tests/test_tracefile.py::TestHeader::test_header_no_run_could_write_is_not_built",)),
    Mutant("a trace time of 2**63 or more reads",
           "src/emeter/tracefile.py",
           "    elif len(t) and t[-1] >= 2 ** 63:\n",
           "    elif False:\n",
           ("tests/test_analysis_cli.py::TestCli::"
            "test_time_past_int64_names_file_record_and_offset",
            "tests/test_tracefile.py::test_read_trace_accepts_what_trace_accepts")),
    Mutant("trace times are ordered as int64",
           "src/emeter/tracefile.py",
           "    unordered = t[1:] <= t[:-1]\n",
           "    unordered = t[1:].view(np.int64) <= t[:-1].view(np.int64)\n",
           ("tests/test_analysis_cli.py::TestCli::"
            "test_out_of_order_trace_names_file_record_and_offset",)),
    Mutant("a bus range that is not a power of two",
           "src/emeter/sensor.py",
           "VALID_BUS_RANGES = (16.0, 32.0)",
           "VALID_BUS_RANGES = (16.0, 24.0, 32.0)",
           ("tests/test_sensor.py::TestChannelScales::test_bus_ranges_are_powers_of_two",)),
    Mutant("a mode index may be declared twice",
           "src/emeter/sampler.py",
           "        if mode.mode_index in by_index:\n",
           "        if False:\n",
           ("tests/test_experiment.py::TestDeclaredSleep::"
            "test_span_it_cannot_charge_fails_when_built[mode-twice]",
            "tests/test_experiment.py::TestDeclaredSleep::"
            "test_hybrid_energy_refuses_a_mode_declared_twice[currents0]")),
    Mutant("a supply run's window means leave out the ripple part",
           "src/emeter/workloads.py",
           "        return (_window_means(self._currents, bounds_s, window_s),\n",
           "        return (_window_means(self._currents[:1], bounds_s, window_s),\n",
           ("tests/test_workloads.py::TestParts::test_parts_match_merged_form[rpi3-1-12]",)),
    Mutant("the supply part's phase is flipped",
           "src/emeter/workloads.py",
           "(preset.nominal_voltage + np.array([half, -half]))[np.arange(len(grid)) & 1]",
           "(preset.nominal_voltage + np.array([-half, half]))[np.arange(len(grid)) & 1]",
           ("tests/test_workloads.py::TestProfileExact::"
            "test_profile_matches_recorded_digest[rpi3-1]",)),
    Mutant("the power's integral takes each voltage level after its segment",
           "src/emeter/workloads.py",
           "np.cumsum(volts.levels * np.diff(at))",
           "np.cumsum(np.roll(volts.levels, -1) * np.diff(at))",
           ("tests/test_workloads.py::TestExactEnergy::test_energy_is_the_sum_over_segments",)),
    Mutant("the reference integral starts 1 us late",
           "src/emeter/workloads.py",
           "    return float(profile.integral_power(t0, t1))\n",
           "    return float(profile.integral_power(t0 + 1e-6, t1))\n",
           ("tests/test_experiment.py::TestNoiseReach::test_window_energies_add_up[rpi3-9]",)),
    Mutant("the declared peak leaves out the ripple",
           "src/emeter/workloads.py",
           "max(top[s] for s in states) + preset.activity_ripple_a,",
           "max(top[s] for s in states),",
           ("tests/test_workloads.py::TestParts::test_declared_peak_bounds_every_level[cyw43907-1]",)),
    Mutant("a reading draws only within 0.9 of the reach",
           "src/emeter/experiment.py",
           "    return np.flatnonzero(distance <= reach)\n",
           "    return np.flatnonzero(distance <= 0.9 * reach)\n",
           ("tests/test_experiment.py::TestStages::"
            "test_convert_draws_keyed_streams_at_near_readings[9-1]",)),
    Mutant("the reach has no slack for the quantizer's rounding",
           "src/emeter/experiment.py",
           "REACH_SLACK_COUNTS = 2.0 ** -20\n",
           "REACH_SLACK_COUNTS = 0.0\n",
           tuple("tests/test_experiment.py::TestNoiseReach::"
                 f"test_reading_a_reach_below_a_boundary_keeps_count[{case}]"
                 for case in ("9-1-ideal-shunt-0.375-22", "9-1-ideal-bus-0.1-2",
                              "12-8-ideal-bus-0.1-2", "12-8-shield-shunt-0.1-3",
                              "9-8-breakout-shunt-0.375-34"))),
    Mutant("every reading draws, near a count boundary or not",
           "src/emeter/experiment.py",
           "    if sigma > 0 and reach >= 0.5:\n",
           "    if sigma > 0:\n",
           ("tests/test_experiment.py::TestStages::"
            "test_convert_draws_keyed_streams_at_near_readings[9-1]",)),
    Mutant("the warm-up flag counts from the window's first reading, not the run's",
           "src/emeter/sampler.py",
           "flags[:max(DEFAULT_WARMUP_SAMPLES - lo, 0)] |= FLAG_WARMUP",
           "flags[:DEFAULT_WARMUP_SAMPLES] |= FLAG_WARMUP",
           ("tests/test_experiment.py::TestNoiseReach::test_window_energies_add_up[rpi3-9]",)),
    Mutant("the bus draws from the current's stream",
           "src/emeter/experiment.py",
           "(config.bus, options.noise_voltage_v, [options.seed, 1], None))",
           "(config.bus, options.noise_voltage_v, options.seed, None))",
           ("tests/test_experiment.py::TestStages::"
            "test_convert_draws_keyed_streams_at_near_readings[9-1]",)),
    Mutant("the one-count check leaves out the noise's reach",
           "src/emeter/experiment.py",
           "        if np.floor(raw[0]) == np.floor(raw[1]) and not len(_near(raw, reach)):\n",
           "        if np.floor(raw[0]) == np.floor(raw[1]) and not len(\n"
           "                _near(raw, REACH_SLACK_COUNTS)):\n",
           (ONE_COUNT_DIFFERENTIAL,)),
    Mutant("the range of the window means leaves out their rounding",
           "src/emeter/workloads.py",
           "    return low - slack, high + slack\n",
           "    return low, high\n",
           (ONE_COUNT_DIFFERENTIAL,)),
    Mutant("the range of the window means is the first level's",
           "src/emeter/workloads.py",
           "    low, high = float(part.levels.min()), float(part.levels.max())\n",
           "    low, high = float(part.levels[0]), float(part.levels[0])\n",
           (ONE_COUNT_DIFFERENTIAL,)),
    Mutant("a trace keeps its readings unrounded, off the file's micro-units",
           "src/emeter/sampler.py",
           "    np.rint(column, out=column)\n",
           "",
           ("tests/test_experiment.py::TestFileReproducesReport::test_pipeline[cc2650-9]",
            "tests/test_experiment.py::TestFileReproducesReport::test_register_loop[rpi3-12]")),
    Mutant("the divider is picked by the product of peak and shunt, not the channel",
           "src/emeter/experiment.py",
           "        if not SensorConfig(pga_divider=divider).shunt.quantize(max_current_a)[1]:\n",
           "        if max_current_a * SensorConfig.shunt_resistance <= 0.040 * divider:\n",
           tuple("tests/test_experiment.py::TestDividerSelection::"
                 f"test_full_scale_reads_at_its_divider[{d}]" for d in (1, 2, 4))),
    Mutant("a CSV digit group is taken as the value's top one at its boundary",
           "src/emeter/tracefile.py",
           "np.minimum(values, group + 10_000)",
           "np.minimum(values, group + 9_999)",
           ("tests/test_tracefile.py::test_export_csv_equals_per_row_oracle",)),
    Mutant("a CSV value's lowest group prints 0 as blank",
           "src/emeter/tracefile.py",
           '_LOWEST_GROUP[0] = np.frombuffer(b"   0", dtype="<u4")[0]',
           '_LOWEST_GROUP[0] = np.frombuffer(b"    ", dtype="<u4")[0]',
           ("tests/test_tracefile.py::test_export_csv_equals_per_row_oracle",)),
    Mutant("a CSV column has a group too few for a value of 4k + 1 digits",
           "src/emeter/tracefile.py",
           "return (len(str(int(values.max(initial=0)))) + 3) // 4",
           "return (len(str(int(values.max(initial=0)))) + 2) // 4",
           ("tests/test_tracefile.py::test_export_csv_equals_per_row_oracle",)),
]


def run_nodes(copy: Path, nodes) -> subprocess.CompletedProcess:
    """Run pytest on ``nodes`` from the repository, importing the package
    from ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes],
        cwd=ROOT, env=env, capture_output=True, text=True)


def main() -> int:
    begun = time.perf_counter()
    failures = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        originals = {}
        for m in MUTANTS:
            text = originals.setdefault(m.path, (copy / m.path).read_text())
            if text.count(m.old) != 1:
                failures.append(f"stale: {m.why}: the old text occurs "
                                f"{text.count(m.old)} times in {m.path}")
        if failures:
            print("\n".join(failures))
            return 1

        located = subprocess.run(
            [sys.executable, "-c", "import emeter; print(emeter.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            capture_output=True, text=True)
        if not located.stdout.startswith(str(copy)):
            print(f"the package imports from {located.stdout.strip()!r}, not the copy")
            return 1

        nodes = list(dict.fromkeys(node for m in MUTANTS for node in m.nodes))
        baseline = run_nodes(copy, nodes)
        if baseline.returncode != 0:
            print(f"the unmutated copy fails its named nodes:\n{baseline.stdout[-2000:]}")
            return 1
        print(f"unmutated: {len(nodes)} node ids pass")

        for m in MUTANTS:
            target = copy / m.path
            target.write_text(originals[m.path].replace(m.old, m.new))
            try:
                result = run_nodes(copy, m.nodes)
            finally:
                target.write_text(originals[m.path])
            # 1: tests ran and one failed; 2 and up: collection or usage errors
            caught = result.returncode == 1
            print(f"{'caught' if caught else 'SURVIVED'}: {m.why} ({m.path})")
            if not caught:
                failures.append(m.why)
                print(result.stdout[-1500:])
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants caught "
          f"in {time.perf_counter() - begun:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

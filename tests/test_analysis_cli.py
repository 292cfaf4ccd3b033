"""ECDF / voltage-effect analysis and the command-line surface."""

import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emeter
from csv_oracle import export_csv_rows
from ecdf_oracle import ecdf_csv_rows, ecdf_unique
from emeter.analysis import ecdf, ecdf_csv, voltage_effect
from emeter.buffering import BufferPolicy
from emeter.calibration import CalibrationCurve
from emeter.cli import main
from emeter.experiment import ExperimentReport, PipelineOptions, run_experiment
from emeter.sampler import (
    FLAG_POWER_SAVE,
    FLAG_SATURATED,
    FLAG_WARMUP,
    Trace,
    countable_mask,
    _segment_energy,
)
from emeter.tracefile import (
    TraceHeader,
    TraceRecord,
    decode_trace,
    encode_trace,
    load_trace,
)


class TestEcdf:
    def test_single_sample(self):
        xs, ps = ecdf([5e-3])
        assert list(xs) == [5e-3]
        assert list(ps) == [1.0]

    def test_two_samples(self):
        xs, ps = ecdf([3e-3, 1e-3])
        assert np.allclose(xs, [1e-3, 3e-3])
        assert np.allclose(ps, [0.5, 1.0])

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(31)
        values = rng.choice([0.001, 0.002, 0.005, 0.13, 0.4], size=10_000)
        xs, ps = ecdf(values)
        # independent oracle: count of samples at or below each unique value
        uniq = sorted(set(values.tolist()))
        oracle = [(v, np.sum(values <= v) / len(values)) for v in uniq]
        assert np.allclose(xs, [v for v, _ in oracle])
        assert np.allclose(ps, [p for _, p in oracle])
        assert ps[-1] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ecdf([])

    @pytest.mark.parametrize("values, shape", [
        ([[3, 1, np.nan], [1, -0.0, 0.0]], r"\(2, 3\)"), (0.5, r"\(\)")])
    def test_not_one_dimensional_rejected(self, values, shape):
        with pytest.raises(ValueError, match=f"1-D sample, got shape {shape}"):
            ecdf(values)

    def test_csv_shape(self):
        text = ecdf_csv([1e-3, 3e-3])
        lines = text.strip().splitlines()
        assert lines[0] == "current_a,cum_prob"
        assert len(lines) == 3


# a few distinct values per sample, drawn again and again so that runs of
# equal values are common; the specials cover signed zeros, NaN, infinities,
# exponent notation below 1e-4 and from 1e9 up, and negatives
_SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-5, -3.2e-7, 1e-4,
            0.1, -0.25, 1e9, -1e9, 2.5e12, 5e-324]
_VALUE = st.one_of(st.sampled_from(_SPECIAL), st.floats(), st.floats(-1.0, 1.0))


@st.composite
def _samples(draw):
    pool = draw(st.lists(_VALUE, min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))


@settings(max_examples=300, deadline=None)
@given(values=_samples())
@example(values=[4e-3])
@example(values=[0.0, -0.0, 0.0, -0.0, 1e-5])
@example(values=[np.nan, 1.0, -np.nan, np.nan, np.inf, -np.inf])
@example(values=[1e9, 3.3e10, -1e9, 7e-5, 7e-5])
def test_ecdf_equals_unique_oracle(values):
    xs, ps = ecdf(values)
    ref_xs, ref_ps = ecdf_unique(values)
    assert np.array_equal(xs, ref_xs, equal_nan=True)
    assert np.array_equal(np.signbit(xs), np.signbit(ref_xs))
    assert np.array_equal(ps, ref_ps)
    assert ecdf_csv(values) == ecdf_csv_rows(values)


class TestVoltageEffect:
    def test_constant_voltage_zero_delta(self):
        ts = (np.arange(1, 100) * 1e7).astype(np.int64)
        trace = Trace(ts, np.full(99, 5.0), np.linspace(0.1, 0.4, 99),
                      np.zeros(99, dtype=np.uint8))
        assert voltage_effect(trace)["delta_percent"] == pytest.approx(0.0, abs=1e-12)

    def test_hand_built_three_samples(self):
        ts = np.array([0, 1_000_000_000, 2_000_000_000], dtype=np.int64)
        v = np.array([5.0, 4.0, 4.5])
        i = np.array([0.1, 0.3, 0.2])
        trace = Trace(ts, v, i, np.zeros(3, dtype=np.uint8))
        p = v * i
        e_per = (p[0] + p[1]) / 2 + (p[1] + p[2]) / 2
        vm = v.mean()
        pm = vm * i
        e_mean = (pm[0] + pm[1]) / 2 + (pm[1] + pm[2]) / 2
        result = voltage_effect(trace)
        assert result["e_per_sample_j"] == pytest.approx(e_per)
        assert result["e_mean_voltage_j"] == pytest.approx(e_mean)
        assert result["delta_percent"] == pytest.approx(
            abs(e_mean - e_per) / e_per * 100)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.integers(1, 10**9), st.floats(0.0, 20.0), st.floats(-0.1, 2.0),
        st.sampled_from([0, FLAG_WARMUP, FLAG_POWER_SAVE, FLAG_SATURATED,
                         FLAG_WARMUP | FLAG_POWER_SAVE])), min_size=1, max_size=30))
    @example(rows=[(5, 3.3, 0.01, 0)])
    @example(rows=[(5, 3.3, 0.01, 0), (9, 3.2, 0.02, 0)])
    @example(rows=[(5, 3.3, 0.01, FLAG_WARMUP), (9, 3.2, 0.02, FLAG_POWER_SAVE)])
    def test_equals_two_segment_energies(self, rows):
        steps, v, i, flags = map(np.array, zip(*rows))
        trace = Trace(np.cumsum(steps), v, i, flags)
        v, i = trace.bus_voltage, trace.current  # the readings, in whole micro-units
        mask = countable_mask(trace, exclude_power_save=True)
        mean_v = float(np.mean(v[mask])) if mask.any() else 0.0
        ts = trace.timestamps_ns
        result = voltage_effect(trace)
        assert (result["e_per_sample_j"], result["e_mean_voltage_j"],
                result["mean_voltage_v"]) == (_segment_energy(ts, v * i, mask),
                                              _segment_energy(ts, mean_v * i, mask), mean_v)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty trace"):
            voltage_effect(Trace([], [], [], []))

    def test_battery_wifi_delta_in_band(self):
        result = run_experiment("cyw43907", 1, PipelineOptions(seed=0),
                                source="battery")
        delta = voltage_effect(result.trace)["delta_percent"]
        assert 0.2 < delta <= 0.5

    def test_supply_delta_negligible(self):
        result = run_experiment("cyw43907", 1, PipelineOptions(seed=0),
                                source="supply")
        delta = voltage_effect(result.trace)["delta_percent"]
        assert delta < 0.05


class TestReportRoundTrip:
    def test_json_round_trip(self):
        report = ExperimentReport(1.23, 1.25, 1.6, 28000, 0, "complete",
                                  {"driver": "bcm", "speed_khz": 2500})
        assert ExperimentReport.from_json(report.to_json()) == report


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.bin"
    code = main(["sample", "--preset", "cc2650", "--workload", "1",
                 "--trigger", "duration:2", "--duration", "2",
                 "--seed", "3", "--out", str(path)])
    assert code == 0
    return str(path)


class TestCli:
    def test_sample_writes_trace_and_report(self, tmp_path, capsys):
        trace_path = tmp_path / "t.bin"
        report_path = tmp_path / "r.json"
        code = main(["sample", "--preset", "cyw43907", "--workload", "2",
                     "--trigger", "duration:1", "--duration", "1",
                     "--out", str(trace_path), "--report", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "error" in out and "samples" in out
        trace = load_trace(str(trace_path))
        assert len(trace) > 900
        report = ExperimentReport.from_json(report_path.read_text())
        assert report.sample_count == len(trace)
        assert report.config["driver"] == "bcm"

    def test_sample_deterministic_under_seed(self, tmp_path):
        outs = []
        for name in ("a.bin", "b.bin"):
            path = tmp_path / name
            main(["sample", "--preset", "rpizw", "--trigger", "duration:1",
                  "--duration", "1", "--seed", "9", "--out", str(path)])
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_conflicting_trigger_flags_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--trigger", "duration:1", "--trigger", "count:5"])
        assert exc.value.code == 2
        assert "conflicting --trigger flags" in capsys.readouterr().err
        # the parser is built once per process: a flag seen in one call must
        # not count as seen in the next
        assert main(["sample", "--trigger", "duration:0.2", "--duration", "0.2"]) == 0

    def test_zero_duration_is_error(self, capsys):
        code = main(["sample", "--trigger", "duration:0"])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--trigger", "duration:inf"], ["--trigger", "duration:nan"],
        ["--duration", "0"], ["--duration", "-1"], ["--duration", "nan"],
        ["--duration", "inf"],
    ])
    def test_non_finite_or_non_positive_duration_is_error(self, flags, tmp_path, capsys):
        out = tmp_path / "t.bin"
        assert main(["sample", *flags, "--out", str(out)]) == 2
        assert "duration must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,named", [
        (["--duration", "1", "--trigger", "duration:1e300"],
         "trigger spec 'duration:1e300': duration must be finite and positive, "
         "and fit in int64 nanoseconds, got 1e+300"),
        # the profile's dwell loop would build no state at all
        (["--duration", "1e-13"], "got 1e-13"),
    ], ids=["overflow", "under-slack"])
    def test_out_of_range_duration_is_named(self, flags, named, capsys):
        assert main(["sample", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("text,message", [
        ("0 fall\n100 wiggle\n", "bad trigger edge line 2: '100 wiggle'"),
        ("100 rise\n", "edge trigger stream has no start (fall) edge"),
    ])
    def test_edge_file_errors_name_the_file(self, text, message, tmp_path, capsys):
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text(text)
        code = main(["sample", "--duration", "1", "--trigger", f"edges:{edge_file}"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {edge_file}: {message}\n"

    def test_calibration_file_errors_name_the_file(self, tmp_path, capsys):
        curve_path = tmp_path / "curve.txt"
        curve_path.write_text("current_form: linear\n")
        code = main(["sample", "--trigger", "duration:1", "--duration", "1",
                     "--calib", str(curve_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {curve_path}: calibration curve file missing 'current_gain'\n")

    def test_calibration_value_not_a_number_names_key_and_line(self, tmp_path, capsys):
        curve_path = tmp_path / "curve.txt"
        lines = CalibrationCurve("linear", 1.0).serialize().splitlines(keepends=True)
        assert lines[1].startswith("current_gain: ")
        lines[1] = "current_gain: abc\n"
        curve_path.write_text("".join(lines))
        code = main(["sample", "--trigger", "duration:1", "--duration", "1",
                     "--calib", str(curve_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {curve_path}: line 2: current_gain is not a number: 'abc'\n")

    def test_calibration_repeated_key_is_error(self, tmp_path, capsys):
        # the last current_gain used to win silently
        curve_path = tmp_path / "dup.txt"
        lines = CalibrationCurve("linear", 1.0).serialize().splitlines(keepends=True)
        lines.insert(2, "current_gain: 2.0\n")
        curve_path.write_text("".join(lines))
        code = main(["sample", "--preset", "rpi3", "--duration", "1",
                     "--calib", str(curve_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {curve_path}: line 3: current_gain repeats line 2\n")

    def test_calibration_form_it_cannot_apply_is_error(self, tmp_path, capsys):
        curve_path = tmp_path / "curve.txt"
        curve_path.write_text(CalibrationCurve("linear", 1.0).serialize().replace(
            "current_form: linear", "current_form: cubic"))
        code = main(["sample", "--trigger", "duration:1", "--duration", "1",
                     "--calib", str(curve_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {curve_path}: line 1: current_form must be linear or "
            "quadratic, got 'cubic'\n")

    def test_unreliable_operating_point_is_error(self, capsys):
        code = main(["sample", "--supply", "3.3", "--speed", "2500",
                     "--trigger", "duration:1", "--duration", "1"])
        assert code == 2
        # the message every entry point gives for a point the chip cannot sustain
        assert capsys.readouterr().err == (
            "error: bus speed 2500kHz at 3.3V supply is not supported: the speeds are "
            "(200, 500, 800, 2500) kHz, and 2500kHz at 3.3V gives very unreliable bus "
            "communication\n")

    def test_edges_trigger_from_file(self, tmp_path):
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text("0 fall\n500000000 rise\n")
        out = tmp_path / "t.bin"
        code = main(["sample", "--preset", "cc2650", "--duration", "1",
                     "--trigger", f"edges:{edge_file}", "--out", str(out)])
        assert code == 0
        trace = load_trace(str(out))
        assert trace.timestamps_ns.max() <= 500_000_000

    def test_failed_sample_leaves_no_files(self, tmp_path, capsys):
        # the edges open and close between two readings: no sample in the window
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text("900000000 fall\n900000100 rise\n")
        out, report = tmp_path / "t.bin", tmp_path / "r.json"
        code = main(["sample", "--duration", "1", "--trigger", f"edges:{edge_file}",
                     "--out", str(out), "--report", str(report)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no samples inside the trigger window\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.txt"]

    def test_count_inside_warmup_is_usage_error(self, tmp_path, capsys):
        # all five samples would be warm-up: nothing would be integrated
        out = tmp_path / "t.bin"
        code = main(["sample", "--preset", "rpi3", "--trigger", "count:5",
                     "--duration", "1", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "first 5 samples are warm-up" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_bad_trigger_number_names_the_spec(self, capsys):
        assert main(["sample", "--trigger", "count:abc"]) == 2
        assert capsys.readouterr().err == (
            "error: trigger spec 'count:abc': "
            "invalid literal for int() with base 10: 'abc'\n")

    def test_trigger_window_cut_short_by_the_load_is_unterminated(self, capsys):
        # the 1 s load ends before the 2 s trigger window does
        code = main(["sample", "--preset", "rpi3", "--trigger", "duration:2",
                     "--duration", "1"])
        assert code == 0
        assert "status           : unterminated" in capsys.readouterr().out.splitlines()

    def test_duration_alone_sets_the_trigger_window(self, capsys):
        # with no --trigger the window is the load's own --duration
        code = main(["sample", "--preset", "rpi3", "--duration", "2"])
        assert code == 0
        assert "status           : complete" in capsys.readouterr().out.splitlines()

    def test_failed_report_write_removes_trace(self, tmp_path, capsys):
        out = tmp_path / "t.bin"
        code = main(["sample", "--duration", "1", "--trigger", "duration:1",
                     "--out", str(out), "--report", str(tmp_path / "no" / "r.json")])
        assert code == 2
        assert "r.json" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_ecdf_command(self, trace_file, tmp_path, capsys):
        csv_path = tmp_path / "e.csv"
        code = main(["ecdf", trace_file, "--out", str(csv_path), "--gnuplot"])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "current_a,cum_prob"
        assert float(lines[-1].split(",")[1]) == 1.0
        assert (tmp_path / "e.csv.gp").exists()

    def test_gnuplot_script_quotes_the_path(self, trace_file, tmp_path):
        csv_path = tmp_path / "it's.csv"
        assert main(["ecdf", trace_file, "--out", str(csv_path), "--gnuplot"]) == 0
        plot = (tmp_path / "it's.csv.gp").read_text().splitlines()[-1]
        # inside single quotes gnuplot reads '' as one quote
        quoted = str(csv_path).replace("'", "''")
        assert plot == f"plot '{quoted}' every ::1 using 1:2 with steps title 'ECDF'"

    def test_ecdf_gnuplot_needs_out(self, tmp_path, capsys):
        # fails before the trace is read: the path does not exist
        code = main(["ecdf", str(tmp_path / "missing.bin"), "--gnuplot"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --gnuplot needs --out: the script plots the CSV file\n"

    def test_voltage_effect_command(self, trace_file, capsys):
        assert main(["voltage-effect", trace_file]) == 0
        out = capsys.readouterr().out
        assert "delta" in out

    def test_overhead_command(self, capsys):
        code = main(["overhead", "--buffer-power", "1.26", "--write-power",
                     "2.46", "--write-speed", "1.28e6", "--rate", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1.380000" in out

    def test_overhead_rate_too_low_to_replay_is_error(self, capsys):
        # the replay's push times would wrap in the int64 cast
        code = main(["overhead", "--buffer-power", "1", "--write-power", "2",
                     "--write-speed", "1e6", "--rate", "1e-9"])
        assert code == 2
        captured = capsys.readouterr()
        assert "sample rate 1e-09 is too low to replay" in captured.err
        assert captured.out == ""

    def test_overhead_buffer_too_large_to_replay_is_error(self, capsys):
        # 25 fills would replay 2000025 push times, past the budget
        code = main(["overhead", "--buffer-power", "1.26", "--write-power", "2.46",
                     "--write-speed", "1.28e6", "--rate", "1000",
                     "--buffer-samples", "80001"])
        assert code == 2
        captured = capsys.readouterr()
        assert "buffer samples 80001 is too large to replay" in captured.err
        assert captured.out == ""

    def test_overhead_invalid_regime(self, capsys):
        code = main(["overhead", "--buffer-power", "1.0", "--write-power",
                     "2.0", "--write-speed", "100", "--rate", "1000"])
        assert code == 2
        assert "cannot sustain" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, named", [
        ("--buffer-power", "nan", "buffer power nan W"),
        ("--buffer-power", "-1", "buffer power -1.0 W"),
        ("--write-power", "inf", "write power inf W"),
        ("--rate", "nan", "sample rate must be finite and positive, got nan"),
        ("--rate", "inf", "sample rate must be finite and positive, got inf"),
        ("--write-speed", "0", "write speed must be positive, got 0.0"),
        ("--write-speed", "nan", "write speed must be positive, got nan"),
        ("--sample-bits", "0", "got 0 and 1024"),
        ("--buffer-samples", "0", "got 128 and 0"),
    ])
    def test_overhead_bad_value_is_named(self, flag, value, named, capsys):
        values = {"--buffer-power": "1.26", "--write-power": "2.46",
                  "--write-speed": "1.28e6", "--rate": "1000", flag: value}
        argv = ["overhead"] + [item for pair in values.items() for item in pair]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""

    def test_export_csv_command(self, tmp_path, capsys):
        # a slow two-buffer writer drops buffers, so the file carries gap
        # markers, which the oracle skips itself
        path = tmp_path / "gappy.bin"
        options = PipelineOptions(seed=3, resolution_bits=9,
                                  buffering=BufferPolicy("two_buffer", 1024),
                                  write_speed_bps=0.4e6)
        with open(path, "wb") as fh:
            run_experiment("cc2650", 1, options, duration=2.0, trace_fh=fh)
        _, records = decode_trace(path.read_bytes())
        assert sum(record.is_gap for record in records) > 0
        expected = io.StringIO()
        assert export_csv_rows(expected, records) > 1000
        out = tmp_path / "t.csv"
        assert main(["export-csv", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == expected.getvalue().encode()
        capsys.readouterr()
        assert main(["export-csv", str(path)]) == 0
        assert capsys.readouterr().out == expected.getvalue()

    def test_calibrate_command(self, tmp_path, capsys):
        curve_path = tmp_path / "curve.txt"
        code = main(["calibrate", "--out", str(curve_path), "--step-ma", "10"])
        assert code == 0
        from emeter.calibration import CalibrationCurve
        curve = CalibrationCurve.parse(curve_path.read_text())
        assert curve.current_gain == pytest.approx(0.9956, abs=5e-4)

    @pytest.mark.parametrize("flags, named", [
        (["--step-ma", "-1"], "finest step 1.82e-06 A, got -0.001 A"),
        (["--step-ma", "nan"], "got nan A"),
        (["--step-ma", "0.001"], "got 1e-06 A"),
        (["--dwell-ms", "0"], "dwell must be finite and positive, got 0.0 s"),
        (["--max-ma", "0.1"], "minimum output 0.000476 A, got 0.0001 A"),
        (["--dwell-ms", "0.1"], "145 of 160 settling instants have no device "
                                "sample within half the 0.0001 s dwell"),
    ])
    def test_calibrate_bad_input_is_named(self, flags, named, tmp_path, capsys):
        curve_path = tmp_path / "curve.txt"
        assert main(["calibrate", "--out", str(curve_path)] + flags) == 2
        assert named in capsys.readouterr().err
        assert not curve_path.exists()

    def test_calibrate_zero_step_is_error_not_a_hang(self, tmp_path):
        # in a subprocess with a timeout: a regression to an endless
        # staircase fails here instead of hanging the suite
        curve_path = tmp_path / "curve.txt"
        src = str(Path(emeter.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "emeter.cli", "calibrate",
                               "--step-ma", "0", "--out", str(curve_path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert "finest step 1.82e-06 A, got 0.0 A" in proc.stderr
        assert not curve_path.exists()

    def test_sample_with_calibration(self, tmp_path):
        curve_path = tmp_path / "curve.txt"
        main(["calibrate", "--out", str(curve_path), "--step-ma", "10"])
        report_path = tmp_path / "r.json"
        code = main(["sample", "--preset", "bcm4343w", "--trigger",
                     "duration:2", "--duration", "2", "--calib",
                     str(curve_path), "--report", str(report_path)])
        assert code == 0
        report = ExperimentReport.from_json(report_path.read_text())
        assert report.config["calibrated"] is True
        assert report.error_percent < 2.5

    def test_truncated_trace_names_file_and_offset(self, trace_file, capsys):
        size = os.path.getsize(trace_file)
        with open(trace_file, "r+b") as fh:
            fh.truncate(size - 5)  # a trailing 11-byte partial record
        for command in ("export-csv", "ecdf", "voltage-effect"):
            assert main([command, trace_file]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {trace_file}: ")
            assert f"byte offset {size - 16}" in err

    @pytest.mark.parametrize("timestamps,record,offset", [
        ([10, 20, 20, 30], 2, 96),
        # the record index counts the gap markers (None) before it
        ([10, None, None, 20, 20], 4, 128),
        # a file's times are u64: as int64, 2**64 - 1 would be -1, before 5
        ([2 ** 64 - 1, 5], 1, 80),
    ])
    def test_out_of_order_trace_names_file_record_and_offset(self, timestamps, record,
                                                             offset, tmp_path, capsys):
        path = tmp_path / "out_of_order.bin"
        path.write_bytes(encode_trace(TraceHeader(), [
            TraceRecord.gap(0) if t is None else TraceRecord(t, 5_000_000, 1000)
            for t in timestamps]))
        for command in ("export-csv", "ecdf", "voltage-effect"):
            assert main([command, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.err == (f"error: {path}: record {record} at byte offset "
                                    f"{offset}: trace timestamps must be strictly "
                                    "increasing\n")
            assert captured.out == ""

    @pytest.mark.parametrize("timestamps,record,offset", [
        ([5, 2 ** 64 - 1], 1, 80),
        ([None, 2 ** 63, 2 ** 63 + 1], 1, 80),
    ])
    def test_time_past_int64_names_file_record_and_offset(self, timestamps, record,
                                                          offset, tmp_path, capsys):
        path = tmp_path / "far_time.bin"
        path.write_bytes(encode_trace(TraceHeader(), [
            TraceRecord.gap(0) if t is None else TraceRecord(t, 5_000_000, 1000)
            for t in timestamps]))
        for command in ("export-csv", "ecdf", "voltage-effect"):
            assert main([command, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.err == (f"error: {path}: record {record} at byte offset "
                                    f"{offset}: timestamp {timestamps[record]} is not "
                                    "below 2**63 ns\n")
            assert captured.out == ""

    @pytest.mark.parametrize("offset, fmt, value, named", [
        (6, "B", 7, "resolution_bits must be one of (9, 12), got 7"),
        (7, "B", 3, "pga_divider must be one of (1, 2, 4, 8), got 3"),
        (8, "B", 99, "bus_range must be one of (16.0, 32.0), got 99.0"),
        (9, "B", 0, "supply_voltage must be one of (3.3, 5.0), got 0.0"),
        (10, "<I", 0, "shunt resistance must be positive, got 0.0"),
        (14, "8s", b"foo", "unknown driver 'foo'"),
        (14, "8s", b"\xff", "unknown driver '\xff'"),
        (22, "<I", 1234, "bus speed 1234kHz at 5.0V supply"),
        (9, "B", 33, "bus speed 2500kHz at 3.3V supply"),  # the default speed, 2500
        (63, "B", 1, "reserved header bytes 34-63 must be zero"),
    ])
    def test_header_no_run_could_write_names_file_and_field(self, offset, fmt, value,
                                                            named, tmp_path, capsys):
        buf = bytearray(encode_trace(TraceHeader(), [TraceRecord(10, 5_000_000, 1000)]))
        struct.pack_into(fmt, buf, offset, value)
        path = tmp_path / "bad_header.bin"
        path.write_bytes(bytes(buf))
        for command in ("export-csv", "ecdf", "voltage-effect"):
            assert main([command, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: {path}: {named}")
            assert captured.out == ""

    def test_invalid_calibration_gain_is_error(self, tmp_path, capsys):
        curve = CalibrationCurve("linear", 0.0)
        curve_path = tmp_path / "curve.txt"
        curve_path.write_text(curve.serialize())
        out = tmp_path / "t.bin"
        code = main(["sample", "--trigger", "duration:1", "--duration", "1",
                     "--calib", str(curve_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {curve_path}: calibration curve current_gain")
        assert not out.exists()

    def test_circular_buffering_flag(self, tmp_path):
        path = tmp_path / "c.bin"
        code = main(["sample", "--preset", "cc2650", "--trigger", "duration:1",
                     "--duration", "1", "--buffering", "circular",
                     "--out", str(path)])
        assert code == 0
        assert len(load_trace(str(path))) > 900


def test_traced_replay_layers_fire(trace_file, tmp_path, monkeypatch):
    # the replay counterpart of test_experiment's test_traced_layers_fire:
    # perfbench's trace_replay layers read 0 if the CLI stops calling these
    # names through their modules
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import spans

    tracer = spans.Tracer()
    tracer.begin_op(0)
    spans.install(tracer)
    try:
        for argv in (["export-csv", trace_file],
                     ["ecdf", trace_file, "--out", str(tmp_path / "e.csv")],
                     ["voltage-effect", trace_file]):
            assert emeter.cli.main(argv) == 0  # as perfbench calls it
    finally:
        tracer.unpatch_all()
    assert {span[3] for span in tracer.spans} >= {
        "cli.main", "tracefile.to_trace", "tracefile.csv", "analysis.ecdf",
        "analysis.voltage_effect"}

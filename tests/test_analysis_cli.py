"""ECDF / voltage-effect analysis and the command-line surface."""

import io
import json
import os

import numpy as np
import pytest

from emeter.analysis import ecdf, ecdf_csv, voltage_effect
from emeter.calibration import CalibrationCurve
from emeter.cli import main
from emeter.experiment import ExperimentReport, PipelineOptions, run_experiment
from emeter.sampler import Trace
from emeter.tracefile import load_trace


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

    def test_csv_shape(self):
        text = ecdf_csv([1e-3, 3e-3])
        lines = text.strip().splitlines()
        assert lines[0] == "current_a,cum_prob"
        assert len(lines) == 3


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

    def test_zero_duration_is_error(self, capsys):
        code = main(["sample", "--trigger", "duration:0"])
        assert code == 2

    def test_unreliable_operating_point_is_error(self, capsys):
        code = main(["sample", "--supply", "3.3", "--speed", "2500",
                     "--trigger", "duration:1", "--duration", "1"])
        assert code == 2
        assert "unreliable" in capsys.readouterr().err

    def test_edges_trigger_from_file(self, tmp_path):
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text("0 fall\n500000000 rise\n")
        out = tmp_path / "t.bin"
        code = main(["sample", "--preset", "cc2650", "--duration", "1",
                     "--trigger", f"edges:{edge_file}", "--out", str(out)])
        assert code == 0
        trace = load_trace(str(out))
        assert trace.timestamps_ns.max() <= 500_000_000

    def test_ecdf_command(self, trace_file, tmp_path, capsys):
        csv_path = tmp_path / "e.csv"
        code = main(["ecdf", trace_file, "--out", str(csv_path), "--gnuplot"])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "current_a,cum_prob"
        assert float(lines[-1].split(",")[1]) == 1.0
        assert (tmp_path / "e.csv.gp").exists()

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

    def test_overhead_invalid_regime(self, capsys):
        code = main(["overhead", "--buffer-power", "1.0", "--write-power",
                     "2.0", "--write-speed", "100", "--rate", "1000"])
        assert code == 2
        assert "cannot sustain" in capsys.readouterr().err

    def test_export_csv_command(self, trace_file, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["export-csv", trace_file, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "timestamp_ns,bus_mV,current_mA"
        assert len(lines) > 1000

    def test_calibrate_command(self, tmp_path, capsys):
        curve_path = tmp_path / "curve.txt"
        code = main(["calibrate", "--out", str(curve_path), "--step-ma", "10"])
        assert code == 0
        from emeter.calibration import CalibrationCurve
        curve = CalibrationCurve.parse(curve_path.read_text())
        assert curve.current_gain == pytest.approx(0.9956, abs=5e-4)

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

    def test_invalid_calibration_gain_is_error(self, tmp_path, capsys):
        curve = CalibrationCurve("linear", 0.0)
        curve_path = tmp_path / "curve.txt"
        curve_path.write_text(curve.serialize())
        out = tmp_path / "t.bin"
        code = main(["sample", "--trigger", "duration:1", "--duration", "1",
                     "--calib", str(curve_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: calibration curve current_gain")
        assert not out.exists()

    def test_circular_buffering_flag(self, tmp_path):
        path = tmp_path / "c.bin"
        code = main(["sample", "--preset", "cc2650", "--trigger", "duration:1",
                     "--duration", "1", "--buffering", "circular",
                     "--out", str(path)])
        assert code == 0
        assert len(load_trace(str(path))) > 900

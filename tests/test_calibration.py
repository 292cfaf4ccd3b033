"""Programmable load model, sweep pairing and curve fitting."""


import numpy as np
import pytest

from emeter.calibration import (
    CalibrationCurve,
    ExtrapolationWarning,
    LoadProgram,
    LoadStep,
    MeasurementPair,
    PotentiometerModel,
    SwitchNetwork,
    apply_current,
    apply_voltage,
    build_staircase,
    current_resolution,
    fit_current,
    fit_pot_constants,
    fit_voltage,
    pot_resistance,
    run_calibration_sweep,
)
from emeter.experiment import PipelineOptions, device_pipeline
from emeter.workloads import ReferenceMeter


class TestPotentiometer:
    def test_resistance_formula_endpoints(self):
        model = PotentiometerModel(r_max=10000.0, r_wiper=300.0)
        assert pot_resistance(0, model) == pytest.approx(300.0)
        assert pot_resistance(256, model) == pytest.approx(10300.0)
        assert pot_resistance(128, model) == pytest.approx(5000.0 + 300.0)

    def test_code_out_of_range(self):
        model = PotentiometerModel()
        with pytest.raises(ValueError):
            pot_resistance(-1, model)
        with pytest.raises(ValueError):
            pot_resistance(257, model)

    def test_resolution_undefined_at_zero(self):
        with pytest.raises(ValueError):
            current_resolution(0, PotentiometerModel())

    def test_fitted_constants_reproduce_output_figures(self):
        model = PotentiometerModel()
        # minimum output at full code, finest step between top codes
        assert model.min_current == pytest.approx(0.476e-3, rel=1e-6)
        finest = min(current_resolution(x, model) for x in range(1, 257))
        assert finest == pytest.approx(1.82e-6, rel=1e-6)
        # pot branch current stays under the part's 20mA handling limit
        assert model.max_current < 20e-3
        assert model.max_current == pytest.approx(19.1e-3, rel=0.01)

    def test_nominal_10k_cannot_hit_both_figures(self):
        # with the end-to-end resistance pinned at 10k, no wiper value
        # reproduces the published resolution; the joint fit is required
        r_max, r_wiper = fit_pot_constants()
        assert r_max != pytest.approx(10000.0, rel=1e-3)
        nominal = PotentiometerModel(r_max=10000.0,
                                     r_wiper=5.0 / 0.476e-3 - 10000.0)
        assert nominal.min_current == pytest.approx(0.476e-3, rel=1e-6)
        finest = min(current_resolution(x, nominal) for x in range(1, 257))
        assert abs(finest - 1.82e-6) / 1.82e-6 > 0.01

    def test_resolution_monotone_over_codes(self):
        model = PotentiometerModel()
        res = [current_resolution(x, model) for x in range(1, 257)]
        assert all(a >= b for a, b in zip(res, res[1:]))


class TestSwitchNetwork:
    def test_branch_additivity_exact(self):
        pot = PotentiometerModel()
        network = SwitchNetwork()
        base = network.max_current(pot)
        extra = 50.0
        grown = SwitchNetwork(network.branch_resistances + [extra])
        # enabling one more branch adds exactly v_in / r_j
        assert grown.max_current(pot) == base + grown.v_in / extra

    def test_default_bank_tops_out_near_one_amp(self):
        total = SwitchNetwork().max_current(PotentiometerModel())
        assert 0.98 < total <= 1.0

    def test_mask_currents(self):
        network = SwitchNetwork([250.0, 50.0], v_in=5.0)
        assert network.current_for_mask(0b01) == pytest.approx(0.02)
        assert network.current_for_mask(0b10) == pytest.approx(0.10)
        assert network.current_for_mask(0b11) == pytest.approx(0.12)


class TestLoadProgram:
    def test_settling_instants_mid_dwell(self):
        program = LoadProgram([LoadStep(10, 0, 0.05), LoadStep(20, 1, 0.05)])
        assert np.allclose(program.settling_instants_s(), [0.025, 0.075])

    def test_file_round_trip(self):
        program = LoadProgram([LoadStep(10, 0x1F, 0.05), LoadStep(200, 0, 0.02)])
        text = program.serialize()
        back = LoadProgram.parse(text)
        assert back.steps == program.steps

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            LoadProgram.parse("10 zz 50")

    def test_staircase_covers_range_without_gaps(self):
        pot = PotentiometerModel()
        network = SwitchNetwork()
        program = build_staircase(pot, network, step_a=5e-3, max_a=0.8)
        currents = program.programmed_currents(pot, network)
        assert currents.min() <= 1e-3
        assert currents.max() >= 0.78
        assert np.all(np.diff(currents) > 0)
        assert np.max(np.diff(currents)) <= 0.020 + 1e-9


def synthetic_pairs(rng, gain=0.9956, quad=0.0, noise_a=100e-6, n=160,
                    v_offset=0.027, v_noise=1e-3):
    i_a = np.linspace(0.005, 0.8, n)
    i_e = quad * i_a ** 2 + gain * i_a + rng.normal(0, noise_a, n)
    v_a = np.linspace(2.0, 5.5, n)
    v_e = v_a - v_offset + rng.normal(0, v_noise, n)
    return [MeasurementPair(a, e, va, ve, int(k * 1e6))
            for k, (a, e, va, ve) in enumerate(zip(i_a, i_e, v_a, v_e))]


class TestFitting:
    def test_linear_recovery_with_noise(self):
        rng = np.random.default_rng(42)
        curve = fit_current(synthetic_pairs(rng))
        assert curve.current_form == "linear"
        assert curve.current_gain == pytest.approx(0.9956, abs=1e-3)
        assert curve.r_squared >= 0.999

    def test_quadratic_recovery_with_noise(self):
        rng = np.random.default_rng(43)
        curve = fit_current(synthetic_pairs(rng, gain=0.982, quad=0.0074))
        assert curve.current_form == "quadratic"
        assert curve.current_quad == pytest.approx(0.0074, rel=0.05)
        assert curve.current_gain == pytest.approx(0.982, rel=0.05)
        assert curve.r_squared >= 0.999

    def test_noiseless_linear_is_exact(self):
        rng = np.random.default_rng(44)
        curve = fit_current(synthetic_pairs(rng, noise_a=0.0))
        assert curve.current_form == "linear"
        assert curve.rmse_a == pytest.approx(0.0, abs=1e-12)
        assert curve.r_squared == pytest.approx(1.0)

    def test_fit_idempotent_on_own_curve(self):
        rng = np.random.default_rng(45)
        first = fit_current(synthetic_pairs(rng, noise_a=0.0))
        i_a = np.linspace(0.01, 0.8, 40)
        regenerated = [MeasurementPair(a, first.current_gain * a, 5.0, 5.0, 0)
                       for a in i_a]
        second = fit_current(regenerated)
        assert second.current_gain == pytest.approx(first.current_gain, rel=1e-12)

    def test_rank_deficient_rejected(self):
        pairs = [MeasurementPair(0.1, 0.0995, 5.0, 4.97, k) for k in range(20)]
        with pytest.raises(ValueError):
            fit_current(pairs)

    def test_too_few_pairs_rejected(self):
        rng = np.random.default_rng(46)
        with pytest.raises(ValueError):
            fit_current(synthetic_pairs(rng, n=9))

    def test_voltage_offset_recovery(self):
        rng = np.random.default_rng(47)
        curve = fit_voltage(synthetic_pairs(rng))
        assert curve.voltage_offset == pytest.approx(0.027, abs=1e-3)

    def test_forced_forms(self):
        rng = np.random.default_rng(48)
        pairs = synthetic_pairs(rng)
        assert fit_current(pairs, form="linear").current_form == "linear"
        assert fit_current(pairs, form="quadratic").current_form == "quadratic"
        with pytest.raises(ValueError):
            fit_current(pairs, form="cubic")


class TestApplyCalibration:
    def test_linear_inversion(self):
        curve = CalibrationCurve("linear", 0.9956, current_max_a=0.8)
        assert apply_current(curve, 0.49780) == pytest.approx(0.50000, abs=1e-9)

    def test_voltage_offset(self):
        curve = CalibrationCurve("linear", 1.0, voltage_offset=0.027,
                                 voltage_min_v=2.0, voltage_max_v=5.5)
        assert apply_voltage(curve, 5.000) == pytest.approx(5.027)

    def test_round_trip_identity(self):
        curve = CalibrationCurve("quadratic", 0.982, 0.0074, current_max_a=0.8)
        i = np.linspace(1e-4, 0.8, 500)
        forward = curve.current_quad * i ** 2 + curve.current_gain * i
        back = apply_current(curve, forward)
        assert np.max(np.abs(back - i) / i) < 1e-9

    def test_quadratic_inversion_vs_bisection(self):
        curve = CalibrationCurve("quadratic", 0.982, 0.0074, current_max_a=0.8)

        def bisect(target, lo=0.0, hi=0.9):
            for _ in range(200):
                mid = (lo + hi) / 2
                if curve.current_quad * mid ** 2 + curve.current_gain * mid < target:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2

        for i_e in np.linspace(1e-4, curve.output_max_a, 50):
            assert apply_current(curve, float(i_e)) == pytest.approx(
                bisect(float(i_e)), abs=1e-9)

    def test_inversion_monotone(self):
        curve = CalibrationCurve("quadratic", 0.982, 0.0074, current_max_a=0.8)
        grid = apply_current(curve, np.linspace(0.0, curve.output_max_a, 1000))
        assert np.all(np.diff(grid) > 0)

    def test_extrapolation_warns_but_returns(self):
        curve = CalibrationCurve("linear", 0.9956, current_max_a=0.8)
        with pytest.warns(ExtrapolationWarning):
            value = apply_current(curve, 1.0)
        assert value == pytest.approx(1.0 / 0.9956)

    def test_curve_file_round_trip(self):
        curve = CalibrationCurve("quadratic", 0.982, 0.0074, 0.027,
                                 rmse_a=1.5e-4, r_squared=0.99991,
                                 rmse_v=2e-4, current_max_a=0.8,
                                 voltage_min_v=2.0, voltage_max_v=5.5)
        back = CalibrationCurve.parse(curve.serialize())
        assert back == curve

    def test_curve_file_missing_field(self):
        with pytest.raises(ValueError):
            CalibrationCurve.parse("current_form: linear\n")

    @pytest.mark.parametrize("field, value", [
        ("current_gain", "0.0"), ("current_gain", "-0.99"), ("current_gain", "inf"),
        ("current_gain", "nan"), ("voltage_offset", "nan"), ("current_max_a", "-inf"),
    ])
    def test_curve_file_bad_value_rejected(self, field, value):
        text = CalibrationCurve("linear", 0.9956).serialize()
        lines = [f"{field}: {value}" if line.startswith(f"{field}:") else line
                 for line in text.splitlines()]
        with pytest.raises(ValueError, match=field):
            CalibrationCurve.parse("\n".join(lines))


class TestSweep:
    def pipeline(self, **kw):
        return device_pipeline(PipelineOptions(seed=3, **kw))

    def test_constant_load_identical_pairs(self):
        program = LoadProgram([LoadStep(100, 0, 0.05)] * 3)
        pairs = run_calibration_sweep(program, self.pipeline(),
                                      ReferenceMeter())
        assert len(pairs) == 3
        assert len({round(p.i_a, 9) for p in pairs}) == 1
        assert max(p.i_e for p in pairs) - min(p.i_e for p in pairs) < 3e-4

    def test_pairs_monotone_in_programmed_current(self):
        pot = PotentiometerModel()
        network = SwitchNetwork()
        program = build_staircase(pot, network, step_a=20e-3, max_a=0.4)
        pairs = run_calibration_sweep(program, self.pipeline(),
                                      ReferenceMeter(), pot=pot, network=network)
        i_a = [p.i_a for p in pairs]
        assert all(a < b for a, b in zip(i_a, i_a[1:]))

    def test_clock_skew_does_not_change_pairing(self):
        pot = PotentiometerModel()
        network = SwitchNetwork()
        program = build_staircase(pot, network, step_a=40e-3, max_a=0.4,
                                  dwell_s=0.05)
        base = run_calibration_sweep(program, self.pipeline(),
                                     ReferenceMeter(), pot=pot, network=network)
        skewed = run_calibration_sweep(program, self.pipeline(),
                                       ReferenceMeter(), pot=pot,
                                       network=network,
                                       device_clock_skew_ns=5_000_000)
        assert len(base) == len(skewed)
        for a, b in zip(base, skewed):
            assert a.i_a == b.i_a
            assert abs(a.i_e - b.i_e) < 1e-3

    def test_end_to_end_fit_recovers_board_gain(self):
        pot = PotentiometerModel()
        network = SwitchNetwork()
        program = build_staircase(pot, network, step_a=5e-3, max_a=0.8)
        pairs = run_calibration_sweep(program, self.pipeline(board="shield"),
                                      ReferenceMeter(), pot=pot, network=network)
        curve = fit_current(pairs)
        curve = fit_voltage(pairs, curve)
        # quantization pulls the fitted gain a hair under the analog 0.9956
        assert curve.current_gain == pytest.approx(0.9956, abs=2.5e-4)
        assert curve.voltage_offset == pytest.approx(0.027, abs=4e-3)
        assert curve.r_squared > 0.9994

    def test_breakout_board_selects_quadratic(self):
        pot = PotentiometerModel()
        network = SwitchNetwork()
        program = build_staircase(pot, network, step_a=5e-3, max_a=0.8)
        pairs = run_calibration_sweep(program, self.pipeline(board="breakout"),
                                      ReferenceMeter(), pot=pot, network=network)
        curve = fit_current(pairs)
        assert curve.current_form == "quadratic"
        assert curve.current_quad == pytest.approx(0.0074, rel=0.25)
        assert curve.current_gain == pytest.approx(0.982, rel=0.01)

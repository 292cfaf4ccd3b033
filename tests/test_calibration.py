"""Programmable load model, sweep pairing and curve fitting."""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import calibration_oracle as oracle
from emeter.calibration import (
    CalibrationCurve,
    ExtrapolationWarning,
    LoadProgram,
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
from emeter.sampler import Trace
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
        pot = PotentiometerModel()
        network = SwitchNetwork([250.0, 50.0], v_in=5.0)
        program = LoadProgram(np.full(3, 100), np.array([0b01, 0b10, 0b11]), 0.05)
        branches = (program.programmed_currents(pot, network)
                    - pot.v_in / pot_resistance(100, pot))
        assert branches[0] == pytest.approx(0.02)
        assert branches[1] == pytest.approx(0.10)
        assert branches[2] == pytest.approx(0.12)


class TestLoadProgram:
    def test_settling_instants_mid_dwell(self):
        program = LoadProgram(np.array([10, 20]), np.array([0, 1]), 0.05)
        assert np.allclose(program.settling_instants_s(), [0.025, 0.075])

    def test_staircase_covers_range_without_gaps(self):
        pot = PotentiometerModel()
        network = SwitchNetwork()
        program = build_staircase(pot, network, step_a=5e-3, max_a=0.8)
        currents = program.programmed_currents(pot, network)
        assert currents.min() <= 1e-3
        assert currents.max() >= 0.78
        assert np.all(np.diff(currents) > 0)
        assert np.max(np.diff(currents)) <= 0.020 + 1e-9

    @settings(max_examples=150, deadline=None)
    @given(v_in=st.sampled_from([3.3, 5.0]),
           bank=st.lists(st.sampled_from([33.0, 50.0, 100.0, 250.0, 1000.0]),
                         max_size=15),
           step_exp=st.floats(0.0, 4.5), span_frac=st.floats(0.0, 1.0),
           dwell_s=st.floats(1e-4, 1.0))
    def test_staircase_matches_oracle(self, v_in, bank, step_exp, span_frac, dwell_s):
        pot = PotentiometerModel(v_in=v_in)
        network = SwitchNetwork(bank, v_in=v_in)
        step_a = current_resolution(pot.code_count, pot) * 10 ** step_exp
        max_a = pot.min_current + span_frac * min(1.3, 600 * step_a)
        program = build_staircase(pot, network, step_a=step_a, max_a=max_a,
                                  dwell_s=dwell_s)
        steps = oracle.build_staircase(pot, network, step_a, max_a)
        assert list(zip(program.pot_codes.tolist(),
                        program.switch_masks.tolist())) == steps
        currents = program.programmed_currents(pot, network)
        assert currents.tolist() == [oracle.step_current(code, mask, pot, network)
                                     for code, mask in steps]
        edges = np.concatenate([[0.0], np.cumsum([dwell_s] * len(steps))])
        assert program.to_profile(pot, network).edges.tolist() == edges.tolist()
        assert program.settling_instants_s().tolist() == (
            edges[:-1] + np.array([dwell_s] * len(steps)) / 2.0).tolist()

    @pytest.mark.parametrize("kwargs, message", [
        ({"step_a": 0.0}, "finest step 1.82e-06 A, got 0.0 A"),
        ({"step_a": -1e-3}, "got -0.001 A"),
        ({"step_a": float("nan")}, "got nan A"),
        ({"step_a": 1e-6}, "got 1e-06 A"),
        ({"max_a": 1e-4}, "minimum output 0.000476 A, got 0.0001 A"),
        ({"max_a": float("inf")}, "got inf A"),
        ({"dwell_s": 0.0}, "dwell must be finite and positive, got 0.0 s"),
        ({"dwell_s": float("nan")}, "got nan s"),
        ({"step_a": 2e-6, "max_a": 1e3}, "to 1000.0 A in 2e-06 A steps is longer"),
    ])
    def test_bad_staircase_input_named(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            build_staircase(PotentiometerModel(), SwitchNetwork(), **kwargs)


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
        curve = CalibrationCurve("linear", 1.0, voltage_offset=0.027)
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

    @pytest.mark.parametrize("curve", [
        CalibrationCurve("linear", 0.9956, current_max_a=0.8),
        CalibrationCurve("quadratic", 0.982, 0.0074, current_max_a=0.8),
    ], ids=["linear", "quadratic"])
    def test_extrapolation_range_edges(self, curve):
        top = curve.output_max_a
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            empty = apply_current(curve, np.empty(0))
            apply_current(curve, np.array([-1e-12, 0.0, top * (1 + 1e-9)]))
            apply_current(curve, np.array([np.nan, 0.1]))
        assert empty.shape == (0,)
        for outside in (-2e-12, top * (1 + 2e-9)):
            with pytest.warns(ExtrapolationWarning):
                apply_current(curve, np.array([0.1, outside, 0.2]))

    def test_curve_file_round_trip(self):
        curve = CalibrationCurve("quadratic", 0.982, 0.0074, 0.027,
                                 rmse_a=1.5e-4, r_squared=0.99991,
                                 rmse_v=2e-4, current_max_a=0.8)
        back = CalibrationCurve.parse(curve.serialize())
        assert back == curve

    def test_curve_file_with_voltage_range_lines(self):
        # curve files once carried the sweep's voltage range; those lines
        # are ignored, and every other field reads as before
        text = ("current_form: quadratic\ncurrent_gain: 0.982\n"
                "current_quad: 0.0074\nvoltage_offset: 0.027\nrmse_a: 0.00015\n"
                "r_squared: 0.99991\nrmse_v: 0.0002\ncurrent_max_a: 0.8\n"
                "voltage_min_v: 3.2999\nvoltage_max_v: 3.3001\n")
        assert CalibrationCurve.parse(text) == CalibrationCurve(
            "quadratic", 0.982, 0.0074, 0.027, rmse_a=1.5e-4, r_squared=0.99991,
            rmse_v=2e-4, current_max_a=0.8)

    @pytest.mark.parametrize("old, new, message", [
        ("current_form: linear", "current_form: cubic",
         "^line 1: current_form must be linear or quadratic, got 'cubic'$"),
        # apply_current ignores the term on a linear curve; output_max_a counts it
        ("current_quad: 0.0", "current_quad: 0.0074",
         "^line 3: a linear curve has no current_quad, got 0.0074$"),
    ])
    def test_curve_file_form_it_cannot_apply_rejected(self, old, new, message):
        text = CalibrationCurve("linear", 0.9956).serialize()
        assert old in text
        with pytest.raises(ValueError, match=message):
            CalibrationCurve.parse(text.replace(old, new))

    @pytest.mark.parametrize("field", ["current_gain", "rmse_v"])
    def test_curve_file_repeated_key_rejected(self, field):
        # rmse_v has a default, but a file still sets it once
        lines = CalibrationCurve("linear", 1.0).serialize().splitlines()
        first = next(k for k, line in enumerate(lines, 1) if line.startswith(f"{field}:"))
        lines.append(f"{field}: 2.0")
        with pytest.raises(ValueError,
                           match=f"^line {len(lines)}: {field} repeats line {first}$"):
            CalibrationCurve.parse("\n".join(lines))

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
        program = LoadProgram(np.full(3, 100), np.zeros(3, dtype=np.int64), 0.05)
        pairs = run_calibration_sweep(program, self.pipeline(),
                                      ReferenceMeter())
        assert len(pairs) == 3
        assert len({round(p.i_a, 9) for p in pairs}) == 1
        assert max(p.i_e for p in pairs) - min(p.i_e for p in pairs) < 3e-4

    @settings(max_examples=200, deadline=None)
    @given(dwell_s=st.sampled_from([0.002, 0.01, 0.05]),
           offsets=st.lists(st.lists(st.integers(-12, 12), min_size=1, max_size=3),
                            min_size=8, max_size=8))
    def test_pairing_matches_oracle(self, dwell_s, offsets):
        # up to three samples around each instant on a grid of a twentieth of
        # a dwell: an instant may lie halfway between two of them, or have
        # none within half a dwell (ten ticks)
        pot = PotentiometerModel()
        network = SwitchNetwork()
        program = build_staircase(pot, network, step_a=0.1, max_a=0.8,
                                  dwell_s=dwell_s)
        ticks = {20 * k + 10 + o for k, ks in enumerate(offsets) for o in ks}
        ts = np.array(sorted(ticks)) * round(dwell_s * 1e9 / 20)
        trace = Trace(ts, 5.0 - ts * 1e-12, 0.01 + ts * 1e-12, np.zeros(len(ts)))
        expected, unpaired = oracle.pair(
            program.settling_instants_s(), dwell_s, trace,
            program.to_profile(pot, network), ReferenceMeter())

        def sweep():
            return run_calibration_sweep(program, lambda profile: trace,
                                         ReferenceMeter(), pot=pot, network=network)

        if unpaired:
            with pytest.raises(ValueError, match=f"{unpaired} of 8 settling instants"):
                sweep()
        else:
            assert [(p.i_a, p.i_e, p.v_a, p.v_e, p.instant_ns)
                    for p in sweep()] == expected

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
        pipeline = self.pipeline()

        def skewed_pipeline(profile):
            # the device clock runs 5 ms ahead of the reference's
            trace = pipeline(profile)
            trace.timestamps_ns = trace.timestamps_ns + 5_000_000
            return trace

        skewed = run_calibration_sweep(program, skewed_pipeline,
                                       ReferenceMeter(), pot=pot, network=network)
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


class TestCalibrationExact:
    """The default staircase's pairs are pinned bit for bit: a change to any
    programmed level, settling instant, paired sample or reference reading
    fails here."""

    # sha256 over the i_a, i_e, v_a, v_e and instant_ns columns of the pairs
    # of the default staircase (5 mA steps to 0.8 A, 50 ms dwell) at seed 1
    DIGESTS = {
        ("shield", 12):
            "c20449169709f48facfa054341395c2fbc59eaaf7f85627769cbeb148bc981a1",
        ("shield", 9):
            "b6c2350bdf2f6c784d74bcb022f369db8c55561479db022d0994fdad199e862d",
        ("breakout", 12):
            "e70ef1dc1dd9297867c7aeca071f933486fb3220045b23402d67282cd945d048",
        ("breakout", 9):
            "5a4defcd3cf330a39c02d4c29a9aa30c818ead1be90a4ea36f86db802ea0a69b",
    }

    @pytest.mark.parametrize("board, bits", sorted(DIGESTS))
    def test_default_staircase_pairs(self, board, bits):
        pot = PotentiometerModel()
        network = SwitchNetwork()
        program = build_staircase(pot, network, step_a=5e-3, max_a=0.8,
                                  dwell_s=0.05)
        options = PipelineOptions(seed=1, resolution_bits=bits, board=board)
        pairs = run_calibration_sweep(program, device_pipeline(options),
                                      ReferenceMeter(), pot=pot, network=network)
        assert len(pairs) == 160
        h = hashlib.sha256()
        for name in ("i_a", "i_e", "v_a", "v_e"):
            h.update(np.array([getattr(p, name) for p in pairs]).tobytes())
        h.update(np.array([p.instant_ns for p in pairs], dtype=np.int64).tobytes())
        assert h.hexdigest() == self.DIGESTS[board, bits]

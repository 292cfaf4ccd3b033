"""Programmable-load model and least-squares calibration curves.

The load is a digitally-programmed potentiometer in parallel with a bank of
switched fixed resistors.  The potentiometer resistance at code ``x`` is

    R(x) = (x / 2**n) * r_max + r_wiper          0 <= x <= 2**n

so the pot alone fine-tunes currents up to ``v_in / r_wiper`` (just under
20mA), and each enabled branch resistor adds ``v_in / R_j`` on top; the
default branch bank realizes 20mA and 100mA increments up to about 1A at
5V.  The finest programmable current step between adjacent codes is

    I_res(x) = (R(x) - R(x-1)) / (R(x) * R(x-1)) * v_in

The default pot constants are fitted so the minimum output is 0.476mA and
the finest step is 1.82uA at 5V; the nominal 10k end-to-end resistance and
wiper resistance cannot reproduce both figures simultaneously, so both are
fitted jointly (the result stays within the part's tolerance band).

A calibration sweep steps the load through a staircase, records the output
settling instant of every step at mid-dwell, and pairs the device-under-test
sample nearest each instant with the reference meter reading at the same
instant.  Mid-dwell pairing makes the procedure immune to meter clock skew
below half a dwell.  Current curves are fitted through the origin (linear or
quadratic); voltage error is a constant offset.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from emeter.sampler import Trace
from emeter.workloads import LoadProfile, ReferenceMeter


class ExtrapolationWarning(UserWarning):
    """A calibration curve was applied outside its fitted range."""


# --------------------------------------------------------------------------
# Potentiometer + switch network
# --------------------------------------------------------------------------

POT_MIN_OUTPUT_A = 0.476e-3        # published minimum output, at full code
POT_FINEST_RESOLUTION_A = 1.82e-6  # published finest step, between top codes
POT_V_IN = 5.0
POT_BITS = 8


def fit_pot_constants() -> tuple[float, float]:
    """Solve (r_max, r_wiper) from the two published output figures.

    The minimum output pins the full-code resistance ``S = v_in /
    min_output``; the finest step (between the two highest codes) then fixes
    the per-code increment ``delta = r_max / 2**n``:

        finest = delta * v_in / (S * (S - delta))
    """
    full_scale = POT_V_IN / POT_MIN_OUTPUT_A
    delta = (POT_FINEST_RESOLUTION_A * full_scale ** 2
             / (POT_V_IN + POT_FINEST_RESOLUTION_A * full_scale))
    r_max = (2 ** POT_BITS) * delta
    r_wiper = full_scale - r_max
    return r_max, r_wiper


_DEFAULT_R_MAX, _DEFAULT_R_WIPER = fit_pot_constants()


@dataclass(frozen=True)
class PotentiometerModel:
    n_bits: int = POT_BITS
    r_max: float = _DEFAULT_R_MAX
    r_wiper: float = _DEFAULT_R_WIPER
    v_in: float = POT_V_IN

    @property
    def code_count(self) -> int:
        return 2 ** self.n_bits

    @property
    def max_current(self) -> float:
        """Pot branch current at code 0 (wiper resistance only)."""
        return self.v_in / self.r_wiper

    @property
    def min_current(self) -> float:
        return self.v_in / (self.r_max + self.r_wiper)


def pot_resistance(code: int, model: PotentiometerModel) -> float:
    """Programmed resistance at ``code``; exact formula value."""
    if not 0 <= code <= model.code_count:
        raise ValueError(f"code {code} out of range [0, {model.code_count}]")
    return (code / model.code_count) * model.r_max + model.r_wiper


def pot_current(code: int, model: PotentiometerModel) -> float:
    return model.v_in / pot_resistance(code, model)


def current_resolution(code: int, model: PotentiometerModel) -> float:
    """Output current step between ``code`` and ``code - 1``."""
    if code <= 0:
        raise ValueError("resolution is undefined at code 0")
    r_hi = pot_resistance(code, model)
    r_lo = pot_resistance(code - 1, model)
    return (r_hi - r_lo) / (r_hi * r_lo) * model.v_in


def default_branch_set() -> list[float]:
    """Branch resistors realizing 20mA and 100mA increments at 5V."""
    return [250.0] * 4 + [50.0] * 9


@dataclass
class SwitchNetwork:
    """Parallel branch resistors behind on/off switches."""

    branch_resistances: list[float] = field(default_factory=default_branch_set)
    v_in: float = 5.0

    def branch_current(self, index: int) -> float:
        return self.v_in / self.branch_resistances[index]

    def current_for_mask(self, mask: int) -> float:
        total = 0.0
        for j, r in enumerate(self.branch_resistances):
            if mask & (1 << j):
                total += self.v_in / r
        return total

    def max_current(self, pot: PotentiometerModel) -> float:
        """Pot at code 0 plus every branch enabled."""
        total = pot.max_current
        for r in self.branch_resistances:
            total += self.v_in / r
        return total


# --------------------------------------------------------------------------
# Load program
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LoadStep:
    pot_code: int
    switch_mask: int
    dwell_s: float


@dataclass
class LoadProgram:
    """Ordered load steps plus their mid-dwell settling instants."""

    steps: list[LoadStep]

    def settling_instants_s(self) -> np.ndarray:
        starts = np.concatenate([[0.0], np.cumsum([s.dwell_s for s in self.steps])])
        return starts[:-1] + np.array([s.dwell_s for s in self.steps]) / 2.0

    def programmed_currents(self, pot: PotentiometerModel,
                            network: SwitchNetwork) -> np.ndarray:
        return np.array([pot_current(s.pot_code, pot)
                         + network.current_for_mask(s.switch_mask)
                         for s in self.steps])

    def to_profile(self, pot: PotentiometerModel,
                   network: SwitchNetwork) -> LoadProfile:
        levels = self.programmed_currents(pot, network)
        dwells = [s.dwell_s for s in self.steps]
        edges = np.concatenate([[0.0], np.cumsum(dwells)])
        return LoadProfile(edges, levels, np.full(len(levels), pot.v_in))


def _code_for_current(target_a: float, pot: PotentiometerModel) -> int:
    """Pot code whose output is nearest the target (clamped to range)."""
    target_a = min(max(target_a, pot.min_current), pot.max_current)
    resistance = pot.v_in / target_a
    code = round((resistance - pot.r_wiper) * pot.code_count / pot.r_max)
    return int(min(max(code, 0), pot.code_count))


def build_staircase(pot: PotentiometerModel, network: SwitchNetwork,
                    step_a: float = 5e-3, max_a: float = 0.8,
                    dwell_s: float = 0.05) -> LoadProgram:
    """Monotone staircase: coarse branch steps, pot fine-tuning in between."""
    branches = network.branch_resistances
    steps = []
    target = pot.min_current
    while target <= max_a + 1e-12:
        remainder = target
        mask = 0
        # enable branches largest-current-first until the pot can cover the rest
        for j in sorted(range(len(branches)), key=lambda j: -network.branch_current(j)):
            amp = network.branch_current(j)
            if remainder - amp >= pot.min_current - 1e-9:
                mask |= 1 << j
                remainder -= amp
        code = _code_for_current(remainder, pot)
        steps.append(LoadStep(code, mask, dwell_s))
        target += step_a
    return LoadProgram(steps)


# --------------------------------------------------------------------------
# Sweep pairing
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementPair:
    """Reference and device readings taken at the same settling instant."""

    i_a: float  # reference current
    i_e: float  # device current
    v_a: float  # reference voltage
    v_e: float  # device voltage
    instant_ns: int


def run_calibration_sweep(program: LoadProgram,
                          device_pipeline: Callable[[LoadProfile], Trace],
                          reference: ReferenceMeter,
                          pot: Optional[PotentiometerModel] = None,
                          network: Optional[SwitchNetwork] = None) -> list[MeasurementPair]:
    """Drive both meters through the program and pair mid-dwell readings.

    Both meters are started by the same edge, so instants are shared; a
    device clock skew below half a dwell shifts which raw sample is nearest
    an instant but never re-pairs readings across steps.
    """
    pot = pot or PotentiometerModel()
    network = network or SwitchNetwork(v_in=pot.v_in)
    profile = program.to_profile(pot, network)
    trace = device_pipeline(profile)
    if len(trace) == 0:
        raise ValueError("device pipeline produced an empty trace")
    instants_s = program.settling_instants_s()
    dwells = np.array([s.dwell_s for s in program.steps])
    device_ts = trace.timestamps_ns

    pairs = []
    for instant, dwell in zip(instants_s, dwells):
        instant_ns = int(round(instant * 1e9))
        idx = int(np.searchsorted(device_ts, instant_ns))
        candidates = [i for i in (idx - 1, idx) if 0 <= i < len(trace)]
        best = min(candidates, key=lambda i: abs(int(device_ts[i]) - instant_ns))
        if abs(int(device_ts[best]) - instant_ns) > dwell * 1e9 / 2.0:
            warnings.warn(f"no device sample within half a dwell of t={instant:.4f}s;"
                          " pair skipped", stacklevel=2)
            continue
        pairs.append(MeasurementPair(
            i_a=float(reference.sample_current(profile, instant)),
            i_e=float(trace.current[best]),
            v_a=float(reference.sample_voltage(profile, instant)),
            v_e=float(trace.bus_voltage[best]),
            instant_ns=instant_ns))
    return pairs


# --------------------------------------------------------------------------
# Curve fitting
# --------------------------------------------------------------------------

@dataclass
class CalibrationCurve:
    """Fitted device->actual correction: current through origin, voltage offset.

    The stored coefficients describe the device response ``i_e = quad *
    i_a**2 + gain * i_a``; applying the curve inverts that response.
    """

    current_form: str            # 'linear' | 'quadratic'
    current_gain: float          # device counts per actual ampere
    current_quad: float = 0.0
    voltage_offset: float = 0.0  # actual = device + offset
    rmse_a: float = 0.0
    r_squared: float = 1.0
    rmse_v: float = 0.0
    current_max_a: float = 0.8
    voltage_min_v: float = 0.0
    voltage_max_v: float = 5.5

    @property
    def output_max_a(self) -> float:
        """Largest device reading the fit covers."""
        return (self.current_quad * self.current_max_a ** 2
                + self.current_gain * self.current_max_a)

    def serialize(self) -> str:
        lines = [f"current_form: {self.current_form}"]
        lines += [f"{name}: {getattr(self, name)!r}" for name in _CURVE_NUMBERS]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "CalibrationCurve":
        seen = {"rmse_v": (0, "0.0")}  # key -> (line number, value)
        for lineno, line in enumerate(text.splitlines(), 1):
            key, _, value = line.split("#", 1)[0].partition(":")
            if key.strip():
                seen[key.strip()] = (lineno, value.strip())
        try:
            form = seen["current_form"][1]
            numbers = {name: seen[name] for name in _CURVE_NUMBERS}
        except KeyError as exc:
            raise ValueError(f"calibration curve file missing {exc}")
        values = {}
        for name, (lineno, value) in numbers.items():
            try:
                values[name] = float(value)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: {name} is not a number: {value!r}") from None
        for name, value in values.items():
            if not np.isfinite(value):
                raise ValueError(f"calibration curve {name} is {value!r}")
        if values["current_gain"] <= 0:
            raise ValueError("calibration curve current_gain must be positive, "
                             f"got {values['current_gain']!r}")
        return cls(current_form=form, **values)


_CURVE_NUMBERS = [f.name for f in fields(CalibrationCurve) if f.name != "current_form"]

#: RMSE must improve by this fraction before the quadratic form is preferred.
QUADRATIC_RMSE_IMPROVEMENT = 0.25


def _fit_stats(i_e: np.ndarray, predicted: np.ndarray) -> tuple[float, float]:
    residuals = i_e - predicted
    rmse = float(np.sqrt(np.mean(residuals ** 2)))
    ss_tot = float(np.sum((i_e - i_e.mean()) ** 2))
    r_squared = 1.0 - float(np.sum(residuals ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return rmse, r_squared


def fit_current(pairs: Sequence[MeasurementPair],
                form: str = "auto") -> CalibrationCurve:
    """Least-squares fit of the device current response, through the origin."""
    if len(pairs) < 10:
        raise ValueError("need at least 10 measurement pairs")
    i_a = np.array([p.i_a for p in pairs])
    i_e = np.array([p.i_e for p in pairs])
    span = i_a.max() - i_a.min()
    if i_a.max() <= 0 or span < 0.5 * i_a.max():
        raise ValueError("pairs must span at least half the measured range")
    if np.allclose(span, 0):
        raise ValueError("rank-deficient sweep: all pairs at the same current")

    gain_lin = float(np.dot(i_e, i_a) / np.dot(i_a, i_a))
    rmse_lin, r2_lin = _fit_stats(i_e, gain_lin * i_a)

    design = np.column_stack([i_a ** 2, i_a])
    (quad, gain_quad), *_ = np.linalg.lstsq(design, i_e, rcond=None)
    rmse_quad, r2_quad = _fit_stats(i_e, design @ [quad, gain_quad])

    if form == "linear":
        use_quad = False
    elif form == "quadratic":
        use_quad = True
    elif form == "auto":
        use_quad = rmse_quad < (1.0 - QUADRATIC_RMSE_IMPROVEMENT) * rmse_lin
    else:
        raise ValueError(f"unknown fit form {form!r}")

    if use_quad:
        return CalibrationCurve(current_form="quadratic",
                                current_gain=float(gain_quad),
                                current_quad=float(quad),
                                rmse_a=rmse_quad, r_squared=r2_quad,
                                current_max_a=float(i_a.max()))
    return CalibrationCurve(current_form="linear", current_gain=gain_lin,
                            rmse_a=rmse_lin, r_squared=r2_lin,
                            current_max_a=float(i_a.max()))


def fit_voltage(pairs: Sequence[MeasurementPair],
                curve: Optional[CalibrationCurve] = None) -> CalibrationCurve:
    """Fit the constant voltage offset ``v_a = v_e + c`` into ``curve``."""
    if not pairs:
        raise ValueError("no pairs to fit")
    v_a = np.array([p.v_a for p in pairs])
    v_e = np.array([p.v_e for p in pairs])
    offset = float(np.mean(v_a - v_e))
    rmse = float(np.sqrt(np.mean((v_a - (v_e + offset)) ** 2)))
    if curve is None:
        curve = CalibrationCurve(current_form="linear", current_gain=1.0)
    curve.voltage_offset = offset
    curve.rmse_v = rmse
    curve.voltage_min_v = float(v_e.min())
    curve.voltage_max_v = float(v_e.max())
    return curve


def apply_current(curve: CalibrationCurve, i_e):
    """Invert the fitted response: device reading -> actual current.

    Linear fits divide by the gain; quadratic fits take the root of
    ``quad * i**2 + gain * i - i_e`` that lies in the fitted range (written
    in a form stable as ``quad`` approaches zero).  Readings outside the
    fitted output range raise :class:`ExtrapolationWarning` but still return
    the extrapolated value.
    """
    i_e_arr = np.asarray(i_e, dtype=float)
    limit = curve.output_max_a
    if np.any(i_e_arr < -1e-12) or np.any(i_e_arr > limit * (1 + 1e-9)):
        warnings.warn("device reading outside the calibrated range; "
                      "value extrapolated", ExtrapolationWarning, stacklevel=2)
    if curve.current_form == "linear" or curve.current_quad == 0.0:
        result = i_e_arr / curve.current_gain
    else:
        disc = np.sqrt(curve.current_gain ** 2 + 4.0 * curve.current_quad * i_e_arr)
        result = 2.0 * i_e_arr / (curve.current_gain + disc)
    if np.isscalar(i_e) or np.ndim(i_e) == 0:
        return float(result)
    return result


def apply_voltage(curve: CalibrationCurve, v_e):
    result = np.asarray(v_e, dtype=float) + curve.voltage_offset
    if np.isscalar(v_e) or np.ndim(v_e) == 0:
        return float(result)
    return result

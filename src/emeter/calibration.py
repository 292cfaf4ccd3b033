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

A load program is a table: one pot code and one switch mask per step, and
one dwell for every step.  The staircase program aims at evenly spaced
targets; its levels rise only where the step is coarse enough for the
pot's code grid, and repeat above the load's top.  A calibration sweep
drives the program, takes the output settling instant of every step at
mid-dwell, and pairs the device-under-test sample nearest each instant with
the reference meter reading at the same instant.  Mid-dwell pairing makes
the procedure immune to meter clock skew below half a dwell.  Current curves
are fitted through the origin (linear or quadratic); voltage error is a
constant offset.
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
    r_max: float = _DEFAULT_R_MAX
    r_wiper: float = _DEFAULT_R_WIPER
    v_in: float = POT_V_IN

    @property
    def code_count(self) -> int:
        return 2 ** POT_BITS

    @property
    def max_current(self) -> float:
        """Pot branch current at code 0 (wiper resistance only)."""
        return self.v_in / self.r_wiper

    @property
    def min_current(self) -> float:
        return self.v_in / (self.r_max + self.r_wiper)


def pot_resistance(code, model: PotentiometerModel):
    """Programmed resistance at ``code``, one code or an array of them; exact
    formula value."""
    if not np.all((0 <= code) & (code <= model.code_count)):
        raise ValueError(f"code {code} out of range [0, {model.code_count}]")
    return (code / model.code_count) * model.r_max + model.r_wiper


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
    """Parallel branch resistors behind on/off switches, driven at the
    pot's ``v_in``: the load has one supply, the pot's."""

    branch_resistances: list[float] = field(default_factory=default_branch_set)
    # the supply the default bank is sized for, not a setting; the
    # acceptance gate reads it
    v_in = POT_V_IN

    def max_current(self, pot: PotentiometerModel) -> float:
        """Pot at code 0 plus every branch enabled."""
        total = pot.max_current
        for r in self.branch_resistances:
            total += pot.v_in / r
        return total


# --------------------------------------------------------------------------
# Load program
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LoadProgram:
    """The load as a table: a pot code and a switch mask per step (bit ``j``
    enables branch ``j``), every step held for the same dwell."""

    pot_codes: np.ndarray
    switch_masks: np.ndarray
    dwell_s: float

    def _edges_s(self) -> np.ndarray:
        dwells = np.full(len(self.pot_codes), self.dwell_s)
        return np.concatenate([[0.0], np.cumsum(dwells)])

    def settling_instants_s(self) -> np.ndarray:
        """Mid-dwell instant of every step."""
        return self._edges_s()[:-1] + self.dwell_s / 2.0

    def programmed_currents(self, pot: PotentiometerModel,
                            network: SwitchNetwork) -> np.ndarray:
        """Pot current plus the enabled branches, added in branch order."""
        masks = np.asarray(self.switch_masks)
        branches = np.zeros(len(masks))
        for j, r in enumerate(network.branch_resistances):
            branches += np.where(masks >> j & 1, pot.v_in / r, 0.0)
        return pot.v_in / pot_resistance(np.asarray(self.pot_codes), pot) + branches

    def to_profile(self, pot: PotentiometerModel,
                   network: SwitchNetwork) -> LoadProfile:
        levels = self.programmed_currents(pot, network)
        return LoadProfile(self._edges_s(), levels, np.full(len(levels), pot.v_in))


def build_staircase(pot: PotentiometerModel, network: SwitchNetwork,
                    step_a: float = 5e-3, max_a: float = 0.8,
                    dwell_s: float = 0.05) -> LoadProgram:
    """Staircase from the pot's minimum output to ``max_a`` in ``step_a``
    steps: coarse branch steps, the pot fine-tuning in between.

    Each target enables branches largest-current-first (ties in bank order)
    while the pot can still cover the rest, then takes the pot code nearest
    that rest.  The levels rise only where ``step_a`` is coarse enough for
    the code grid around them.  The staircase stops at the load's top,
    ``network.max_current``, where ``max_a`` lies above it.  A step below
    the pot's finest step would round adjacent targets to one code and is
    rejected.
    """
    finest = current_resolution(pot.code_count, pot)
    if not finest <= step_a < np.inf:
        raise ValueError(f"staircase step must be at least the pot's finest step "
                         f"{finest:.3g} A, got {step_a!r} A")
    if not pot.min_current <= max_a < np.inf:
        raise ValueError(f"staircase maximum must be finite and at least the pot's "
                         f"minimum output {pot.min_current:.3g} A, got {max_a!r} A")
    if not 0 < dwell_s < np.inf:
        raise ValueError(f"dwell must be finite and positive, got {dwell_s!r} s")
    n_steps = (max_a - pot.min_current) / step_a
    if n_steps > network.max_current(pot) / finest:
        raise ValueError(f"a staircase to {max_a!r} A in {step_a!r} A steps is longer "
                         "than the load's range in its finest steps")
    # summed in order, as a running target would be
    targets = np.cumsum(np.r_[pot.min_current, np.full(int(n_steps) + 2, step_a)])
    remainder = targets[targets <= min(max_a, network.max_current(pot)) + 1e-12]
    masks = np.zeros(len(remainder), dtype=np.int64)
    amps = pot.v_in / np.asarray(network.branch_resistances, dtype=float)
    for j in np.argsort(-amps, kind="stable"):
        take = remainder - amps[j] >= pot.min_current - 1e-9
        masks |= take.astype(np.int64) << j
        remainder = np.where(take, remainder - amps[j], remainder)
    resistance = pot.v_in / np.clip(remainder, pot.min_current, pot.max_current)
    codes = np.round((resistance - pot.r_wiper) * pot.code_count / pot.r_max)
    codes = np.clip(codes, 0, pot.code_count).astype(np.int64)
    return LoadProgram(codes, masks, dwell_s)


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
    an instant but never re-pairs readings across steps.  Each instant takes
    the nearer of the device samples around it (the earlier on a tie); an
    instant with no device sample within half a dwell fails the sweep.
    """
    pot = pot or PotentiometerModel()
    network = network or SwitchNetwork()
    profile = program.to_profile(pot, network)
    trace = device_pipeline(profile)
    if len(trace) == 0:
        raise ValueError("device pipeline produced an empty trace")
    instants_s = program.settling_instants_s()
    instant_ns = np.round(instants_s * 1e9).astype(np.int64)
    ts = trace.timestamps_ns
    after = np.minimum(np.searchsorted(ts, instant_ns), len(ts) - 1)
    before = np.maximum(after - 1, 0)
    earlier = np.abs(ts[before] - instant_ns) <= np.abs(ts[after] - instant_ns)
    best = np.where(earlier, before, after)
    unpaired = np.count_nonzero(np.abs(ts[best] - instant_ns) > program.dwell_s * 1e9 / 2)
    if unpaired:
        raise ValueError(f"{unpaired} of {len(instant_ns)} settling instants have no "
                         f"device sample within half the {program.dwell_s!r} s dwell")
    columns = (reference.sample_current(profile, instants_s), trace.current[best],
               reference.sample_voltage(profile, instants_s), trace.bus_voltage[best],
               instant_ns)
    return [MeasurementPair(*row) for row in zip(*(c.tolist() for c in columns))]


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
        seen = {}  # key -> (line number, value)
        for lineno, line in enumerate(text.splitlines(), 1):
            key, _, value = line.split("#", 1)[0].partition(":")
            key = key.strip()
            if key in seen:
                raise ValueError(f"line {lineno}: {key} repeats line {seen[key][0]}")
            if key:
                seen[key] = (lineno, value.strip())
        seen.setdefault("rmse_v", (0, "0.0"))
        try:
            form_line, form = seen["current_form"]
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
        if form not in ("linear", "quadratic"):
            raise ValueError(f"line {form_line}: current_form must be linear or quadratic, "
                             f"got {form!r}")
        if form == "linear" and values["current_quad"] != 0:
            raise ValueError(f"line {numbers['current_quad'][0]}: a linear curve has "
                             f"no current_quad, got {values['current_quad']!r}")
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
    return curve


def apply_current(curve: CalibrationCurve, i_e):
    """Invert the fitted response: device reading -> actual current.

    Linear fits divide by the gain; quadratic fits take the root of
    ``quad * i**2 + gain * i - i_e`` that lies in the fitted range (written
    in a form stable as ``quad`` approaches zero).  Readings outside the
    fitted output range raise :class:`ExtrapolationWarning` but still return
    the extrapolated value.
    """
    i_e = np.asarray(i_e, dtype=float)
    # min() and max() propagate NaN, which fails both tests
    if i_e.size and (i_e.min() < -1e-12 or i_e.max() > curve.output_max_a * (1 + 1e-9)):
        warnings.warn("device reading outside the calibrated range; "
                      "value extrapolated", ExtrapolationWarning, stacklevel=2)
    if curve.current_form == "linear" or curve.current_quad == 0.0:
        return i_e / curve.current_gain
    disc = 4.0 * curve.current_quad * i_e
    disc += curve.current_gain ** 2
    disc = np.sqrt(disc)  # a 0-d reading gives a scalar, which has no out=
    disc += curve.current_gain
    amps = 2.0 * i_e
    amps /= disc
    return amps


def apply_voltage(curve: CalibrationCurve, v_e):
    return np.asarray(v_e, dtype=float) + curve.voltage_offset

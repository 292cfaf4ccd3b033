"""Trace analysis: empirical CDFs and the voltage-neglect comparison.

:func:`ecdf` returns the distinct values of a sample in ascending order and,
for each, the fraction of the sample at or below it; the last fraction is
exactly 1.  Its steps are those of ``np.unique`` on the sorted sample: a run
of equal values is one step, valued at the run's first element (so a run of
``-0.0`` and ``0.0`` keeps whichever sorted first), and all NaNs, which sort
last, make one step.  :func:`ecdf_csv` prints it as the line
``current_a,cum_prob`` and one ``%.9g,%.9g`` line per step: nine
significant digits, exponent notation below 1e-4 and from 1e9 up, and
``nan``, ``inf`` and ``-0`` spelled as Python spells them.
"""

from __future__ import annotations

import numpy as np

from emeter.sampler import Trace, countable_mask, trapezoid, trapezoid_steps


def ecdf(values) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: unique sorted values and cumulative probabilities.

    Each observation carries probability 1/n; duplicates collapse onto one
    step.  The last probability is exactly 1.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"ECDF needs a 1-D sample, got shape {values.shape}")
    if len(values) == 0:
        raise ValueError("empty sample set has no ECDF")
    xs = np.sort(values)
    n = len(xs)
    first = np.empty(n, dtype=bool)  # first element of each run of equals
    first[0] = True
    np.not_equal(xs[1:], xs[:-1], out=first[1:])
    if np.isnan(xs[-1]):  # NaN != NaN: keep only the first NaN's step
        first[np.searchsorted(xs, xs[-1], side="left") + 1:] = False
    # probability at a value = fraction of samples <= value
    counts = np.append(np.flatnonzero(first)[1:], n)
    return xs[first], counts / n


def ecdf_csv(values) -> str:
    """The ECDF of ``values`` as CSV text, every row formatted in one call."""
    xs, ps = ecdf(values)
    flat = np.column_stack((xs, ps)).ravel().tolist()
    return "current_a,cum_prob\n" + ("%.9g,%.9g\n" * len(xs)) % tuple(flat)


def gnuplot_script(csv_path: str) -> str:
    """A gnuplot script that plots the ECDF CSV at ``csv_path`` to ecdf.png.

    The path goes inside single quotes, where gnuplot reads ``''`` as one
    quote.
    """
    quoted = csv_path.replace("'", "''")
    return "\n".join([
        "set datafile separator ','",
        "set ylabel 'cumulative probability'",
        "set xlabel 'current (A)'",
        "set output 'ecdf.png'",
        "set terminal png size 800,500",
        f"plot '{quoted}' every ::1 using 1:2 with steps title 'ECDF'",
    ]) + "\n"


def voltage_effect(trace: Trace) -> dict:
    """Energy with per-sample voltage vs. the mean voltage substituted.

    Returns both energies and the relative delta percent.  Uses the same
    countable-sample gating as the device energy estimate.
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    mask = countable_mask(trace, exclude_power_save=True)
    mean_v = float(np.mean(trace.bus_voltage[mask])) if mask.any() else 0.0
    # the gated trapezoid twice, over steps and pairs computed once
    steps = trapezoid_steps(trace.timestamps_ns, mask)
    e_per_sample = trapezoid(trace.power(), *steps)
    e_mean = trapezoid(mean_v * trace.current, *steps)
    delta = (abs(e_mean - e_per_sample) / e_per_sample * 100.0
             if e_per_sample > 0 else 0.0)
    return {
        "e_per_sample_j": e_per_sample,
        "e_mean_voltage_j": e_mean,
        "mean_voltage_v": mean_v,
        "delta_percent": delta,
    }

"""Trace analysis: empirical CDFs and the voltage-neglect comparison."""

from __future__ import annotations

import numpy as np

from emeter.sampler import Trace, _countable_mask, _segment_energy


def ecdf(values) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: unique sorted values and cumulative probabilities.

    Each observation carries probability 1/n; duplicates collapse onto one
    step.  The last probability is exactly 1.
    """
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        raise ValueError("empty sample set has no ECDF")
    xs = np.sort(values)
    n = len(xs)
    uniq, first_index = np.unique(xs, return_index=True)
    # probability at a value = fraction of samples <= value
    counts = np.append(first_index[1:], n)
    return uniq, counts / n


def ecdf_csv(values) -> str:
    xs, ps = ecdf(values)
    lines = ["current_a,cum_prob"]
    lines += [f"{x:.9g},{p:.9g}" for x, p in zip(xs, ps)]
    return "\n".join(lines) + "\n"


def gnuplot_script(csv_path: str) -> str:
    """A gnuplot script that plots the ECDF CSV at ``csv_path`` to ecdf.png."""
    return "\n".join([
        "set datafile separator ','",
        "set ylabel 'cumulative probability'",
        "set xlabel 'current (A)'",
        "set output 'ecdf.png'",
        "set terminal png size 800,500",
        f"plot '{csv_path}' every ::1 using 1:2 with steps title 'ECDF'",
    ]) + "\n"


def voltage_effect(trace: Trace) -> dict:
    """Energy with per-sample voltage vs. the mean voltage substituted.

    Returns both energies and the relative delta percent.  Uses the same
    countable-sample gating as the device energy estimate.
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    mask = _countable_mask(trace, exclude_power_save=True)
    ts = trace.timestamps_ns
    mean_v = float(np.mean(trace.bus_voltage[mask])) if mask.any() else 0.0
    e_per_sample = _segment_energy(ts, trace.power(), mask)
    e_mean = _segment_energy(ts, mean_v * trace.current, mask)
    delta = (abs(e_mean - e_per_sample) / e_per_sample * 100.0
             if e_per_sample > 0 else 0.0)
    return {
        "e_per_sample_j": e_per_sample,
        "e_mean_voltage_j": e_mean,
        "mean_voltage_v": mean_v,
        "delta_percent": delta,
    }

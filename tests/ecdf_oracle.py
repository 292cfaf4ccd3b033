"""ECDF by ``np.unique`` and per-row f-strings: the reference that
``analysis.ecdf`` and ``analysis.ecdf_csv`` must reproduce exactly.

This is the ECDF as the package shipped it before the one-sort version:
``np.unique`` finds the steps of the sorted sample, and each CSV row is its
own f-string.  It is slow but plainly matches the documented output.
"""

from __future__ import annotations

import numpy as np


def ecdf_unique(values) -> tuple[np.ndarray, np.ndarray]:
    """Unique sorted values and the fraction of ``values`` at or below each."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    uniq, first_index = np.unique(xs, return_index=True)
    counts = np.append(first_index[1:], n)
    return uniq, counts / n


def ecdf_csv_rows(values) -> str:
    """``current_a,cum_prob`` and one ``x,p`` row per step, each ``.9g``."""
    xs, ps = ecdf_unique(values)
    lines = ["current_a,cum_prob"]
    lines += [f"{x:.9g},{p:.9g}" for x, p in zip(xs, ps)]
    return "\n".join(lines) + "\n"

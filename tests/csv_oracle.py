"""Per-row CSV formatter: the reference that ``tracefile.export_csv`` must
reproduce byte for byte.

This is the export as the package shipped it before the batched formatter:
one f-string per data row, the reading divided by 1000.0 and printed with
``:.3f``.  It is slow but plainly matches the documented format.
"""

from __future__ import annotations

import numpy as np

from emeter.tracefile import RECORD, is_gap


def export_csv_rows(fh, records) -> int:
    """Write ``timestamp_ns,bus_mV,current_mA`` rows; returns the row count."""
    records = np.asarray(records, dtype=RECORD)
    rows = records[~is_gap(records)].tolist()
    fh.write("timestamp_ns,bus_mV,current_mA\n" + "".join(
        f"{t},{uv / 1000.0:.3f},{ua / 1000.0:.3f}\n" for t, uv, ua in rows))
    return len(rows)

"""Analysis and terminal rendering of experiment results.

The benchmark harness prints paper-style tables; this module adds the
pieces a user pokes at results with: ASCII sparklines for quick
terminal inspection, cumulative sums, and CSV export for real plotting
tools.  Used by the CLI (``--dump``) and the examples.
"""

from __future__ import annotations

import csv
from typing import Dict, List, Sequence, TextIO, Tuple

__all__ = ["sparkline", "cumulative", "write_series_csv"]

#: (x, y) sample pairs.
Series = Sequence[Tuple[float, float]]

_BLOCKS = " .:-=+*#%@"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A one-line intensity profile of a value sequence."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    step = max(len(values) // width, 1)
    out = []
    for i in range(0, len(values), step):
        level = int((values[i] - lo) / span * (len(_BLOCKS) - 1))
        out.append(_BLOCKS[min(level, len(_BLOCKS) - 1)])
    return "".join(out)


def cumulative(series: Series) -> List[Tuple[float, float]]:
    """Running sum of y values in x order (the paper's nack-range plots)."""
    total = 0.0
    out = []
    for x, y in sorted(series):
        total += y
        out.append((x, total))
    return out


def write_series_csv(
    out: TextIO, named_series: Dict[str, Series], x_name: str = "t"
) -> int:
    """Write several (x, y) series as long-form CSV rows
    ``series,x,y`` — the friendliest shape for pandas/gnuplot.

    Returns the number of data rows written.
    """
    writer = csv.writer(out)
    writer.writerow(["series", x_name, "value"])
    rows = 0
    for name in sorted(named_series):
        for x, y in sorted(named_series[name]):
            writer.writerow([name, f"{x:.6f}", f"{y:.6f}"])
            rows += 1
    return rows

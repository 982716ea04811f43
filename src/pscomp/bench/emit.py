"""Deterministic CSV/JSON emission of result tables.

Number cells use 17-significant-digit scientific notation with '.' as the
decimal separator; lines end with LF; rerunning the same configuration
produces byte-identical files (no timestamps, fixed row order).
"""

import json
import math
from dataclasses import dataclass, field


@dataclass
class ResultTable:
    schema: list
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    #: Cells of every row that does not give its own.
    shared: dict = field(default_factory=dict)

    def add_row(self, **cells):
        cells = {**self.shared, **cells}
        unknown = set(cells) - set(self.schema)
        if unknown:
            raise KeyError(f"cells outside schema: {sorted(unknown)}")
        self.rows.append(tuple(cells.get(col) for col in self.schema))


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.16e}"
    return str(value)


def emit(table, out_base):
    """Write ``<out_base>.csv`` and a ``<out_base>.json`` metadata sidecar.

    Returns the two paths.  I/O errors propagate verbatim.
    """
    csv_path = f"{out_base}.csv"
    json_path = f"{out_base}.json"
    with open(csv_path, "w", newline="\n") as fh:
        fh.write(",".join(table.schema) + "\n")
        for row in table.rows:
            fh.write(",".join(_format_cell(cell) for cell in row) + "\n")
    with open(json_path, "w", newline="\n") as fh:
        json.dump(table.metadata, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return csv_path, json_path

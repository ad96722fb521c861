"""Rectangular scan results with a reproducible CSV rendering.

CSV layout: `#`-prefixed metadata lines (one `key = value` per line, echoing
the full effective configuration), a header row, then comma-separated rows
with every number rendered at 17 significant digits so reruns diff
byte-identically and values round-trip exactly. An infinite cell raises
OverflowError; NaN is allowed (it marks a check that did not run).
"""

from dataclasses import dataclass

import numpy as np


def format_number(value: float) -> str:
    return f"{value:.17g}"


@dataclass(frozen=True, eq=False)
class ScanTable:
    """One float64 array of rows x columns; `rows` may be any 2-D sequence."""

    column_names: tuple
    rows: np.ndarray
    metadata: tuple  # ordered (key, value-string) pairs
    failure: str = ""  # why the run's own check failed; not part of the CSV

    def __post_init__(self):
        width = len(self.column_names)
        try:
            rows = np.asarray(self.rows, dtype=float).reshape(len(self.rows), width)
        except ValueError as err:
            raise ValueError(f"ragged rows: expected {width} columns each") from err
        infinite = np.isinf(rows)
        if infinite.any():
            column = self.column_names[np.argwhere(infinite)[0, 1]]
            raise OverflowError(f"column '{column}' is infinite")
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(
            self, "metadata", tuple((str(k), str(v)) for k, v in self.metadata)
        )

    def column(self, name: str) -> list:
        return self.rows[:, self.column_names.index(name)].tolist()

    def write(self, stream) -> None:
        for key, value in self.metadata:
            stream.write(f"# {key} = {value}\n")
        stream.write(",".join(self.column_names) + "\n")
        # one %-format over every cell: "%.17g" % x is f"{x:.17g}" (format_number)
        line = ",".join(["%.17g"] * len(self.column_names)) + "\n"
        stream.write(line * len(self.rows) % tuple(self.rows.ravel().tolist()))

"""Rectangular scan results with a reproducible CSV rendering.

CSV layout: `#`-prefixed metadata lines (one `key = value` per line, echoing
the full effective configuration), a header row, then comma-separated rows
with every number rendered at 17 significant digits so reruns diff
byte-identically and values round-trip exactly. An infinite cell raises
OverflowError; NaN is allowed (it marks a check that did not run).
"""

import io
import math
from dataclasses import dataclass


def format_number(value: float) -> str:
    return f"{value:.17g}"


@dataclass(frozen=True)
class ScanTable:
    column_names: tuple
    rows: tuple
    metadata: tuple  # ordered (key, value-string) pairs
    failure: str = ""  # why the run's own check failed; not part of the CSV

    def __post_init__(self):
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(
            self, "rows", tuple(tuple(float(v) for v in row) for row in self.rows)
        )
        object.__setattr__(
            self, "metadata", tuple((str(k), str(v)) for k, v in self.metadata)
        )
        width = len(self.column_names)
        for row in self.rows:
            if len(row) != width:
                raise ValueError(
                    f"ragged row: expected {width} columns, got {len(row)}"
                )
            if math.inf in row or -math.inf in row:
                column = self.column_names[[abs(v) for v in row].index(math.inf)]
                raise OverflowError(f"column '{column}' is infinite")

    def column(self, name: str) -> list:
        idx = self.column_names.index(name)
        return [row[idx] for row in self.rows]

    def write(self, stream) -> None:
        for key, value in self.metadata:
            stream.write(f"# {key} = {value}\n")
        stream.write(",".join(self.column_names) + "\n")
        for row in self.rows:
            stream.write(",".join(format_number(v) for v in row) + "\n")

    def to_csv(self) -> str:
        buf = io.StringIO()
        self.write(buf)
        return buf.getvalue()

"""The one CSV/JSON renderer behind every table the package writes (CLI
reports, training traces, topology snapshots, beam patterns): floats at 12
significant digits, everything else via str."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Table:
    """Result table rendered to CSV or JSON with stable formatting."""

    columns: tuple
    rows: list

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            lines = [",".join(self.columns)]
            for row in self.rows:
                lines.append(",".join(_cell(v) for v in row))
            return "\n".join(lines) + "\n"
        if fmt == "json":
            payload = [dict(zip(self.columns, (_jsonable(v) for v in row))) for row in self.rows]
            return json.dumps(payload, indent=2, sort_keys=True) + "\n"
        raise ValueError(f"unknown format {fmt!r}")


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return _cell(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value

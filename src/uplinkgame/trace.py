"""Run trace rows, their CSV serialization, and run summaries.

The CSV schema is fixed: one header row naming the fields, floats with 17
significant digits so files round-trip bit-exactly, associations as
hyphen-joined 1-based AP labels. Inner-loop evaluations carry their inner
iteration index; outer-level records use inner_iter = -1.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

from .errors import ValidationError

TRACE_HEADER = (
    "outer_iter",
    "inner_iter",
    "system_potential",
    "sum_rate",
    "residual_inf_norm",
    "association",
    "switch_count",
)


@dataclass(frozen=True)
class TraceRow:
    outer_iter: int
    inner_iter: int  # -1 for outer-level records
    system_potential: float
    sum_rate: float
    residual_inf_norm: float
    association: str  # hyphen-joined 1-based AP labels
    switch_count: int


def association_label(association) -> str:
    return "-".join(str(int(a) + 1) for a in association)


# One CSV record: csv.writer's bytes (its terminator is \r\n, and no field
# here needs quoting), floats as format(x, ".17g").
_LINE = "%d,%d,%.17g,%.17g,%.17g,%s,%d\r\n"


def write_trace(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n")
        fh.writelines(
            _LINE % (r.outer_iter, r.inner_iter, r.system_potential, r.sum_rate,
                     r.residual_inf_norm, r.association, r.switch_count)
            for r in rows
        )


def read_trace(path) -> list[TraceRow]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != TRACE_HEADER:
            raise ValidationError(f"{path}: unexpected trace header {header}")
        for rec in reader:
            rows.append(
                TraceRow(
                    outer_iter=int(rec[0]),
                    inner_iter=int(rec[1]),
                    system_potential=float(rec[2]),
                    sum_rate=float(rec[3]),
                    residual_inf_norm=float(rec[4]),
                    association=rec[5],
                    switch_count=int(rec[6]),
                )
            )
    return rows


def inner_rows(outer_iter: int, association, inner_trace) -> list[TraceRow]:
    """Expand an InnerTrace into CSV rows under one outer iteration."""
    label = association_label(association)
    columns = (inner_trace.potential, inner_trace.sum_rate, inner_trace.residual_inf)
    return [
        TraceRow(outer_iter, j, potential, total, res_inf, label, 0)
        for j, (potential, total, res_inf) in enumerate(zip(*(c.tolist() for c in columns)))
    ]


def write_summary(path, summary: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")


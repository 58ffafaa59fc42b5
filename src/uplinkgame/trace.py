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


def outer_row(outer_iter, association, potential, sum_rate, residual_inf=0.0,
              switch_count=0) -> TraceRow:
    """An outer-level record: inner_iter -1, the association as its label."""
    return TraceRow(outer_iter, -1, potential, sum_rate, residual_inf,
                    association_label(association), switch_count)


# One CSV record: csv.writer's bytes (its terminator is \r\n, and no field
# here needs quoting), floats as format(x, ".17g").
_LINE = "%d,%d,%.17g,%.17g,%.17g,%s,%d\r\n"
_TYPES = (int, int, float, float, float, str, int)  # what read_trace converts back


def write_trace(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n")
        fh.writelines(
            _LINE % (r.outer_iter, r.inner_iter, r.system_potential, r.sum_rate,
                     r.residual_inf_norm, r.association, r.switch_count)
            for r in rows
        )


def read_trace(path) -> list[TraceRow]:
    """The rows of a trace file, each field converted with the type that
    write_trace wrote it from. No header, a wrong one, a record of the wrong
    length or a field that does not convert raises a ValidationError naming
    the file and the line."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if tuple(next(reader, ())) != TRACE_HEADER:
                raise ValueError(f"expected the header {','.join(TRACE_HEADER)}")
            for rec in reader:
                if len(rec) != len(_TYPES):
                    raise ValueError(f"expected {len(_TYPES)} fields, got {len(rec)}")
                rows.append(TraceRow(*[kind(text) for kind, text in zip(_TYPES, rec)]))
        except (ValueError, csv.Error) as exc:
            raise ValidationError(f"{path}, line {max(reader.line_num, 1)}: {exc}") from None
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


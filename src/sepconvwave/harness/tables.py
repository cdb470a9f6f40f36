"""Result tables: threshold classification, CSV and aligned text."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from ..records import atomic_write
from .variants import REGULARIZATION_COLUMNS

__all__ = [
    "ResultCell",
    "classify_table",
    "format_text_table",
    "results_to_csv",
    "parse_results_csv",
    "emit_tables",
    "atomic_write_text",
]

CSV_HEADER = "variant,regularization,metric,value,class"


@dataclass(frozen=True)
class ResultCell:
    variant: str
    regularization: str
    metric: str
    value: float
    klass: str = ""


def _fmt_value(x: float) -> str:
    # repr of a float round-trips exactly through float()
    return repr(float(x))


def classify_table(cells: list[ResultCell], threshold: float) -> list[ResultCell]:
    """Mark one cell best: the lowest value that is not NaN, first wins ties.

    Remaining cells are acceptable when at or below the threshold,
    unacceptable otherwise (NaN included).  Input order is row-major and
    preserved.
    """
    numbers = [i for i, cell in enumerate(cells) if not math.isnan(cell.value)]
    best_index = min(numbers, key=lambda i: (cells[i].value, i), default=None)
    out = []
    for i, cell in enumerate(cells):
        if i == best_index:
            klass = "best"
        elif cell.value <= threshold:
            klass = "acceptable"
        else:
            klass = "unacceptable"
        out.append(ResultCell(cell.variant, cell.regularization, cell.metric, cell.value, klass))
    return out


def results_to_csv(cells: list[ResultCell]) -> str:
    lines = [CSV_HEADER]
    for c in cells:
        lines.append(f"{c.variant},{c.regularization},{c.metric},{_fmt_value(c.value)},{c.klass}")
    return "\n".join(lines) + "\n"


def parse_results_csv(text: str) -> list[ResultCell]:
    """Cells of a results CSV; a malformed or repeated row raises, naming its line."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError(f"malformed results CSV (expected header {CSV_HEADER!r})")
    cells, seen = [], set()
    for n, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != 5:
            raise ValueError(f"line {n}: {len(fields)} fields, expected 5: {ln!r}")
        variant, reg, metric, value, klass = fields
        if (variant, reg, metric) in seen:
            raise ValueError(f"line {n}: repeated cell {variant},{reg},{metric}")
        seen.add((variant, reg, metric))
        try:
            number = float(value)
        except ValueError:
            raise ValueError(f"line {n}: value {value!r} is not a float") from None
        cells.append(ResultCell(variant, reg, metric, number, klass))
    return cells


def format_text_table(metric: str, cells: list[ResultCell]) -> str:
    """Aligned table, variants as rows and regularization columns.

    The best cell is starred, unacceptable cells are flagged with ``!``.
    """
    variants = []
    for c in cells:
        if c.variant not in variants:
            variants.append(c.variant)
    columns = [r for r in REGULARIZATION_COLUMNS if any(c.regularization == r for c in cells)]
    lookup = {(c.variant, c.regularization): c for c in cells}

    def cell_text(v, r):
        c = lookup.get((v, r))
        if c is None:
            return "-"
        mark = "*" if c.klass == "best" else ("!" if c.klass == "unacceptable" else " ")
        return f"{mark}{c.value:.4g}"

    name_w = max([len(v) for v in variants] + [len(metric)])
    col_w = max(
        [len(cell_text(v, r)) for v in variants for r in columns] + [len(r) for r in columns]
    )
    header = metric.ljust(name_w) + " | " + " | ".join(r.rjust(col_w) for r in columns)
    rule = "-" * len(header)
    rows = [
        v.ljust(name_w) + " | " + " | ".join(cell_text(v, r).rjust(col_w) for r in columns)
        for v in variants
    ]
    return "\n".join([header, rule] + rows) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Replace ``path`` with ``text``; a write that fails midway leaves the previous file."""
    with atomic_write(path) as fh:
        fh.write(text.encode())


def emit_tables(cells: list[ResultCell], threshold: float, outdir) -> dict[str, Path]:
    """Write one classified CSV plus an aligned text table per metric.

    Classification is recomputed from values, so re-emission of parsed
    results is idempotent.  Each file is replaced atomically: a write
    that fails midway leaves the previous file as it was.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    metrics = []
    for c in cells:
        if c.metric not in metrics:
            metrics.append(c.metric)
    classified = []
    texts = []
    for metric in metrics:
        table = classify_table([c for c in cells if c.metric == metric], threshold)
        classified.extend(table)
        texts.append(format_text_table(metric, table))
    paths = {"csv": outdir / "results.csv", "text": outdir / "tables.txt"}
    atomic_write_text(paths["csv"], results_to_csv(classified))
    atomic_write_text(paths["text"], "\n".join(texts))
    return paths

"""Benchmark harness: generate theory families, time the engine, emit CSV.

Timing covers ``compute_extension``: validation, the engine run and the
decoded store, an ``Extension`` that keeps the store's columns and names
and builds no tag set.  The ``decided`` and ``undetermined`` columns
count the store's bytes after the clock (``Extension.counts``), so no tag
set is built at all.  Generation and parsing are kept outside the clock.
Rows come out in deterministic (family, size, variant) order.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass

from .conflicts import Variant
from .engine import compute_extension
from .generate import generate_theory
from .model import theory_size

CSV_COLUMNS = ("family", "size", "variant", "wall_time_ms", "decided", "undetermined")


@dataclass
class BenchRecord:
    family: str
    size: int
    variant: str
    wall_time_ms: float
    decided: int
    undetermined: int

    def row(self):
        ms = f"{self.wall_time_ms:.3f}"
        return (self.family, self.size, self.variant, ms, self.decided, self.undetermined)


def run_benchmarks(families, sizes, seed: int = 0, variants=None, theories=None) -> list:
    """One record per (family, size, variant), deterministic for a seed.

    ``theories`` maps (family, size) to the theory ``generate_theory``
    made for ``seed``, when the caller already holds it; the others are
    generated here.
    """
    records = []
    variants = list(variants or Variant)
    theories = theories or {}
    for family in families:
        for size in sizes:
            key = (family, size)
            theory = theories[key] if key in theories else generate_theory(family, size, seed)
            achieved = theory_size(theory)
            for variant in variants:
                start = time.perf_counter()
                ext = compute_extension(theory, variant)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                records.append(
                    BenchRecord(family, achieved, str(variant), elapsed_ms, *ext.counts())
                )
    return records


def to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(record.row())
    return buf.getvalue()


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(size).

    The growth exponent witnessed by a benchmark series; the engine's
    worst-case bound is degree five, so measured slopes must stay below it.
    """
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(max(ms, 1e-6)) for _, ms in points]
    n = len(points)
    if n < 2:
        return 0.0
    mx, my = sum(xs) / n, sum(ys) / n
    denom = sum((x - mx) ** 2 for x in xs)
    if denom == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom

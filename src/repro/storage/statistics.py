"""Column and table statistics.

Statistics serve three masters in this system:

* the cost model (cardinality estimation for join ordering and cost-based
  steering feedback, paper Sec. 4.2);
* the sleeper agents (most-common values power the why-not diagnosis of
  literal-format mismatches, e.g. ``'CA'`` vs ``'California'``);
* the simulated agents themselves, whose "exploring specific columns"
  activity (Figure 3) issues the stats queries these objects summarise.

Statistics are derived state of one table state: :func:`table_stats`
computes them from the state's column segments (the same segments scans
read, :class:`~repro.storage.table.Segment`) and memoizes them on the
state, so they are recomputed once per write, not once per reader, and
a fork or restore that shares the state shares them too.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.storage.table import StorageCounters, Table, TableSnapshot
from repro.storage.types import DataType, Value

#: Number of most-common values retained per column.
MCV_SIZE = 10
#: Number of equi-width histogram buckets for numeric columns.
HISTOGRAM_BUCKETS = 10


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics for one column."""

    column: str
    data_type: DataType
    row_count: int
    null_count: int
    distinct_count: int
    min_value: Value
    max_value: Value
    most_common: tuple[tuple[Value, int], ...]
    histogram: tuple[int, ...] = ()

    @property
    def null_fraction(self) -> float:
        return self.null_count / self.row_count if self.row_count else 0.0

    def selectivity_equals(self, literal: Value) -> float:
        """Estimated fraction of rows where column = literal."""
        if self.row_count == 0:
            return 0.0
        if literal is None:
            return 0.0
        for value, count in self.most_common:
            if value == literal:
                return count / self.row_count
        if self.distinct_count == 0:
            return 0.0
        # Uniformity over the non-MCV remainder.
        mcv_rows = sum(count for _, count in self.most_common)
        remainder_rows = max(self.row_count - self.null_count - mcv_rows, 0)
        remainder_distinct = max(self.distinct_count - len(self.most_common), 1)
        return max(remainder_rows / remainder_distinct, 0.5) / self.row_count

    def selectivity_range(self, low: Value, high: Value) -> float:
        """Estimated fraction of rows where low <= column <= high."""
        if self.row_count == 0 or self.min_value is None or self.max_value is None:
            return 0.0
        if not isinstance(self.min_value, (int, float)) or isinstance(self.min_value, bool):
            return 0.3  # non-numeric: fall back to a fixed guess
        lo = self.min_value if low is None else max(float(low), float(self.min_value))
        hi = self.max_value if high is None else min(float(high), float(self.max_value))
        span = float(self.max_value) - float(self.min_value)
        if span <= 0:
            return 1.0 if lo <= hi else 0.0
        return max(min((hi - lo) / span, 1.0), 0.0)


@dataclass(frozen=True)
class TableStats:
    """Statistics for a whole table, keyed by normalised column name."""

    table: str
    row_count: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name.lower())


def compute_column_stats(
    state: TableSnapshot, position: int, counters: StorageCounters | None = None
) -> ColumnStats:
    """Statistics for the column at ``position``, read from its segment.

    A mirrored column whose values and span are finite is summarised in
    numpy (:func:`_mirror_summary`); every other column — NULL-bearing,
    text, boolean, mixed, NaN or infinity, beyond int64 — runs the
    per-value loop (:func:`_loop_summary`). Both produce the same
    ``repr``.
    """
    column = state.schema.columns[position]
    segment = state.segment(position, counters)
    summary = None
    if segment.mirror is not None:
        summary = _mirror_summary(segment.values, segment.mirror)
    if summary is None:
        summary = _loop_summary(segment.values)
    null_count, distinct_count, min_value, max_value, most_common, histogram = summary
    return ColumnStats(
        column=column.name,
        data_type=column.data_type,
        row_count=state.num_rows,
        null_count=null_count,
        distinct_count=distinct_count,
        min_value=min_value,
        max_value=max_value,
        most_common=most_common,
        histogram=histogram,
    )


def table_stats(
    state: TableSnapshot, counters: StorageCounters | None = None
) -> TableStats:
    """Statistics for every column of one table state, computed once per
    state and memoized on it beside its segments."""

    def build() -> TableStats:
        start = time.perf_counter()
        columns = {
            column.name.lower(): compute_column_stats(state, position, counters)
            for position, column in enumerate(state.schema.columns)
        }
        stats = TableStats(
            table=state.schema.name, row_count=state.num_rows, columns=columns
        )
        if counters is not None:
            counters.count_stats((time.perf_counter() - start) * 1000.0)
        return stats

    return state.stats(build)


def compute_table_stats(table: Table) -> TableStats:
    """Statistics for every column of ``table``'s current state."""
    return table_stats(table.snapshot_state())


_Summary = tuple[int, int, Value, Value, tuple[tuple[Value, int], ...], tuple[int, ...]]


def _loop_summary(values: list[Value]) -> _Summary:
    """Single pass over the values: (null count, distinct count, min, max,
    most common values, histogram)."""
    counter: Counter[Value] = Counter()
    null_count = 0
    min_value: Value = None
    max_value: Value = None
    numeric_values: list[float] = []
    for value in values:
        if value is None:
            null_count += 1
            continue
        counter[value] += 1
        if min_value is None or _less_than(value, min_value):
            min_value = value
        if max_value is None or _less_than(max_value, value):
            max_value = value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            numeric_values.append(float(value))

    histogram: tuple[int, ...] = ()
    if numeric_values and min_value is not None and max_value is not None:
        histogram = _equi_width_histogram(
            numeric_values, float(min_value), float(max_value)
        )
    return (
        null_count,
        len(counter),
        min_value,
        max_value,
        tuple(counter.most_common(MCV_SIZE)),
        histogram,
    )


def _mirror_summary(values: list[Value], mirror: np.ndarray) -> _Summary | None:
    """The loop's summary computed on a NULL-free numeric mirror, or
    ``None`` when the loop must run (NaN, infinities, an infinite span).

    Each part reproduces the loop exactly. ``argmin``/``argmax`` return
    the first occurrence, the loop's keep-first on ``±0.0`` ties, and the
    value comes from ``values`` so its type and sign are the original's.
    Sorting groups equal values — ``-0.0`` with ``0.0``, as the
    ``Counter`` merges them — and the smallest original index in each
    group is that value's first occurrence: it picks the key the
    ``Counter`` keeps, and ordering count ties by it is
    ``Counter.most_common``'s insertion order. The histogram evaluates
    the loop's float64 expression elementwise and truncates it the same
    way.
    """
    if mirror.dtype.kind == "f" and not np.isfinite(mirror).all():
        return None
    min_value = values[int(mirror.argmin())]
    max_value = values[int(mirror.argmax())]
    low, high = float(min_value), float(max_value)
    span = high - low
    if not math.isfinite(span):
        return None
    order = np.argsort(mirror)
    ordered = mirror[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    first = np.minimum.reduceat(order, starts)
    counts = np.diff(np.append(starts, len(values)))
    top = np.lexsort((first, -counts))[:MCV_SIZE]
    most_common = tuple(
        (values[index], count)
        for index, count in zip(first[top].tolist(), counts[top].tolist())
    )
    if span <= 0:
        buckets = [0] * HISTOGRAM_BUCKETS
        buckets[0] = len(values)
        histogram = tuple(buckets)
    else:
        scaled = (mirror.astype(np.float64) - low) / span * HISTOGRAM_BUCKETS
        indices = np.minimum(scaled.astype(np.int64), HISTOGRAM_BUCKETS - 1)
        histogram = tuple(
            np.bincount(indices, minlength=HISTOGRAM_BUCKETS).tolist()
        )
    return 0, len(first), min_value, max_value, most_common, histogram


def _less_than(left: Value, right: Value) -> bool:
    try:
        return left < right  # type: ignore[operator]
    except TypeError:
        return str(left) < str(right)


def _equi_width_histogram(
    values: list[float], low: float, high: float
) -> tuple[int, ...]:
    buckets = [0] * HISTOGRAM_BUCKETS
    span = high - low
    if span <= 0:
        buckets[0] = len(values)
        return tuple(buckets)
    for value in values:
        index = min(int((value - low) / span * HISTOGRAM_BUCKETS), HISTOGRAM_BUCKETS - 1)
        buckets[index] += 1
    return tuple(buckets)

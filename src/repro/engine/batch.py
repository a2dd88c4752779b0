"""The column-major batch both engines share.

:class:`ColumnBatch` is what the columnar engine's operators consume and
produce, and the one entry format of a window's subplan memo
(:attr:`~repro.engine.executor.ExecContext.cache`). It lives apart from
the columnar engine so the row executor (which the columnar engine
imports) can build and read memo entries too.
"""

from __future__ import annotations

import numpy as np

from repro.storage.table import Segment, TextCodes, numeric_mirror, text_codes
from repro.storage.types import Row, Value

_MISSING = object()


class ColumnBatch:
    """A batch of rows stored column-major.

    ``columns`` holds one Python list per output column; ``length`` is
    explicit because zero-width batches (``OneRow``) still carry row
    counts. A batch is **immutable by convention**: kernels may return a
    batch's own column list zero-copy (a bare column reference projects
    for free), and a window's subplan memo hands the very batch an
    execution produced to every later execution of the same subplan in
    that window, so nothing may mutate a column, a mirror or a row view
    after construction.

    Three caches ride along and are stripped from the pickle state — the
    same contract as ``PlanNode.__getstate__`` dropping its fingerprint
    memo, keeping pickles lean:

    * ``_rows`` — the row-major view, built once by ``to_rows`` when a
      reader needs rows (the plan root, a subquery runner, the row
      fallback, a row-engine cache hit). A batch built ``from_rows``
      keeps the list it was built from as this view;
    * ``_numpy`` — per-column numpy mirrors for dtype-uniform numeric
      columns (``None`` marks ineligible columns). A scan pre-fills it
      with the table state's segment mirrors, sharing the segments'
      value lists as its columns
      (:class:`~repro.storage.table.Segment`), and filter, project,
      sort and limit carry mirrors through by gathering or slicing them;
      only batches built from rows (views, joins, fallbacks, memo
      entries the row engine stored) pay the type sweep, once per column, on
      first use;
    * ``_codes`` — per-column :class:`~repro.storage.table.TextCodes` for
      all-``str`` columns (``None`` marks ineligible columns), the same
      way: a scan batch reads them from the segments it shares its
      columns with (``_segments``), so they are built once per table
      state; gather and limit carry them alongside the mirrors; any other
      batch encodes a column on first use.

    The memos fill lazily, and a cached batch is shared by concurrent
    executions: filling is idempotent, and code that iterates ``_numpy``
    iterates a snapshot of it.
    """

    __slots__ = ("columns", "length", "_rows", "_numpy", "_codes", "_segments")

    def __init__(
        self,
        columns: list[list[Value]],
        length: int,
        mirrors: dict[int, object] | None = None,
        codes: dict[int, object] | None = None,
        segments: list[Segment] | None = None,
    ) -> None:
        self.columns = columns
        self.length = length
        self._rows: list[Row] | None = None
        self._numpy: dict[int, object] = {} if mirrors is None else mirrors
        self._codes: dict[int, object] = {} if codes is None else codes
        #: the table-state segments whose value lists are ``columns``
        self._segments = segments

    @classmethod
    def from_rows(cls, rows: list[Row], width: int) -> "ColumnBatch":
        """The batch holding ``rows``, which become its row view.

        The single way rows turn into a batch — and so into a subplan
        memo entry: the row engine comes through here, and row readers
        get the same list back from ``to_rows``.
        """
        if not rows or not width:
            batch = cls([[] for _ in range(width)], len(rows))
        else:
            batch = cls([list(column) for column in zip(*rows)], len(rows))
        batch._rows = rows
        return batch

    def to_rows(self) -> list[Row]:
        """The row-major view, built once; callers share the list."""
        if self._rows is None:
            if not self.columns:
                self._rows = [()] * self.length
            elif not self.length:
                self._rows = []
            else:
                self._rows = list(zip(*self.columns))
        return self._rows

    def gather(self, indices) -> "ColumnBatch":
        """The rows at ``indices`` (a sequence of row positions), with
        every known mirror and text encoding gathered alongside its column.

        A mirrored column is rebuilt from its gathered mirror (``tolist``
        restores the exact ``int``/``float`` values) unless it holds NaN:
        those gather from the value list, so NaN object identity — which
        GROUP BY and DISTINCT key on — matches the row engine.
        """
        indices = np.asarray(indices, dtype=np.intp)
        positions = None
        columns: list[list[Value]] = []
        mirrors: dict[int, object] = {}
        for index, column in enumerate(self.columns):
            mirror = self._numpy.get(index, _MISSING)
            if mirror is not _MISSING:
                if mirror is not None:
                    mirror = mirror[indices]
                mirrors[index] = mirror
            if isinstance(mirror, np.ndarray) and not (
                mirror.dtype.kind == "f" and np.isnan(mirror).any()
            ):
                columns.append(mirror.tolist())
            else:
                if positions is None:
                    positions = indices.tolist()
                columns.append([column[i] for i in positions])
        codes = {
            index: None if encoded is None else encoded.take(indices)
            for index, encoded in list(self._codes.items())
        }
        return ColumnBatch(columns, len(indices), mirrors, codes)

    def numpy_column(self, index: int):
        """A numpy mirror of one column, or ``None`` when ineligible."""
        cached = self._numpy.get(index, _MISSING)
        if cached is _MISSING:
            cached = self._numpy[index] = numeric_mirror(self.columns[index])
        return cached

    def text_codes(self, index: int) -> TextCodes | None:
        """The text codes of one column, or ``None`` when ineligible."""
        cached = self._codes.get(index, _MISSING)
        if cached is _MISSING:
            if self._segments is not None:
                cached = self._segments[index].text_codes()
            else:
                cached = text_codes(self.columns[index])
            self._codes[index] = cached
        return cached

    def __len__(self) -> int:
        return self.length

    def __getstate__(self) -> tuple:
        return (self.columns, self.length)

    def __setstate__(self, state: tuple) -> None:
        self.columns, self.length = state
        self._rows = None
        self._numpy = {}
        self._codes = {}
        self._segments = None

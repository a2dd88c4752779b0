"""Chunked row tables.

Tables store rows in immutable fixed-size chunks. Mutations never modify a
chunk in place: inserts append to a tail chunk that is re-frozen, and
updates/deletes rewrite only the chunk containing the victim row. This makes
whole-table snapshots O(#chunks) reference copies — the property the
branched transaction manager (paper Sec. 6.2) relies on for cheap forks.

Each chunk also memoizes, lazily and per column position, the two views
the columnar engine reads: the column's value tuple and its dtype-uniform
numpy mirror (:func:`numeric_mirror`; ``None`` for columns that are not
all-``int`` or all-``float``). Because a chunk never changes, its memo is
valid by construction: a write replaces only the chunk it touched (whose
memo is rebuilt on the next scan), and forks, snapshots and restores share
the memos of every chunk they share. Only positions a scan has read are
memoized; a memoized numeric column costs about 17 bytes per value (a
tuple slot plus an 8-byte mirror slot), 1.4 MB for a 20,000-row table of
four numeric columns. The memo is not part of a chunk's
value — equality and the pickled form cover ``row_ids`` and ``rows``
only — so WAL records and catalog snapshots keep their formats, and a
chunk arriving by pickle rebuilds its memo on first read.

Every row carries a stable ``row_id`` assigned at insert; row ids survive
updates and are never reused, which gives the merge machinery a stable
identity for conflict detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.storage.schema import TableSchema
from repro.storage.types import Row, Value, coerce_value

#: Rows per chunk. Small enough that chunk rewrites stay cheap, large enough
#: that snapshot fan-out stays small.
CHUNK_SIZE = 256


def numeric_mirror(values: Sequence[Value]) -> np.ndarray | None:
    """A read-only numpy copy of ``values``, or ``None`` when ineligible.

    Eligibility is a strict type sweep — every value ``int`` (bools
    excluded) fitting int64, or every value ``float`` — so comparisons and
    reductions on the mirror can never diverge from ``compare_values`` or
    the accumulators. An empty sequence has no mirror.
    """
    if not values:
        return None
    mirror = None
    if all(type(v) is int for v in values):
        try:
            candidate = np.asarray(values)
        except (OverflowError, ValueError, TypeError):
            return None
        if candidate.dtype.kind == "i":
            mirror = candidate
    elif all(type(v) is float for v in values):
        mirror = np.asarray(values, dtype=np.float64)
    if mirror is not None:
        mirror.flags.writeable = False
    return mirror


@dataclass(frozen=True)
class Chunk:
    """An immutable run of rows with their stable row ids.

    :meth:`column` and :meth:`mirror` memoize column views on the instance
    (outside the dataclass fields, so equality and pickling ignore them).
    """

    row_ids: tuple[int, ...]
    rows: tuple[Row, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, position: int) -> tuple[Value, ...]:
        """The values at ``position``, extracted once per chunk."""
        columns = self.__dict__.get("_columns")
        if columns is None:
            columns = {}
            object.__setattr__(self, "_columns", columns)
        values = columns.get(position)
        if values is None:
            values = columns[position] = tuple(map(itemgetter(position), self.rows))
        return values

    def mirror(self, position: int) -> np.ndarray | None:
        """The numpy mirror of the values at ``position`` (or ``None``)."""
        mirrors = self.__dict__.get("_mirrors")
        if mirrors is None:
            mirrors = {}
            object.__setattr__(self, "_mirrors", mirrors)
        if position not in mirrors:
            mirrors[position] = numeric_mirror(self.column(position))
        return mirrors[position]

    def __getstate__(self) -> dict:
        return {"row_ids": self.row_ids, "rows": self.rows}


@dataclass(frozen=True)
class TableSnapshot:
    """One table's complete state as an immutable, picklable value.

    Everything inside is tuples of plain values, so a snapshot crosses
    process boundaries intact — WAL checkpoints and shard seeding pickle
    them, and the branched transaction manager keeps them as fork/merge
    baselines. Within one process,
    restoring shares all chunk storage with the source table (chunks are
    immutable); across processes, pickling copies it exactly once.
    """

    schema: TableSchema
    chunks: tuple[Chunk, ...]
    next_row_id: int
    data_version: int

    @property
    def num_rows(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)

    def extract_columns(self, positions: Sequence[int]) -> list[list[Value]]:
        """Materialise the requested columns, one value list per position."""
        return _extract_columns(self.chunks, positions)

    def column_mirrors(self, positions: Sequence[int]) -> list[np.ndarray | None]:
        """The whole-table numpy mirror of each requested column, or ``None``."""
        return [_concat_mirror(self.chunks, position) for position in positions]


def _extract_columns(
    chunks: Iterable[Chunk], positions: Sequence[int]
) -> list[list[Value]]:
    """Concatenate the chunks' memoized column tuples into fresh lists."""
    columns: list[list[Value]] = [[] for _ in positions]
    for chunk in chunks:
        for out, position in zip(columns, positions):
            out.extend(chunk.column(position))
    return columns


def _concat_mirror(chunks: Sequence[Chunk], position: int) -> np.ndarray | None:
    """Concatenate the chunks' mirrors of one column; ``None`` unless every
    chunk has one and all share a dtype (an all-int chunk next to an
    all-float one fails the whole-column sweep, so it fails here too)."""
    parts = []
    for chunk in chunks:
        mirror = chunk.mirror(position)
        if mirror is None or (parts and mirror.dtype != parts[0].dtype):
            return None
        parts.append(mirror)
    if len(parts) < 2:
        return parts[0] if parts else None
    whole = np.concatenate(parts)
    whole.flags.writeable = False
    return whole


class Table:
    """A mutable table facade over immutable chunks.

    The chunk list plus the next-row-id counter form the table's complete
    state; :meth:`snapshot` / :meth:`from_snapshot` round-trip it without
    copying row data.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._chunks: list[Chunk] = []
        self._next_row_id = 0
        #: bumped on every mutation; consumed by staleness detection.
        self.data_version = 0

    # -- snapshots (used by the branched transaction manager) --------------

    def snapshot(self) -> tuple[Chunk, ...]:
        """Return the current chunk list; shares all row storage."""
        return tuple(self._chunks)

    def snapshot_state(self) -> TableSnapshot:
        """The table's complete state as one immutable, picklable value."""
        return TableSnapshot(
            schema=self.schema,
            chunks=tuple(self._chunks),
            next_row_id=self._next_row_id,
            data_version=self.data_version,
        )

    @classmethod
    def restore(cls, state: TableSnapshot) -> "Table":
        """Rebuild a table from :meth:`snapshot_state` output."""
        return cls.from_snapshot(
            state.schema, state.chunks, state.next_row_id, state.data_version
        )

    @classmethod
    def from_snapshot(
        cls,
        schema: TableSchema,
        chunks: tuple[Chunk, ...],
        next_row_id: int,
        data_version: int = 0,
    ) -> "Table":
        table = cls(schema)
        table._chunks = list(chunks)
        table._next_row_id = next_row_id
        table.data_version = data_version
        return table

    @property
    def next_row_id(self) -> int:
        return self._next_row_id

    # -- reads --------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return sum(len(chunk) for chunk in self._chunks)

    @property
    def num_chunks(self) -> int:
        return len(self._chunks)

    def scan(self) -> Iterator[Row]:
        for chunk in self._chunks:
            yield from chunk.rows

    def scan_with_ids(self) -> Iterator[tuple[int, Row]]:
        for chunk in self._chunks:
            yield from zip(chunk.row_ids, chunk.rows)

    def get(self, row_id: int) -> Row:
        location = self._locate(row_id)
        if location is None:
            raise ExecutionError(f"table {self.schema.name!r} has no row id {row_id}")
        chunk_index, offset = location
        return self._chunks[chunk_index].rows[offset]

    def rows(self) -> list[Row]:
        """Materialise all rows (test/debug convenience)."""
        return list(self.scan())

    def extract_columns(self, positions: Sequence[int]) -> list[list[Value]]:
        """Materialise the requested columns, one value list per position."""
        return _extract_columns(self._chunks, positions)

    # -- writes ---------------------------------------------------------------

    def insert(self, values: Iterable[Value]) -> int:
        """Validate, coerce and append one row; returns its row id."""
        row = self._coerce_row(tuple(values))
        row_id = self._next_row_id
        self._next_row_id += 1
        if self._chunks and len(self._chunks[-1]) < CHUNK_SIZE:
            tail = self._chunks[-1]
            self._chunks[-1] = Chunk(tail.row_ids + (row_id,), tail.rows + (row,))
        else:
            self._chunks.append(Chunk((row_id,), (row,)))
        self.data_version += 1
        return row_id

    def insert_many(self, rows: Iterable[Iterable[Value]]) -> list[int]:
        """Bulk insert; packs full chunks directly instead of re-freezing."""
        coerced = [self._coerce_row(tuple(r)) for r in rows]
        if not coerced:
            return []
        row_ids = list(range(self._next_row_id, self._next_row_id + len(coerced)))
        self._next_row_id += len(coerced)
        pending_ids: list[int] = list(row_ids)
        pending_rows: list[Row] = coerced
        if self._chunks and len(self._chunks[-1]) < CHUNK_SIZE:
            tail = self._chunks.pop()
            pending_ids = list(tail.row_ids) + pending_ids
            pending_rows = list(tail.rows) + pending_rows
        for start in range(0, len(pending_rows), CHUNK_SIZE):
            self._chunks.append(
                Chunk(
                    tuple(pending_ids[start : start + CHUNK_SIZE]),
                    tuple(pending_rows[start : start + CHUNK_SIZE]),
                )
            )
        self.data_version += 1
        return row_ids

    def update(self, row_id: int, values: Iterable[Value]) -> None:
        """Replace the row with ``row_id``; rewrites only its chunk."""
        location = self._locate(row_id)
        if location is None:
            raise ExecutionError(f"table {self.schema.name!r} has no row id {row_id}")
        chunk_index, offset = location
        chunk = self._chunks[chunk_index]
        new_rows = list(chunk.rows)
        new_rows[offset] = self._coerce_row(tuple(values))
        self._chunks[chunk_index] = Chunk(chunk.row_ids, tuple(new_rows))
        self.data_version += 1

    def delete(self, row_id: int) -> None:
        """Remove the row with ``row_id``; rewrites only its chunk."""
        location = self._locate(row_id)
        if location is None:
            raise ExecutionError(f"table {self.schema.name!r} has no row id {row_id}")
        chunk_index, offset = location
        chunk = self._chunks[chunk_index]
        new_ids = chunk.row_ids[:offset] + chunk.row_ids[offset + 1 :]
        new_rows = chunk.rows[:offset] + chunk.rows[offset + 1 :]
        if new_rows:
            self._chunks[chunk_index] = Chunk(new_ids, new_rows)
        else:
            del self._chunks[chunk_index]
        self.data_version += 1

    # -- internals -------------------------------------------------------------

    def _coerce_row(self, row: tuple[Value, ...]) -> Row:
        columns = self.schema.columns
        if len(row) != len(columns):
            raise ExecutionError(
                f"table {self.schema.name!r} expects {len(columns)} values, got {len(row)}"
            )
        coerced = []
        for value, column in zip(row, columns):
            if value is None and not column.nullable:
                raise ExecutionError(
                    f"column {self.schema.name}.{column.name} is NOT NULL"
                )
            coerced.append(coerce_value(value, column.data_type))
        return tuple(coerced)

    def _locate(self, row_id: int) -> tuple[int, int] | None:
        for chunk_index, chunk in enumerate(self._chunks):
            # Row ids within a chunk are ascending; a range check prunes most
            # chunks before the linear probe.
            if chunk.row_ids and chunk.row_ids[0] <= row_id <= chunk.row_ids[-1]:
                try:
                    return chunk_index, chunk.row_ids.index(row_id)
                except ValueError:
                    continue
        return None

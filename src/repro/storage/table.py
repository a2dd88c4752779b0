"""Chunked row tables and the column segments derived from them.

Tables store rows in immutable fixed-size chunks. Mutations never modify a
chunk in place: inserts append to a tail chunk that is re-frozen, and
updates/deletes rewrite only the chunk containing the victim row. This makes
whole-table snapshots O(#chunks) reference copies — the property the
branched transaction manager (paper Sec. 6.2) relies on for cheap forks.

A table's state — chunk list, next row id, data version — is one
immutable :class:`TableSnapshot` value, which the table caches until its
next mutation. What readers derive from it is memoized on the state,
lazily, on first read: each column position a reader asks for becomes a
:class:`Segment` (the whole column's value list plus its dtype-uniform
numpy mirror, :func:`numeric_mirror`; ``None`` for columns that are not
all-``int`` or all-``float``; plus, for an all-``str`` column, its
sorted-dictionary :class:`TextCodes`, built on first request), and the
table statistics
(:func:`repro.storage.statistics.table_stats`) sit beside the segments.
Scans and statistics read the same segments, so each column is derived
once per table state, not once per read. Because a state never changes,
its memo is valid by construction: a write makes a new state whose memo
starts cold, and forks, restores and catalog snapshots adopt the same
state object, so they share its segments until one side writes. A
numeric segment costs about 16 bytes per value (a list slot plus an
8-byte mirror slot). The memo is not part of the state's value —
equality and the pickled form cover its four fields only — so WAL
records and catalog snapshots keep their formats, and a state arriving
by pickle (a recovered or shipped catalog) starts cold.

Every row carries a stable ``row_id`` assigned at insert; row ids survive
updates and are never reused, which gives the merge machinery a stable
identity for conflict detection.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.storage.schema import TableSchema
from repro.storage.types import Row, Value, coerce_value

if TYPE_CHECKING:
    from repro.storage.statistics import TableStats

#: Rows per chunk. Small enough that chunk rewrites stay cheap, large enough
#: that snapshot fan-out stays small.
CHUNK_SIZE = 256

_UNBUILT = object()


def numeric_mirror(values: Sequence[Value]) -> np.ndarray | None:
    """A read-only numpy copy of ``values``, or ``None`` when ineligible.

    Eligibility is a strict type sweep — every value ``int`` (bools
    excluded) fitting int64, or every value ``float`` — so comparisons and
    reductions on the mirror can never diverge from ``compare_values`` or
    the accumulators. An empty sequence has no mirror.
    """
    if not values:
        return None
    kind = type(values[0])
    if kind is int:
        dtype = np.int64
    elif kind is float:
        dtype = np.float64
    else:
        return None
    if len(set(map(type, values))) != 1:
        return None
    try:
        mirror = np.array(values, dtype=dtype)
    except OverflowError:
        return None
    mirror.flags.writeable = False
    return mirror


@dataclass(frozen=True)
class Chunk:
    """An immutable run of rows with their stable row ids."""

    row_ids: tuple[int, ...]
    rows: tuple[Row, ...]

    def __len__(self) -> int:
        return len(self.rows)


class TextCodes(NamedTuple):
    """A sorted-dictionary encoding of an all-``str`` column.

    ``dictionary`` holds the distinct values in ``str`` order and
    ``codes`` (int32, read-only) each value's rank in it, so every
    comparison of a value with a text literal is an integer comparison of
    its code with the literal's ``bisect`` position. A gathered or sliced
    encoding keeps the whole dictionary: it stays sorted and may hold
    values no longer present, which no comparison can tell apart.
    """

    dictionary: list[str]
    codes: np.ndarray

    def take(self, positions) -> TextCodes:
        """The encoding of the values at ``positions`` (an index array or
        a slice), over the same dictionary."""
        return TextCodes(self.dictionary, self.codes[positions])


def text_codes(values: Sequence[Value]) -> TextCodes | None:
    """The :class:`TextCodes` of ``values``, or ``None`` unless every value
    is a ``str`` (a NULL or any other type keeps the column on the
    per-value path). An empty sequence has no codes."""
    distinct = set(values)
    if not distinct or any(type(value) is not str for value in distinct):
        return None
    dictionary = sorted(distinct)
    rank = {value: code for code, value in enumerate(dictionary)}
    codes = np.fromiter(
        map(rank.__getitem__, values), dtype=np.int32, count=len(values)
    )
    codes.flags.writeable = False
    return TextCodes(dictionary, codes)


class Segment:
    """One column of one table state: its values in row order, their
    numpy mirror (:func:`numeric_mirror`; ``None`` when the column is not
    dtype-uniform numeric) and, built on first request, their
    :class:`TextCodes`. Every reader of the state shares one segment, so
    nothing may mutate any part."""

    __slots__ = ("values", "mirror", "_codes")

    def __init__(self, values: list[Value], mirror: np.ndarray | None) -> None:
        self.values = values
        self.mirror = mirror
        self._codes: TextCodes | None | object = _UNBUILT

    def text_codes(self) -> TextCodes | None:
        """The column's text codes, built once (racing first readers may
        each build an equal encoding; one of them is kept)."""
        codes = self._codes
        if codes is _UNBUILT:
            codes = self._codes = text_codes(self.values)
        return codes


@dataclass
class StorageCounters:
    """What a catalog's readers had to rebuild. Bumped only when derived
    state is built, never per read; ``system.metrics()`` publishes them
    as ``repro_storage_*`` series."""

    segment_builds: int = 0
    stats_recomputes: int = 0
    stats_recompute_ms: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def count_segment(self) -> None:
        with self._lock:
            self.segment_builds += 1

    def count_stats(self, elapsed_ms: float) -> None:
        with self._lock:
            self.stats_recomputes += 1
            self.stats_recompute_ms += elapsed_ms


#: The fields that make up a table state's value (and its pickled form).
_STATE_FIELDS = ("schema", "chunks", "next_row_id", "data_version")


@dataclass(frozen=True)
class TableSnapshot:
    """One table's complete state as an immutable, picklable value.

    Everything inside is tuples of plain values, so a snapshot crosses
    process boundaries intact — WAL checkpoints and shard seeding pickle
    them, and the branched transaction manager keeps them as fork/merge
    baselines. Within one process,
    restoring shares all chunk storage with the source table (chunks are
    immutable); across processes, pickling copies it exactly once.

    Besides its four fields a state carries ``num_rows`` and a memo of
    what is derived from it — column segments (:class:`Segment`) and the
    table statistics — which are neither compared nor pickled.
    """

    schema: TableSchema
    chunks: tuple[Chunk, ...]
    next_row_id: int
    data_version: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_rows", sum(len(chunk) for chunk in self.chunks))
        object.__setattr__(self, "_segments", {})

    def __getstate__(self) -> dict:
        return {name: self.__dict__[name] for name in _STATE_FIELDS}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    def stats(self, build: Callable[[], TableStats]) -> TableStats:
        """This state's table statistics, built by the first reader and
        shared by every later one (racing first readers may each build;
        the first result stored wins)."""
        stats = self.__dict__.get("_stats")
        if stats is None:
            stats = self.__dict__.setdefault("_stats", build())
        return stats

    def segment(
        self, position: int, counters: StorageCounters | None = None
    ) -> Segment:
        """The whole column at ``position``, built once per state (racing
        first readers may each build; the first result stored wins)."""
        segment = self._segments.get(position)
        if segment is None:
            values = _column_values(self.chunks, position)
            built = Segment(values, numeric_mirror(values))
            segment = self._segments.setdefault(position, built)
            if counters is not None:
                counters.count_segment()
        return segment


def _column_values(chunks: Sequence[Chunk], position: int) -> list[Value]:
    rows = chain.from_iterable(chunk.rows for chunk in chunks)
    return list(map(itemgetter(position), rows))


class Table:
    """A mutable table facade over immutable chunks.

    The chunk list plus the next-row-id counter form the table's complete
    state; :meth:`snapshot_state` / :meth:`restore` round-trip it without
    copying row data. The table caches its current :class:`TableSnapshot`
    (and with it every segment and statistic derived from it) until the
    next mutation; a lock makes each mutation and each state build
    atomic with respect to the other, so a cached state is never torn.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._chunks: list[Chunk] = []
        self._next_row_id = 0
        #: bumped on every mutation; consumed by staleness detection.
        self.data_version = 0
        self._state: TableSnapshot | None = None
        self._lock = threading.Lock()

    # -- snapshots (used by the branched transaction manager) --------------

    def snapshot(self) -> tuple[Chunk, ...]:
        """Return the current chunk list; shares all row storage."""
        return self.snapshot_state().chunks

    def snapshot_state(self) -> TableSnapshot:
        """The table's complete state as one immutable, picklable value:
        the same object until the next mutation."""
        state = self._state
        if state is None:
            with self._lock:
                state = self._state
                if state is None:
                    state = TableSnapshot(
                        schema=self.schema,
                        chunks=tuple(self._chunks),
                        next_row_id=self._next_row_id,
                        data_version=self.data_version,
                    )
                    self._state = state
        return state

    @classmethod
    def restore(cls, state: TableSnapshot) -> "Table":
        """Rebuild a table from :meth:`snapshot_state` output; the table
        adopts ``state`` itself, so both share its derived state."""
        table = cls.from_snapshot(
            state.schema, state.chunks, state.next_row_id, state.data_version
        )
        table._state = state
        return table

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
        return self.snapshot_state().num_rows

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
        chunk_index, offset = self._locate_or_raise(row_id)
        return self._chunks[chunk_index].rows[offset]

    def rows(self) -> list[Row]:
        """Materialise all rows (test/debug convenience)."""
        return list(self.scan())

    def extract_columns(self, positions: Sequence[int]) -> list[list[Value]]:
        """The requested columns of the current state, one value list per
        position: the state's shared segment lists, so read-only."""
        state = self.snapshot_state()
        return [state.segment(position).values for position in positions]

    # -- writes ---------------------------------------------------------------

    def insert(self, values: Iterable[Value]) -> int:
        """Validate, coerce and append one row; returns its row id."""
        row = self._coerce_row(tuple(values))
        with self._lock:
            row_id = self._next_row_id
            self._next_row_id += 1
            if self._chunks and len(self._chunks[-1]) < CHUNK_SIZE:
                tail = self._chunks[-1]
                self._chunks[-1] = Chunk(tail.row_ids + (row_id,), tail.rows + (row,))
            else:
                self._chunks.append(Chunk((row_id,), (row,)))
            self._changed()
        return row_id

    def insert_many(self, rows: Iterable[Iterable[Value]]) -> list[int]:
        """Bulk insert; packs full chunks directly instead of re-freezing."""
        coerced = [self._coerce_row(tuple(r)) for r in rows]
        if not coerced:
            return []
        with self._lock:
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
            self._changed()
        return row_ids

    def update(self, row_id: int, values: Iterable[Value]) -> None:
        """Replace the row with ``row_id``; rewrites only its chunk."""
        with self._lock:
            chunk_index, offset = self._locate_or_raise(row_id)
            chunk = self._chunks[chunk_index]
            new_rows = list(chunk.rows)
            new_rows[offset] = self._coerce_row(tuple(values))
            self._chunks[chunk_index] = Chunk(chunk.row_ids, tuple(new_rows))
            self._changed()

    def delete(self, row_id: int) -> None:
        """Remove the row with ``row_id``; rewrites only its chunk."""
        with self._lock:
            chunk_index, offset = self._locate_or_raise(row_id)
            chunk = self._chunks[chunk_index]
            new_ids = chunk.row_ids[:offset] + chunk.row_ids[offset + 1 :]
            new_rows = chunk.rows[:offset] + chunk.rows[offset + 1 :]
            if new_rows:
                self._chunks[chunk_index] = Chunk(new_ids, new_rows)
            else:
                del self._chunks[chunk_index]
            self._changed()

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

    def _changed(self) -> None:
        """Close a mutation (caller holds the lock): bump the version and
        drop the cached state, whose derived state described the old rows."""
        self.data_version += 1
        self._state = None

    def _locate_or_raise(self, row_id: int) -> tuple[int, int]:
        location = self._locate(row_id)
        if location is None:
            raise ExecutionError(f"table {self.schema.name!r} has no row id {row_id}")
        return location

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

"""The catalog: named tables, their indexes, and their statistics.

The catalog is the unit the database facade and the branched transaction
manager both wrap. It tracks version counters used by the agentic memory
store's staleness machinery (paper Sec. 6.1) and by every derived-state
cache stamped with it (compiled statements, materialized views):

* ``schema_version`` — bumped on CREATE/DROP/ALTER-like changes;
* ``data_epoch`` — bumped by every catalog-mediated write, including
  whole-table swaps (branch checkout via :meth:`replace_table`);
* per-table ``data_version`` — bumped by the table on every DML, even
  when the mutation bypasses the catalog.

:meth:`version` folds all three into one comparable value, so a snapshot
consumer can detect *any* change — schema, catalog-mediated DML, table
swaps, or direct table mutation — with a single equality check.

The catalog also derives ``information_schema.tables``/``.columns`` from
its stored tables. They are never stored: :meth:`Catalog.table` resolves
the two names on its miss path to tables built from the stored ones and
memoized on :meth:`Catalog.data_version_tuple`, so they are fresh by
construction, a read of them writes nothing, and they stay out of
:meth:`Catalog.version`, snapshots, checkpoints and the write-ahead log.
Every write path refuses the ``information_schema`` namespace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import CatalogError
from repro.storage.indexes import HashIndex, SortedIndex
from repro.storage.schema import (
    COLUMNS_NAME,
    TABLES_NAME,
    Column,
    TableSchema,
    is_information_schema,
)
from repro.storage.statistics import TableStats, table_stats
from repro.storage.table import StorageCounters, Table, TableSnapshot
from repro.storage.types import DataType, Value
from repro.util.text import normalize_identifier


@dataclass(frozen=True)
class CatalogSnapshot:
    """A complete, picklable image of a catalog at one version.

    Tables carry their full chunk state (:class:`TableSnapshot`); indexes
    travel as *definitions* only — their contents are derivable, and
    rebuilding them at restore time is cheaper than pickling value->row-id
    maps. ``version`` records the source catalog's :meth:`Catalog.version`
    so a consumer can tell when a snapshot no longer matches the live
    catalog. Auxiliary (maintenance-built) index definitions ship too:
    rewritten plans executing on a restored catalog reference them by
    column.
    """

    version: tuple
    tables: tuple[TableSnapshot, ...]
    hash_indexes: tuple[tuple[str, str], ...]
    sorted_indexes: tuple[tuple[str, str], ...]
    aux_hash_indexes: tuple[tuple[str, str], ...] = ()
    aux_sorted_indexes: tuple[tuple[str, str], ...] = ()

    @property
    def num_rows(self) -> int:
        return sum(table.num_rows for table in self.tables)


_INFO_TABLES_SCHEMA = TableSchema(
    name=TABLES_NAME,
    columns=(
        Column("table_name", DataType.TEXT, nullable=False),
        Column("row_count", DataType.INTEGER, nullable=False),
        Column("description", DataType.TEXT),
    ),
    description="catalog of user tables",
)

_INFO_COLUMNS_SCHEMA = TableSchema(
    name=COLUMNS_NAME,
    columns=(
        Column("table_name", DataType.TEXT, nullable=False),
        Column("column_name", DataType.TEXT, nullable=False),
        Column("ordinal_position", DataType.INTEGER, nullable=False),
        Column("data_type", DataType.TEXT, nullable=False),
        Column("is_nullable", DataType.BOOLEAN, nullable=False),
        Column("is_primary_key", DataType.BOOLEAN, nullable=False),
        Column("description", DataType.TEXT),
    ),
    description="catalog of user table columns",
)


def _build_information_schema(stored: list[Table]) -> dict[str, Table]:
    """Both ``information_schema`` tables, keyed by name, built from the
    stored tables. ``row_count`` is in the tables view because exploring
    table sizes is one of the paper's canonical metadata probes."""
    table_rows = []
    column_rows = []
    for table in sorted(stored, key=lambda t: t.schema.name.lower()):
        schema = table.schema
        table_rows.append((schema.name, table.num_rows, schema.description))
        column_rows.extend(
            (
                schema.name,
                column.name,
                position,
                column.data_type.value,
                column.nullable,
                column.primary_key,
                column.description,
            )
            for position, column in enumerate(schema.columns, start=1)
        )
    tables = Table(_INFO_TABLES_SCHEMA)
    tables.insert_many(table_rows)
    columns = Table(_INFO_COLUMNS_SCHEMA)
    columns.insert_many(column_rows)
    return {TABLES_NAME: tables, COLUMNS_NAME: columns}


@dataclass
class AuxiliaryIndex:
    """A maintenance-built index: executor-visible, planner-invisible.

    The planner's index-selection rule never consults these, so creating
    one cannot change plan shapes or fingerprints — answers stay
    byte-identical to an index-free run. The maintenance runtime's
    execution-time rewrite substitutes :class:`~repro.plan.logical.IndexScan`
    nodes that the executor resolves through :meth:`Catalog.lookup_hash_index`
    / :meth:`Catalog.lookup_sorted_index`.

    ``data_version`` tracks the source table's ``data_version`` as of the
    last catalog-mediated maintenance, so a direct ``Table`` mutation that
    bypassed the catalog is detectable (the rewrite refuses stale entries).
    """

    index: HashIndex | SortedIndex
    data_version: int


class Catalog:
    """A mutable namespace of tables with index and statistics maintenance."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._hash_indexes: dict[tuple[str, str], HashIndex] = {}
        self._sorted_indexes: dict[tuple[str, str], SortedIndex] = {}
        self._aux_hash_indexes: dict[tuple[str, str], AuxiliaryIndex] = {}
        self._aux_sorted_indexes: dict[tuple[str, str], AuxiliaryIndex] = {}
        #: What this catalog's readers rebuilt (segments, statistics).
        self.storage_counters = StorageCounters()
        self.schema_version = 0
        #: Bumped by every catalog-mediated write path (DML helpers and
        #: whole-table swaps); one input to :meth:`version`.
        self.data_epoch = 0
        #: Bumped when auxiliary (maintenance-built) indexes are created or
        #: dropped. Part of :meth:`version` (worker snapshots must re-ship
        #: so rewritten plans find their indexes) but *not* of
        #: :meth:`data_version_tuple` (building an index changes no rows,
        #: so materialized views stay valid across it).
        self.aux_index_version = 0
        #: Optional write-ahead log (:class:`repro.txn.wal.WriteAheadLog`).
        #: When attached, every write method appends a record *before*
        #: mutating state, and aborts it if the mutation raises.
        self.wal = None
        #: ``(data_version_tuple(), {name: Table})`` of the last-built
        #: information schema; replaced whole, never mutated, so readers
        #: on any thread see one consistent pair.
        self._information_schema: tuple[tuple, dict[str, Table]] | None = None

    # -- write-ahead logging ---------------------------------------------------

    def _wal_log(self, kind: str, *payload):
        """Append a record covering the write about to happen (or ``None``
        when no log is attached). Callers append *after* validation but
        *before* mutation, and :meth:`_wal_abort` on mutation failure."""
        wal = self.wal
        if wal is None:
            return None
        return wal.append(kind, payload)

    def _wal_abort(self, token) -> None:
        if token is not None:
            self.wal.abort(token)

    # -- versioning ----------------------------------------------------------

    def data_version_tuple(self) -> tuple:
        """Every observable *data* state: schema, epochs, per-table counters.

        The validity stamp for maintenance-built materialized views — any
        change that could alter a query's rows moves it, while auxiliary
        index builds (which change no rows) do not.
        """
        return (
            self.schema_version,
            self.data_epoch,
            tuple(
                sorted((key, t.data_version) for key, t in list(self._tables.items()))
            ),
        )

    def version(self) -> tuple:
        """One comparable value covering every observable catalog state.

        Includes per-table ``data_version`` counters so even writes that
        bypass the catalog (direct ``Table.insert``/``update``/``delete``)
        change the version, plus the auxiliary-index counter so caches
        stamped with it are refreshed when maintenance builds an index.
        The compiled-statement cache compares versions to decide whether
        its plans are still valid; cost is O(#tables) per check.
        """
        return self.data_version_tuple() + (self.aux_index_version,)

    # -- whole-catalog snapshots ----------------------------------------------

    def snapshot(self) -> CatalogSnapshot:
        """Capture every table (chunk-shared) plus index definitions."""
        return CatalogSnapshot(
            version=self.version(),
            tables=tuple(t.snapshot_state() for t in self._tables.values()),
            hash_indexes=tuple(
                (index.table, index.column) for index in self._hash_indexes.values()
            ),
            sorted_indexes=tuple(
                (index.table, index.column) for index in self._sorted_indexes.values()
            ),
            aux_hash_indexes=tuple(
                (entry.index.table, entry.index.column)
                for entry in self._aux_hash_indexes.values()
            ),
            aux_sorted_indexes=tuple(
                (entry.index.table, entry.index.column)
                for entry in self._aux_sorted_indexes.values()
            ),
        )

    @classmethod
    def from_snapshot(cls, snapshot: CatalogSnapshot) -> "Catalog":
        """Rebuild a catalog (tables + indexes) from a snapshot.

        Index contents are rebuilt by scanning the restored tables; row
        ids are part of the snapshot, so lookups return exactly what the
        source catalog's indexes would.
        """
        catalog = cls()
        for state in snapshot.tables:
            catalog.register_table(Table.restore(state))
        for table_name, column in snapshot.hash_indexes:
            catalog.create_hash_index(table_name, column)
        for table_name, column in snapshot.sorted_indexes:
            catalog.create_sorted_index(table_name, column)
        for table_name, column in snapshot.aux_hash_indexes:
            catalog.create_auxiliary_hash_index(table_name, column)
        for table_name, column in snapshot.aux_sorted_indexes:
            catalog.create_auxiliary_sorted_index(table_name, column)
        return catalog

    @classmethod
    def restore_exact(cls, snapshot: CatalogSnapshot) -> "Catalog":
        """Rebuild a catalog *at the snapshot's exact version counters*.

        :meth:`from_snapshot` re-registers tables and re-creates indexes,
        which re-bumps ``schema_version``/``aux_index_version`` from zero
        — fine for throwaway worker copies, wrong for crash recovery and
        replicas, where :meth:`version` must land on the source's value so
        staleness checks and the recovery differential line up. This
        variant overwrites the counters with the recorded ones (per-table
        ``data_version``/``next_row_id`` already travel inside each
        :class:`TableSnapshot`).
        """
        catalog = cls.from_snapshot(snapshot)
        schema_version, data_epoch, _per_table, aux_index_version = snapshot.version
        catalog.schema_version = schema_version
        catalog.data_epoch = data_epoch
        catalog.aux_index_version = aux_index_version
        return catalog

    # -- table lifecycle -----------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        key = self._new_key(schema.name)
        token = self._wal_log("create_table", schema)
        try:
            table = Table(schema)
            self._tables[key] = table
            self.schema_version += 1
        except BaseException:
            self._wal_abort(token)
            raise
        return table

    def register_table(self, table: Table) -> None:
        """Adopt an externally built table (used by the branch manager)."""
        key = self._new_key(table.schema.name)
        token = self._wal_log("register_table", table.snapshot_state())
        try:
            self._tables[key] = table
            self.schema_version += 1
        except BaseException:
            self._wal_abort(token)
            raise

    def drop_table(self, name: str) -> None:
        self._stored(name)
        key = normalize_identifier(name)
        token = self._wal_log("drop_table", name)
        try:
            del self._tables[key]
            for index_key in [k for k in self._hash_indexes if k[0] == key]:
                del self._hash_indexes[index_key]
            for index_key in [k for k in self._sorted_indexes if k[0] == key]:
                del self._sorted_indexes[index_key]
            for registry in (self._aux_hash_indexes, self._aux_sorted_indexes):
                for index_key in [k for k in registry if k[0] == key]:
                    del registry[index_key]
                    self.aux_index_version += 1
            self.schema_version += 1
        except BaseException:
            self._wal_abort(token)
            raise

    def replace_table(self, table: Table) -> None:
        """Swap in a new table object under the same name (branch checkout).

        Bumps ``data_epoch``: the swapped-in table may carry any
        ``data_version``, so per-table counters alone cannot signal this
        change to snapshot consumers.
        """
        key = self._writable_key(table.schema.name)
        token = self._wal_log("replace_table", table.snapshot_state())
        try:
            self._tables[key] = table
            self._rebuild_indexes_for(key)
            self.data_epoch += 1
        except BaseException:
            self._wal_abort(token)
            raise

    # -- lookups ---------------------------------------------------------------

    def has_table(self, name: str) -> bool:
        key = normalize_identifier(name)
        return key in self._tables or key in self._derived_tables()

    def table(self, name: str) -> Table:
        """The stored table ``name``, else the derived information-schema
        table of that name (read-only: write paths never resolve it)."""
        key = normalize_identifier(name)
        table = self._tables.get(key)
        if table is None:
            table = self._derived_tables().get(key)
            if table is None:
                raise CatalogError(f"table {name!r} does not exist")
        return table

    def table_names(self) -> list[str]:
        """Stored tables only; the information schema is derived."""
        return [table.schema.name for table in self._tables.values()]

    def schemas(self) -> list[TableSchema]:
        return [table.schema for table in self._tables.values()]

    def _derived_tables(self) -> dict[str, Table]:
        """The information schema of the current stored state, rebuilt
        only when :meth:`data_version_tuple` has moved since the last
        build. Two readers racing a rebuild each build an equal copy; the
        stamp is read before the build, so a write landing mid-build
        leaves the entry stale-stamped, and the next read rebuilds it."""
        stamp = self.data_version_tuple()
        built = self._information_schema
        if built is None or built[0] != stamp:
            built = (stamp, _build_information_schema(list(self._tables.values())))
            self._information_schema = built
        return built[1]

    @staticmethod
    def _writable_key(name: str) -> str:
        """``name``'s key for a write path; the information schema is
        derived, so no write may create, change or index a table there."""
        if is_information_schema(name):
            raise CatalogError(f"table {name!r} is read-only: information_schema")
        return normalize_identifier(name)

    def _new_key(self, name: str) -> str:
        key = self._writable_key(name)
        if key in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        return key

    def _stored(self, name: str) -> Table:
        """The stored table a write path mutates or indexes."""
        table = self._tables.get(self._writable_key(name))
        if table is None:
            raise CatalogError(f"table {name!r} does not exist")
        return table

    # -- DML with index maintenance ---------------------------------------------

    def insert_rows(self, name: str, rows: Iterable[Iterable[Value]]) -> list[int]:
        table = self._stored(name)
        rows = [tuple(row) for row in rows]  # materialize: logged then consumed
        token = self._wal_log("insert", name, tuple(rows))
        try:
            before_version = table.data_version
            row_ids = table.insert_many(rows)
            key = normalize_identifier(name)
            if self._indexed_columns(key):
                for row_id in row_ids:
                    self._index_row(key, table, row_id, add=True)
            self._sync_aux_versions(key, table, before_version)
            self.data_epoch += 1
        except BaseException:
            self._wal_abort(token)
            raise
        return row_ids

    def update_row(self, name: str, row_id: int, values: Iterable[Value]) -> None:
        table = self._stored(name)
        values = tuple(values)  # materialize: logged then consumed
        token = self._wal_log("update", name, row_id, values)
        try:
            before_version = table.data_version
            key = normalize_identifier(name)
            if self._indexed_columns(key):
                self._index_row(key, table, row_id, add=False)
            table.update(row_id, values)
            if self._indexed_columns(key):
                self._index_row(key, table, row_id, add=True)
            self._sync_aux_versions(key, table, before_version)
            self.data_epoch += 1
        except BaseException:
            self._wal_abort(token)
            raise

    def delete_row(self, name: str, row_id: int) -> None:
        table = self._stored(name)
        token = self._wal_log("delete", name, row_id)
        try:
            before_version = table.data_version
            key = normalize_identifier(name)
            if self._indexed_columns(key):
                self._index_row(key, table, row_id, add=False)
            table.delete(row_id)
            self._sync_aux_versions(key, table, before_version)
            self.data_epoch += 1
        except BaseException:
            self._wal_abort(token)
            raise

    # -- indexes -----------------------------------------------------------------

    def create_hash_index(self, table_name: str, column: str) -> HashIndex:
        table = self._stored(table_name)
        key = (normalize_identifier(table_name), normalize_identifier(column))
        if key in self._hash_indexes:
            raise CatalogError(f"hash index on {table_name}.{column} already exists")
        token = self._wal_log("hash_index", table_name, column)
        try:
            index = HashIndex(table.schema.name, column)
            position = table.schema.position_of(column)
            for row_id, row in table.scan_with_ids():
                index.add(row[position], row_id)
            self._hash_indexes[key] = index
            self.schema_version += 1
        except BaseException:
            self._wal_abort(token)
            raise
        return index

    def create_sorted_index(self, table_name: str, column: str) -> SortedIndex:
        table = self._stored(table_name)
        key = (normalize_identifier(table_name), normalize_identifier(column))
        if key in self._sorted_indexes:
            raise CatalogError(f"sorted index on {table_name}.{column} already exists")
        token = self._wal_log("sorted_index", table_name, column)
        try:
            index = SortedIndex(table.schema.name, column)
            position = table.schema.position_of(column)
            for row_id, row in table.scan_with_ids():
                index.add(row[position], row_id)
            self._sorted_indexes[key] = index
            self.schema_version += 1
        except BaseException:
            self._wal_abort(token)
            raise
        return index

    def hash_index(self, table_name: str, column: str) -> HashIndex | None:
        return self._hash_indexes.get(
            (normalize_identifier(table_name), normalize_identifier(column))
        )

    def sorted_index(self, table_name: str, column: str) -> SortedIndex | None:
        return self._sorted_indexes.get(
            (normalize_identifier(table_name), normalize_identifier(column))
        )

    # -- auxiliary (maintenance-built) indexes -----------------------------------
    #
    # Auxiliary indexes are executor-visible but planner-invisible: the
    # index-selection rewrite rule never sees them, so building one cannot
    # change a plan's shape or fingerprint. The maintenance runtime builds
    # them from mined predicate history and substitutes IndexScans at
    # execution time, keeping answers byte-identical to a maintenance-off
    # run while the scan paths get faster.

    def create_auxiliary_hash_index(self, table_name: str, column: str) -> HashIndex:
        table = self._stored(table_name)
        key = (normalize_identifier(table_name), normalize_identifier(column))
        if key in self._aux_hash_indexes:
            raise CatalogError(
                f"auxiliary hash index on {table_name}.{column} already exists"
            )
        token = self._wal_log("aux_hash_index", table_name, column)
        try:
            # Stamp the version observed *before* the build scan: a write
            # that races the scan leaves the entry behind the table's
            # version, so the possibly-incomplete index is born stale
            # (refused) instead of laundered fresh.
            before_version = table.data_version
            index = HashIndex(table.schema.name, column)
            position = table.schema.position_of(column)
            for row_id, row in table.scan_with_ids():
                index.add(row[position], row_id)
            self._aux_hash_indexes[key] = AuxiliaryIndex(index, before_version)
            self.aux_index_version += 1
        except BaseException:
            self._wal_abort(token)
            raise
        return index

    def create_auxiliary_sorted_index(self, table_name: str, column: str) -> SortedIndex:
        table = self._stored(table_name)
        key = (normalize_identifier(table_name), normalize_identifier(column))
        if key in self._aux_sorted_indexes:
            raise CatalogError(
                f"auxiliary sorted index on {table_name}.{column} already exists"
            )
        token = self._wal_log("aux_sorted_index", table_name, column)
        try:
            before_version = table.data_version  # see create_auxiliary_hash_index
            index = SortedIndex(table.schema.name, column)
            position = table.schema.position_of(column)
            for row_id, row in table.scan_with_ids():
                index.add(row[position], row_id)
            self._aux_sorted_indexes[key] = AuxiliaryIndex(index, before_version)
            self.aux_index_version += 1
        except BaseException:
            self._wal_abort(token)
            raise
        return index

    def auxiliary_hash_index(self, table_name: str, column: str) -> HashIndex | None:
        """The auxiliary hash index on (table, column) — fresh entries only.

        Returns ``None`` when the entry's recorded ``data_version`` trails
        the table's (a direct ``Table`` mutation bypassed catalog index
        maintenance), so rewrites never serve a stale index.
        """
        key = (normalize_identifier(table_name), normalize_identifier(column))
        entry = self._aux_hash_indexes.get(key)
        if entry is None:
            return None
        table = self._tables.get(key[0])
        if table is None or entry.data_version != table.data_version:
            return None
        return entry.index

    def auxiliary_sorted_index(self, table_name: str, column: str) -> SortedIndex | None:
        """The auxiliary sorted index on (table, column) — fresh entries only."""
        key = (normalize_identifier(table_name), normalize_identifier(column))
        entry = self._aux_sorted_indexes.get(key)
        if entry is None:
            return None
        table = self._tables.get(key[0])
        if table is None or entry.data_version != table.data_version:
            return None
        return entry.index

    def auxiliary_index_keys(self) -> list[tuple[str, str, str]]:
        """(table, column, kind) for every auxiliary index (observability)."""
        out = [(t, c, "hash") for (t, c) in self._aux_hash_indexes]
        out += [(t, c, "sorted") for (t, c) in self._aux_sorted_indexes]
        return sorted(out)

    def lookup_hash_index(self, table_name: str, column: str) -> HashIndex | None:
        """Planner index if declared, else a fresh auxiliary one (executor
        resolution path for IndexScan nodes)."""
        index = self.hash_index(table_name, column)
        if index is not None:
            return index
        return self.auxiliary_hash_index(table_name, column)

    def lookup_sorted_index(self, table_name: str, column: str) -> SortedIndex | None:
        index = self.sorted_index(table_name, column)
        if index is not None:
            return index
        return self.auxiliary_sorted_index(table_name, column)

    # -- statistics --------------------------------------------------------------

    def stats(self, table_name: str) -> TableStats:
        """Statistics for ``table_name``'s current state: memoized on the
        state, so recomputed only after the table changed."""
        return table_stats(
            self.table(table_name).snapshot_state(), self.storage_counters
        )

    # -- internals -----------------------------------------------------------------

    def _indexed_columns(self, table_key: str) -> list[str]:
        # list() copies before iterating: the maintenance thread may be
        # registering an auxiliary index concurrently with a DML caller.
        columns = [c for (t, c) in list(self._hash_indexes) if t == table_key]
        columns += [c for (t, c) in list(self._sorted_indexes) if t == table_key]
        columns += [c for (t, c) in list(self._aux_hash_indexes) if t == table_key]
        columns += [c for (t, c) in list(self._aux_sorted_indexes) if t == table_key]
        return columns

    def _all_indexes_for(self, table_key: str) -> list[tuple[str, HashIndex | SortedIndex]]:
        """(column, index) pairs for every index — planner and auxiliary —
        on one table; the shared iteration for row-level maintenance."""
        out: list[tuple[str, HashIndex | SortedIndex]] = []
        for (t, column), index in list(self._hash_indexes.items()):
            if t == table_key:
                out.append((column, index))
        for (t, column), index in list(self._sorted_indexes.items()):
            if t == table_key:
                out.append((column, index))
        for registry in (self._aux_hash_indexes, self._aux_sorted_indexes):
            for (t, column), entry in list(registry.items()):
                if t == table_key:
                    out.append((column, entry.index))
        return out

    def _index_row(self, table_key: str, table: Table, row_id: int, add: bool) -> None:
        row = table.get(row_id)
        for column, index in self._all_indexes_for(table_key):
            value = row[table.schema.position_of(column)]
            index.add(value, row_id) if add else index.remove(value, row_id)

    def _sync_aux_versions(
        self, table_key: str, table: Table, before_version: int
    ) -> None:
        """Record that auxiliary indexes saw this catalog-mediated write.

        Only entries that were in sync with the table *before* this
        mutation advance to the new ``table.data_version`` — an entry
        already stale (a direct ``Table`` mutation bypassed catalog index
        maintenance at some point, so it is permanently missing rows)
        must stay detectably stale, never be laundered fresh by a later
        catalog-mediated write.
        """
        for registry in (self._aux_hash_indexes, self._aux_sorted_indexes):
            # Copy before iterating: the maintenance thread may register a
            # new auxiliary index while a DML caller runs this sync.
            for (t, _column), entry in list(registry.items()):
                if t == table_key and entry.data_version == before_version:
                    entry.data_version = table.data_version

    def _rebuild_indexes_for(self, table_key: str) -> None:
        table = self._tables[table_key]
        for (t, column), old in list(self._hash_indexes.items()):
            if t != table_key:
                continue
            index = HashIndex(old.table, column)
            position = table.schema.position_of(column)
            for row_id, row in table.scan_with_ids():
                index.add(row[position], row_id)
            self._hash_indexes[(t, column)] = index
        for (t, column), old_sorted in list(self._sorted_indexes.items()):
            if t != table_key:
                continue
            sorted_index = SortedIndex(old_sorted.table, column)
            position = table.schema.position_of(column)
            for row_id, row in table.scan_with_ids():
                sorted_index.add(row[position], row_id)
            self._sorted_indexes[(t, column)] = sorted_index
        for registry, factory in (
            (self._aux_hash_indexes, HashIndex),
            (self._aux_sorted_indexes, SortedIndex),
        ):
            for (t, column), old_entry in list(registry.items()):
                if t != table_key:
                    continue
                rebuilt = factory(old_entry.index.table, column)
                position = table.schema.position_of(column)
                for row_id, row in table.scan_with_ids():
                    rebuilt.add(row[position], row_id)
                registry[(t, column)] = AuxiliaryIndex(rebuilt, table.data_version)

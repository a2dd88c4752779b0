"""Tests for the storage substrate: types, schema, tables, catalog, stats,
indexes."""

from __future__ import annotations

import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, ExecutionError
from repro.storage import (
    Catalog,
    Column,
    DataType,
    Table,
    TableSchema,
    coerce_value,
    compute_table_stats,
    infer_type,
)
from repro.storage.statistics import (
    HISTOGRAM_BUCKETS,
    MCV_SIZE,
    ColumnStats,
    compute_column_stats,
)
from repro.storage.table import CHUNK_SIZE, Chunk, TableSnapshot
from repro.storage.types import compare_values


def make_schema(name: str = "t") -> TableSchema:
    return TableSchema(
        name,
        (
            Column("id", DataType.INTEGER, nullable=False, primary_key=True),
            Column("name", DataType.TEXT),
            Column("score", DataType.FLOAT),
        ),
    )


class TestTypes:
    def test_parse_synonyms(self):
        assert DataType.parse("varchar") is DataType.TEXT
        assert DataType.parse("BIGINT") is DataType.INTEGER
        assert DataType.parse("double") is DataType.FLOAT
        assert DataType.parse("bool") is DataType.BOOLEAN

    def test_parse_unknown_raises(self):
        with pytest.raises(ExecutionError):
            DataType.parse("blob")

    def test_coerce_int_widens_to_float(self):
        assert coerce_value(3, DataType.FLOAT) == 3.0
        assert isinstance(coerce_value(3, DataType.FLOAT), float)

    def test_coerce_lossy_float_to_int_raises(self):
        with pytest.raises(ExecutionError):
            coerce_value(3.5, DataType.INTEGER)

    def test_coerce_exact_float_to_int(self):
        assert coerce_value(3.0, DataType.INTEGER) == 3

    def test_coerce_null_passes_all_types(self):
        for data_type in DataType:
            assert coerce_value(None, data_type) is None

    def test_coerce_string_to_number(self):
        assert coerce_value("42", DataType.INTEGER) == 42
        with pytest.raises(ExecutionError):
            coerce_value("4x", DataType.INTEGER)

    def test_coerce_boolean(self):
        assert coerce_value("true", DataType.BOOLEAN) is True
        assert coerce_value(1, DataType.BOOLEAN) is True
        with pytest.raises(ExecutionError):
            coerce_value(7, DataType.BOOLEAN)

    def test_infer_type(self):
        assert infer_type(1) is DataType.INTEGER
        assert infer_type(True) is DataType.BOOLEAN
        assert infer_type(1.5) is DataType.FLOAT
        assert infer_type("x") is DataType.TEXT
        assert infer_type(None) is None

    def test_compare_values_null(self):
        assert compare_values(None, 1) is None
        assert compare_values(1, None) is None

    def test_compare_values_mixed_numeric(self):
        assert compare_values(1, 1.5) == -1
        assert compare_values(2.0, 2) == 0

    def test_compare_values_cross_type_raises(self):
        with pytest.raises(ExecutionError):
            compare_values("a", 1)


class TestSchema:
    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", (Column("a", DataType.TEXT), Column("A", DataType.TEXT)))

    def test_position_lookup_case_insensitive(self):
        schema = make_schema()
        assert schema.position_of("NAME") == 1

    def test_missing_column_raises(self):
        with pytest.raises(CatalogError):
            make_schema().position_of("missing")

    def test_primary_key_positions(self):
        assert make_schema().primary_key_positions() == [0]

    def test_fingerprint_payload_changes_with_schema(self):
        a = make_schema()
        b = TableSchema("t", a.columns + (Column("extra", DataType.TEXT),))
        assert a.fingerprint_payload() != b.fingerprint_payload()


class TestTable:
    def test_insert_and_scan(self):
        table = Table(make_schema())
        table.insert((1, "a", 0.5))
        table.insert((2, "b", None))
        assert table.rows() == [(1, "a", 0.5), (2, "b", None)]

    def test_not_null_enforced(self):
        table = Table(make_schema())
        with pytest.raises(ExecutionError):
            table.insert((None, "a", 1.0))

    def test_arity_enforced(self):
        table = Table(make_schema())
        with pytest.raises(ExecutionError):
            table.insert((1, "a"))

    def test_update_and_get(self):
        table = Table(make_schema())
        row_id = table.insert((1, "a", 0.5))
        table.update(row_id, (1, "z", 9.0))
        assert table.get(row_id) == (1, "z", 9.0)

    def test_delete_removes_row(self):
        table = Table(make_schema())
        first = table.insert((1, "a", 0.5))
        table.insert((2, "b", 1.5))
        table.delete(first)
        assert table.rows() == [(2, "b", 1.5)]
        with pytest.raises(ExecutionError):
            table.get(first)

    def test_row_ids_stable_and_not_reused(self):
        table = Table(make_schema())
        first = table.insert((1, "a", None))
        table.delete(first)
        second = table.insert((2, "b", None))
        assert second > first

    def test_bulk_insert_chunking(self):
        table = Table(make_schema())
        table.insert_many((i, f"n{i}", float(i)) for i in range(CHUNK_SIZE * 2 + 10))
        assert table.num_rows == CHUNK_SIZE * 2 + 10
        assert table.num_chunks == 3

    def test_snapshot_shares_storage(self):
        table = Table(make_schema())
        table.insert_many((i, "x", None) for i in range(10))
        snap = table.snapshot()
        clone = Table.from_snapshot(make_schema(), snap, table.next_row_id)
        table.update(0, (0, "changed", None))
        # The clone still sees the pre-update value: chunks are immutable.
        assert clone.get(0) == (0, "x", None)
        assert table.get(0) == (0, "changed", None)

    def test_data_version_bumps(self):
        table = Table(make_schema())
        v0 = table.data_version
        table.insert((1, "a", None))
        assert table.data_version > v0

    def test_cached_state_is_never_torn_by_a_concurrent_write(self):
        """Readers take the cached state while writers insert (more
        threads than cores, a tiny switch interval). One row and one
        version bump per insert, so every state a reader sees has exactly
        ``data_version`` rows, and its segment as many values."""
        table = Table(TableSchema("c", (Column("v", DataType.INTEGER),)))
        seen: list[tuple[int, int, int]] = []
        lock = threading.Lock()

        def write() -> None:
            for k in range(300):
                table.insert((k,))

        def read() -> None:
            for _ in range(300):
                state = table.snapshot_state()
                observed = (state.data_version, state.num_rows, len(state.segment(0).values))
                with lock:
                    seen.append(observed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write) for _ in range(2)]
            threads += [threading.Thread(target=read) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 6 * 300
        assert all(version == rows == values for version, rows, values in seen)
        state = table.snapshot_state()
        assert state.num_rows == state.data_version == 600

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=60, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_delete_everything_property(self, values):
        table = Table(make_schema())
        ids = [table.insert((v, str(v), None)) for v in values]
        for row_id in ids:
            table.delete(row_id)
        assert table.num_rows == 0


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        catalog.create_table(make_schema("users"))
        assert catalog.has_table("USERS")
        assert catalog.table("users").schema.name == "users"

    def test_duplicate_create_rejected(self):
        catalog = Catalog()
        catalog.create_table(make_schema("t"))
        with pytest.raises(CatalogError):
            catalog.create_table(make_schema("T"))

    def test_drop_missing_raises(self):
        with pytest.raises(CatalogError):
            Catalog().drop_table("ghost")

    def test_schema_version_bumps_on_ddl(self):
        catalog = Catalog()
        v0 = catalog.schema_version
        catalog.create_table(make_schema("t"))
        v1 = catalog.schema_version
        catalog.drop_table("t")
        assert v0 < v1 < catalog.schema_version

    def test_hash_index_maintained_on_dml(self):
        catalog = Catalog()
        catalog.create_table(make_schema("t"))
        catalog.insert_rows("t", [(1, "a", None), (2, "b", None)])
        index = catalog.create_hash_index("t", "name")
        assert index.lookup("a") != set()
        (row_id,) = index.lookup("a")
        catalog.update_row("t", row_id, (1, "z", None))
        assert index.lookup("a") == set()
        assert index.lookup("z") == {row_id}
        catalog.delete_row("t", row_id)
        assert index.lookup("z") == set()

    def test_sorted_index_range(self):
        catalog = Catalog()
        catalog.create_table(make_schema("t"))
        catalog.insert_rows("t", [(i, "x", float(i)) for i in range(10)])
        index = catalog.create_sorted_index("t", "id")
        ids = index.lookup_range(3, 6)
        values = [catalog.table("t").get(r)[0] for r in ids]
        assert values == [3, 4, 5, 6]

    def test_stats_cached_until_change(self):
        catalog = Catalog()
        catalog.create_table(make_schema("t"))
        catalog.insert_rows("t", [(1, "a", 1.0)])
        stats1 = catalog.stats("t")
        assert catalog.stats("t") is stats1
        catalog.insert_rows("t", [(2, "b", 2.0)])
        assert catalog.stats("t") is not stats1


class TestIndexWritePathMaintenance:
    """Index contents under the full write path: inserts, updates, deletes
    — lookup / lookup_range / distinct_keys must track the table exactly.
    Previously only exercised indirectly through query execution."""

    def populated(self) -> Catalog:
        catalog = Catalog()
        catalog.create_table(make_schema("t"))
        catalog.insert_rows(
            "t", [(i, ("a", "b", "c")[i % 3], float(i)) for i in range(12)]
        )
        return catalog

    def lookup_matches_scan(self, catalog: Catalog, column: str, value) -> None:
        index = catalog.hash_index("t", column) or catalog.auxiliary_hash_index(
            "t", column
        )
        table = catalog.table("t")
        position = table.schema.position_of(column)
        expected = {
            row_id for row_id, row in table.scan_with_ids() if row[position] == value
        }
        assert index.lookup(value) == expected

    def test_hash_lookup_consistent_across_mixed_dml(self):
        catalog = self.populated()
        catalog.create_hash_index("t", "name")
        catalog.insert_rows("t", [(100, "a", 1.5), (101, None, 2.5)])
        for value in ("a", "b", "c"):
            self.lookup_matches_scan(catalog, "name", value)
        # Update moves a row between buckets; NULL leaves the index.
        moved = min(catalog.hash_index("t", "name").lookup("a"))
        catalog.update_row("t", moved, (999, "c", 0.0))
        self.lookup_matches_scan(catalog, "name", "a")
        self.lookup_matches_scan(catalog, "name", "c")
        catalog.update_row("t", moved, (999, None, 0.0))
        self.lookup_matches_scan(catalog, "name", "c")
        assert moved not in catalog.hash_index("t", "name").lookup("c")
        # Deletes shrink buckets all the way to removal.
        for row_id in sorted(catalog.hash_index("t", "name").lookup("b")):
            catalog.delete_row("t", row_id)
        assert catalog.hash_index("t", "name").lookup("b") == set()

    def test_distinct_keys_after_deletions(self):
        catalog = self.populated()
        index = catalog.create_hash_index("t", "name")
        assert index.distinct_keys == 3
        for row_id in sorted(index.lookup("c")):
            catalog.delete_row("t", row_id)
        assert index.distinct_keys == 2  # emptied bucket is dropped
        assert len(index) == catalog.table("t").num_rows

    def test_sorted_range_consistent_across_mixed_dml(self):
        catalog = self.populated()
        index = catalog.create_sorted_index("t", "score")
        catalog.insert_rows("t", [(200, "z", 4.5), (201, "z", None)])
        catalog.delete_row("t", min(index.lookup(3.0)))
        (victim,) = index.lookup(5.0)
        catalog.update_row("t", victim, (5, "z", 50.0))
        table = catalog.table("t")
        position = table.schema.position_of("score")
        populated_rows = [
            (row_id, row)
            for row_id, row in table.scan_with_ids()
            if row[position] is not None
        ]
        expected = [
            row_id
            for row_id, row in sorted(
                populated_rows, key=lambda pair: (pair[1][position], pair[0])
            )
            if 2.0 <= row[position] <= 50.0
        ]
        assert index.lookup_range(2.0, 50.0) == expected
        assert len(index) == sum(
            1 for row in table.scan() if row[position] is not None
        )

    def test_auxiliary_indexes_maintained_like_planner_ones(self):
        catalog = self.populated()
        catalog.create_auxiliary_hash_index("t", "name")
        catalog.create_auxiliary_sorted_index("t", "score")
        catalog.insert_rows("t", [(300, "a", 30.0)])
        self.lookup_matches_scan(catalog, "name", "a")
        sorted_index = catalog.auxiliary_sorted_index("t", "score")
        assert 300 in {
            catalog.table("t").get(r)[0]
            for r in sorted_index.lookup_range(30.0, 30.0)
        }
        row_id = min(catalog.auxiliary_hash_index("t", "name").lookup("a"))
        catalog.delete_row("t", row_id)
        self.lookup_matches_scan(catalog, "name", "a")
        # Catalog-mediated DML keeps auxiliary entries fresh...
        assert catalog.auxiliary_hash_index("t", "name") is not None
        # ...while direct table mutation marks them stale (refused).
        catalog.table("t").insert((400, "a", 40.0))
        assert catalog.auxiliary_hash_index("t", "name") is None
        assert catalog.auxiliary_sorted_index("t", "score") is None

    def test_catalog_dml_never_launders_a_stale_auxiliary_index(self):
        """An entry stale from a catalog-bypassing write is permanently
        missing rows — a later catalog-mediated write (which maintains
        only its own rows) must not re-stamp it fresh."""
        catalog = self.populated()
        catalog.create_auxiliary_hash_index("t", "name")
        catalog.table("t").insert((500, "a", 5.0))  # bypasses index upkeep
        assert catalog.auxiliary_hash_index("t", "name") is None
        catalog.insert_rows("t", [(501, "a", 6.0)])  # maintained write
        assert catalog.auxiliary_hash_index("t", "name") is None  # still stale
        # A rebuild (replace_table path) restores freshness from scratch.
        catalog.replace_table(catalog.table("t"))
        index = catalog.auxiliary_hash_index("t", "name")
        assert index is not None
        self.lookup_matches_scan(catalog, "name", "a")

    def test_write_racing_an_auxiliary_build_leaves_the_entry_stale(self):
        """The build stamps the data_version observed *before* its scan: a
        write landing mid-build leaves the (possibly incomplete) index
        detectably stale instead of laundered fresh."""
        catalog = self.populated()
        table = catalog.table("t")
        original = table.scan_with_ids

        def racing_scan():
            raced = False
            for item in original():
                if not raced:
                    table.insert((600, "a", 6.0))  # concurrent writer
                    raced = True
                yield item

        table.scan_with_ids = racing_scan  # type: ignore[method-assign]
        try:
            catalog.create_auxiliary_hash_index("t", "name")
        finally:
            del table.scan_with_ids
        assert catalog.auxiliary_hash_index("t", "name") is None

    def test_auxiliary_registry_versioning_and_snapshot_round_trip(self):
        catalog = self.populated()
        before = catalog.version()
        catalog.create_auxiliary_hash_index("t", "name")
        assert catalog.version() != before
        # ...but building an index never moves the *data* version views
        # are stamped with.
        assert catalog.data_version_tuple() == before[:-1]
        with pytest.raises(CatalogError):
            catalog.create_auxiliary_hash_index("t", "name")
        restored = Catalog.from_snapshot(catalog.snapshot())
        assert restored.auxiliary_hash_index("t", "name") is not None
        assert restored.auxiliary_hash_index("t", "name").lookup(
            "a"
        ) == catalog.auxiliary_hash_index("t", "name").lookup("a")
        # Planner-facing lookups never see auxiliary entries.
        assert catalog.hash_index("t", "name") is None
        assert catalog.lookup_hash_index("t", "name") is not None
        catalog.drop_table("t")
        assert catalog.auxiliary_index_keys() == []


class TestStatistics:
    def make_table(self) -> Table:
        table = Table(make_schema())
        rows = [(i, "ca" if i % 3 == 0 else "wa", float(i)) for i in range(30)]
        rows.append((100, None, None))
        table.insert_many(rows)
        return table

    def test_basic_counts(self):
        stats = compute_table_stats(self.make_table())
        name = stats.column("name")
        assert name.row_count == 31
        assert name.null_count == 1
        assert name.distinct_count == 2

    def test_min_max(self):
        stats = compute_table_stats(self.make_table())
        ids = stats.column("id")
        assert ids.min_value == 0
        assert ids.max_value == 100

    def test_most_common_values(self):
        stats = compute_table_stats(self.make_table())
        top_value, top_count = stats.column("name").most_common[0]
        assert top_value == "wa"
        assert top_count == 20

    def test_selectivity_equals_mcv(self):
        stats = compute_table_stats(self.make_table())
        name = stats.column("name")
        assert name.selectivity_equals("wa") == pytest.approx(20 / 31)

    def test_selectivity_equals_unseen(self):
        stats = compute_table_stats(self.make_table())
        assert 0 < stats.column("name").selectivity_equals("zz") <= 1

    def test_selectivity_range(self):
        stats = compute_table_stats(self.make_table())
        ids = stats.column("id")
        assert ids.selectivity_range(0, 50) == pytest.approx(0.5)
        assert ids.selectivity_range(None, None) == 1.0

    def test_histogram_buckets_sum(self):
        stats = compute_table_stats(self.make_table())
        score = stats.column("score")
        assert sum(score.histogram) == 30  # one NULL excluded

    def test_empty_table(self):
        stats = compute_table_stats(Table(make_schema()))
        column = stats.column("id")
        assert column.row_count == 0
        assert column.selectivity_equals(1) == 0.0


# -- column segments -------------------------------------------------------------

class TestSegments:
    """A write makes a new state, whose segments are built from its own
    rows; the previous state's segments stay as they were."""

    def test_each_write_builds_the_next_segment_from_its_rows(self):
        table = Table(TableSchema("seg", (Column("v", DataType.INTEGER),)))
        table.insert_many([(k,) for k in range(CHUNK_SIZE)] + [(None,)])
        ids = [row_id for row_id, _ in table.scan_with_ids()]
        first = table.snapshot_state().segment(0)
        assert first.mirror is None  # the NULL keeps the column off numpy
        table.update(ids[-1], (7,))
        second = table.snapshot_state().segment(0)
        assert second.values == list(range(CHUNK_SIZE)) + [7]
        assert second.mirror.dtype == np.int64
        assert second.mirror.tolist() == second.values
        assert not second.mirror.flags.writeable
        table.insert((2**63,))  # past int64: no mirror
        third = table.snapshot_state().segment(0)
        assert third.values == second.values + [2**63]
        assert third.mirror is None
        assert first.values == list(range(CHUNK_SIZE)) + [None]
        assert second.values == list(range(CHUNK_SIZE)) + [7]


# -- numpy statistics vs the per-value loop --------------------------------------


def oracle_column_stats(state: TableSnapshot, position: int) -> ColumnStats:
    """The single-pass per-value loop statistics were computed with before
    they read column segments, kept verbatim as the reference."""
    schema = state.schema
    data_type = schema.columns[position].data_type
    counter: Counter = Counter()
    null_count = 0
    min_value = None
    max_value = None
    numeric_values: list[float] = []
    for chunk in state.chunks:
        for row in chunk.rows:
            value = row[position]
            if value is None:
                null_count += 1
                continue
            counter[value] += 1
            if min_value is None or _oracle_less_than(value, min_value):
                min_value = value
            if max_value is None or _oracle_less_than(max_value, value):
                max_value = value
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                numeric_values.append(float(value))

    histogram: tuple[int, ...] = ()
    if numeric_values and min_value is not None and max_value is not None:
        histogram = _oracle_histogram(
            numeric_values, float(min_value), float(max_value)
        )

    return ColumnStats(
        column=schema.columns[position].name,
        data_type=data_type,
        row_count=state.num_rows,
        null_count=null_count,
        distinct_count=len(counter),
        min_value=min_value,
        max_value=max_value,
        most_common=tuple(counter.most_common(MCV_SIZE)),
        histogram=histogram,
    )


def _oracle_less_than(left, right) -> bool:
    try:
        return left < right
    except TypeError:
        return str(left) < str(right)


def _oracle_histogram(values: list[float], low: float, high: float) -> tuple[int, ...]:
    buckets = [0] * HISTOGRAM_BUCKETS
    span = high - low
    if span <= 0:
        buckets[0] = len(values)
        return tuple(buckets)
    for value in values:
        index = min(int((value - low) / span * HISTOGRAM_BUCKETS), HISTOGRAM_BUCKETS - 1)
        buckets[index] += 1
    return tuple(buckets)


def column_state(values: list) -> TableSnapshot:
    """A one-column table state holding ``values`` exactly as given —
    built from chunks, so no coercion unifies their types — spread over
    several chunks."""
    schema = TableSchema("adv", (Column("v", DataType.FLOAT),))
    chunks = tuple(
        Chunk(
            tuple(range(start, start + len(values[start : start + 7]))),
            tuple((value,) for value in values[start : start + 7]),
        )
        for start in range(0, len(values), 7)
    )
    return TableSnapshot(schema, chunks, len(values), 0)


def outcome(compute, state: TableSnapshot) -> str:
    """``repr`` of the statistics, or of the error computing them raised."""
    try:
        return repr(compute(state, 0))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return f"{type(exc).__name__}: {exc}"


NAN = float("nan")

ADVERSARIAL_COLUMNS = {
    # count ties: more than MCV_SIZE distinct values, cut by first appearance
    "mcv_ties_int": [5, 3, 5, 3, 9, 1, 1, 9] + list(range(20, 34)) * 2 + [7],
    "mcv_ties_float": [0.5 * (i % 14) for i in range(41)][::-1],
    "signed_zero_neg_first": [-0.0, 0.0, 1.5, 0.0, -0.0, -2.5, -2.5, 1.5],
    "signed_zero_pos_first": [0.0, -0.0, -0.0, 3.0, 0.0],
    "signed_zero_max_neg_first": [-0.0, -1.0, 0.0, -2.5, 0.0],
    "signed_zero_max_pos_first": [-3.0, 0.0, -0.0, -0.0],
    "signed_zero_min_pos_first": [0.0, 1.0, -0.0, 2.0],
    "signed_zero_min_neg_first": [4.0, -0.0, 0.0, 1.0, -0.0],
    "nan_first": [NAN, 1.0, 2.0, 1.0],
    "nan_mid": [1.0, 2.0, NAN, NAN, 0.5],
    "nan_only": [NAN, NAN],
    "infinity": [1.0, float("inf"), -2.0],
    "infinite_span": [1e308, -1e308, 0.0],
    "beyond_int64": [2**63, 1, -5, 2**63, 2**70],
    "beyond_2_53": [2**53 + 1, 2**53, 2**60 + 3, -(2**62), 2**53 + 1, 2**62 + 1],
    "int64_extremes": [2**63 - 1, -(2**63), 0, 2**63 - 1],
    "bools": [True, False, True, True, False],
    "mixed_int_float": [1, 2.5, 1.0, 3, 2.5, 1],
    "mixed_with_null": [None, 4, 4.0, None, -1.5],
    "all_null": [None, None, None],
    "empty": [],
    "single_value_int": [7, 7, 7],
    "single_value_float": [2.5] * 9,
    "single_row": [-0.0],
    "text": ["b", "a", "b", None, "c"],
}


class TestMirrorStatistics:
    """Statistics read from column segments take a numpy path for
    NULL-free numeric mirrors; their ``repr`` must be the per-value
    loop's, value types, signs and tie order included."""

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_COLUMNS))
    def test_adversarial_columns_match_the_loop(self, name):
        values = ADVERSARIAL_COLUMNS[name]
        assert outcome(compute_column_stats, column_state(values)) == outcome(
            oracle_column_stats, column_state(values)
        )

    def test_numpy_path_is_taken(self):
        """The fast path really runs: mirrored columns exist for the
        columns it claims, and the loop answers for the rest."""
        for name in ("mcv_ties_int", "signed_zero_neg_first", "beyond_2_53"):
            assert column_state(ADVERSARIAL_COLUMNS[name]).segment(0).mirror is not None
        for name in ("beyond_int64", "bools", "mixed_int_float", "all_null"):
            assert column_state(ADVERSARIAL_COLUMNS[name]).segment(0).mirror is None

    @given(
        st.one_of(
            st.lists(st.integers(-4, 4), max_size=60),
            st.lists(st.integers(-(2**63), 2**63 - 1), max_size=30),
            st.lists(
                st.one_of(
                    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, -0.7, 1e16, 2.5]),
                    st.floats(-1e6, 1e6, allow_nan=False),
                ),
                max_size=60,
            ),
            st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_random_columns_match_the_loop(self, values):
        assert outcome(compute_column_stats, column_state(values)) == outcome(
            oracle_column_stats, column_state(values)
        )

    def test_table_stats_match_the_loop_per_column(self):
        catalog = Catalog()
        catalog.create_table(make_schema("t"))
        catalog.insert_rows(
            "t",
            [
                (i, None if i % 5 == 0 else f"n{i % 7}", (i % 9) * 0.5)
                for i in range(600)
            ],
        )
        state = catalog.table("t").snapshot_state()
        stats = catalog.stats("t")
        for position, column in enumerate(state.schema.columns):
            assert repr(stats.column(column.name)) == repr(
                oracle_column_stats(state, position)
            )

    def test_stats_are_memoized_on_the_state(self):
        catalog = Catalog()
        catalog.create_table(make_schema("t"))
        catalog.insert_rows("t", [(i, "x", float(i)) for i in range(40)])
        counters = catalog.storage_counters
        stats = catalog.stats("t")
        assert (counters.stats_recomputes, counters.segment_builds) == (1, 3)
        assert catalog.stats("t") is stats
        # A scan of the same state reads the segments statistics built.
        state = catalog.table("t").snapshot_state()
        assert state.segment(2, counters) is state.segment(2)
        assert (counters.stats_recomputes, counters.segment_builds) == (1, 3)
        assert counters.stats_recompute_ms > 0
        catalog.insert_rows("t", [(40, "y", 40.0)])
        assert catalog.stats("t").row_count == 41
        assert (counters.stats_recomputes, counters.segment_builds) == (2, 6)

"""The relational database facade.

``Database`` owns a :class:`~repro.storage.catalog.Catalog` and runs the
full pipeline: parse → build → optimize → execute. It also

* serves the ``information_schema`` tables its catalog derives,
* evaluates DML (INSERT/UPDATE/DELETE) with index maintenance,
* publishes :class:`ChangeEvent` notifications that the agentic memory
  store's staleness tracker subscribes to (paper Sec. 6.1),
* accepts per-query sampling rates — the hook the probe optimizer
  drives,
* compiles every statement through one catalog-versioned
  :class:`~repro.plan.compiled.StatementCache`, so text a swarm repeats
  is parsed and planned once per catalog version, and
* optionally attaches a write-ahead log (:meth:`Database.attach_wal`,
  ``REPRO_WAL=1`` for an auto-provisioned temp directory) so committed
  state survives a crash; :meth:`Database.recover` rebuilds a facade from
  a log directory at the exact pre-crash version.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.engine.columnar import ColumnarExecutor
from repro.engine.executor import ExecContext
from repro.engine.expressions import compile_expr
from repro.engine.result import QueryResult
from repro.errors import CatalogError, ExecutionError
from repro.plan.compiled import (
    CompiledStatement,
    StatementCache,
    compile_select,
    compile_statement,
    compiled_estimate,
)
from repro.plan.cost import CostEstimate
from repro.plan.logical import OutputCol, PlanNode
from repro.sql import nodes
from repro.storage.catalog import Catalog
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType, Value
from repro.util.env import env_flag


@dataclass(frozen=True)
class ChangeEvent:
    """A schema or data change, published to registered observers.

    ``details`` carries row-level information for DML: tuples of
    ``(row_id, new_values_or_None)`` — ``None`` marks a delete. The
    branched transaction manager uses these to maintain write sets, and
    the agentic memory store uses the coarse fields for staleness.
    """

    kind: str  # 'create' | 'drop' | 'insert' | 'update' | 'delete'
    table: str
    row_count: int = 0
    details: tuple[tuple[int, tuple | None], ...] = ()


class Database:
    """A single-node SQL database with an agent-friendly surface."""

    def __init__(
        self,
        name: str = "db",
        *,
        wal_dir: str | bool | None = None,
        statement_cache: StatementCache | None = None,
    ) -> None:
        self.name = name
        self.catalog = Catalog()
        #: Compiled statements by SQL text, valid for one
        #: ``Catalog.version()``. Derived state: not journaled, and a
        #: recovered facade starts cold.
        self.statement_cache = (
            statement_cache if statement_cache is not None else StatementCache()
        )
        self._observers: list[Callable[[ChangeEvent], None]] = []
        self._wal_tmp: str | None = None
        if wal_dir is None:
            # REPRO_WAL=1 turns durability on globally: every facade gets
            # a throwaway log directory (reclaimed at GC / interpreter
            # exit). Pass ``wal_dir=False`` to opt a facade out.
            if env_flag("REPRO_WAL"):
                wal_dir = tempfile.mkdtemp(prefix=f"repro-wal-{name}-")
                self._wal_tmp = wal_dir
        if wal_dir:
            self.attach_wal(wal_dir)

    # -- durability ------------------------------------------------------------

    @property
    def wal(self):
        """The attached :class:`~repro.txn.wal.WriteAheadLog`, or ``None``."""
        return self.catalog.wal

    def attach_wal(self, directory: str, **wal_kwargs) -> None:
        """Attach a write-ahead log rooted at ``directory``.

        The directory must be fresh — reopening an existing log without
        replaying it would fork history, so that path goes through
        :meth:`recover` instead. An initial checkpoint captures whatever
        state the facade already holds, making the log self-contained
        from its first byte (replicas can seed from it immediately).
        """
        from repro.errors import WalError
        from repro.txn.wal import WriteAheadLog

        if self.catalog.wal is not None:
            raise WalError("a write-ahead log is already attached")
        if os.path.isdir(directory) and any(
            entry.startswith(("wal-", "ckpt-")) for entry in os.listdir(directory)
        ):
            raise WalError(
                f"{directory!r} already contains a write-ahead log; "
                "use Database.recover() to resume from it"
            )
        wal = WriteAheadLog(directory, **wal_kwargs)
        self.catalog.wal = wal
        self.checkpoint()
        weakref.finalize(self, _release_wal, wal, self._wal_tmp)

    def checkpoint(self) -> str | None:
        """Write a durable checkpoint of the catalog now (no-op without a
        log attached). Returns the checkpoint path."""
        wal = self.catalog.wal
        if wal is None:
            return None
        return wal.write_checkpoint(self.catalog)

    @classmethod
    def recover(cls, directory: str, name: str = "db", **wal_kwargs) -> "Database":
        """Rebuild a facade from a WAL directory: checkpoint + tail replay.

        The recovered catalog sits at the exact pre-crash
        ``data_version_tuple()`` — row ids and version counters all match,
        and the information schema derives from the replayed tables — so a
        recovered run answers exactly as one that never crashed. The log
        holds data only: nothing a serving system derived from reads
        survives. The log stays attached and appendable.
        """
        from repro.txn.wal import recover as wal_recover

        state = wal_recover(directory, **wal_kwargs)
        db = cls(name, wal_dir=False)
        db.catalog = state.catalog
        weakref.finalize(db, _release_wal, state.wal, None)
        return db

    # -- observers -------------------------------------------------------------

    def on_change(self, callback: Callable[[ChangeEvent], None]) -> None:
        """Register a callback invoked after every schema/data change."""
        self._observers.append(callback)

    def _publish(self, event: ChangeEvent) -> None:
        for callback in self._observers:
            callback(event)
        # Checkpoint opportunistically at change boundaries.
        wal = self.catalog.wal
        if wal is not None and wal.checkpoint_due():
            self.checkpoint()

    # -- DDL helpers (programmatic API) ------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        self.catalog.create_table(schema)
        self._publish(ChangeEvent("create", schema.name))

    def insert_rows(self, table: str, rows: Iterable[Iterable[Value]]) -> int:
        materialized = [tuple(r) for r in rows]
        row_ids = self.catalog.insert_rows(table, materialized)
        stored = self.catalog.table(table)
        details = tuple((rid, stored.get(rid)) for rid in row_ids)
        self._publish(ChangeEvent("insert", table, len(row_ids), details))
        return len(row_ids)

    def table_names(self) -> list[str]:
        return self.catalog.table_names()

    # -- query execution -----------------------------------------------------------

    def execute(
        self,
        sql: str,
        sample_rate: float = 1.0,
        sample_seed: int = 0,
    ) -> QueryResult:
        """Parse and execute one statement, returning a result.

        ``sample_rate`` < 1 runs SELECTs approximately (Bernoulli-sampled
        scans with scaled aggregates); DML always runs exactly.
        """
        compiled = self._compile(sql)
        if compiled.plan is not None:
            context = ExecContext(sample_rate=sample_rate, sample_seed=sample_seed)
            return ColumnarExecutor(self.catalog, context).run(compiled.plan)
        statement = compiled.statement
        if isinstance(statement, nodes.CreateTable):
            return self._execute_create(statement)
        if isinstance(statement, nodes.DropTable):
            return self._execute_drop(statement)
        if isinstance(statement, nodes.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, nodes.Update):
            return self._execute_update(statement)
        if isinstance(statement, nodes.Delete):
            return self._execute_delete(statement)
        # Unparseable text, or a SELECT that does not plan.
        compiled.raise_failure()

    def _compile(self, sql: str) -> CompiledStatement:
        return compile_select(sql, self.catalog, self.statement_cache)

    def plan_select(self, sql: str) -> PlanNode:
        """Parse and plan (but do not run) a SELECT; used by analyses.

        The returned plan is shared with every other caller of the same
        text at this catalog version — treat it as immutable.
        """
        compiled = self._compile(sql)
        if compiled.plan is None:
            compiled.raise_failure()
        return compiled.plan

    def explain(self, sql: str) -> str:
        """EXPLAIN: the optimized plan plus its cost estimate."""
        plan = self.plan_select(sql)
        estimate = compiled_estimate(plan, self.catalog)
        return (
            plan.describe()
            + f"\n-- estimated rows: {estimate.rows:.0f}, cost: {estimate.cost:.0f}"
        )

    def estimate(self, sql: str) -> CostEstimate:
        """Cost-estimate a SELECT without executing it."""
        return compiled_estimate(self.plan_select(sql), self.catalog)

    # -- DDL ------------------------------------------------------------------------

    def _execute_create(self, statement: nodes.CreateTable) -> QueryResult:
        if statement.if_not_exists and self.catalog.has_table(statement.name):
            return _status_result("ok")
        columns = tuple(
            Column(
                name=definition.name,
                data_type=DataType.parse(definition.type_name),
                nullable=not definition.not_null,
                primary_key=definition.primary_key,
            )
            for definition in statement.columns
        )
        self.create_table(TableSchema(statement.name, columns))
        return _status_result("ok")

    def _execute_drop(self, statement: nodes.DropTable) -> QueryResult:
        if statement.if_exists and not self.catalog.has_table(statement.name):
            return _status_result("ok")
        self.catalog.drop_table(statement.name)
        self._publish(ChangeEvent("drop", statement.name))
        return _status_result("ok")

    # -- DML ------------------------------------------------------------------------

    def _execute_insert(self, statement: nodes.Insert) -> QueryResult:
        if not self.catalog.has_table(statement.table):
            raise CatalogError(f"table {statement.table!r} does not exist")
        table = self.catalog.table(statement.table)
        schema = table.schema
        if statement.select is not None:
            select = compile_statement(statement.select, self.catalog)
            if select.plan is None:
                select.raise_failure()
            executor = ColumnarExecutor(self.catalog, ExecContext())
            raw_rows: list[tuple[Value, ...]] = list(executor.run(select.plan).rows)
        else:
            raw_rows = []
            for row_exprs in statement.rows:
                compiled = [compile_expr(e, (), None) for e in row_exprs]
                raw_rows.append(tuple(fn(()) for fn in compiled))
        rows = [self._widen_row(schema, statement.columns, row) for row in raw_rows]
        count = self.insert_rows(statement.table, rows)
        return _status_result(f"inserted {count}")

    def _widen_row(
        self,
        schema: TableSchema,
        columns: tuple[str, ...] | None,
        values: tuple[Value, ...],
    ) -> tuple[Value, ...]:
        if columns is None:
            if len(values) != len(schema.columns):
                raise ExecutionError(
                    f"INSERT expects {len(schema.columns)} values, got {len(values)}"
                )
            return values
        if len(columns) != len(values):
            raise ExecutionError(
                f"INSERT column list has {len(columns)} names but {len(values)} values"
            )
        full: list[Value] = [None] * len(schema.columns)
        for name, value in zip(columns, values):
            full[schema.position_of(name)] = value
        return tuple(full)

    def _execute_update(self, statement: nodes.Update) -> QueryResult:
        table = self.catalog.table(statement.table)
        schema = table.schema
        output = tuple(
            OutputCol(column.name, schema.name) for column in schema.columns
        )
        executor = ColumnarExecutor(self.catalog)
        where = (
            compile_expr(statement.where, output, executor)
            if statement.where is not None
            else None
        )
        assignments = [
            (schema.position_of(column), compile_expr(expr, output, executor))
            for column, expr in statement.assignments
        ]
        updates: list[tuple[int, tuple[Value, ...]]] = []
        for row_id, row in table.scan_with_ids():
            if where is not None:
                verdict = where(row)
                if verdict is None or verdict is False or verdict == 0:
                    continue
            new_row = list(row)
            for position, fn in assignments:
                new_row[position] = fn(row)
            updates.append((row_id, tuple(new_row)))
        for row_id, new_row in updates:
            self.catalog.update_row(statement.table, row_id, new_row)
        details = tuple(
            (rid, self.catalog.table(statement.table).get(rid)) for rid, _ in updates
        )
        self._publish(ChangeEvent("update", statement.table, len(updates), details))
        return _status_result(f"updated {len(updates)}")

    def _execute_delete(self, statement: nodes.Delete) -> QueryResult:
        table = self.catalog.table(statement.table)
        schema = table.schema
        output = tuple(
            OutputCol(column.name, schema.name) for column in schema.columns
        )
        executor = ColumnarExecutor(self.catalog)
        where = (
            compile_expr(statement.where, output, executor)
            if statement.where is not None
            else None
        )
        victims: list[int] = []
        for row_id, row in table.scan_with_ids():
            if where is not None:
                verdict = where(row)
                if verdict is None or verdict is False or verdict == 0:
                    continue
            victims.append(row_id)
        for row_id in victims:
            self.catalog.delete_row(statement.table, row_id)
        details = tuple((rid, None) for rid in victims)
        self._publish(ChangeEvent("delete", statement.table, len(victims), details))
        return _status_result(f"deleted {len(victims)}")


def _release_wal(wal, tmp_dir: str | None) -> None:
    """GC finalizer: close the log, reclaim an auto-provisioned temp dir."""
    try:
        wal.close()
    except Exception:
        pass
    if tmp_dir is not None:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def _status_result(message: str) -> QueryResult:
    return QueryResult(columns=["status"], rows=[(message,)])

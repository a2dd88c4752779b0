"""Query results and execution statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.types import Row
from repro.util.hashing import stable_hash
from repro.util.tabulate import format_table


@dataclass
class ExecStats:
    """Work counters accumulated during execution.

    ``rows_processed`` is the engine's abstract work unit (every row an
    operator touches); the MQO ablation reports savings in this unit.
    ``cache_hits`` counts subplans answered from the window's subplan memo.
    """

    rows_scanned: int = 0
    rows_processed: int = 0
    operators_executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def merge(self, other: "ExecStats") -> None:
        self.rows_scanned += other.rows_scanned
        self.rows_processed += other.rows_processed
        self.operators_executed += other.operators_executed
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses


@dataclass
class QueryResult:
    """Rows plus metadata from executing one statement.

    ``sample_rate`` < 1.0 marks an approximate result produced by the
    sampling executor; scaled aggregates carry their standard error in
    ``estimate_errors`` keyed by output column name.
    """

    columns: list[str]
    rows: list[Row]
    stats: ExecStats = field(default_factory=ExecStats)
    sample_rate: float = 1.0
    estimate_errors: dict[str, float] = field(default_factory=dict)

    @property
    def is_approximate(self) -> bool:
        return self.sample_rate < 1.0

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def first_value(self):
        """The single value of a 1x1 result (raises otherwise)."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ValueError(
                f"expected a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def column_values(self, name: str) -> list:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def signature(self) -> str:
        """Order-insensitive content hash; the supervisor's voting key.

        Two attempts that produce the same multiset of rows (in any order)
        vote for the same answer — mirroring result-based self-consistency.
        """
        normalized = sorted(stable_hash(row) for row in self.rows)
        return stable_hash((tuple(self.columns), tuple(normalized)))

    def to_text(self, limit: int = 20) -> str:
        shown = self.rows[:limit]
        suffix = "" if len(self.rows) <= limit else f"\n... ({len(self.rows)} rows total)"
        return format_table(self.columns, shown) + suffix

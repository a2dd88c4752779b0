"""Scheduler bench — batched ``submit_many`` vs serial per-agent serving.

Four sections, all recorded to machine-readable JSON
(``BENCH_scheduler.json``, override via ``BENCH_SCHEDULER_JSON``) so the
perf trajectory accumulates across PRs:

1. **Sharing** — N concurrent agents each submit a probe whose sub-plans
   heavily overlap with the swarm's (Figure 2's 80-90% redundancy, here by
   construction). The serial baseline serves each agent on its own fresh
   system; the batched path serves the whole swarm with one
   ``submit_many`` admission batch. Acceptance: at N=16 the batch must
   process >=30% fewer rows.
2. **Parallel dispatch speedup** — the same batched path at ``workers=1``
   (serial loop) vs ``workers=4`` (speculative work-group execution) at
   16/64 agents, on a workload with many independent work groups.
   Acceptance: >=1.5x at 64 agents *when the host can actually run
   threads in parallel* (>=4 CPUs and no GIL); on GIL-bound or small
   hosts the table is still recorded and only a no-pathology floor is
   asserted, since CPython serialises pure-Python engine work.
3. **Fingerprint memoization** — a repeated-execution workload (every
   subtree of every plan fingerprinted per round, mirroring the
   executor's cache keying) measured against the per-call baseline.
   Acceptance: >=3x fewer node canonicalisations, digests unchanged.
4. **Plan cache, cold vs warm** — one 64-agent batch served over and over
   by the same system: the first window compiles every distinct statement
   (and executes it), steady-state windows hit the compiled-statement
   cache (and history). The same steady state on a database injected with
   ``StatementCache(max_entries=0)`` is what every window paid before the
   cache existed. Acceptance: steady state compiles nothing.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass, field

from repro.core import AgentFirstDataSystem, Brief, Probe
from repro.db import Database
from repro.plan.compiled import StatementCache
from repro.plan.fingerprint import (
    FINGERPRINT_STATS,
    fingerprint,
    fingerprint_uncached,
)
from repro.util.tabulate import format_table

AGENT_COUNTS = (1, 4, 16, 64)
SPEEDUP_AGENT_COUNTS = (16, 64)
PARALLEL_WORKERS = 4
JSON_PATH_ENV = "BENCH_SCHEDULER_JSON"
DEFAULT_JSON_PATH = "BENCH_scheduler.json"

SHARED_JOIN = (
    "SELECT s.city, SUM(x.amount) FROM stores s JOIN sales x"
    " ON s.id = x.store_id GROUP BY s.city"
)

#: The row-vs-columnar engine dimension: scan-heavy analytics over a
#: table large enough that per-row interpretation dominates. Asserted
#: floor 2x, target 5x (reported in the JSON next to the measurement).
ENGINE_SPEEDUP_FLOOR = 2.0
ENGINE_SPEEDUP_TARGET = 5.0
ENGINE_TABLE_ROWS = 60_000
ENGINE_QUERIES = (
    "SELECT COUNT(*), SUM(amount), AVG(amount) FROM big WHERE amount > 75.0",
    "SELECT id, amount FROM big WHERE amount > 95.0",
    "SELECT grp, COUNT(*), SUM(amount) FROM big GROUP BY grp",
    "SELECT id, amount * 2.0 FROM big WHERE qty = 7",
    "SELECT COUNT(*) FROM big WHERE amount > 20.0 AND qty < 25",
    "SELECT id FROM big WHERE amount > 99.0 ORDER BY amount DESC LIMIT 10",
)


def build_engine_db() -> Database:
    """One wide-ish analytics table for the engine dimension."""
    db = Database("engine-bench")
    db.execute("CREATE TABLE big (id INT, grp TEXT, amount FLOAT, qty INT)")
    db.insert_rows(
        "big",
        [
            (i, f"g{i % 8}", float((i * 7919) % 1000) / 10.0, i % 50)
            for i in range(ENGINE_TABLE_ROWS)
        ],
    )
    return db


def measure_engines(
    db: Database, queries: tuple[str, ...], reps: int = 3
) -> list[tuple[str, float, float, float]]:
    """Per-query engine time, row vs columnar: (sql, row_ms, col_ms,
    speedup). Best-of-``reps`` after a warm-up run, so the kernel/expr
    memos are hot (steady-state serving, not first-probe compilation)
    and scheduler noise is excluded — this times the executors alone.
    """
    from repro.engine.columnar import ColumnarExecutor
    from repro.engine.executor import ExecContext, Executor

    plans = [db.plan_select(sql) for sql in queries]
    out = []
    for sql, plan in zip(queries, plans):
        timings = {}
        for cls in (Executor, ColumnarExecutor):
            cls(db.catalog, ExecContext()).run(plan)  # warm-up
            best = float("inf")
            for _ in range(reps):
                started = time.perf_counter()
                cls(db.catalog, ExecContext()).run(plan)
                best = min(best, time.perf_counter() - started)
            timings[cls] = best * 1000.0
        row_ms = timings[Executor]
        col_ms = timings[ColumnarExecutor]
        out.append((sql, row_ms, col_ms, row_ms / col_ms if col_ms else 0.0))
    return out


def build_db(statement_cache: StatementCache | None = None) -> Database:
    db = Database("sched-bench", statement_cache=statement_cache)
    db.execute("CREATE TABLE stores (id INT PRIMARY KEY, city TEXT, state TEXT)")
    db.execute(
        "CREATE TABLE sales (id INT, store_id INT, product TEXT, amount FLOAT)"
    )
    db.execute(
        "INSERT INTO stores VALUES (1,'Berkeley','California'),"
        "(2,'Oakland','California'),(3,'Seattle','Washington'),"
        "(4,'Austin','Texas'),(5,'Portland','Oregon')"
    )
    db.insert_rows(
        "sales",
        [
            (i, 1 + i % 5, ("coffee", "tea", "pastry")[i % 3], float(i % 60))
            for i in range(1500)
        ],
    )
    return db


def swarm_probes(n_agents: int) -> list[Probe]:
    """One probe per agent: a swarm-wide join + a filter from a pool of 4."""
    probes = []
    for agent in range(n_agents):
        probes.append(
            Probe(
                queries=(
                    SHARED_JOIN,
                    "SELECT COUNT(*), SUM(amount) FROM sales"
                    f" WHERE store_id = {1 + agent % 4}",
                ),
                brief=Brief(goal="compute the exact answer"),
                agent_id=f"agent-{agent}",
            )
        )
    return probes


def parallel_probes(n_agents: int) -> list[Probe]:
    """The speedup workload: many *independent* work groups.

    Each agent asks the swarm-wide join plus one aggregate from a pool of
    8 thresholds and one group-by from a pool of 4 stores: a 64-agent
    batch carries 13 distinct work groups — enough independent engine
    runs to occupy a worker pool.
    """
    probes = []
    for agent in range(n_agents):
        threshold = 6 * (agent % 8)
        probes.append(
            Probe(
                queries=(
                    SHARED_JOIN,
                    "SELECT COUNT(*), SUM(amount), MIN(amount) FROM sales"
                    f" WHERE amount > {threshold}.0",
                    "SELECT product, COUNT(*) FROM sales"
                    f" WHERE store_id = {1 + agent % 4} GROUP BY product",
                ),
                brief=Brief(goal="compute the exact answer"),
                agent_id=f"agent-{agent}",
            )
        )
    return probes


def effective_parallelism() -> bool:
    """Can this host actually overlap pure-Python engine work?"""
    gil_enabled = getattr(sys, "_is_gil_enabled", lambda: True)()
    return (os.cpu_count() or 1) >= PARALLEL_WORKERS and not gil_enabled


@dataclass
class SchedulerBenchResult:
    #: (agents, serial_rows, batched_rows, saved, serial_ms, batched_ms).
    sharing_rows: list[tuple] = field(default_factory=list)
    #: (agents, groups, workers_1_ms, workers_n_ms, speedup).
    speedup_rows: list[tuple] = field(default_factory=list)
    #: Row-work saving fraction at N=16 (the sharing acceptance metric).
    saving_at_16: float = 0.0
    #: workers=1 / workers=N wall-clock ratio at 64 agents.
    speedup_at_64: float = 0.0
    #: Canonicalisation-work reduction factor and digest equality.
    fingerprint_reduction: float = 0.0
    fingerprint_digests_match: bool = False
    fingerprint_uncached_visits: int = 0
    fingerprint_memoized_visits: int = 0
    parallel_capable: bool = False
    #: (sql, row_ms, columnar_ms, speedup) per engine-dimension query.
    engine_rows: list[tuple] = field(default_factory=list)
    #: Aggregate row-engine / columnar-engine time over the whole corpus.
    engine_speedup: float = 0.0
    #: The cold-vs-warm compiled-statement cache dimension (see
    #: :func:`run_plan_cache_bench` for the keys).
    plan_cache: dict = field(default_factory=dict)

    def render(self) -> str:
        sections = [
            format_table(
                [
                    "agents",
                    "serial rows",
                    "batched rows",
                    "saved",
                    "serial ms",
                    "batched ms",
                ],
                [
                    (
                        agents,
                        serial_rows,
                        batched_rows,
                        f"{saved:.0%}",
                        f"{serial_ms:.1f}",
                        f"{batched_ms:.1f}",
                    )
                    for agents, serial_rows, batched_rows, saved, serial_ms, batched_ms in self.sharing_rows
                ],
                title="batched submit_many vs serial per-agent serving",
            ),
            format_table(
                [
                    "agents",
                    "groups",
                    "workers=1 ms",
                    f"workers={PARALLEL_WORKERS} ms",
                    "speedup",
                ],
                [
                    (
                        agents,
                        groups,
                        f"{serial_ms:.1f}",
                        f"{parallel_ms:.1f}",
                        f"{speedup:.2f}x",
                    )
                    for agents, groups, serial_ms, parallel_ms, speedup in self.speedup_rows
                ],
                title=(
                    "parallel work-group dispatch"
                    f" (parallel-capable host: {self.parallel_capable})"
                ),
            ),
            format_table(
                ["path", "node canonicalisations"],
                [
                    ("per-call (PR-1 baseline)", self.fingerprint_uncached_visits),
                    ("memoized one-pass", self.fingerprint_memoized_visits),
                    ("reduction", f"{self.fingerprint_reduction:.1f}x"),
                ],
                title="fingerprint memoization (repeated-execution workload)",
            ),
            format_table(
                ["query", "row ms", "columnar ms", "speedup"],
                [
                    (
                        sql if len(sql) <= 56 else sql[:53] + "...",
                        f"{row_ms:.1f}",
                        f"{col_ms:.1f}",
                        f"{speedup:.2f}x",
                    )
                    for sql, row_ms, col_ms, speedup in self.engine_rows
                ]
                + [
                    (
                        "overall",
                        "",
                        "",
                        f"{self.engine_speedup:.2f}x"
                        f" (floor {ENGINE_SPEEDUP_FLOOR:.0f}x,"
                        f" target {ENGINE_SPEEDUP_TARGET:.0f}x)",
                    )
                ],
                title=(
                    "row vs columnar engine"
                    f" ({ENGINE_TABLE_ROWS} rows, memos hot)"
                ),
            ),
            format_table(
                ["window", "ms", "statements compiled"],
                [
                    (
                        "first (cold cache, empty history)",
                        f"{self.plan_cache['first_window_ms']:.1f}",
                        self.plan_cache["first_window_compiled"],
                    ),
                    (
                        "steady state",
                        f"{self.plan_cache['steady_window_ms']:.1f}",
                        self.plan_cache["steady_window_compiled"],
                    ),
                    (
                        "steady state, cache disabled",
                        f"{self.plan_cache['steady_window_uncached_ms']:.1f}",
                        self.plan_cache["statements"],
                    ),
                ],
                title=(
                    f"plan cache at {self.plan_cache['agents']} agents"
                    f" ({self.plan_cache['statements']} statements,"
                    f" {self.plan_cache['distinct_statements']} distinct;"
                    f" steady-state speedup {self.plan_cache['steady_speedup']:.2f}x)"
                ),
            ),
        ]
        return "\n\n".join(sections)

    def to_json(self) -> dict:
        return {
            "bench": "scheduler",
            "host": {
                "cpu_count": os.cpu_count(),
                "gil_enabled": getattr(sys, "_is_gil_enabled", lambda: True)(),
                "python": sys.version.split()[0],
                "parallel_capable": self.parallel_capable,
            },
            "sharing": [
                {
                    "agents": agents,
                    "serial_rows": serial_rows,
                    "batched_rows": batched_rows,
                    "saved_fraction": round(saved, 4),
                    "serial_ms": round(serial_ms, 2),
                    "batched_ms": round(batched_ms, 2),
                }
                for agents, serial_rows, batched_rows, saved, serial_ms, batched_ms in self.sharing_rows
            ],
            "speedup": [
                {
                    "agents": agents,
                    "work_groups": groups,
                    "workers": PARALLEL_WORKERS,
                    "workers_1_ms": round(serial_ms, 2),
                    "workers_n_ms": round(parallel_ms, 2),
                    "speedup": round(speedup, 3),
                }
                for agents, groups, serial_ms, parallel_ms, speedup in self.speedup_rows
            ],
            "fingerprint": {
                "uncached_node_visits": self.fingerprint_uncached_visits,
                "memoized_node_visits": self.fingerprint_memoized_visits,
                "reduction": round(self.fingerprint_reduction, 2),
                "digests_match": self.fingerprint_digests_match,
            },
            "row_vs_columnar": {
                "table_rows": ENGINE_TABLE_ROWS,
                "queries": [
                    {
                        "sql": sql,
                        "row_ms": round(row_ms, 2),
                        "columnar_ms": round(col_ms, 2),
                        "speedup": round(speedup, 3),
                    }
                    for sql, row_ms, col_ms, speedup in self.engine_rows
                ],
                "overall_speedup": round(self.engine_speedup, 3),
                "floor": ENGINE_SPEEDUP_FLOOR,
                "target": ENGINE_SPEEDUP_TARGET,
            },
            "plan_cache": {
                key: round(value, 3) if isinstance(value, float) else value
                for key, value in self.plan_cache.items()
            },
        }


def run_sharing_bench(result: SchedulerBenchResult) -> None:
    """Row-work accounting: sharing is measured at ``workers=1``.

    Speculative execution can race shared subtrees into double computation
    (answers identical, accounting inflated and timing-dependent); the
    serial loop keeps this table — the cross-PR frugality trajectory —
    deterministic. Wall-clock at higher worker counts is the *next*
    table's job.
    """
    for n_agents in AGENT_COUNTS:
        probes = swarm_probes(n_agents)

        # Build all systems outside the timers: we measure serving, not setup.
        serial_systems = [AgentFirstDataSystem(build_db(), workers=1) for _ in probes]
        serial_rows = 0
        started = time.perf_counter()
        for system, probe in zip(serial_systems, probes):
            serial_rows += system.submit(probe).rows_processed
        serial_ms = (time.perf_counter() - started) * 1000.0

        batch_system = AgentFirstDataSystem(build_db(), workers=1)
        started = time.perf_counter()
        responses = batch_system.submit_many(probes)
        batched_ms = (time.perf_counter() - started) * 1000.0
        batched_rows = sum(r.rows_processed for r in responses)

        saved = 1.0 - batched_rows / serial_rows if serial_rows else 0.0
        if n_agents == 16:
            result.saving_at_16 = saved
        result.sharing_rows.append(
            (n_agents, serial_rows, batched_rows, saved, serial_ms, batched_ms)
        )
        # Registry-backed efficiency gauges for the trajectory (last —
        # largest — swarm size wins): how much of the batch's engine work
        # the window's subplan memo absorbed.
        snap = batch_system.metrics()
        result.cache_metrics = {
            "swarm_size": n_agents,
            "subplan_cache_hit_ratio": snap.get(
                "repro_engine_subplan_cache_hit_ratio"
            ),
            "subplan_cache_hits": snap.get("repro_engine_subplan_cache_hits"),
            "subplan_cache_misses": snap.get("repro_engine_subplan_cache_misses"),
        }


def run_speedup_bench(result: SchedulerBenchResult) -> None:
    """Wall-clock of the batched path: serial loop vs speculative pool."""
    for n_agents in SPEEDUP_AGENT_COUNTS:
        probes = parallel_probes(n_agents)
        timings: dict[int, float] = {}
        groups = 0
        for workers in (1, PARALLEL_WORKERS):
            # Fresh system per measurement: identical cold caches/history.
            system = AgentFirstDataSystem(build_db(), workers=workers)
            started = time.perf_counter()
            system.submit_many(probes)
            timings[workers] = (time.perf_counter() - started) * 1000.0
            if workers > 1:
                # Independent engine runs the speculative pool overlapped.
                groups = system.scheduler.speculative_executions
        speedup = (
            timings[1] / timings[PARALLEL_WORKERS]
            if timings[PARALLEL_WORKERS]
            else 0.0
        )
        if n_agents == 64:
            result.speedup_at_64 = speedup
        result.speedup_rows.append(
            (n_agents, groups, timings[1], timings[PARALLEL_WORKERS], speedup)
        )


def run_fingerprint_bench(result: SchedulerBenchResult, rounds: int = 4) -> None:
    """Repeated-execution canonicalisation work: per-call vs memoized.

    Mirrors the serving path's demand — every subtree of every plan needs
    a strict digest per execution (executor cache keys) plus root digests
    per query (history, grouping, advisor) — repeated ``rounds`` times, as
    when a swarm re-asks overlapping probes across turns.
    """
    db = build_db()
    sqls = [probe.queries for probe in parallel_probes(8)]
    flat = [sql for queries in sqls for sql in queries]

    baseline_plans = [db.plan_select(sql) for sql in flat]
    FINGERPRINT_STATS.reset()
    uncached_digests = []
    for _ in range(rounds):
        for plan in baseline_plans:
            for node in plan.walk():
                uncached_digests.append(fingerprint_uncached(node, strict=True))
            uncached_digests.append(fingerprint_uncached(plan, strict=False))
    uncached_visits = FINGERPRINT_STATS.nodes_canonicalised

    memo_plans = [db.plan_select(sql) for sql in flat]
    FINGERPRINT_STATS.reset()
    memoized_digests = []
    for _ in range(rounds):
        for plan in memo_plans:
            for node in plan.walk():
                memoized_digests.append(fingerprint(node, strict=True))
            memoized_digests.append(fingerprint(plan, strict=False))
    memoized_visits = FINGERPRINT_STATS.nodes_canonicalised

    result.fingerprint_uncached_visits = uncached_visits
    result.fingerprint_memoized_visits = memoized_visits
    result.fingerprint_reduction = uncached_visits / max(1, memoized_visits)
    result.fingerprint_digests_match = uncached_digests == memoized_digests


def run_engine_bench(result: SchedulerBenchResult) -> None:
    """Row-engine vs columnar-engine time on the scan-heavy corpus."""
    db = build_engine_db()
    result.engine_rows = measure_engines(db, ENGINE_QUERIES)
    row_total = sum(row_ms for _, row_ms, _, _ in result.engine_rows)
    col_total = sum(col_ms for _, _, col_ms, _ in result.engine_rows)
    result.engine_speedup = row_total / col_total if col_total else 0.0


def run_plan_cache_bench(result: SchedulerBenchResult, windows: int = 9) -> None:
    """Cold vs warm compiled-statement cache on a repeated 64-agent batch.

    ``workers=1`` keeps speculation out of the timings; both systems see
    the identical batch ``windows`` times (fresh probe objects each time,
    as a swarm would send them).
    """
    agents = 64
    statements = [sql for probe in parallel_probes(agents) for sql in probe.queries]

    def serve(db: Database) -> tuple[float, float, int, int]:
        with AgentFirstDataSystem(db, workers=1) as system:
            timings, compiled = [], []
            for _ in range(windows):
                misses_before = db.statement_cache.counters()[1]
                start = time.perf_counter()
                system.submit_many(parallel_probes(agents))
                timings.append((time.perf_counter() - start) * 1000.0)
                compiled.append(db.statement_cache.counters()[1] - misses_before)
        return timings[0], statistics.median(timings[1:]), compiled[0], max(compiled[1:])

    first_ms, steady_ms, first_compiled, steady_compiled = serve(build_db())
    _, uncached_ms, _, _ = serve(build_db(StatementCache(max_entries=0)))
    result.plan_cache = {
        "agents": agents,
        "statements": len(statements),
        "distinct_statements": len(set(statements)),
        "first_window_ms": first_ms,
        "first_window_compiled": first_compiled,
        "steady_window_ms": steady_ms,
        "steady_window_compiled": steady_compiled,
        "steady_window_uncached_ms": uncached_ms,
        "steady_speedup": uncached_ms / steady_ms if steady_ms else 0.0,
    }


def run_scheduler_bench() -> SchedulerBenchResult:
    result = SchedulerBenchResult()
    result.parallel_capable = effective_parallelism()
    run_sharing_bench(result)
    run_speedup_bench(result)
    run_fingerprint_bench(result)
    run_engine_bench(result)
    run_plan_cache_bench(result)
    return result


def write_json(result: SchedulerBenchResult) -> str:
    """Append this run (keyed by git SHA + date) to the perf trajectory."""
    from bench_record import append_run

    return append_run(
        JSON_PATH_ENV,
        DEFAULT_JSON_PATH,
        result.to_json(),
        metrics=getattr(result, "cache_metrics", None),
    )


def test_scheduler_batching(benchmark):
    result = benchmark.pedantic(run_scheduler_bench, rounds=1, iterations=1)
    print()
    print(result.render())
    print(f"\nwrote {write_json(result)}")

    assert result.saving_at_16 >= 0.3
    assert result.fingerprint_digests_match
    assert result.fingerprint_reduction >= 3.0
    # The vectorized-executor acceptance bar: >=2x on engine time, with
    # the 5x target reported next to the measurement in the JSON.
    assert result.engine_speedup >= ENGINE_SPEEDUP_FLOOR
    # Steady state compiles nothing; the first window compiled each
    # distinct statement exactly once.
    assert result.plan_cache["steady_window_compiled"] == 0
    assert (
        result.plan_cache["first_window_compiled"]
        == result.plan_cache["distinct_statements"]
    )
    if result.parallel_capable:
        # The real acceptance bar: independent work groups must overlap.
        assert result.speedup_at_64 >= 1.5
    else:
        # GIL-bound / small host: parallel dispatch cannot beat the serial
        # loop (CPython serialises pure-Python engine work), but it must
        # not pathologically regress either. The JSON records the honest
        # ratio for hosts that can check the 1.5x bar.
        assert result.speedup_at_64 >= 0.4


if __name__ == "__main__":
    result = run_scheduler_bench()
    print(result.render())
    print(f"\nwrote {write_json(result)}")

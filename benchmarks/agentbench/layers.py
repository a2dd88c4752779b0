"""The layer walk: each layer timed from outside through its public functions.

Runs after the closed loop of a traced run, on the live system and on probes
the loop did not consume (the continuation of each agent's seeded stream, so
unique-literal probes are still unique). Three parts:

* a *flat walk* — every sampled probe's statements go serially through
  ``parse_statement``, ``Database.plan_select``, ``PlanNode.fingerprints``,
  the row and columnar executors, ``scatter.analyze``, and the memory and
  semantic search entry points;
* a *window replay* — the same probes served through ``submit_many`` in
  windows of the size the loop observed, with spans recorded around the
  public calls the serving path makes into plan, engine, memstore and
  semantic, so the serving tier's self time is what is left;
* *storage and txn micro-timings* on scratch copies of the workload's data.

No file under ``src/`` is touched and the program's own tracing stays off.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import replace

from repro.db import Database
from repro.db.information_schema import is_information_schema
from repro.engine.columnar import ColumnarExecutor
from repro.engine.executor import ExecContext, Executor
from repro.shard import scatter
from repro.sql.parser import parse_statement
from repro.storage.table import Table
from repro.txn import BranchManager

from tracer import Tracer

REPEATS = 5
TXN_UPDATES = 200


def serving_systems(system) -> list:
    """The ``AgentFirstDataSystem``\\ s behind a system or a shard tier."""
    shards = getattr(system, "shards", None)
    return [h.system for h in shards] if shards is not None else [system]


def run_facts(system, loop) -> dict:
    """Layer counters the run itself produced, read right after the loop
    (cumulative since system start, so warm-up is included)."""
    systems = serving_systems(system)
    stats = [s.gateway.stats() for s in systems]
    windows = sum(s["windows_streamed"] for s in stats)
    hits = misses = 0.0
    for serving in systems:
        snapshot = serving.metrics()
        hits += snapshot.get("repro_engine_subplan_cache_hits") or 0
        misses += snapshot.get("repro_engine_subplan_cache_misses") or 0
    outcomes = sum(loop.statuses.values())
    shards = len(systems)
    scatter_probes = loop.kinds.get("scatter", 0)
    return {
        "rows_per_probe": loop.rows_processed / max(1, loop.attempted),
        "history_hit_ratio": loop.statuses.get("from_history", 0) / max(1, outcomes),
        "subplan_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "mean_window_size": (
            sum(s["probes_streamed"] for s in stats) / windows if windows else 0.0
        ),
        "mean_formation_ms": (
            sum(s["mean_formation_ms"] * s["windows_streamed"] for s in stats) / windows
            if windows else 0.0
        ),
        "queue_depth_peak": max(s["queue_depth_peak"] for s in stats),
        "scatter_share": scatter_probes / max(1, loop.attempted),
        "shards_consulted_per_probe": (
            (loop.attempted - scatter_probes + scatter_probes * shards)
            / max(1, loop.attempted)
        ),
    }


def _median_us(spans) -> float:
    return statistics.median((s.end - s.start) for s in spans) * 1e6 if spans else 0.0


def layer_walk(
    workload, system, streams, cursors, tracer: Tracer, workdir: str,
    window_size: int, sample: int,
) -> tuple[dict, dict, dict]:
    """Returns (layer metric values, the flat walk's per-layer times, the
    window replay's per-layer self times)."""
    probes = _unconsumed(workload, streams, cursors, sample)
    db = system.db
    flat_from = len(tracer.spans)
    values = _flat_walk(workload, system, db, probes, tracer)
    replay_from = len(tracer.spans)
    windows = _window_replay(system, probes, window_size, tracer)
    replay_to = len(tracer.spans)
    values["window_serve_ms"] = statistics.median(windows) * 1000.0
    values.update(_storage_timings(db))
    values.update(_txn_timings(db, workdir))
    return (
        values,
        tracer.self_times(flat_from, replay_from),
        tracer.self_times(replay_from, replay_to),
    )


def _unconsumed(workload, streams, cursors, sample: int) -> list:
    """The next probes of every agent's stream, round-robin, carrying the
    identity the agent's session would have stamped on them."""
    per_agent = -(-sample // len(streams))
    return [
        replace(
            streams[agent][cursors[agent] + offset].probe,
            agent_id=workload.agent_id(agent),
            principal=workload.principal(agent),
        )
        for offset in range(per_agent)
        for agent in range(len(streams))
    ]


def _flat_walk(workload, system, db, probes, tracer: Tracer) -> dict:
    serving = serving_systems(system)[0]
    partition = getattr(workload, "partition", {})
    named: dict[str, list] = {}
    serial_rows = returned_rows = 0

    def timed(name, layer, probe_id):
        return tracer.span(name, layer, probe=probe_id)

    for probe_id, probe in enumerate(probes):
        with tracer.span("walk:probe", "harness", probe=probe_id):
            for sql in probe.queries:
                with timed("sql.parse", "sql", probe_id) as span:
                    parse_statement(sql)
                named.setdefault("parse_us", []).append(span)
                with timed("plan.plan_select", "plan", probe_id) as span:
                    plan = db.plan_select(sql)
                named.setdefault("plan_us", []).append(span)
                with timed("plan.fingerprints", "plan", probe_id) as span:
                    plan.fingerprints()
                named.setdefault("fingerprint_us", []).append(span)
                with timed("engine.row", "engine", probe_id) as span:
                    result = Executor(db.catalog, ExecContext()).run(plan)
                named.setdefault("engine_row_ms", []).append(span)
                serial_rows += result.stats.rows_processed
                returned_rows += max(1, result.row_count)
                with timed("engine.columnar", "engine", probe_id) as span:
                    ColumnarExecutor(db.catalog, ExecContext()).run(plan)
                named.setdefault("engine_columnar_ms", []).append(span)
                with timed("shard.analyze", "shard", probe_id) as span:
                    scatter.analyze(sql, partition)
                named.setdefault("scatter_analyze_us", []).append(span)
            text = probe.memory_queries[0] if probe.memory_queries else probe.brief.goal
            with timed("memstore.search", "memstore", probe_id) as span:
                serving.memory.search(text, principal=probe.principal)
            named.setdefault("memory_lookup_us", []).append(span)
            phrase = probe.semantic_search or probe.brief.goal.split()[-1]
            with timed("semantic.search", "semantic", probe_id) as span:
                serving.search.search(phrase, limit=8)
            named.setdefault("semantic_search_us", []).append(span)
    values = {}
    for name, spans in named.items():
        micros = _median_us(spans)
        values[name] = micros / 1000.0 if name.endswith("_ms") else micros
    values["rows_examined_per_row"] = serial_rows / max(1, returned_rows)
    values["serial_rows_per_probe"] = serial_rows / max(1, len(probes))
    return values


def _window_replay(system, probes, window_size: int, tracer: Tracer) -> list[float]:
    """Serve the sampled probes through ``submit_many`` in windows of the
    observed size; returns each window's duration in seconds."""
    sharded = hasattr(system, "shards")
    undo = []
    for serving in serving_systems(system):
        undo += [
            tracer.wrap(serving.db, "plan_select", "plan.plan_select", "plan"),
            tracer.wrap(serving.optimizer, "speculative_execute", "engine.run", "engine"),
            tracer.wrap(serving.memory, "search", "memstore.search", "memstore"),
            tracer.wrap(serving.memory, "remember", "memstore.remember", "memstore"),
            tracer.wrap(serving.search, "search", "semantic.search", "semantic"),
        ]
    durations = []
    try:
        size = max(1, window_size)
        for start in range(0, len(probes), size):
            window = probes[start:start + size]
            with tracer.span(
                "shard.submit_many" if sharded else "core.submit_many",
                "shard+core" if sharded else "core",
                ambient=True,
            ) as span:
                system.submit_many(window)
            durations.append(span.end - span.start)
    finally:
        for restore in undo:
            restore()
    return durations


def _median_s(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _largest_table(db: Database) -> Table:
    return max(
        (db.catalog.table(name) for name in db.table_names()),
        key=lambda table: table.num_rows,
    )


def _storage_timings(db: Database) -> dict:
    table = _largest_table(db)
    rows = table.rows()
    positions = list(range(len(table.schema.columns)))

    def load():
        fresh = Database("agentbench-insert", wal_dir=False)
        fresh.create_table(table.schema)
        fresh.insert_rows(table.schema.name, rows)

    return {
        "insert_rows_per_s": len(rows) / _median_s(load, repeats=3),
        "snapshot_ms": _median_s(db.catalog.snapshot) * 1000.0,
        "extract_columns_ms": _median_s(lambda: table.extract_columns(positions)) * 1000.0,
    }


def _clone(db: Database, name: str) -> Database:
    """A private copy of the workload's tables (chunk-shared until written)."""
    clone = Database(name, wal_dir=False)
    for state in db.catalog.snapshot().tables:
        if not is_information_schema(state.schema.name):
            clone.catalog.register_table(Table.restore(state))
    return clone


def _txn_timings(db: Database, workdir: str) -> dict:
    plain = _clone(db, "agentbench-plain")
    logged = _clone(db, "agentbench-logged")
    wal_dir = os.path.join(workdir, "txn-wal")
    logged.attach_wal(wal_dir, checkpoint_every=10**9)
    checkpoint_ms = _median_s(logged.checkpoint, repeats=3) * 1000.0

    table = _largest_table(plain).schema.name
    targets = []
    for row_id, row in plain.catalog.table(table).scan_with_ids():
        targets.append((row_id, row))
        if len(targets) == TXN_UPDATES:
            break

    def update_all(target: Database) -> float:
        start = time.perf_counter()
        for row_id, row in targets:
            target.catalog.update_row(table, row_id, row)
        return time.perf_counter() - start

    def wal_bytes() -> int:
        return sum(
            os.path.getsize(os.path.join(wal_dir, entry))
            for entry in os.listdir(wal_dir)
            if entry.startswith("wal-")
        )

    bytes_before = wal_bytes()
    logged_s = update_all(logged)  # every append is flushed before it returns
    appended = wal_bytes() - bytes_before
    plain_s = update_all(plain)
    user_bytes = sum(len(",".join(map(str, row))) for _, row in targets)
    logged.wal.close()

    manager = BranchManager(main_db=plain)
    fork_s, merge_s, rollback_s = [], [], []
    for index, (row_id, row) in enumerate(targets[:20]):
        clock = time.perf_counter
        t0 = clock()
        keep = manager.fork("main", f"keep{index}")
        t1 = clock()
        drop = manager.fork("main", f"drop{index}")
        for branch in (keep, drop):
            branch.update_row(table, row_id, row)
        t2 = clock()
        manager.merge(keep.name)
        t3 = clock()
        manager.rollback(drop.name)
        t4 = clock()
        fork_s.append(t1 - t0)
        merge_s.append(t3 - t2)
        rollback_s.append(t4 - t3)
    return {
        "wal_append_us": (logged_s - plain_s) / len(targets) * 1e6,
        "wal_bytes_per_user_byte": appended / max(1, user_bytes),
        "checkpoint_ms": checkpoint_ms,
        "fork_ms": statistics.median(fork_s) * 1000.0,
        "merge_ms": statistics.median(merge_s) * 1000.0,
        "rollback_ms": statistics.median(rollback_s) * 1000.0,
    }

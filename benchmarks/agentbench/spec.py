"""The names agentbench fixes: workloads, metrics, units, directions, bounds.

Every later performance claim in this repo is stated in these names, so
they live in one table that ``run.py`` prints from, ``compare.py`` reads
its bounds from, the README tables mirror, and ``BENCHMARK.json`` must
equal (``test_agentbench.py`` checks that it does).

A *bound* is the share of the parent's median by which a metric may get
worse before a change counts as a regression.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: which layers the workload stresses and which it bypasses.
    why: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # 'higher' | 'lower'
    #: Regression bound (end-to-end metrics only; layer metrics have none).
    bound: float | None = None
    #: Module under ``src/repro/`` the metric belongs to ('' = end to end).
    layer: str = ""


WORKLOADS = (
    Workload(
        "swarm_arc",
        "32 agents loop explore/solve/validate over tiny shared tables: redundancy"
        " makes core (gateway, scheduler, history) do the work and engine almost none",
    ),
    Workload(
        "scan_distinct",
        "8 agents scan a 20,000-row table with a literal unique to every probe:"
        " engine+storage dominate, sharing and history contribute nothing",
    ),
    Workload(
        "branch_rw_wal",
        "8 readers beside a 20/s branch-fork/merge/insert writer on a WAL-attached"
        " database: every write wipes history and caches and appends to the log",
    ),
    Workload(
        "tenant_sharded",
        "32 tenant-bound agents over a 4-shard tier, 10% cross-tenant scatter probes:"
        " the shard router and scatter merge sit on every probe's path",
    ),
)

#: Reported by every workload; these are ``BENCHMARK.json``'s ``end_to_end``.
#: The issue asked for bounds of 10% / 10% / 20% / 20%. On the sandbox the
#: benchmark was defined on, a pure-CPU calibration loop's speed moves by
#: 10-20% between 15-second stretches (see the README), and back-to-back
#: sets of ten runs drifted by up to 14% in their medians, so every bound
#: is the contract's maximum; tighten them on a quieter host.
END_TO_END = (
    Metric("probes_per_s", "probes/s", "higher", 0.25),
    Metric("probe_p50_ms", "ms", "lower", 0.25),
    Metric("probe_p95_ms", "ms", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
)

#: End-to-end metrics only ``branch_rw_wal`` has. The ``BENCHMARK.json``
#: contract wants every end-to-end metric from every workload, so these are
#: bounded here and enforced by ``compare.py`` rather than listed there.
BRANCH_RW_END_TO_END = (
    Metric("write_task_p50_ms", "ms", "lower", 0.25),
    Metric("write_task_p95_ms", "ms", "lower", 0.25),
    Metric("recover_s", "s", "lower", 0.25),
)

#: Measured on every workload by the traced run; ``BENCHMARK.json``'s
#: ``per_layer``.
PER_LAYER = (
    Metric("parse_us", "us", "lower", layer="sql"),
    Metric("plan_us", "us", "lower", layer="plan"),
    Metric("fingerprint_us", "us", "lower", layer="plan"),
    Metric("engine_row_ms", "ms", "lower", layer="engine"),
    Metric("engine_columnar_ms", "ms", "lower", layer="engine"),
    Metric("rows_examined_per_row", "rows", "lower", layer="engine"),
    Metric("insert_rows_per_s", "rows/s", "higher", layer="storage"),
    Metric("snapshot_ms", "ms", "lower", layer="storage"),
    Metric("extract_columns_ms", "ms", "lower", layer="storage"),
    Metric("window_serve_ms", "ms", "lower", layer="core.scheduler"),
    Metric("rows_per_probe", "rows", "lower", layer="core.scheduler"),
    Metric("shared_ratio", "ratio", "lower", layer="core.scheduler"),
    Metric("subplan_cache_hit_ratio", "ratio", "higher", layer="core.scheduler"),
    Metric("history_hit_ratio", "ratio", "higher", layer="core.scheduler"),
    Metric("mean_window_size", "probes", "higher", layer="core.gateway"),
    Metric("mean_formation_ms", "ms", "lower", layer="core.gateway"),
    Metric("queue_depth_peak", "probes", "lower", layer="core.gateway"),
    Metric("gateway_wait_share", "ratio", "lower", layer="core.gateway"),
    Metric("wal_append_us", "us", "lower", layer="txn"),
    Metric("wal_bytes_per_user_byte", "ratio", "lower", layer="txn"),
    Metric("checkpoint_ms", "ms", "lower", layer="txn"),
    Metric("fork_ms", "ms", "lower", layer="txn"),
    Metric("merge_ms", "ms", "lower", layer="txn"),
    Metric("rollback_ms", "ms", "lower", layer="txn"),
    Metric("scatter_analyze_us", "us", "lower", layer="shard"),
    Metric("shards_consulted_per_probe", "shards", "lower", layer="shard"),
    Metric("memory_lookup_us", "us", "lower", layer="memstore"),
    Metric("semantic_search_us", "us", "lower", layer="semantic"),
    Metric("traced_probes_per_s", "probes/s", "higher", layer="harness"),
)

#: Layer metrics that exist on one workload only; printed and written to the
#: result JSON there, not part of ``BENCHMARK.json``.
WORKLOAD_LAYER = {
    "branch_rw_wal": (
        Metric("serve_lock_wait_ms", "ms", "lower", layer="txn"),
        Metric("writer_lateness_p95_ms", "ms", "lower", layer="harness"),
        Metric("invalidations_per_s", "1/s", "lower", layer="txn"),
        Metric("recover_us_per_record", "us", "lower", layer="txn"),
        # The writer's own fork/merge/rollback medians (2-4 branches, 2-4
        # UPDATEs each, merge replayed through the WAL), beside the layer
        # walk's one-row fork_ms/merge_ms/rollback_ms.
        Metric("writer_fork_ms", "ms", "lower", layer="txn"),
        Metric("writer_merge_ms", "ms", "lower", layer="txn"),
        Metric("writer_rollback_ms", "ms", "lower", layer="txn"),
    ),
    "tenant_sharded": (
        Metric("scatter_probe_p50_ms", "ms", "lower", layer="shard"),
        Metric("pinned_probe_p50_ms", "ms", "lower", layer="shard"),
        # The matchmaker publishes no deferral counter; rounds per scatter probe
        # is 1.0 when every partial is matched in its first round.
        Metric("matchmaker_rounds_per_scatter", "rounds", "lower", layer="shard"),
        Metric("matchmaker_units_forced", "count", "lower", layer="shard"),
    ),
}

RUN_SECONDS = 20


def workload_names() -> list[str]:
    return [w.name for w in WORKLOADS]


def end_to_end_for(workload: str) -> tuple[Metric, ...]:
    extra = BRANCH_RW_END_TO_END if workload == "branch_rw_wal" else ()
    return END_TO_END + extra


def benchmark_json() -> dict:
    """What ``BENCHMARK.json`` at the repo root must contain."""
    return {
        "command": ["python3", "benchmarks/agentbench/run.py"],
        "paths": ["benchmarks/agentbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }

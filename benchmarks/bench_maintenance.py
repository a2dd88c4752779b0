"""Maintenance bench — does idle-time sleeper-agent work actually pay?

The scenario the runtime exists for: a swarm of agents re-asks the same
hot shared subplan turn after turn, with a write burst between turns
(so answer history cannot carry results across turns, and a window's
subplan memo never does — exactly when maintenance-off recomputes
everything). Between turns the maintenance runtime gets an idle window
(``run_pending()``): it rebuilds the invalidated materialized view,
keeps its auto-built indexes and refreshes statistics — all off the
serving path. Only the serving calls are timed.

Workload: 64 agents x (shared join + per-agent equality filter),
1 warm-up turn + ``REPEAT_TURNS`` >= 3 steady-state repeat turns.
Acceptance: steady-state turns must be >=1.3x faster with maintenance
on, with the runtime provably having built views *and* indexes (so a
silently inert runtime cannot pass on noise). Results append to
``BENCH_maintenance.json`` keyed by git SHA + date — the cross-PR
trajectory artifact CI uploads.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from bench_record import append_run
from repro.core import AgentFirstDataSystem, Brief, Probe, SystemConfig
from repro.db import Database
from repro.maintenance import MaintenanceConfig
from repro.util.tabulate import format_table

AGENTS = 64
REPEAT_TURNS = 3  # steady-state turns, after one warm-up turn
SALES_ROWS = 30_000
WRITE_BURST = 10
SPEEDUP_FLOOR = 1.3
JSON_PATH_ENV = "BENCH_MAINTENANCE_JSON"
DEFAULT_JSON_PATH = "BENCH_maintenance.json"

SHARED_JOIN = (
    "SELECT s.city, SUM(x.amount) FROM stores s JOIN sales x"
    " ON s.id = x.store_id GROUP BY s.city"
)


def build_db() -> Database:
    db = Database("maint-bench")
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
            for i in range(SALES_ROWS)
        ],
    )
    return db


def swarm(n_agents: int) -> list[Probe]:
    return [
        Probe(
            queries=(
                SHARED_JOIN,
                "SELECT COUNT(*), SUM(amount) FROM sales"
                f" WHERE store_id = {1 + agent % 5}",
            ),
            brief=Brief(goal="compute the exact answer"),
            agent_id=f"agent-{agent}",
        )
        for agent in range(n_agents)
    ]


@dataclass
class MaintenanceBenchResult:
    #: (turn, phase, off_ms, on_ms, off_rows, on_rows, speedup).
    turn_rows: list[tuple] = field(default_factory=list)
    steady_state_speedup: float = 0.0
    steady_state_row_reduction: float = 0.0
    runtime_stats: dict = field(default_factory=dict)

    def render(self) -> str:
        return format_table(
            [
                "turn",
                "phase",
                "maint-off ms",
                "maint-on ms",
                "off rows",
                "on rows",
                "speedup",
            ],
            [
                (
                    turn,
                    phase,
                    f"{off_ms:.1f}",
                    f"{on_ms:.1f}",
                    off_rows,
                    on_rows,
                    f"{speedup:.2f}x",
                )
                for turn, phase, off_ms, on_ms, off_rows, on_rows, speedup in self.turn_rows
            ],
            title=(
                f"repeated hot-subplan workload, {AGENTS} agents, write burst per"
                f" turn (steady-state speedup {self.steady_state_speedup:.2f}x)"
            ),
        )

    def to_json(self) -> dict:
        return {
            "bench": "maintenance",
            "agents": AGENTS,
            "repeat_turns": REPEAT_TURNS,
            "sales_rows": SALES_ROWS,
            "turns": [
                {
                    "turn": turn,
                    "phase": phase,
                    "maintenance_off_ms": round(off_ms, 2),
                    "maintenance_on_ms": round(on_ms, 2),
                    "rows_processed_off": off_rows,
                    "rows_processed_on": on_rows,
                    "speedup": round(speedup, 3),
                }
                for turn, phase, off_ms, on_ms, off_rows, on_rows, speedup in self.turn_rows
            ],
            "steady_state_speedup": round(self.steady_state_speedup, 3),
            "steady_state_row_reduction": round(self.steady_state_row_reduction, 4),
            "runtime": self.runtime_stats,
        }


def run_maintenance_bench() -> MaintenanceBenchResult:
    result = MaintenanceBenchResult()
    config = SystemConfig(
        enable_maintenance=True,
        maintenance=MaintenanceConfig(index_min_occurrences=3, index_min_rows=256),
    )
    # workers=1 on both sides: the speedup must come from maintenance
    # artifacts, not dispatch parallelism (measured by bench_scheduler).
    on = AgentFirstDataSystem(build_db(), config=config, workers=1)
    off = AgentFirstDataSystem(build_db(), workers=1)

    next_id = SALES_ROWS
    steady_off: list[float] = []
    steady_on: list[float] = []
    steady_rows_off = steady_rows_on = 0
    for turn in range(1 + REPEAT_TURNS):
        burst = [
            (next_id + j, 1 + j % 5, "tea", 9.0) for j in range(WRITE_BURST)
        ]
        next_id += WRITE_BURST
        # The write burst invalidates history, caches, and views on both
        # systems; only the maintenance side repairs itself off-path.
        on.db.insert_rows("sales", burst)
        off.db.insert_rows("sales", burst)
        on.maintenance.run_pending()  # the idle window (untimed)

        started = time.perf_counter()
        responses_on = on.submit_many(swarm(AGENTS))
        on_ms = (time.perf_counter() - started) * 1000.0
        started = time.perf_counter()
        responses_off = off.submit_many(swarm(AGENTS))
        off_ms = (time.perf_counter() - started) * 1000.0

        rows_on = sum(r.rows_processed for r in responses_on)
        rows_off = sum(r.rows_processed for r in responses_off)
        phase = "warm-up" if turn == 0 else "steady"
        if turn > 0:
            steady_on.append(on_ms)
            steady_off.append(off_ms)
            steady_rows_on += rows_on
            steady_rows_off += rows_off
        result.turn_rows.append(
            (
                turn,
                phase,
                off_ms,
                on_ms,
                rows_off,
                rows_on,
                off_ms / on_ms if on_ms else 0.0,
            )
        )

    mean_on = sum(steady_on) / len(steady_on)
    mean_off = sum(steady_off) / len(steady_off)
    result.steady_state_speedup = mean_off / mean_on if mean_on else 0.0
    result.steady_state_row_reduction = (
        1.0 - steady_rows_on / steady_rows_off if steady_rows_off else 0.0
    )
    result.runtime_stats = on.maintenance.stats()
    on.close()
    off.close()
    return result


def write_json(result: MaintenanceBenchResult) -> str:
    """Append this run (keyed by git SHA + date) to the perf trajectory."""
    return append_run(JSON_PATH_ENV, DEFAULT_JSON_PATH, result.to_json())


def test_maintenance_speedup(benchmark):
    result = benchmark.pedantic(run_maintenance_bench, rounds=1, iterations=1)
    print()
    print(result.render())
    print(f"\nwrote {write_json(result)}")

    # The runtime must have genuinely acted — an inert runtime timing
    # noise-vs-noise cannot pass.
    assert result.runtime_stats["views_built"] > 0
    assert result.runtime_stats["indexes_built"] > 0
    # Acted-on advice must convert to engine-work savings...
    assert result.steady_state_row_reduction >= 0.5
    # ...and to wall-clock on the steady-state repeat turns.
    assert result.steady_state_speedup >= SPEEDUP_FLOOR


if __name__ == "__main__":
    result = run_maintenance_bench()
    print(result.render())
    print(f"\nwrote {write_json(result)}")

"""Gateway bench — streaming admission vs per-probe serving.

The tentpole claim of the gateway redesign: *uncoordinated* agents — each
opening its own session and submitting one probe, with nobody assembling
a batch — should recover (almost) all of the cross-agent sharing that a
hand-assembled single ``submit_many`` batch achieves, because the
admission loop forms the batch for them.

Three serving paths per swarm size (16 / 64 agents), all recorded to
machine-readable JSON (``BENCH_gateway.json``, override via
``BENCH_GATEWAY_JSON``) so the perf trajectory accumulates across PRs
next to ``BENCH_scheduler.json``:

1. **per-probe submit** — every agent served alone on its own fresh
   system: zero sharing, the paper's status-quo baseline.
2. **hand-assembled batch** — the whole swarm in one ``submit_many``
   admission window: the sharing ceiling.
3. **streaming admission** — one fresh system; N threads each open a
   session and submit independently; the gateway coalesces whatever is in
   flight into admission windows (``max_wait`` = 50 ms here).

Reported per size: rows processed per path, sharing recovered
(``(serial - streamed) / (serial - batch)``), wall-clock, and
window-formation stats (windows formed, mean size, formation latency).
Acceptance: streaming at 64 uncoordinated agents recovers >=80% of the
hand-assembled batch's rows-saved sharing. Row accounting runs at
``workers=1`` for determinism, matching ``bench_scheduler``'s sharing
table.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from bench_scheduler import build_db, swarm_probes
from repro.core import AgentFirstDataSystem, Probe, SystemConfig
from repro.util.tabulate import format_table

AGENT_COUNTS = (16, 64)
STREAM_MAX_WAIT = 0.05  # generous: slow CI hosts must still coalesce
JSON_PATH_ENV = "BENCH_GATEWAY_JSON"
DEFAULT_JSON_PATH = "BENCH_gateway.json"


@dataclass
class GatewayBenchResult:
    #: (agents, serial_rows, batch_rows, stream_rows, recovered,
    #:  serial_ms, batch_ms, stream_ms).
    sharing_rows: list[tuple] = field(default_factory=list)
    #: (agents, windows, mean_window, mean_formation_ms, max_formation_ms).
    window_rows: list[tuple] = field(default_factory=list)
    #: Sharing-recovered fraction at 64 agents (the acceptance metric).
    recovered_at_64: float = 0.0

    def render(self) -> str:
        sharing = format_table(
            [
                "agents",
                "serial rows",
                "batch rows",
                "stream rows",
                "recovered",
                "serial ms",
                "batch ms",
                "stream ms",
            ],
            [
                (
                    agents,
                    serial_rows,
                    batch_rows,
                    stream_rows,
                    f"{recovered:.0%}",
                    f"{serial_ms:.1f}",
                    f"{batch_ms:.1f}",
                    f"{stream_ms:.1f}",
                )
                for (
                    agents,
                    serial_rows,
                    batch_rows,
                    stream_rows,
                    recovered,
                    serial_ms,
                    batch_ms,
                    stream_ms,
                ) in self.sharing_rows
            ],
            title=(
                "streaming admission vs per-probe submit vs hand-assembled"
                " batch (uncoordinated agents)"
            ),
        )
        windows = format_table(
            [
                "agents",
                "windows",
                "mean window size",
                "mean formation ms",
                "max formation ms",
            ],
            [
                (
                    agents,
                    windows_formed,
                    f"{mean_size:.1f}",
                    f"{mean_ms:.2f}",
                    f"{max_ms:.2f}",
                )
                for agents, windows_formed, mean_size, mean_ms, max_ms in self.window_rows
            ],
            title="admission window formation",
        )
        return sharing + "\n\n" + windows

    def to_json(self) -> dict:
        return {
            "bench": "gateway",
            "stream_max_wait_s": STREAM_MAX_WAIT,
            "sharing": [
                {
                    "agents": agents,
                    "serial_rows": serial_rows,
                    "batch_rows": batch_rows,
                    "stream_rows": stream_rows,
                    "sharing_recovered": round(recovered, 4),
                    "serial_ms": round(serial_ms, 2),
                    "batch_ms": round(batch_ms, 2),
                    "stream_ms": round(stream_ms, 2),
                }
                for (
                    agents,
                    serial_rows,
                    batch_rows,
                    stream_rows,
                    recovered,
                    serial_ms,
                    batch_ms,
                    stream_ms,
                ) in self.sharing_rows
            ],
            "windows": [
                {
                    "agents": agents,
                    "windows_streamed": windows_formed,
                    "mean_window_size": round(mean_size, 2),
                    "mean_formation_ms": round(mean_ms, 3),
                    "max_formation_ms": round(max_ms, 3),
                }
                for agents, windows_formed, mean_size, mean_ms, max_ms in self.window_rows
            ],
        }


def run_streaming_path(probes: list[Probe]) -> tuple[int, float, dict]:
    """N uncoordinated agent threads, one shared system, no pre-batching."""
    system = AgentFirstDataSystem(
        build_db(),
        config=SystemConfig(
            gateway_max_wait=STREAM_MAX_WAIT,
            gateway_max_batch=len(probes),
        ),
        workers=1,
    )
    rows = [0] * len(probes)
    barrier = threading.Barrier(len(probes) + 1)

    def agent_main(index: int, probe: Probe) -> None:
        # Identity lives on the session; the probe itself is bare SQL.
        session = system.session(agent_id=probe.agent_id)
        barrier.wait()
        response = session.submit(
            Probe(queries=probe.queries, brief=probe.brief)
        ).result(timeout=120.0)
        rows[index] = response.rows_processed

    threads = [
        threading.Thread(target=agent_main, args=(index, probe))
        for index, probe in enumerate(probes)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    stats = system.gateway.stats()
    system.gateway.close()
    return sum(rows), elapsed_ms, stats


def run_gateway_bench() -> GatewayBenchResult:
    result = GatewayBenchResult()
    for n_agents in AGENT_COUNTS:
        probes = swarm_probes(n_agents)

        # Path 1: per-probe submit, independent per-agent systems.
        serial_systems = [AgentFirstDataSystem(build_db(), workers=1) for _ in probes]
        started = time.perf_counter()
        serial_rows = sum(
            system.submit(probe).rows_processed
            for system, probe in zip(serial_systems, probes)
        )
        serial_ms = (time.perf_counter() - started) * 1000.0

        # Path 2: the sharing ceiling — one hand-assembled admission window.
        batch_system = AgentFirstDataSystem(build_db(), workers=1)
        started = time.perf_counter()
        batch_rows = sum(
            response.rows_processed
            for response in batch_system.submit_many(probes)
        )
        batch_ms = (time.perf_counter() - started) * 1000.0
        # Registry-backed efficiency gauges for the trajectory (last —
        # largest — swarm size wins): the sharing ceiling's cache economy.
        snap = batch_system.metrics()
        result.cache_metrics = {
            "swarm_size": n_agents,
            "subplan_cache_hit_ratio": snap.get(
                "repro_engine_subplan_cache_hit_ratio"
            ),
            "subplan_cache_hits": snap.get("repro_engine_subplan_cache_hits"),
            "subplan_cache_misses": snap.get("repro_engine_subplan_cache_misses"),
        }

        # Path 3: streaming admission from uncoordinated agent threads.
        stream_rows, stream_ms, stats = run_streaming_path(probes)

        ceiling = serial_rows - batch_rows
        recovered = (serial_rows - stream_rows) / ceiling if ceiling else 1.0
        if n_agents == 64:
            result.recovered_at_64 = recovered
        result.sharing_rows.append(
            (
                n_agents,
                serial_rows,
                batch_rows,
                stream_rows,
                recovered,
                serial_ms,
                batch_ms,
                stream_ms,
            )
        )
        result.window_rows.append(
            (
                n_agents,
                stats["windows_streamed"],
                stats["mean_window_size"],
                stats["mean_formation_ms"],
                stats["max_formation_ms"],
            )
        )

    return result


def write_json(result: GatewayBenchResult) -> str:
    """Append this run (keyed by git SHA + date) to the perf trajectory."""
    from bench_record import append_run

    return append_run(
        JSON_PATH_ENV,
        DEFAULT_JSON_PATH,
        result.to_json(),
        metrics=getattr(result, "cache_metrics", None),
    )


def test_gateway_streaming_admission(benchmark):
    result = benchmark.pedantic(run_gateway_bench, rounds=1, iterations=1)
    print()
    print(result.render())
    print(f"\nwrote {write_json(result)}")

    # The acceptance bar: 64 uncoordinated agents must recover >=80% of
    # the rows-saved sharing a hand-assembled single batch achieves.
    assert result.recovered_at_64 >= 0.8


if __name__ == "__main__":
    result = run_gateway_bench()
    print(result.render())
    print(f"\nwrote {write_json(result)}")

"""Quickstart: an agent-first data system in 100 lines.

Builds a small database, wraps it in an :class:`AgentFirstDataSystem`, and
submits probes the way an LLM agent would: SQL plus a natural-language
brief. The system answers, steers (why-not provenance, join discovery,
history pointers), remembers grounding — and serves whole swarms of
concurrent agents: hand a batch to ``submit_many``, or just open sessions
and stream probes in; the gateway's admission loop forms the batches and
shares duplicated work across agents that never coordinated.

Run:  python examples/quickstart.py
"""

import asyncio

from repro.core import AgentFirstDataSystem, Brief, Probe, SystemConfig
from repro.db import Database


def main() -> None:
    db = Database("quickstart")
    db.execute(
        "CREATE TABLE stores (id INT PRIMARY KEY, city TEXT, state TEXT)"
    )
    db.execute(
        "CREATE TABLE sales (id INT PRIMARY KEY, store_id INT,"
        " product TEXT, amount FLOAT)"
    )
    db.execute(
        "INSERT INTO stores VALUES (1,'Berkeley','California'),"
        "(2,'Oakland','California'),(3,'Seattle','Washington')"
    )
    db.execute(
        "INSERT INTO sales VALUES (1,1,'coffee',120.5),(2,1,'tea',30.0),"
        "(3,2,'coffee',80.0),(4,3,'coffee',200.0)"
    )

    system = AgentFirstDataSystem(db)

    # 1. An exploration probe: metadata + anywhere-token semantic search.
    response = system.submit(
        Probe(
            queries=("SELECT table_name, row_count FROM information_schema.tables",),
            brief=Brief(goal="explore which tables hold coffee sales data"),
            semantic_search="coffee sales revenue",
        )
    )
    print("== exploration ==")
    print(response.first_result().to_text())
    for hit in response.semantic_hits[:3]:
        print("semantic:", hit.describe())
    for hint in response.steering:
        print("steering:", hint)

    # 2. A mistaken probe: the agent guesses 'CA'; the data spells it out.
    response = system.submit(
        Probe.sql("SELECT * FROM stores WHERE state = 'CA'", goal="final answer")
    )
    print("\n== why-not steering ==")
    print("rows returned:", response.first_result().row_count)
    for hint in response.steering:
        print("steering:", hint)

    # 3. The corrected probe, then a repeat by a different agent: the second
    #    ask is answered from history without touching the table.
    system.submit(
        Probe.sql(
            "SELECT COUNT(*) FROM stores WHERE state = 'California'",
            goal="compute the exact count",
        )
    )
    repeat = system.submit(
        Probe(
            queries=("SELECT COUNT(*) FROM stores WHERE state = 'California'",),
            agent_id="second-agent",
        )
    )
    print("\n== cross-agent history reuse ==")
    print("status:", repeat.outcomes[0].status, "|", repeat.outcomes[0].reason)
    print("answer:", repeat.first_result().first_value())

    # 4. Serving concurrent swarms: many agents, one admission batch.
    #    submit_many interprets every probe up front, runs the batch's
    #    independent work groups concurrently on the scheduler's worker
    #    pool (configurable via AgentFirstDataSystem(..., workers=N)),
    #    replays dispatch round-robin across agents, and materialises each
    #    distinct sub-plan once batch-wide — the answers are identical to
    #    serial submission, the engine work (and wall-clock) is not.
    swarm = [
        Probe(
            queries=(
                "SELECT s.city, SUM(x.amount) FROM stores s"
                " JOIN sales x ON s.id = x.store_id GROUP BY s.city",
                f"SELECT COUNT(*) FROM sales WHERE store_id = {1 + agent % 2}",
            ),
            brief=Brief(goal="compute the exact revenue per city"),
            agent_id=f"swarm-agent-{agent}",
        )
        for agent in range(8)
    ]
    responses = system.submit_many(swarm)
    report = responses[0].sharing
    print("\n== serving a concurrent swarm ==")
    print(
        f"{report.agents} agents, {report.queries} queries:"
        f" {report.total_subplans} sub-plans, {report.distinct_subplans} distinct"
        f" ({report.duplicate_fraction:.0%} duplicates),"
        f" {report.cross_agent_subplans} shared across agents"
    )
    for hint in responses[-1].steering:
        if "other agent" in hint:
            print("steering:", hint)

    #    The second time a swarm asks: statements are compiled (parsed,
    #    planned, fingerprinted, cost-estimated) once per SQL text and
    #    catalog version, in db.statement_cache — a repeat window costs
    #    no planning at all, and any write (SQL or not) moves
    #    Catalog.version() and drops the cache on the next lookup.
    _, misses_before, _, _ = db.statement_cache.counters()
    system.submit_many(swarm)
    hits, misses, _, invalidations = db.statement_cache.counters()
    print("\n== the second time a swarm asks ==")
    print(
        f"repeat window: {misses - misses_before} statements compiled;"
        f" lifetime {hits} hits / {misses} misses,"
        f" {invalidations} flushes after writes"
    )

    # 5. A *streaming* swarm: the batch as an emergent property. Each
    #    agent opens a session (sticky identity + brief defaults — no
    #    per-probe agent_id/principal plumbing) and submits independently;
    #    session.submit returns a ProbeTicket immediately, and the
    #    gateway's admission loop coalesces whatever is in flight across
    #    sessions into admission windows (close at max_batch pending or
    #    max_wait elapsed, both on SystemConfig). Window boundaries never
    #    change an answer — only how much work gets shared when.
    print("\n== streaming swarm: sessions + tickets ==")
    sessions = [
        system.session(
            agent_id=f"stream-agent-{agent}",
            defaults=Brief(goal="compute the exact revenue per city"),
        )
        for agent in range(6)
    ]
    tickets = [
        session.submit(
            Probe(
                queries=(
                    "SELECT s.city, SUM(x.amount) FROM stores s"
                    " JOIN sales x ON s.id = x.store_id GROUP BY s.city",
                ),
            )
        )
        for session in sessions
    ]
    print("tickets issued:", len(tickets), "| done yet?", tickets[-1].done())
    system.gateway.flush()  # optional: close the window now, skip the timer
    for ticket in tickets:
        ticket.result(timeout=30.0)
    print("answer:", tickets[0].result().first_result().to_text().splitlines()[0])
    print(sessions[0].describe())
    print("gateway:", system.gateway.stats()["windows_streamed"], "window(s) formed")

    # 6. The same loop, from asyncio: `await session.asubmit(probe)` and
    #    `async for response in gateway.serve(aiter_of_probes)`.
    async def async_swarm() -> None:
        session = system.session(agent_id="async-agent")
        response = await session.asubmit(
            Probe.sql("SELECT COUNT(*) FROM sales", goal="exact count")
        )
        print("asubmit:", response.first_result().first_value(), "sales rows")

        async def arrivals():
            for store in (1, 2, 3):
                yield Probe.sql(f"SELECT COUNT(*) FROM sales WHERE store_id = {store}")

        counts = [
            response.first_result().first_value()
            async for response in system.gateway.serve(arrivals(), session=session)
        ]
        print("streamed counts per store:", counts)

    print("\n== asyncio surface ==")
    asyncio.run(async_swarm())

    # 7. The execution engine. Every plan runs on the vectorized columnar
    #    engine: batch-at-a-time kernels over per-column arrays, with a
    #    per-node fallback to row-at-a-time execution for anything not yet
    #    vectorized (subquery predicates, index scans, sampled
    #    aggregates). There is no engine knob. The row `Executor` stays as
    #    the reference the columnar engine is tested byte-identical
    #    against (rows, stats, errors), so any answer can be re-checked.
    from repro.engine import ExecContext, Executor

    reference_sql = "SELECT SUM(amount) FROM sales"
    print("\n== execution engine ==")
    print(
        "served answer:",
        system.submit(Probe.sql(reference_sql)).first_result().first_value(),
        "| row-engine reference:",
        Executor(db.catalog, ExecContext())
        .run(db.plan_select(reference_sql))
        .first_value(),
    )

    # 8. The sleeper-agent maintenance runtime: idle windows between
    #    turns are spent acting on the advisors — hot recurring subplans
    #    become materialized views, repeated equality/range predicates
    #    become auto-built (planner-invisible) indexes, statistics are
    #    refreshed after write bursts, and evicted hot cache entries are
    #    re-installed. Answers are byte-identical with maintenance on or
    #    off; repeated workloads just get faster turn over turn. Enable
    #    via SystemConfig(enable_maintenance=True) or REPRO_MAINTENANCE=1;
    #    a streaming gateway triggers it automatically on idle —
    #    run_pending() is the same machinery invoked synchronously.
    from repro.maintenance import MaintenanceConfig

    maintained = AgentFirstDataSystem(
        db,
        config=SystemConfig(
            enable_maintenance=True,
            # Tiny demo data: lower the hotness thresholds so the loop
            # shows within a few turns (production defaults are higher).
            maintenance=MaintenanceConfig(view_min_occurrences=2, index_min_rows=1),
        ),
    )
    hot = Probe.sql(
        "SELECT s.city, SUM(x.amount) FROM stores s"
        " JOIN sales x ON s.id = x.store_id GROUP BY s.city",
        goal="compute the exact revenue per city",
    )
    print("\n== sleeper-agent maintenance ==")
    for turn in range(4):
        # A write burst between turns invalidates history and caches —
        # without maintenance, every turn would recompute the join.
        db.execute(f"INSERT INTO sales VALUES ({100 + turn},3,'tea',12.5)")
        maintained.maintenance.run_pending()  # the idle window
        response = maintained.submit(hot)
        print(
            f"turn {turn}: {response.rows_processed} rows processed"
            + "".join(
                f"\n  * {hint}" for hint in response.steering if "sleeper" in hint
            )
        )
    for suggestion in maintained.materialization_suggestions()[:2]:
        flag = "materialized" if suggestion.materialized else "pending"
        print(f"advice [{flag}]: seen {suggestion.count}x: {suggestion.description}")
    maintained.close()

    # 9. What the system has learned along the way. Executed results are
    #    remembered once per statement shape (the text with ``?`` for its
    #    literals); the latest binding and its row count ride in content.
    print("\n== agentic memory ==")
    for artifact in system.memory.artifacts_about("stores"):
        print(artifact.describe())
        if "sql" in artifact.content:
            print(f"    latest: {artifact.content['sql']} -> {artifact.content['rows']} rows")

    # 10. Durability and read replicas: pass a wal_dir (or set REPRO_WAL=1)
    #     and every catalog write appends to an on-disk write-ahead log
    #     *before* mutating state; reads log nothing. After a crash,
    #     ``recover`` rebuilds the exact pre-crash data — rows, row ids,
    #     version counters. The turn counter and the answered-before
    #     history start cold, so the repeated probe below comes back
    #     ``ok`` (re-executed) with the same rows. The same log feeds
    #     in-process read replicas: a probe whose brief declares
    #     a staleness tolerance (``Brief(max_staleness=N)``) may be served
    #     by a replica, always with an explicit staleness hint.
    import shutil
    import tempfile

    wal_dir = tempfile.mkdtemp(prefix="quickstart-wal-")
    durable_db = Database("durable", wal_dir=wal_dir)
    durable_db.execute("CREATE TABLE events (id INT PRIMARY KEY, kind TEXT)")
    durable_db.insert_rows("events", [(i, "click") for i in range(50)])
    durable = AgentFirstDataSystem(
        durable_db, config=SystemConfig(read_replicas=1)
    )
    durable.submit(
        Probe(queries=("SELECT COUNT(*) FROM events",), agent_id="alice")
    )
    # Crash: abandon the system without any shutdown courtesy. Everything
    # acknowledged is already on disk.
    durable.close()
    abandoned_wal = durable_db.wal
    durable_db.catalog.wal = None
    abandoned_wal.close()

    recovered = AgentFirstDataSystem.recover(
        wal_dir, config=SystemConfig(read_replicas=1)
    )
    repeat = recovered.submit(
        Probe(queries=("SELECT COUNT(*) FROM events",), agent_id="bob")
    )
    print("\n== durability: crash recovery + read replicas ==")
    print("recovered rows:", repeat.first_result().first_value())
    print(f"status: {repeat.outcomes[0].status} at turn {repeat.turn} (cold after recovery)")
    bounded = recovered.replicas.try_serve(
        Probe(
            queries=("SELECT COUNT(*) FROM events",),
            brief=Brief(max_staleness=5),
            agent_id="carol",
        )
    )
    for hint in bounded.steering:
        print("steering:", hint)
    recovered.close()
    recovered_wal = recovered.db.wal
    recovered.db.catalog.wal = None
    recovered_wal.close()
    shutil.rmtree(wal_dir, ignore_errors=True)

    # 11. Overload control & agent QoS: enable_qos=True (or REPRO_QOS=1)
    #     adds priority lanes, per-principal token buckets, and
    #     degrade-don't-drop load shedding to the streaming gateway. The
    #     layer is watermark-gated — an unloaded QoS-on system serves
    #     byte-identically to a QoS-off one. Here we flood a tiny
    #     watermark on purpose: bulk-lane probes get *sampled* answers
    #     with a steering line naming the cause, while the interactive
    #     lane jumps the queue and stays exact.
    from repro.qos import QosConfig

    loaded_db = Database("loaded")
    loaded_db.execute("CREATE TABLE clicks (id INT PRIMARY KEY, page TEXT)")
    loaded_db.insert_rows(
        "clicks", [(i, ("home", "cart", "search")[i % 3]) for i in range(300)]
    )
    loaded = AgentFirstDataSystem(
        loaded_db,
        config=SystemConfig(
            enable_qos=True,
            qos=QosConfig(queue_high=3, shed_sample_rate=0.1),
            gateway_max_batch=64,
            gateway_max_wait=30.0,
        ),
    )
    background = [
        loaded.gateway.submit(
            Probe(
                queries=("SELECT page, COUNT(*) FROM clicks GROUP BY page",),
                brief=Brief(lane="bulk"),  # self-declared background work
                agent_id=f"sweeper-{i}",
            )
        )
        for i in range(6)
    ]
    urgent = loaded.gateway.submit(
        Probe(
            queries=("SELECT COUNT(*) FROM clicks",),
            brief=Brief(goal="verify the click count"),  # validation: interactive
            agent_id="checker",
        )
    )
    loaded.gateway.flush()
    print("\n== overload control: priority lanes + degraded-mode serving ==")
    urgent_response = urgent.result(timeout=60.0)
    print(
        "interactive lane:",
        urgent_response.outcomes[0].status,
        "| turn",
        urgent_response.turn,
        "(served ahead of 6 earlier bulk arrivals)",
    )
    degraded = background[0].result(timeout=60.0)
    print("bulk lane:", degraded.outcomes[0].status)
    for hint in degraded.steering:
        if "system under load" in hint:
            print("steering:", hint)
    stats = loaded.gateway.stats()
    print(
        "gateway: overload windows",
        stats["overload_windows"],
        "| probes degraded",
        stats["probes_degraded"],
        "| lanes",
        stats["qos"]["lane_counts"],
    )
    loaded.gateway.close()

    # 12. Scaling out: the sharded serving tier. Partition a fact table
    # by tenant across 4 complete systems; sessions land on their
    # tenant's home shard, tenant-pinned probes prune to the owner
    # shard, and genuinely cross-tenant aggregates scatter-gather with
    # partial aggregates merged at the router (AVG via SUM+COUNT).
    from repro.shard import ShardedSystem

    tenants_db = Database("tenants")
    tenants_db.execute("CREATE TABLE orders (tenant TEXT, amount FLOAT)")
    tenants_db.insert_rows(
        "orders",
        [(f"t{i % 8}", float(10 + i % 50)) for i in range(400)],
    )
    tier = ShardedSystem(tenants_db, shards=4, partition={"orders": "tenant"})
    print("\n== sharded multi-tenant serving tier ==")
    session = tier.session(agent_id="acme-agent", principal="t3")
    print("session home shard:", session.shard_id, "(sticky for principal t3)")
    local = session.submit(
        Probe.sql("SELECT COUNT(*), SUM(amount) FROM orders WHERE tenant = 't3'")
    ).result(timeout=60.0)
    print(
        "tenant-local probe:",
        local.outcomes[0].result.rows,
        "| scatter lines:",
        sum("scatter-gather" in line for line in local.steering),
    )
    global_answer = tier.submit(
        Probe.sql("SELECT COUNT(*), AVG(amount) FROM orders")
    )
    print("cross-shard probe:", global_answer.outcomes[0].result.rows)
    for hint in global_answer.steering:
        print("steering:", hint)
    tier_stats = tier.stats()
    print(
        "tier: shards",
        tier_stats["shards"],
        "| windows served",
        tier_stats["windows_served"],
        "| matchmaker",
        tier_stats["matchmaker"]["units_matched"],
        "units matched",
    )
    tier.close()

    # 13. Watching the system think: the observability layer. Set
    # Brief(trace=True) (or REPRO_TRACE=1 globally) and the response
    # carries a span tree following the probe end-to-end — gateway
    # admission, QoS verdict, scheduler work group, every engine plan
    # node with rows in/out. Export it with trace.to_chrome_json() and
    # drop the file on https://ui.perfetto.dev (or about:tracing) for a
    # flame view. Tracing never changes an answer.
    observed = AgentFirstDataSystem(db)
    traced = observed.submit(
        Probe(
            queries=(
                "SELECT s.city, SUM(x.amount) FROM stores s JOIN sales x"
                " ON s.id = x.store_id GROUP BY s.city",
            ),
            brief=Brief(goal="compute the exact answer", trace=True),
            agent_id="observer",
        )
    )
    print("\n== watching the system think ==")

    def show(span, depth=0):
        print(f"  {'  ' * depth}{span.name}  {span.duration_ms:.3f}ms {span.attrs}")
        for child in span.children:
            show(child, depth + 1)

    show(traced.trace.root)
    chrome = traced.trace.to_chrome_json()
    print(f"chrome trace: {len(chrome)} bytes -> save as trace.json, load in Perfetto")

    # Every component publishes into one metrics registry per system:
    # counters, gauges, and latency histograms, renderable as JSON or
    # Prometheus exposition text (ShardedSystem.metrics() merges shards
    # with a shard label). A few of the series this run populated:
    snap = observed.metrics()
    for name in (
        "repro_gateway_windows_direct_total",
        "repro_scheduler_batches_served_total",
        "repro_engine_subplan_cache_hit_ratio",
    ):
        print(f"metric {name} = {snap.get(name)}")
    node_latency = snap.get("repro_engine_node_latency_ms", node="Scan")
    print(f"metric repro_engine_node_latency_ms{{node=Scan}} count={node_latency['count']}")
    # print(snap.to_prometheus_text())  # the full scrape-ready payload

    # Slow-probe log: set SystemConfig.slow_probe_ms (or
    # REPRO_SLOW_PROBE_MS) and offenders land in system.slow_probes with
    # their full trace attached — the threshold implies tracing, because
    # a slow probe cannot be traced after the fact.
    print("slow probes over threshold:", len(observed.slow_probes))


if __name__ == "__main__":
    main()

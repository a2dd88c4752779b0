"""The compiled-statement cache: differential, invalidation, concurrency.

Three contracts:

* **Invisible.** A system whose database compiles through the default
  :class:`StatementCache` answers byte-identically to one injected with
  ``StatementCache(max_entries=0)`` (every lookup a miss) — rows, statuses,
  reasons, steering, history attribution and work counters — at every
  worker count and engine, for caller-assembled windows
  and streamed sessions alike.
* **One stamp.** ``Catalog.version()`` is the only invalidation signal, so
  anything that moves it — DDL, DML, direct ``Table`` mutation, table
  swaps, planner and auxiliary index builds, information-schema refreshes
  — forces a recompile, and recovery starts cold.
* **Shared safely.** Entries (failures included) are shared across
  threads; counters and the LRU bound hold under interleaving.
* **Bound equals fresh.** A plan bound from its shape's template equals
  a fresh compile of the same text in plan, digests, estimate, AST and
  rows on both engines, over every SELECT of the engine, plan and
  fingerprint corpora and agentbench's shapes with seeded literals; and
  each kind of unliftable shape compiles in full.
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time
from dataclasses import asdict

import pytest

from repro.core import AgentFirstDataSystem, Brief, Phase, Probe, SystemConfig
from repro.core.steering import JoinDiscovery
from repro.db import Database
from repro.engine.columnar import ColumnarExecutor
from repro.engine.executor import ExecContext, Executor
from repro.errors import ParseError, PlanError, ReproError, TokenizeError
from repro.plan import logical
from repro.plan.compiled import (
    StatementCache,
    compile_select,
    compiled_estimate,
    statement_shape,
)
from repro.plan.cost import estimate_cost
from repro.plan.fingerprint import fingerprint_uncached
from repro.semantic.embedding import cosine_similarity
from repro.semantic.search import SemanticSearch
from repro.shard import ShardedSystem
from repro.sql.lexer import TokenType, tokenize
from repro.sql.parser import _shape
from repro.storage.table import Table
from test_engine_columnar import CORPUS as COLUMNAR_CORPUS
from test_engine_columnar import build_db as build_columnar_db
from test_fingerprint_memo import CORPUS as FINGERPRINT_CORPUS
from test_fingerprint_memo import build_db as build_fingerprint_db
from test_plan import QUERY_CORPUS

sys.path.insert(
    0,
    os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "agentbench")
    ),
)

import workloads as agentbench  # noqa: E402

JOIN = (
    "SELECT s.state, COUNT(*), SUM(x.amount) FROM sales x"
    " JOIN stores s ON x.store_id = s.id GROUP BY s.state"
)
COUNT_SALES = "SELECT COUNT(*) FROM sales"
INFO_SCHEMA = "SELECT table_name, row_count FROM information_schema.tables"


def build_db(
    statement_cache: StatementCache | None = None,
    wal_dir: str | bool | None = None,  # None: the REPRO_WAL=1 CI leg attaches one
    rows: int = 400,
) -> Database:
    db = Database("plan-cache", wal_dir=wal_dir, statement_cache=statement_cache)
    db.execute("CREATE TABLE stores (id INT PRIMARY KEY, city TEXT, state TEXT)")
    db.execute(
        "CREATE TABLE sales (id INT PRIMARY KEY, store_id INT, product TEXT,"
        " amount FLOAT)"
    )
    db.execute(
        "INSERT INTO stores VALUES (1,'Berkeley','CA'),(2,'Oakland','CA'),"
        "(3,'Seattle','WA'),(4,'Austin','TX')"
    )
    db.insert_rows(
        "sales",
        [
            (i, 1 + i % 4, ("coffee", "tea", "pastry")[i % 3], float(i % 23))
            for i in range(rows)
        ],
    )
    return db


def uncached_db(**kwargs) -> Database:
    return build_db(statement_cache=StatementCache(max_entries=0), **kwargs)


def uncached_db_after(statement: str) -> Database:
    db = uncached_db()
    db.execute(statement)
    return db


def swarm_window(offset: int = 0) -> list[Probe]:
    """One admission window of a small swarm: shared statements, broken
    and non-SELECT text, exploration extras, sampling, validation."""
    probes = []
    for agent in range(6):
        probes.append(
            Probe(
                queries=(
                    JOIN,
                    f"SELECT COUNT(*), SUM(amount) FROM sales WHERE store_id = {1 + agent % 2}",
                ),
                brief=Brief(goal="compute the final sales amount by stores state"),
                agent_id=f"solver-{agent + offset}",
            )
        )
    probes.append(
        Probe(
            queries=("SELECT DISTINCT state FROM stores", INFO_SCHEMA),
            brief=Brief(
                goal="explore the schema: stores state and city",
                phase=Phase.METADATA_EXPLORATION,
                accuracy=0.8,
            ),
            semantic_search="stores state",
            memory_queries=("sales by state",),
            agent_id=f"explorer-{offset}",
        )
    )
    probes.append(
        Probe(
            queries=(
                "SELEC oops",
                "UPDATE sales SET amount = 0",
                "SELECT nope FROM sales",
                COUNT_SALES,
            ),
            brief=Brief(goal="verify the reported sales amount"),
            agent_id=f"sloppy-{offset}",
        )
    )
    probes.append(
        Probe(
            queries=(JOIN,),
            brief=Brief(goal="rough sales amount by state", accuracy=0.3),
            agent_id=f"sampler-{offset}",
        )
    )
    return probes


def response_signature(response) -> dict:
    return {
        "turn": response.turn,
        "outcomes": [
            (
                o.sql,
                o.status,
                o.reason,
                o.query_index,
                o.sample_rate,
                o.estimated_cost,
                o.similar_to_turn,
                None if o.result is None else (o.result.columns, o.result.rows),
            )
            for o in response.outcomes
        ],
        "steering": response.steering,
        "semantic": [(h.location, h.score, h.snippet) for h in response.semantic_hits],
        "memory": [(a.text, score) for a, score in response.memory_hits],
        "rows_processed": response.rows_processed,
        "cache_hits": response.cache_hits,
        "sharing": None if response.sharing is None else asdict(response.sharing),
    }


def system_signature(system) -> dict:
    optimizer = system.optimizer
    return {
        "history": {
            strict: (entry.turn, entry.agent_id, entry.sql)
            for strict, entry in optimizer.history.items()
        },
        "lenient": {
            lenient: (entry.turn, entry.agent_id)
            for lenient, entry in optimizer.lenient_history.items()
        },
        "subplan_memo": (system.scheduler.memo_hits, system.scheduler.memo_misses),
        "scheduler": (
            system.scheduler.batches_served,
            system.scheduler.queries_dispatched,
            system.scheduler.speculative_executions,
        ),
        "turn": system.turn,
    }


def serve_both_ways(system) -> list[dict]:
    """A caller-assembled window, then a streamed one (sessions + flush),
    then a repeat window that history mostly answers."""
    signatures = [response_signature(r) for r in system.submit_many(swarm_window())]
    tickets = [
        system.session(agent_id=probe.agent_id).submit(probe)
        for probe in swarm_window(offset=100)
    ]
    system.gateway.flush()
    signatures += [response_signature(t.result(timeout=60.0)) for t in tickets]
    signatures += [response_signature(r) for r in system.submit_many(swarm_window())]
    return signatures


def assert_exact_answers_match(db, signatures, engine: str) -> None:
    """Every exact ``ok`` answer equals the named executor run directly."""
    reference = {"row": Executor, "columnar": ColumnarExecutor}[engine]
    checked = 0
    for signature in signatures:
        for sql, status, *_, result in signature["outcomes"]:
            if status != "ok":
                continue
            expected = reference(db.catalog, ExecContext()).run(db.plan_select(sql))
            assert result == (expected.columns, expected.rows), sql
            checked += 1
    assert checked


class TestDifferential:
    @pytest.mark.parametrize("engine", ["row", "columnar"])
    @pytest.mark.parametrize("workers", [1, 8])
    def test_cached_matches_always_miss(self, workers, engine):
        """``engine`` names the reference executor the cached answers are
        also checked against."""

        def config():
            # One window per flush: streamed steering then cannot depend
            # on where the admission timer happened to cut. Maintenance is
            # pinned off (its idle-window jobs move work counters by
            # timing); the test below covers it on answers alone.
            return SystemConfig(
                gateway_max_batch=64,
                gateway_max_wait=30.0,
                enable_maintenance=False,
            )

        with AgentFirstDataSystem(
            build_db(), config=config(), workers=workers
        ) as cached, AgentFirstDataSystem(
            uncached_db(), config=config(), workers=workers
        ) as uncached:
            served = serve_both_ways(cached)
            assert served == serve_both_ways(uncached)
            assert system_signature(cached) == system_signature(uncached)
            assert_exact_answers_match(cached.db, served, engine)
            hits, misses, _, _ = cached.db.statement_cache.counters()
            assert hits > misses > 0
            assert uncached.db.statement_cache.counters()[0] == 0
            assert len(uncached.db.statement_cache) == 0

    def test_shared_plans_survive_maintenance_rewrites(self):
        """View and auxiliary-index rewrites run on plans every probe now
        shares; they must build new nodes, never edit the cached ones."""
        from repro.maintenance import MaintenanceConfig

        def run(db):
            config = SystemConfig(
                enable_maintenance=True,
                maintenance=MaintenanceConfig(
                    view_min_occurrences=2, index_min_occurrences=2, index_min_rows=10
                ),
            )
            answers = []
            with AgentFirstDataSystem(db, config=config, workers=1) as system:
                for turn in range(4):
                    db.execute(f"INSERT INTO sales VALUES ({9000 + turn}, 1, 'tea', 2.0)")
                    system.maintenance.run_pending()
                    shapes = [db.plan_select(sql).describe() for sql in (JOIN, COUNT_SALES)]
                    for response in system.submit_many(swarm_window()):
                        answers.append(response_signature(response)["outcomes"])
                    assert shapes == [
                        db.plan_select(sql).describe() for sql in (JOIN, COUNT_SALES)
                    ]
                stats = system.maintenance.stats()
            return answers, stats["views_built"] > 0

        cached_answers, cached_built = run(build_db())
        uncached_answers, _ = run(uncached_db())
        assert cached_answers == uncached_answers
        assert cached_built  # the rewrite path really ran

    def test_writes_between_windows(self):
        """Invalidation differential: the same windows with DML, DDL and a
        direct table write between them."""

        def run(db):
            signatures = []
            config = SystemConfig(enable_maintenance=False)
            with AgentFirstDataSystem(db, config=config, workers=1) as system:
                signatures += map(response_signature, system.submit_many(swarm_window()))
                db.execute("INSERT INTO sales VALUES (9001, 1, 'tea', 3.0)")
                signatures += map(response_signature, system.submit_many(swarm_window()))
                db.catalog.table("sales").insert((9002, 2, "tea", 4.0))
                db.catalog.create_hash_index("sales", "store_id")
                signatures += map(response_signature, system.submit_many(swarm_window()))
                return signatures, system_signature(system)

        assert run(build_db()) == run(uncached_db())


PHRASES = ("stores state", "tea", "Reno", "sales amount", "extra")


def assert_second_tier_is_current(
    db: Database, discovery: JoinDiscovery, search: SemanticSearch
) -> None:
    """The version-stamped memos above the planner answer like ones built
    just now: join discovery equals its unmemoized self, the semantic index
    equals a fresh one, and every score is the per-call cosine formula."""
    for table in ("sales", "stores", "extra"):
        assert discovery.related_tables(table, 3) == discovery._discover(table, 3)
    fresh = SemanticSearch(db)
    for phrase in PHRASES:
        hits = search.search(phrase, limit=50)
        assert hits == fresh.search(phrase, limit=50)
        tokens = search._index.lookup_phrase(phrase)
        query = search._embedder.embed(phrase)
        for hit in hits:
            count = tokens.get(hit.location)
            expected = 0.0 if count is None else 1.0 + 0.25 * (count - 1)
            similarity = cosine_similarity(query, search._embedder.embed(hit.snippet))
            if similarity > 0.12 or (count is not None and similarity > 0.0):
                expected += similarity
            assert hit.score == expected


def assert_recompiles(db: Database, sql: str, action) -> None:
    """``sql`` is served from cache until ``action`` runs, then recompiled
    (and served from cache again) — and the second-tier memos, warm before
    ``action``, follow the same stamp."""
    discovery, search = JoinDiscovery(db), SemanticSearch(db)
    assert_second_tier_is_current(db, discovery, search)
    before = db.plan_select(sql)
    assert db.plan_select(sql) is before
    action()
    after = db.plan_select(sql)
    assert after is not before
    assert db.plan_select(sql) is after
    assert compiled_estimate(after, db.catalog) == estimate_cost(after, db.catalog)
    assert_second_tier_is_current(db, discovery, search)


class TestInvalidation:
    SQL = "SELECT COUNT(*) FROM sales WHERE store_id = 2"

    @pytest.mark.parametrize(
        "statement",
        [
            "INSERT INTO sales VALUES (9001, 2, 'tea', 1.0)",
            "UPDATE sales SET amount = amount + 1 WHERE id = 3",
            "DELETE FROM sales WHERE id = 5",
            "CREATE TABLE extra (id INT)",
            "DROP TABLE stores",
        ],
    )
    def test_sql_writes(self, statement):
        db = build_db()
        assert_recompiles(db, self.SQL, lambda: db.execute(statement))
        assert db.execute(self.SQL).rows == uncached_db_after(statement).execute(self.SQL).rows

    def test_direct_table_insert(self):
        db = build_db()
        table = db.catalog.table("sales")
        assert_recompiles(db, self.SQL, lambda: table.insert((9001, 2, "tea", 1.0)))
        assert db.execute(self.SQL).first_value() == 101

    def test_replace_table(self):
        db = build_db()
        swapped = Table.restore(db.catalog.table("sales").snapshot_state())
        swapped.insert((9001, 2, "tea", 1.0))
        assert_recompiles(db, self.SQL, lambda: db.catalog.replace_table(swapped))
        assert db.execute(self.SQL).first_value() == 101

    @pytest.mark.parametrize("kind", ["hash", "sorted"])
    def test_planner_index_build_changes_the_plan(self, kind):
        db = build_db()
        build = getattr(db.catalog, f"create_{kind}_index")
        sql = (
            self.SQL if kind == "hash" else "SELECT COUNT(*) FROM sales WHERE store_id >= 3"
        )
        before = db.execute(sql).rows
        assert not any(isinstance(n, logical.IndexScan) for n in db.plan_select(sql).walk())
        assert_recompiles(db, sql, lambda: build("sales", "store_id"))
        assert any(isinstance(n, logical.IndexScan) for n in db.plan_select(sql).walk())
        assert db.execute(sql).rows == before

    @pytest.mark.parametrize("kind", ["hash", "sorted"])
    def test_auxiliary_index_build(self, kind):
        db = build_db()
        build = getattr(db.catalog, f"create_auxiliary_{kind}_index")
        shape = db.plan_select(self.SQL).describe()
        assert_recompiles(db, self.SQL, lambda: build("sales", "store_id"))
        assert db.plan_select(self.SQL).describe() == shape  # planner-invisible

    def test_create_turns_a_cached_failure_into_a_plan(self):
        db = build_db()
        for _ in range(2):
            with pytest.raises(ReproError, match="extra"):
                db.plan_select("SELECT * FROM extra")
        db.execute("CREATE TABLE extra (id INT)")
        assert db.execute("SELECT * FROM extra").rows == []

    def test_drop_turns_a_cached_plan_into_a_failure(self):
        db = build_db()
        db.execute("SELECT * FROM stores")
        db.execute("DROP TABLE stores")
        with pytest.raises(ReproError, match="stores"):
            db.execute("SELECT * FROM stores")

    def test_information_schema_before_and_after_a_write(self):
        cached, uncached = build_db(), uncached_db()
        observed = []
        for db in (cached, uncached):
            seen = [db.execute(INFO_SCHEMA).rows, db.execute(INFO_SCHEMA).rows]
            seen.append(db.catalog.version())
            db.execute("INSERT INTO sales VALUES (9001, 2, 'tea', 1.0)")
            seen.append(db.execute(INFO_SCHEMA).rows)
            db.catalog.table("stores").insert((9, "Reno", "NV"))  # no change event
            seen.append(db.execute(INFO_SCHEMA).rows)
            seen.append(db.catalog.version())
            observed.append(seen)
        # Cached and uncached facades walk through identical rows *and*
        # versions.
        assert observed[0] == observed[1]
        assert dict(observed[0][-2]) == {"sales": 401, "stores": 5}
        hits = cached.statement_cache.counters()[0]
        cached.execute(INFO_SCHEMA)
        assert cached.statement_cache.counters()[0] == hits + 1

    def test_information_schema_marker_journaled_identically(self, tmp_path):
        """Cached and uncached facades journal identically, and a
        recovered facade answers the same."""
        lsns = []
        for name, db in (
            ("cached", build_db(wal_dir=str(tmp_path / "cached"))),
            ("uncached", uncached_db(wal_dir=str(tmp_path / "uncached"))),
        ):
            for _ in range(3):
                db.execute(INFO_SCHEMA)
            db.execute("INSERT INTO sales VALUES (9001, 2, 'tea', 1.0)")
            for _ in range(3):
                db.execute(INFO_SCHEMA)
            lsns.append(db.wal.last_lsn)
            recovered = Database.recover(str(tmp_path / name))
            assert recovered.catalog.version() == db.catalog.version()
            assert recovered.execute(INFO_SCHEMA).rows == db.execute(INFO_SCHEMA).rows
        assert lsns[0] == lsns[1]

    def test_recovery_starts_cold_and_answers_the_same(self, tmp_path):
        db = build_db(wal_dir=str(tmp_path))
        statements = [self.SQL, JOIN, INFO_SCHEMA]
        live = [db.execute(sql).rows for sql in statements for _ in range(2)]
        assert len(db.statement_cache) > 0
        recovered = Database.recover(str(tmp_path))
        assert len(recovered.statement_cache) == 0
        assert recovered.statement_cache.counters() == (0, 0, 0, 0)
        assert [
            recovered.execute(sql).rows for sql in statements for _ in range(2)
        ] == live

    def test_snapshot_carries_no_cache(self):
        db = build_db()
        db.execute(self.SQL)
        snapshot = db.catalog.snapshot()
        assert not any("statement" in name for name in vars(snapshot))


class TestNegativeCaching:
    @pytest.mark.parametrize(
        "sql,error",
        [
            ("SELEC 1", ParseError),
            ("SELECT @", TokenizeError),
            ("SELECT nope FROM sales", PlanError),
        ],
    )
    def test_failures_are_cached_and_reraised_fresh(self, sql, error):
        cached, uncached = build_db(), uncached_db()
        hits_before, misses_before, _, _ = cached.statement_cache.counters()
        raised = []
        for db in (cached, cached, uncached):
            with pytest.raises(error) as info:
                db.plan_select(sql)
            raised.append(info.value)
        first, second, reference = raised
        assert str(first) == str(second) == str(reference)
        assert type(first) is type(second) is type(reference)
        assert vars(first) == vars(second) == vars(reference)
        assert first is not second  # never one shared exception object
        hits, misses, _, _ = cached.statement_cache.counters()
        assert (hits - hits_before, misses - misses_before) == (1, 1)

    def test_interpreter_parse_error_text_is_byte_identical(self):
        probe = Probe(queries=("SELEC 1", "UPDATE sales SET amount = 0", "SELECT @"))
        texts = []
        for db in (build_db(), uncached_db()):
            with AgentFirstDataSystem(db, workers=1) as system:
                for _ in range(2):
                    texts.append([o.reason for o in system.submit(probe).outcomes])
        assert texts[0] == texts[1] == texts[2] == texts[3]
        assert all(texts[0])

    def test_non_select_text_passes_through_uncached_and_uncounted(self):
        """DML and DDL are on their way to a write that moves the stamp: an
        entry could never be hit, and counting them would drown the hit
        ratio of a write-heavy workload."""
        cached, uncached = build_db(), uncached_db()
        # build_db ran DDL and DML only: the cache never saw them.
        assert cached.statement_cache.counters() == (0, 0, 0, 0)
        assert len(cached.statement_cache) == 0
        raised = []
        for db in (cached, cached, uncached):
            with pytest.raises(PlanError) as info:
                db.plan_select("DELETE FROM sales WHERE id < 10")
            raised.append(info.value)
        assert str(raised[0]) == str(raised[1]) == str(raised[2])
        assert raised[0] is not raised[1]
        assert cached.statement_cache.counters() == (0, 0, 0, 0)
        assert cached.execute(COUNT_SALES).first_value() == 400
        for expected in ("deleted 10", "deleted 0", "deleted 0"):
            assert (
                cached.execute("DELETE FROM sales WHERE id < 10").first_value()
                == expected
            )
        assert cached.execute(COUNT_SALES).first_value() == 390
        # Two compilations, one flush (of the one SELECT entry) — however
        # many writes ran in between.
        assert cached.statement_cache.counters() == (0, 2, 0, 1)


class TestStatementCache:
    def test_lru_eviction_order(self):
        cache = StatementCache(max_entries=2)
        cache.put("a", (1,), "A")
        cache.put("b", (1,), "B")
        assert cache.get("a", (1,)) == "A"  # refreshes a: b is now oldest
        cache.put("c", (1,), "C")
        assert cache.get("b", (1,)) is None
        assert cache.get("a", (1,)) == "A" and cache.get("c", (1,)) == "C"
        cache.put("d", (1,), "D")  # a and c were both touched; a first
        assert cache.get("a", (1,)) is None
        assert len(cache) == 2
        assert cache.counters() == (3, 2, 2, 0)

    def test_stamp_change_drops_everything_once(self):
        cache = StatementCache()
        cache.put("a", (1,), "A")
        cache.put("b", (1,), "B")
        assert cache.get("a", (2,)) is None
        assert len(cache) == 0
        assert cache.get("b", (2,)) is None
        cache.put("a", (2,), "A2")
        assert cache.get("a", (2,)) == "A2"
        assert cache.counters() == (1, 2, 0, 1)

    def test_put_under_a_newer_stamp_never_serves_the_old(self):
        cache = StatementCache()
        cache.put("a", (1,), "old")
        cache.put("b", (2,), "new")
        assert cache.get("a", (2,)) is None
        assert cache.get("b", (2,)) == "new"

    def test_zero_capacity_never_stores(self):
        cache = StatementCache(max_entries=0)
        cache.put("a", (1,), "A")
        assert cache.get("a", (1,)) is None
        assert len(cache) == 0

    def test_racing_write_is_served_but_not_cached(self, monkeypatch):
        """A write landing between the stamp and the end of planning: the
        plan is served once, never stored."""
        from repro.plan import compiled as compiled_module

        db = build_db()
        cache = StatementCache()
        real_optimize = compiled_module.optimize_plan

        def optimize_while_a_writer_lands(plan, catalog):
            catalog.table("sales").insert((9001, 2, "tea", 1.0))
            return real_optimize(plan, catalog)

        monkeypatch.setattr(
            compiled_module, "optimize_plan", optimize_while_a_writer_lands
        )
        raced = compile_select(COUNT_SALES, db.catalog, cache)
        assert raced.plan is not None
        assert raced.version != db.catalog.version()
        assert len(cache) == 0
        monkeypatch.setattr(compiled_module, "optimize_plan", real_optimize)
        settled = compile_select(COUNT_SALES, db.catalog, cache)
        assert settled is not raced and settled.version == db.catalog.version()
        assert compile_select(COUNT_SALES, db.catalog, cache) is settled


class TestConcurrency:
    def test_sixteen_threads_interleaving_with_a_writer(self):
        """More threads than cores, a shortened switch interval, a cache
        small enough to evict, and a writer moving the stamp: counters
        stay exact, the bound holds, and every plan matches its text."""
        cache = StatementCache(max_entries=4)
        db = build_db(statement_cache=cache)
        statements = [
            f"SELECT COUNT(*), SUM(amount) FROM sales WHERE store_id = {k}"
            for k in range(1, 7)
        ] + [JOIN, "SELEC nope"]
        reference = uncached_db()
        expected = {}
        for sql in statements:
            try:
                expected[sql] = reference.plan_select(sql).describe()
            except ReproError as exc:
                expected[sql] = str(exc)
        deadline = time.monotonic() + 1.5
        lookups = [0] * 16
        problems: list[str] = []
        hits_before, misses_before, _, _ = cache.counters()

        def reader(slot: int) -> None:
            rng = random.Random(slot)
            while time.monotonic() < deadline:
                # Skewed: three hot statements fit the cache, the rest churn it.
                hot = rng.random() < 0.8
                sql = rng.choice(statements[:3] if hot else statements[3:])
                try:
                    got = db.plan_select(sql).describe()
                except ReproError as exc:
                    got = str(exc)
                lookups[slot] += 1
                if got != expected[sql]:
                    problems.append(f"{sql!r}: {got!r}")
                if len(cache) > 4:
                    problems.append("capacity exceeded")

        def writer() -> None:
            row_id = 10_000
            while time.monotonic() < deadline:
                db.catalog.table("sales").insert((row_id, 1, "tea", 1.0))
                row_id += 1
                time.sleep(0.01)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(16)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []
        hits, misses, evictions, invalidations = cache.counters()
        # A lost counter update would break this equality.
        assert (hits - hits_before) + (misses - misses_before) == sum(lookups)
        assert hits > misses_before and evictions > 0 and invalidations > 0
        # Quiescent again: the final state is served from cache, correctly.
        final = db.plan_select(statements[0])
        assert db.plan_select(statements[0]) is final
        assert compiled_estimate(final, db.catalog) == estimate_cost(final, db.catalog)


class TestReplica:
    def test_replica_recompiles_after_applying_a_record(self, tmp_path):
        db = build_db(wal_dir=str(tmp_path / "wal"))
        with AgentFirstDataSystem(
            db, config=SystemConfig(read_replicas=1)
        ) as system:
            replica = system.replicas.replicas[0]
            probe = Probe(queries=(COUNT_SALES,), brief=Brief(max_staleness=0))

            def served() -> int:
                response = replica.serve(probe, 0, system._next_replica_turn)
                assert response is not None
                return response.outcomes[0].result.first_value()

            assert served() == served() == 400
            assert replica.statement_cache.counters()[:2] == (1, 1)
            db.execute("INSERT INTO sales VALUES (9001, 2, 'tea', 1.0)")
            assert served() == 401  # catch-up applied the record: recompiled
            hits, misses, _, invalidations = replica.statement_cache.counters()
            assert (hits, misses, invalidations) == (1, 2, 1)
            # The replica's cache is its own: the primary's saw none of it.
            assert replica.statement_cache is not db.statement_cache

    def test_information_schema_and_failures_still_defer(self, tmp_path):
        db = build_db(wal_dir=str(tmp_path / "wal"))
        with AgentFirstDataSystem(
            db, config=SystemConfig(read_replicas=1)
        ) as system:
            replica = system.replicas.replicas[0]
            db.execute("INSERT INTO sales VALUES (9001, 2, 'tea', 1.0)")
            probe = Probe(queries=(INFO_SCHEMA,), brief=Brief(max_staleness=5))
            for _ in range(2):  # cold, then from the replica's cache
                response = replica.serve(probe, 5, system._next_replica_turn)
                # Derived from the records the replica applied: the
                # primary's rows at the same log position.
                assert replica.applied_lsn == db.wal.last_lsn
                assert response.outcomes[0].result.rows == db.execute(INFO_SCHEMA).rows
            assert replica.statement_cache.counters()[:2] == (1, 1)
            for sql in ("SELEC 1", "DELETE FROM sales"):
                probe = Probe(queries=(sql,), brief=Brief(max_staleness=5))
                for _ in range(2):  # cold, then from the replica's cache
                    assert replica.serve(probe, 5, system._next_replica_turn) is None


class TestSecondTier:
    def test_related_tables_once_per_catalog_version(self):
        db = build_db()
        discovery = JoinDiscovery(db)
        scans = []
        original = discovery._sample_values
        discovery._sample_values = lambda *args: scans.append(args) or original(*args)
        first = discovery.related_tables("sales", limit=2)
        assert [s.target_table for s in first] == ["stores"]
        sampled = len(scans)
        assert sampled > 0
        again = discovery.related_tables("sales", limit=2)
        assert [s.message() for s in again] == [s.message() for s in first]
        assert len(scans) == sampled  # no re-scan
        again.clear()  # callers own the list they get
        assert discovery.related_tables("sales", limit=2)
        db.catalog.table("stores").insert((9, "Reno", "NV"))  # no change event
        discovery.related_tables("sales", limit=2)
        assert len(scans) > sampled

    def test_semantic_index_follows_the_version_stamp(self):
        db = build_db()
        search = SemanticSearch(db)
        assert not any(h.snippet == "Reno" for h in search.search("Reno"))
        db.catalog.table("stores").insert((9, "Reno", "NV"))  # no change event
        assert any(h.snippet == "Reno" for h in search.search("Reno"))
        metadata = search._metadata
        search.search("state")
        assert search._metadata is metadata  # same version: nothing rebuilt


class TestObservability:
    def test_metrics_render_the_plan_cache(self):
        with AgentFirstDataSystem(build_db(), workers=1) as system:
            system.submit_many(swarm_window())
            system.submit_many(swarm_window())
            snapshot = system.metrics()
            hits, misses, evictions, invalidations = system.db.statement_cache.counters()
            assert snapshot.get("repro_plan_cache_hits") == hits > 0
            assert snapshot.get("repro_plan_cache_misses") == misses > 0
            assert snapshot.get("repro_plan_cache_evictions") == evictions == 0
            assert snapshot.get("repro_plan_cache_invalidations") == invalidations
            assert snapshot.get("repro_plan_cache_entries") == len(
                system.db.statement_cache
            )
            assert "repro_plan_cache_hits" in snapshot.to_prometheus_text()

    def test_sharded_metrics_are_shard_labelled(self):
        with ShardedSystem(build_db(), shards=2, partition={"sales": "store_id"}) as tier:
            tier.submit(Probe(queries=(COUNT_SALES,), agent_id="a"))
            snapshot = tier.metrics()
            per_shard = [
                snapshot.get("repro_plan_cache_misses", shard=str(shard))
                for shard in range(2)
            ]
            assert all(value is not None for value in per_shard)
            assert sum(per_shard) > 0

    def test_traced_probe_records_hit_or_miss_per_statement(self):
        with AgentFirstDataSystem(build_db(), workers=1) as system:
            outcomes = []
            for _ in range(2):
                probe = Probe(  # a trace rides on its probe: one probe per turn
                    queries=(COUNT_SALES, "SELEC 1"), brief=Brief(trace=True)
                )
                trace = system.submit(probe).trace
                (interpret,) = trace.find("scheduler:interpret")
                outcomes.append(
                    [
                        child.attrs["plan_cache"]
                        for child in interpret.children
                        if child.name == "plan:compile"
                    ]
                )
            assert outcomes == [["miss", "miss"], ["hit", "hit"]]

    def test_untraced_probe_gets_no_interpret_span(self):
        with AgentFirstDataSystem(build_db(), workers=1) as system:
            probe = Probe(queries=(COUNT_SALES,), brief=Brief(trace=False))
            assert system.submit(probe).trace is None


# -- plan templates: bound vs fresh ---------------------------------------------

TEXT_POOL = ("CA", "WA", "it's", "", "coffee", "g1", "name-1%", "t3", "Zeta")


def relit(sql: str, rng: random.Random) -> str:
    """``sql`` with every lifted literal replaced by a seeded one of its
    class: the same token shape, other constants."""
    tokens = tokenize(sql)
    _, lifted = _shape(tokens)
    pieces: list[str] = []
    cursor = 0
    for index in lifted:
        token = tokens[index]
        if token.type is TokenType.STRING:
            end = token.position + len(token.value) + token.value.count("'") + 2
            value = rng.choice(TEXT_POOL).replace("'", "''")
            new = f"'{value}'"
        else:
            end = token.position + len(token.value)
            is_float = any(mark in token.value for mark in ".eE")
            new = f"{rng.uniform(0, 80):.2f}" if is_float else str(rng.randrange(0, 60))
        pieces.append(sql[cursor : token.position])
        pieces.append(new)
        cursor = end
    pieces.append(sql[cursor:])
    return "".join(pieces)


def run_plan(engine, db: Database, plan) -> str:
    """``repr`` of the rows, or of the error, one engine gives."""
    try:
        return repr(engine(db.catalog, ExecContext()).run(plan).rows)
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_binds_like_fresh(db: Database, texts, cache: StatementCache) -> None:
    """Compile each text through ``cache`` and afresh; every derived value
    must agree."""
    for sql in texts:
        bound = compile_select(sql, db.catalog, cache)
        fresh = compile_select(sql, db.catalog, StatementCache(max_entries=0))
        assert bound.statement == fresh.statement, sql
        assert repr(bound.failure) == repr(fresh.failure), sql
        if fresh.plan is None:
            assert bound.plan is None, sql
            continue
        assert bound.plan == fresh.plan, sql
        assert statement_shape(bound.plan) == statement_shape(fresh.plan), sql
        assert bound.plan.fingerprints() == fresh.plan.fingerprints(), sql
        for strict in (False, True):
            assert fingerprint_uncached(bound.plan, strict) == fingerprint_uncached(
                fresh.plan, strict
            ), sql
        assert compiled_estimate(bound.plan, db.catalog) == compiled_estimate(
            fresh.plan, db.catalog
        ), sql
        for engine in (Executor, ColumnarExecutor):
            assert run_plan(engine, db, bound.plan) == run_plan(
                engine, db, fresh.plan
            ), sql


def agentbench_db() -> Database:
    """The tables agentbench's statement shapes read, small."""
    db = Database("agentbench-shapes")
    db.execute(
        "CREATE TABLE sales (id INT, tenant TEXT, store_id INT, product_id INT,"
        " qty INT, amount FLOAT, year INT)"
    )
    db.execute("CREATE TABLE stores (id INT, state TEXT, opened INT)")
    db.execute("CREATE TABLE products (id INT, category TEXT)")
    db.execute("CREATE TABLE big (id INT, amount FLOAT, qty INT, grp TEXT)")
    db.insert_rows(
        "sales",
        [
            (i, f"t{i % 8}", 1 + i % 5, i % 11, i % 10, float(i % 37) * 1.5, 2000 + i % 4)
            for i in range(300)
        ],
    )
    db.insert_rows("stores", [(i, ("CA", "WA", "TX")[i % 3], 2000 + i) for i in range(1, 6)])
    db.insert_rows("products", [(i, ("tea", "coffee")[i % 2]) for i in range(11)])
    db.insert_rows(
        "big", [(i, float(i % 500) + 0.25, i % 9, f"g{i % 6}") for i in range(600)]
    )
    return db


def agentbench_texts(rng: random.Random) -> list[str]:
    """Every agentbench statement shape, with seeded literals as the
    workloads draw them."""
    texts = [agentbench.JOIN_SQL, agentbench.COUNT_SALES_SQL]
    texts += [sql for sql in agentbench.EXPLORE_SQL if "information_schema" not in sql]
    for _ in range(6):
        texts += [t.format(lit=rng.randrange(1, 12)) for t in agentbench.FILTER_TEMPLATES]
        for template, low, high in agentbench.SCAN_TEMPLATES:
            texts.append(
                template.format(
                    f=f"{rng.randrange(low, high)}.{rng.randrange(10**7):07d}",
                    n=1_000_000 + rng.randrange(10**6),
                )
            )
        literals = dict(t=f"t{rng.randrange(8)}", j=rng.randrange(1, 10), n=rng.randrange(300))
        texts += [t.format(**literals) for t in agentbench.PINNED_TEMPLATES]
        texts.append(agentbench.SCATTER_TEMPLATE.format(**literals))
    return texts


class TestPlanTemplates:
    @pytest.mark.parametrize(
        "build,corpus",
        [
            (build_columnar_db, COLUMNAR_CORPUS),
            (build_fingerprint_db, FINGERPRINT_CORPUS),
            (None, QUERY_CORPUS),
        ],
        ids=["engine", "fingerprint", "plan"],
    )
    def test_corpus_binds_like_fresh(self, build, corpus, sales_db):
        db = sales_db if build is None else build()
        rng = random.Random(40)
        cache = StatementCache()
        texts = [text for sql in corpus for text in (sql, relit(sql, rng), relit(sql, rng))]
        assert_binds_like_fresh(db, texts, cache)
        assert cache.templates.template_counters()[0] > 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_agentbench_shapes_bind_like_fresh(self, seed):
        db = agentbench_db()
        cache = StatementCache()
        assert_binds_like_fresh(db, agentbench_texts(random.Random(seed)), cache)
        hits, misses, unliftable = cache.templates.template_counters()
        assert hits > misses
        assert unliftable == 0

    @pytest.mark.parametrize(
        "template,values",
        [
            ("SELECT id FROM sales WHERE {0} = {0} AND amount > {1}.5", (5, 8)),  # folded
            ("SELECT id, amount FROM sales WHERE store_id = {0}", (2, 3)),  # hash index
            ("SELECT id FROM sales WHERE amount > {0}.0", (20, 30)),  # sorted index
            (
                "SELECT s.city FROM sales x JOIN stores s ON x.store_id = s.id"
                " WHERE x.amount > {0}.0",
                (10, 20),
            ),  # under an INNER join
            ("SELECT id FROM sales WHERE amount > -{0}", (5, 7)),  # folded by the parser
        ],
        ids=["folded", "hash-index", "sorted-index", "inner-join", "negative"],
    )
    def test_unliftable_shapes_compile_in_full(self, template, values):
        db = build_db()
        db.catalog.create_hash_index("sales", "store_id")
        db.catalog.create_sorted_index("sales", "amount")
        cache = StatementCache()
        texts = [template.format(value, value + 1) for value in values]
        assert_binds_like_fresh(db, texts, cache)
        assert cache.templates.template_counters() == (0, 1, 1)

    def test_every_compile_carries_its_statement_shape(self):
        """Fresh, bound and exact-text hits carry the parse template's
        placeholder text and their own values; a shape the parser cannot
        lift is named by its text; a pickled plan drops the memo."""
        import pickle

        db = build_db()
        cache = StatementCache()
        template = "SELECT id FROM sales WHERE amount > {0} AND product = '{1}'"
        shape = "SELECT id FROM sales WHERE ((amount > ?) AND (product = ?))"
        for values in ((10.5, "tea"), (20.25, "coffee"), (10.5, "tea")):
            plan = compile_select(template.format(*values), db.catalog, cache).plan
            assert statement_shape(plan) == (shape, values)
        assert cache.counters()[0] == 1
        negative = "SELECT id FROM sales WHERE amount > -5"
        plan = compile_select(negative, db.catalog, cache).plan
        assert statement_shape(plan) == (negative, ())
        assert statement_shape(pickle.loads(pickle.dumps(plan))) is None

    def test_order_by_ordinal_binds_like_fresh(self):
        db = build_db()
        texts = [f"SELECT id, amount FROM sales WHERE id < {n} ORDER BY 2" for n in (9, 30, 17)]
        assert_binds_like_fresh(db, texts, StatementCache())

    def test_equal_literals_get_their_own_template(self):
        """Texts of one shape whose literals coincide differently are
        planned under different templates: the builder merges equal
        aggregate calls."""
        db = build_db()
        cache = StatementCache()
        template = "SELECT SUM(amount + {0}), SUM(amount + {1}) FROM sales"
        texts = [template.format(*pair) for pair in ((2, 3), (4, 4), (5, 6), (7, 7))]
        assert_binds_like_fresh(db, texts, cache)
        assert cache.templates.template_counters()[1] == 2

    def test_int_beyond_int64_takes_the_run_time_fallback(self):
        from repro.engine.columnar import KERNEL_MEMO_STATS

        db = build_db()
        cache = StatementCache()
        texts = [f"SELECT id FROM sales WHERE id < {n}" for n in (50, 2**63 + 5, 7)]
        assert_binds_like_fresh(db, texts[:1], cache)
        runs_before = KERNEL_MEMO_STATS.list_path_runs
        assert_binds_like_fresh(db, texts[1:], cache)
        assert KERNEL_MEMO_STATS.list_path_runs > runs_before
        assert cache.templates.template_counters()[:2] == (2, 1)

    def test_write_between_binds_returns_fresh_rows(self):
        db = build_db()
        template = "SELECT COUNT(*), SUM(amount) FROM sales WHERE store_id = {0}"
        first = db.execute(template.format(1)).rows
        db.execute("INSERT INTO sales VALUES (9001, 2, 'tea', 500.0)")
        after = db.execute(template.format(2)).rows
        assert after == uncached_db_after(
            "INSERT INTO sales VALUES (9001, 2, 'tea', 500.0)"
        ).execute(template.format(2)).rows
        assert first != after
        hits, misses, _ = db.statement_cache.templates.template_counters()
        assert (hits, misses) == (0, 2)

    def test_bound_plans_share_untouched_subtrees(self):
        db = build_db()
        template = "SELECT store_id, SUM(amount) FROM sales WHERE amount > {0}.5 GROUP BY store_id"
        first = db.plan_select(template.format(3))
        second = db.plan_select(template.format(4))
        assert first != second
        first_scans = [n for n in first.walk() if isinstance(n, logical.Scan)]
        second_scans = [n for n in second.walk() if isinstance(n, logical.Scan)]
        assert first_scans[0] is second_scans[0]
        assert logical.ESTIMATE_MEMO_ATTR not in second.__dict__

    def test_template_series_are_published_per_shard(self):
        with AgentFirstDataSystem(build_db(), workers=1) as system:
            for store in (2, 3, 4):
                system.submit(
                    Probe.sql(f"SELECT COUNT(*) FROM sales WHERE store_id = {store}")
                )
            system.submit(Probe.sql("SELECT COUNT(*) FROM sales WHERE amount > -1"))
            system.submit(Probe.sql("SELECT COUNT(*) FROM sales WHERE amount > -2"))
            snap = system.metrics()
            assert [
                snap.get(f"repro_plan_template_{name}_total")
                for name in ("hits", "misses", "unliftable")
            ] == [2, 2, 1]
        with ShardedSystem(build_db(), shards=2, partition={"sales": "store_id"}) as tier:
            tier.submit(Probe.sql("SELECT COUNT(*) FROM sales WHERE store_id = 1"))
            series = tier.metrics().as_dict()["repro_plan_template_misses_total"]["series"]
            assert sorted(entry["labels"]["shard"] for entry in series) == ["0", "1"]

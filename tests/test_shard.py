"""Tests for the sharded serving tier: router, matchmaker, scatter-gather.

Three contracts pinned here:

* **passthrough** — at ``shards=1`` the tier serves the *source* database
  through one bare ``AgentFirstDataSystem``: rows, statuses, and steering
  are byte-identical to an unsharded system (no scatter, no extra notes);
* **merge semantics** — cross-shard COUNT/SUM/MIN/MAX/AVG (global and
  grouped, AVG via SUM+COUNT partials) merge to exactly the single-shard
  answer, including the empty-shard and single-row-shard edges;
* **placement** — sessions are shard-sticky by identity, partition-pinned
  probes route to the owner shard without scatter, and non-distributable
  probes against partitioned data carry an honest partial-coverage note.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.agents.federated import run_federated_cohort
from repro.agents.model import GPT_4O_MINI_SIM
from repro.core import AgentFirstDataSystem, Brief, Probe
from repro.core.brief import Phase
from repro.db import Database
from repro.shard import (
    CapacityAdvert,
    HashRing,
    Matchmaker,
    ShardedSystem,
    ShardSession,
    WorkUnit,
    resolve_shard_count,
    sharded_serving_system,
)
from repro.shard import scatter
from repro.shard.system import _build_shard_db
from repro.workloads.multibackend import build_cross_backend_tasks
from test_scheduler import assert_same_outcomes, build_db, overlapping_probes

TENANTS = [f"t{i}" for i in range(8)]


def build_tenant_db(rows_per_tenant: int = 24) -> Database:
    """A tenant-partitioned fact table plus a small replicated dimension."""
    db = Database("tenants")
    db.execute("CREATE TABLE sales (tenant TEXT, qty INT, amount FLOAT)")
    db.execute("CREATE TABLE regions (id INT PRIMARY KEY, name TEXT)")
    db.execute("INSERT INTO regions VALUES (1,'west'),(2,'east')")
    rows = []
    for t_index, tenant in enumerate(TENANTS):
        for i in range(rows_per_tenant):
            rows.append((tenant, t_index * 100 + i, float((i * 7) % 50) / 2.0))
    db.insert_rows("sales", rows)
    return db


PARTITION = {"sales": "tenant"}


# -- hash ring ----------------------------------------------------------------


class TestHashRing:
    def test_owner_is_deterministic_and_in_range(self):
        ring = HashRing(4)
        owners = {key: ring.owner(key) for key in TENANTS}
        assert owners == {key: HashRing(4).owner(key) for key in TENANTS}
        assert all(0 <= shard < 4 for shard in owners.values())

    def test_keys_spread_across_shards(self):
        ring = HashRing(4)
        owners = {ring.owner(f"tenant-{i}") for i in range(64)}
        assert len(owners) == 4

    def test_pin_beats_hash(self):
        ring = HashRing(4)
        hashed = ring.owner("vip")
        target = (hashed + 1) % 4
        ring.pin("vip", target)
        assert ring.owner("vip") == target
        assert ring.pins() == {"vip": target}
        ring.unpin("vip")
        assert ring.owner("vip") == hashed

    def test_add_shard_only_moves_captured_arcs(self):
        """Consistent hashing: growing the ring reassigns keys *only* to
        the newcomer — no key moves between pre-existing shards."""
        ring = HashRing(4)
        keys = [f"k{i}" for i in range(256)]
        before = {key: ring.owner(key) for key in keys}
        new_id = ring.add_shard()
        assert new_id == 4
        moved = 0
        for key in keys:
            after = ring.owner(key)
            if after != before[key]:
                assert after == new_id
                moved += 1
        assert 0 < moved < len(keys)


# -- matchmaker ---------------------------------------------------------------


def advert(shard_id, pending=0, tripped=False, slots=4, replicas=0):
    return CapacityAdvert(
        shard_id=shard_id,
        pending=pending,
        windows_served=0,
        queue_depth_peak=pending,
        watermark_tripped=tripped,
        replicas=replicas,
        slots=slots,
    )


class TestMatchmaker:
    def test_tripped_shard_pulls_nothing(self):
        mm = Matchmaker()
        units = [WorkUnit(probe=Probe.sql("SELECT 1")) for _ in range(3)]
        for unit in units:
            mm.enqueue(unit)
        matches = mm.match([advert(0, tripped=True, slots=0), advert(1, slots=2)])
        assert all(shard == 1 for _, shard in matches)
        assert len(matches) == 2  # shard 1 had two slots; third unit deferred
        assert mm.depth() == 1

    def test_round_spreads_instead_of_dogpiling(self):
        mm = Matchmaker()
        for _ in range(4):
            mm.enqueue(WorkUnit(probe=Probe.sql("SELECT 1")))
        matches = mm.match([advert(0, pending=0, slots=4), advert(1, pending=1, slots=4)])
        by_shard = {0: 0, 1: 0}
        for _, shard in matches:
            by_shard[shard] += 1
        # In-round pending bumps per assignment: the burst splits instead
        # of all four landing on the initially-emptier shard 0.
        assert by_shard[0] >= by_shard[1] >= 1

    def test_forced_assignment_after_max_deferrals(self):
        mm = Matchmaker(max_deferrals=1)
        unit = WorkUnit(probe=Probe.sql("SELECT 1"))
        mm.enqueue(unit)
        everyone_tripped = [advert(0, tripped=True, slots=0), advert(1, tripped=True, slots=0)]
        assert mm.match(everyone_tripped) == []  # deferral 1
        forced = mm.match(everyone_tripped)  # degrade, don't drop
        assert len(forced) == 1
        assert unit.assigned.is_set()
        assert mm.stats()["units_forced"] == 1

    def test_target_shard_restricts_matching(self):
        mm = Matchmaker()
        unit = WorkUnit(probe=Probe.sql("SELECT 1"), target_shard=2)
        mm.enqueue(unit)
        assert mm.match([advert(0), advert(1)]) == []  # target absent: defer
        matches = mm.match([advert(0), advert(2)])
        assert matches == [(unit, 2)]

    def test_place_prefers_emptiest_then_replicas(self):
        mm = Matchmaker()
        assert mm.place([advert(0, pending=5), advert(1, pending=1)]) == 1
        assert mm.place([advert(0, replicas=2), advert(1, replicas=0)]) == 0
        # Everyone tripped: place still answers (least-loaded fallback).
        assert mm.place([advert(0, pending=9, tripped=True, slots=0),
                         advert(1, pending=2, tripped=True, slots=0)]) == 1


# -- shards=1 passthrough differential ---------------------------------------


class TestPassthrough:
    def test_byte_identical_to_bare_system(self):
        """rows/statuses/steering at shards=1 == a bare system's."""
        probes = overlapping_probes(6) + [
            Probe.sql("SELECT * FROM ghost_table"),
            Probe(
                queries=("SELECT city, COUNT(*) FROM stores GROUP BY city",),
                brief=Brief(goal="exact"),
                agent_id="solo",
            ),
        ]
        bare = AgentFirstDataSystem(build_db())
        sharded = ShardedSystem(build_db(), shards=1, partition=PARTITION)
        try:
            expected = bare.submit_many(probes)
            got = sharded.submit_many(probes)
            assert_same_outcomes(expected, got)
            for want, have in zip(expected, got):
                assert want.steering == have.steering
        finally:
            bare.close()
            sharded.close()

    def test_session_is_the_inner_systems_session(self):
        sharded = ShardedSystem(build_db(), shards=1)
        try:
            session = sharded.session(agent_id="a1")
            assert not isinstance(session, ShardSession)
            response = session.submit(
                Probe.sql("SELECT COUNT(*) FROM sales")
            ).result(timeout=30.0)
            assert response.outcomes[0].result.rows == [(900,)]
            assert sharded.db is sharded.shards[0].db  # serves the source
        finally:
            sharded.close()

    def test_resolve_shard_count_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shard_count(None) == 1
        monkeypatch.setenv("REPRO_SHARDS", "4")
        assert resolve_shard_count(None) == 4
        assert resolve_shard_count(2) == 2  # explicit beats env
        assert resolve_shard_count(0) == 1


# -- cross-shard aggregate merging (differential) ------------------------------

MERGE_QUERIES = [
    "SELECT COUNT(*) FROM sales",
    "SELECT SUM(qty) FROM sales",
    "SELECT MIN(amount), MAX(amount) FROM sales",
    "SELECT AVG(amount) FROM sales",
    "SELECT COUNT(*), SUM(qty), MIN(qty), MAX(qty), AVG(qty) FROM sales",
    "SELECT tenant, COUNT(*) AS n, SUM(amount) AS total FROM sales GROUP BY tenant",
    "SELECT tenant, AVG(qty) FROM sales GROUP BY tenant",
    "SELECT MIN(qty), MAX(qty) FROM sales WHERE amount > 10.0",
    "SELECT SUM(qty) FROM sales WHERE qty < 0",  # empty everywhere -> NULL
    "SELECT COUNT(amount) FROM sales WHERE qty % 2 = 0",
]


def serve_one(system, sql):
    response = system.submit(Probe.sql(sql))
    outcome = response.outcomes[0]
    assert outcome.status == "ok", outcome.reason
    return outcome.result


@pytest.fixture(scope="module")
def merge_pair():
    """One bare system and one 4-shard tier over identical tenant data."""
    bare = AgentFirstDataSystem(build_tenant_db())
    sharded = ShardedSystem(build_tenant_db(), shards=4, partition=PARTITION)
    yield bare, sharded
    bare.close()
    sharded.close()


class TestAggregateMerge:
    @pytest.mark.parametrize("sql", MERGE_QUERIES)
    def test_matches_single_shard_execution(self, merge_pair, sql):
        bare, sharded = merge_pair
        expected = serve_one(bare, sql)
        got = serve_one(sharded, sql)
        assert got.columns == expected.columns
        assert sorted(got.rows, key=repr) == sorted(expected.rows, key=repr)

    def test_scatter_names_the_shards_consulted(self, merge_pair):
        _, sharded = merge_pair
        response = sharded.submit(Probe.sql("SELECT AVG(amount) FROM sales"))
        assert any(
            line.startswith("scatter-gather: consulted shards [")
            and "sales" in line
            for line in response.steering
        )
        assert any("SUM+COUNT partials" in line for line in response.steering)

    def test_non_aggregate_scatter_concatenates(self, merge_pair):
        bare, sharded = merge_pair
        sql = "SELECT tenant, qty FROM sales WHERE amount > 20.0"
        expected = serve_one(bare, sql)
        got = serve_one(sharded, sql)
        assert got.columns == expected.columns
        assert sorted(got.rows) == sorted(expected.rows)

    def test_empty_shard_edges(self):
        """One lonely tenant: most shards hold zero rows, and the merge
        must still reproduce SUM->NULL / COUNT->0 / MIN/MAX->NULL exactly."""
        db = Database("lonely")
        db.execute("CREATE TABLE sales (tenant TEXT, qty INT, amount FLOAT)")
        db.insert_rows("sales", [("only", 5, 2.5), ("only", 7, 7.5)])
        bare = AgentFirstDataSystem(db)
        sharded = ShardedSystem(db, shards=4, partition=PARTITION)
        try:
            populated = sum(
                1
                for handle in sharded.shards
                if list(handle.db.catalog.table("sales").scan())
            )
            assert populated == 1  # the other three shards are empty
            for sql in [
                "SELECT COUNT(*) FROM sales",
                "SELECT SUM(qty), AVG(amount) FROM sales",
                "SELECT MIN(qty), MAX(qty) FROM sales",
                "SELECT SUM(qty) FROM sales WHERE qty > 100",  # NULL even on
                # the populated shard
                "SELECT tenant, COUNT(*) FROM sales GROUP BY tenant",
            ]:
                expected = serve_one(bare, sql)
                got = serve_one(sharded, sql)
                assert got.columns == expected.columns
                assert sorted(got.rows, key=repr) == sorted(expected.rows, key=repr)
        finally:
            bare.close()
            sharded.close()

    def test_single_row_shard_edges(self):
        """Each tenant holds exactly one row: every partial aggregate is a
        one-row aggregate (the AVG partial's COUNT is 1 everywhere)."""
        db = Database("sparse")
        db.execute("CREATE TABLE sales (tenant TEXT, qty INT, amount FLOAT)")
        db.insert_rows(
            "sales", [(t, i * 3, float(i)) for i, t in enumerate(TENANTS)]
        )
        bare = AgentFirstDataSystem(db)
        sharded = ShardedSystem(db, shards=4, partition=PARTITION)
        try:
            for sql in [
                "SELECT COUNT(*), SUM(qty), AVG(qty) FROM sales",
                "SELECT MIN(amount), MAX(amount) FROM sales",
                "SELECT tenant, AVG(amount) FROM sales GROUP BY tenant",
            ]:
                expected = serve_one(bare, sql)
                got = serve_one(sharded, sql)
                assert got.columns == expected.columns
                assert sorted(got.rows, key=repr) == sorted(expected.rows, key=repr)
        finally:
            bare.close()
            sharded.close()


# -- routing ------------------------------------------------------------------


class TestRouting:
    def test_tenant_pinned_probe_routes_to_owner_without_scatter(self, merge_pair):
        bare, sharded = merge_pair
        tenant = TENANTS[3]
        sql = f"SELECT COUNT(*), SUM(qty) FROM sales WHERE tenant = '{tenant}'"
        expected = serve_one(bare, sql)
        response = sharded.submit(Probe.sql(sql))
        outcome = response.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.result.rows == expected.rows
        # Pruned serving is ordinary single-shard serving: no scatter
        # lines, no partial-coverage warnings.
        assert not any("scatter-gather" in line for line in response.steering)
        assert not any("partition only" in line for line in response.steering)

    def test_in_list_pinning_spanning_two_owners_scatters(self, merge_pair):
        bare, sharded = merge_pair
        sql = (
            "SELECT COUNT(*) FROM sales"
            f" WHERE tenant IN ('{TENANTS[0]}', '{TENANTS[5]}')"
        )
        expected = serve_one(bare, sql)
        got = serve_one(sharded, sql)
        assert got.rows == expected.rows

    def test_non_distributable_probe_warns_partial_coverage(self, merge_pair):
        _, sharded = merge_pair
        response = sharded.submit(
            Probe.sql("SELECT tenant, qty FROM sales ORDER BY qty LIMIT 3")
        )
        assert any("partition only" in line for line in response.steering)

    def test_replicated_table_serves_anywhere_unwarned(self, merge_pair):
        bare, sharded = merge_pair
        sql = "SELECT name FROM regions"
        expected = serve_one(bare, sql)
        got_response = sharded.submit(Probe.sql(sql))
        assert sorted(got_response.outcomes[0].result.rows) == sorted(expected.rows)
        assert got_response.steering == []


class TestSessionPlacement:
    def test_sessions_are_shard_sticky_and_spread(self):
        sharded = ShardedSystem(build_tenant_db(4), shards=4, partition=PARTITION)
        try:
            homes = {}
            for index in range(16):
                first = sharded.session(agent_id=f"field-{index}")
                again = sharded.session(agent_id=f"field-{index}")
                assert isinstance(first, ShardSession)
                assert first.shard_id == again.shard_id  # sticky
                homes[f"field-{index}"] = first.shard_id
            assert len(set(homes.values())) > 1  # the swarm spreads
        finally:
            sharded.close()

    def test_principal_outranks_agent_id(self):
        sharded = ShardedSystem(build_tenant_db(4), shards=4, partition=PARTITION)
        try:
            a = sharded.session(agent_id="x1", principal="acme")
            b = sharded.session(agent_id="x2", principal="acme")
            assert a.shard_id == b.shard_id  # tenant keeps its agents together
        finally:
            sharded.close()

    def test_session_scatter_accounts_to_the_session(self):
        sharded = ShardedSystem(build_tenant_db(4), shards=4, partition=PARTITION)
        try:
            session = sharded.session(agent_id="roamer")
            ticket = session.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
            response = ticket.result(timeout=30.0)
            assert response.outcomes[0].result.rows == [(4 * len(TENANTS),)]
            assert session.session.probes_submitted == 1
        finally:
            sharded.close()


# -- rebalancing --------------------------------------------------------------


class TestRebalancing:
    def test_add_shard_migrates_and_answers_survive(self):
        sharded = ShardedSystem(build_tenant_db(6), shards=2, partition=PARTITION)
        try:
            before = serve_one(sharded, "SELECT COUNT(*), SUM(qty) FROM sales")
            new_id = sharded.add_shard()
            assert new_id == 2 and sharded.count == 3
            # Every row sits on the shard the ring says owns its tenant.
            for handle in sharded.shards:
                for row in handle.db.catalog.table("sales").scan():
                    assert sharded.router.owner_of_value(row[0]) == handle.shard_id
            moved = list(
                sharded.shards[new_id].db.catalog.table("sales").scan()
            )
            assert moved  # the newcomer captured at least one tenant arc
            after = serve_one(sharded, "SELECT COUNT(*), SUM(qty) FROM sales")
            assert after.rows == before.rows
        finally:
            sharded.close()

    def test_add_shard_rejected_on_passthrough(self):
        sharded = ShardedSystem(build_db(), shards=1)
        try:
            with pytest.raises(ValueError):
                sharded.add_shard()
        finally:
            sharded.close()


# -- lifecycle (satellite: close semantics) -----------------------------------


class TestClose:
    def test_sharded_close_is_concurrent_safe_and_idempotent(self):
        sharded = ShardedSystem(build_tenant_db(2), shards=4, partition=PARTITION)
        sharded.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
        errors = []

        def hammer():
            try:
                sharded.close()
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sharded.close()  # and once more after the stampede
        assert errors == []

    def test_bare_system_close_before_prestart(self):
        """Regression: close() on a system that never served and never
        prestarted must be a clean no-op, twice."""
        system = AgentFirstDataSystem(build_db())
        system.close()
        system.close()

    def test_sharded_close_before_any_serving(self):
        sharded = ShardedSystem(build_tenant_db(2), shards=3, partition=PARTITION)
        sharded.close()
        sharded.close()

    @staticmethod
    def group_threads() -> list[threading.Thread]:
        return [t for t in threading.enumerate() if t.name.startswith("shard-group")]

    @staticmethod
    def pinned(tenants) -> list[Probe]:
        return [
            Probe.sql(f"SELECT COUNT(*) FROM sales WHERE tenant = '{t}' AND qty > {i}")
            for i, t in enumerate(tenants)
        ]

    def test_one_shard_window_starts_no_thread(self):
        sharded = ShardedSystem(build_tenant_db(2), shards=4, partition=PARTITION)
        try:
            responses = sharded.submit_many(self.pinned([TENANTS[3]] * 3))
            assert [r.outcomes[0].status for r in responses] == ["ok"] * 3
            assert self.group_threads() == []
        finally:
            sharded.close()

    def test_multi_shard_window_leaves_no_thread_after_close(self):
        sharded = ShardedSystem(build_tenant_db(2), shards=4, partition=PARTITION)
        owners = {sharded.router.owner_of_value(t) for t in TENANTS}
        assert len(owners) > 1
        responses = sharded.submit_many(self.pinned(TENANTS))
        assert [r.outcomes[0].status for r in responses] == ["ok"] * len(TENANTS)
        assert self.group_threads()  # the extra groups served on the pool
        sharded.close()
        assert self.group_threads() == []
        # A closed tier serves in the caller's thread and starts none.
        sharded.submit_many(self.pinned(TENANTS))
        assert self.group_threads() == []


# -- stats + cached tier ------------------------------------------------------


class TestTierSurface:
    def test_stats_aggregate_the_stable_pair(self, merge_pair):
        _, sharded = merge_pair
        stats = sharded.stats()
        assert stats["shards"] == 4
        assert len(stats["per_shard"]) == 4
        assert stats["windows_served"] == sum(
            s["windows_served"] for s in stats["per_shard"]
        )
        assert stats["queue_depth_peak"] == max(
            s["queue_depth_peak"] for s in stats["per_shard"]
        )
        assert "units_matched" in stats["matchmaker"]

    def test_sharded_serving_system_caches_and_rebuilds(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        db = build_tenant_db(2)
        first = sharded_serving_system(db)
        assert isinstance(first, ShardedSystem)
        assert sharded_serving_system(db) is first  # cached
        db.execute("INSERT INTO sales VALUES ('t0', 999, 1.0)")
        rebuilt = sharded_serving_system(db)  # catalog version moved
        try:
            assert rebuilt is not first
            total = serve_one(rebuilt, "SELECT COUNT(*) FROM sales").rows[0][0]
            assert total == 2 * len(TENANTS) + 1
        finally:
            rebuilt.close()


class TestShapeBoundedMemory:
    def test_each_shard_keeps_one_result_per_shape(self):
        """Unique-literal probes of a few shapes, pinned and scattered:
        every shard's memory store holds at most shapes x tables x
        principals artifacts, and its goal recalls hit the memo."""
        shapes = (
            "SELECT COUNT(*) FROM sales WHERE tenant = '{t}' AND amount > {v}",
            "SELECT qty FROM sales WHERE tenant = '{t}' AND amount < {v} ORDER BY qty",
            "SELECT COUNT(*) FROM sales WHERE amount > {v}",
        )
        principals = ("alice", "bob")
        brief = Brief(goal="sales totals", phase=Phase.SOLUTION_FORMULATION)
        tier = ShardedSystem(build_tenant_db(), shards=4, partition=PARTITION)
        try:
            for window in range(6):
                probes = [
                    Probe(
                        queries=(
                            shapes[n % len(shapes)].format(
                                t=TENANTS[n % len(TENANTS)], v=f"{n % 9}.{window}{n:03d}"
                            ),
                        ),
                        brief=brief,
                        agent_id=f"a{n}",
                        principal=principals[n // len(shapes) % 2],
                    )
                    for n in range(16)
                ]
                for response in tier.submit_many(probes):
                    assert response.outcomes[0].status == "ok"
            snap = tier.metrics()
            bound = len(shapes) * len(tier.db.catalog.table_names()) * len(principals)
            recall_hits = 0
            for handle in tier.shards:
                shard = str(handle.shard_id)
                artifacts = snap.get("repro_memstore_artifacts", shard=shard)
                assert artifacts == len(handle.system.memory) <= bound
                recall_hits += snap.get(
                    "repro_memstore_recall_memo_hits_total", shard=shard
                )
            assert recall_hits > 0
        finally:
            tier.close()


# -- the federated cohort rides the tier (satellite) ---------------------------


class TestFederatedCohortSharding:
    def test_lockstep_cohort_is_shard_sticky_per_agent(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        task = build_cross_backend_tasks(seed=2, n_tasks=1)[0]
        outcomes, system = run_federated_cohort(
            task, GPT_4O_MINI_SIM, n_agents=6, seed=11, max_steps=10
        )
        try:
            assert isinstance(system, ShardedSystem)
            assert len(outcomes) == 6
            # Lockstep sessions place by agent identity: reopening any
            # agent's session lands on the same shard every time.
            homes = {}
            for index in range(6):
                session = system.session(agent_id=f"field-{index}")
                assert isinstance(session, ShardSession)
                assert (
                    system.session(agent_id=f"field-{index}").shard_id
                    == session.shard_id
                )
                homes[index] = session.shard_id
            assert len(set(homes.values())) > 1
        finally:
            system.close()

    def test_cohort_unsharded_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        task = build_cross_backend_tasks(seed=3, n_tasks=1)[0]
        outcomes, system = run_federated_cohort(
            task, GPT_4O_MINI_SIM, n_agents=3, seed=5, max_steps=8
        )
        assert not isinstance(system, ShardedSystem)
        assert len(outcomes) == 3


# -- shape-memoized routing -----------------------------------------------------

#: Router shapes: tenant-pinned and cross-tenant aggregates, IN-list pins,
#: plain scans, declined shapes, DML, and unliftable ones (a literal in a
#: select item or GROUP BY, ``-n``, text the parser rejects).
ROUTE_SHAPES = [
    "SELECT COUNT(*), SUM(amount) FROM sales WHERE tenant = '{t}' AND qty >= {j}",
    "SELECT qty, COUNT(*) FROM sales WHERE tenant = '{t}' AND qty <> {n} GROUP BY qty",
    "SELECT MIN(amount), MAX(amount), AVG(qty) FROM sales WHERE qty >= {j}",
    "SELECT COUNT(*) FROM sales WHERE tenant IN ('{t}', '{u}') AND amount > {f}",
    "SELECT tenant, qty FROM sales WHERE '{t}' = tenant AND qty < {j}",
    "SELECT qty FROM sales WHERE tenant = '{t}' ORDER BY qty LIMIT 3",
    "SELECT COUNT(*) FROM sales WHERE tenant = '{t}' OR qty = {j}",
    "SELECT qty + {j}, COUNT(*) FROM sales GROUP BY qty + {j}",
    "SELECT qty + {j}, COUNT(*) FROM sales GROUP BY qty + {n}",
    "SELECT COUNT(*) FROM sales WHERE amount > -{f}",
    "SELECT name FROM regions WHERE id = {j}",
    "SELECT COUNT(*) FROM sales x JOIN regions r ON x.qty = r.id WHERE x.tenant = '{t}'",
    "DELETE FROM sales WHERE tenant = '{t}'",
    "SELEC {j}",
]


def route_texts(rng: random.Random, rounds: int = 4) -> list[str]:
    texts = []
    for _ in range(rounds):
        for shape in ROUTE_SHAPES:
            texts.append(
                shape.format(
                    t=rng.choice(TENANTS),
                    u=rng.choice(TENANTS),
                    j=rng.randrange(1, 9),
                    n=rng.randrange(100, 999),
                    f=f"{rng.uniform(0, 25):.2f}",
                )
            )
    return texts


class TestShapeRouting:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_bound_analysis_equals_a_full_one(self, seed):
        """Every analysis bound from a shape's memo equals the full
        analysis of its own text, partial SQL included."""
        hits_before, _, unliftable_before = scatter._ROUTES.template_counters()
        for sql in route_texts(random.Random(seed)):
            bound = scatter.analyze(sql, PARTITION)
            fresh = scatter._analyze_text(sql, PARTITION)
            assert bound == fresh, sql
            if fresh.plan is not None:
                assert bound.plan.partial_sql == fresh.plan.partial_sql, sql
        hits, _, unliftable = scatter._ROUTES.template_counters()
        assert hits - hits_before >= 3 * 9
        assert unliftable - unliftable_before >= 3 * 4

    def test_routes_match_full_analyses(self, merge_pair):
        """The tier routes each probe as the full analysis of its text
        would: same owner shard, same scatter partials, same warning."""
        _, tier = merge_pair
        for sql in route_texts(random.Random(5), rounds=2):
            probe = Probe.sql(sql)
            route = tier._route_probe(probe)
            fresh = scatter._analyze_text(sql, tier.router.partition)
            if route.scatter_plans is not None:
                assert [p.partial_sql for p in route.scatter_plans] == [
                    fresh.plan.partial_sql
                ], sql
            elif fresh.pinned_values:
                owners = {tier.router.owner_of_value(v) for v in fresh.pinned_values}
                if len(owners) == 1:
                    assert route.shard_id == owners.pop(), sql

    def test_analysis_memo_is_keyed_by_shape_and_partition_map(self):
        sql = "SELECT COUNT(*) FROM sales WHERE tenant = '{0}'"
        first = scatter.analyze(sql.format("t1"), PARTITION)
        assert first.pinned_values == ("t1",)
        assert scatter.analyze(sql.format("t2"), PARTITION).pinned_values == ("t2",)
        other = scatter.analyze(sql.format("t2"), {"sales": "qty"})
        assert other.pinned_values == ()
        assert scatter.analyze("SELECT COUNT(*) FROM sales", PARTITION) is scatter.analyze(
            "SELECT COUNT(*) FROM sales", PARTITION
        )


class TestShardBuildRouting:
    def test_owner_memo_places_rows_as_per_row_routing(self):
        """Partition values that compare equal but hash apart (``0.0`` and
        ``-0.0``; ``1`` and ``1.0`` and ``True`` across tables) land where
        routing each row on its own puts them."""
        db = Database("mixed")
        db.execute("CREATE TABLE f (k FLOAT, v INT)")
        db.execute("CREATE TABLE i (k INT, v INT)")
        db.execute("CREATE TABLE b (k BOOLEAN, v INT)")
        floats = [0.0, -0.0, 1.0, 2.5, None, -0.0, 1e300, 0.0]
        db.insert_rows("f", [(value, n) for n, value in enumerate(floats * 3)])
        db.insert_rows("i", [(value, n) for n, value in enumerate([0, 1, 2, None, 1] * 3)])
        db.insert_rows("b", [(value, n) for n, value in enumerate([True, False, None] * 3)])
        partition = {"f": "k", "i": "k", "b": "k"}
        tier = ShardedSystem(db, shards=4, partition=partition)
        try:
            snapshot = db.catalog.snapshot()
            placed = 0
            for handle in tier.shards:
                rebuilt = _build_shard_db("mixed", snapshot, handle.shard_id, tier.router)
                for table in partition:
                    expected = [
                        row
                        for row in db.catalog.table(table).scan()
                        if tier.router.owner_of_value(row[0]) == handle.shard_id
                    ]
                    got = list(handle.db.catalog.table(table).scan())
                    assert repr(got) == repr(expected)
                    assert repr(list(rebuilt.catalog.table(table).scan())) == repr(expected)
                    placed += len(got)
            assert placed == len(floats) * 3 + 15 + 9
        finally:
            tier.close()

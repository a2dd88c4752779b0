"""Log-fed read replicas: bounded staleness, legible hints, gateway spill.

The contract: a replica only answers a probe whose brief *declares* a
staleness tolerance, never exceeds it (checked after catching up on the
log), and every replica-served response carries an explicit "served by
read replica ...: staleness N ≤ M versions" steering hint — degraded
service must be legible to the caller. Everything else (DML, beyond-SQL
requests, termination criteria) falls through to the primary untouched.
Information-schema reads are plain reads: each replica derives those
tables from the records it applied.
"""

from __future__ import annotations

import re

from repro.core import AgentFirstDataSystem, Brief, Probe, SystemConfig
from repro.core.gateway import merge_brief
from repro.db import Database
from repro.txn import ReadReplica, ReplicaPool
from test_maintenance import JOIN, build_db

COUNT_SALES = "SELECT COUNT(*) FROM sales"


def make_system(tmp_path, replicas: int = 1, **config_kwargs):
    # wal_dir is explicit (not attach_wal) so the REPRO_WAL=1 CI leg,
    # which auto-attaches a temp log to every bare Database, composes.
    db = build_db(wal_dir=str(tmp_path / "wal"))
    config = SystemConfig(read_replicas=replicas, **config_kwargs)
    return AgentFirstDataSystem(db, config=config)


def bounded(sql: str = COUNT_SALES, tolerance: int = 10, agent: str = "r") -> Probe:
    return Probe(
        queries=(sql,), brief=Brief(max_staleness=tolerance), agent_id=agent
    )


class TestReadReplica:
    def test_served_response_carries_staleness_hint(self, tmp_path):
        system = make_system(tmp_path)
        try:
            response = system.replicas.try_serve(bounded(tolerance=5))
            assert response is not None
            assert response.outcomes[0].status == "ok"
            assert response.outcomes[0].result.rows == system.db.execute(
                COUNT_SALES
            ).rows
            (hint,) = [s for s in response.steering if "replica" in s]
            match = re.fullmatch(
                r"served by read replica 'replica-0':"
                r" staleness (\d+) ≤ 5 versions",
                hint,
            )
            assert match is not None
            assert int(match.group(1)) <= 5
        finally:
            system.close()

    def test_staleness_bound_enforced_without_catch_up(self, tmp_path):
        system = make_system(tmp_path)
        try:
            replica = system.replicas.replicas[0]
            replica.catch_up()
            stale_rows = system.db.execute(COUNT_SALES).rows
            for i in range(3):
                system.db.execute(
                    f"INSERT INTO sales VALUES ({9100 + i}, 1, 'tea', 1.0)"
                )
            lag = replica.staleness()
            assert lag >= 3
            # Too stale for the brief: defer to the primary, burn no turn.
            turn_before = system.turn
            assert (
                replica.serve(
                    bounded(tolerance=lag - 1),
                    lag - 1,
                    system._next_replica_turn,
                    catch_up=False,
                )
                is None
            )
            assert system.turn == turn_before
            # Within tolerance: serves the admittedly-stale image and says so.
            response = replica.serve(
                bounded(tolerance=lag),
                lag,
                system._next_replica_turn,
                catch_up=False,
            )
            assert response is not None
            assert response.outcomes[0].result.rows == stale_rows
            assert f"staleness {lag} ≤ {lag}" in response.steering[0]
        finally:
            system.close()

    def test_catch_up_serves_fresh_rows_at_zero_tolerance(self, tmp_path):
        system = make_system(tmp_path)
        try:
            for i in range(4):
                system.db.execute(
                    f"INSERT INTO sales VALUES ({9200 + i}, 2, 'tea', 2.0)"
                )
            response = system.replicas.try_serve(bounded(tolerance=0))
            assert response is not None
            assert response.outcomes[0].result.rows == system.db.execute(
                COUNT_SALES
            ).rows
        finally:
            system.close()

    def test_reseeds_after_checkpoint_prunes_its_horizon(self, tmp_path):
        system = make_system(tmp_path)
        try:
            replica = system.replicas.replicas[0]
            replica.catch_up()
            for i in range(6):
                system.db.execute(
                    f"INSERT INTO sales VALUES ({9300 + i}, 3, 'tea', 3.0)"
                )
            system.db.checkpoint()  # prunes every segment the replica was on
            assert replica.catch_up() >= 0  # reseed path, not an exception
            assert replica.staleness() == 0
            assert replica.catalog.version() == system.db.catalog.version()
        finally:
            system.close()


class TestEligibility:
    def probes_that_fall_through(self):
        return [
            Probe(queries=(COUNT_SALES,)),  # no declared tolerance
            Probe(queries=(), brief=Brief(max_staleness=5)),
            Probe(
                queries=(COUNT_SALES,),
                brief=Brief(max_staleness=5),
                semantic_search="coffee",
            ),
            Probe(
                queries=(COUNT_SALES,),
                brief=Brief(max_staleness=5),
                memory_queries=("last plan",),
            ),
            Probe(
                queries=(COUNT_SALES,),
                brief=Brief(max_staleness=5),
                termination=lambda results: True,
            ),
        ]

    def test_undeclared_or_beyond_sql_probes_stay_on_primary(self, tmp_path):
        system = make_system(tmp_path)
        try:
            pool = system.replicas
            for probe in self.probes_that_fall_through():
                assert not pool.eligible(probe)
                assert pool.try_serve(probe) is None
            # Ineligible probes are not even counted as declined: the pool
            # never looked at them.
            assert pool.stats()["probes_declined"] == 0
        finally:
            system.close()

    def test_info_schema_and_dml_decline_at_serve_time(self, tmp_path):
        system = make_system(tmp_path)
        try:
            pool = system.replicas
            system.db.execute("INSERT INTO sales VALUES (9001, 2, 'tea', 1.0)")
            info = bounded("SELECT * FROM information_schema.tables")
            assert pool.eligible(info)
            # The replica derives the information schema from the records
            # it applied: the primary's rows at the same log position.
            response = pool.try_serve(info)
            assert response is not None
            assert pool.replicas[0].applied_lsn == system.db.wal.last_lsn
            assert response.outcomes[0].result.rows == system.db.execute(
                info.queries[0]
            ).rows
            dml = bounded("INSERT INTO sales VALUES (1, 1, 'x', 0.0)")
            assert pool.try_serve(dml) is None
            assert pool.try_serve(bounded("SELEC 1")) is None
            assert pool.stats()["probes_declined"] == 2
        finally:
            system.close()

    def test_session_brief_defaults_carry_max_staleness(self):
        merged = merge_brief(Brief(), Brief(max_staleness=7))
        assert merged.max_staleness == 7
        # The probe's own declaration wins over the session default.
        assert merge_brief(Brief(max_staleness=2), Brief(max_staleness=7)).max_staleness == 2
        assert merge_brief(Brief(max_staleness=0), Brief(max_staleness=7)).max_staleness == 0


class TestGatewaySpill:
    def test_loaded_gateway_offloads_with_distinct_turns(self, tmp_path):
        system = make_system(
            tmp_path, replicas=2, gateway_max_batch=2, gateway_max_wait=0.01
        )
        try:
            tickets = [
                system.gateway.submit(bounded(tolerance=10, agent=f"a{i}"))
                for i in range(8)
            ]
            system.gateway.flush()
            responses = [t.result(timeout=30.0) for t in tickets]
            offloaded = [
                r
                for r in responses
                if any("read replica" in s for s in r.steering)
            ]
            assert system.gateway.stats()["probes_offloaded"] == len(offloaded)
            assert len(offloaded) > 0
            for response in responses:
                assert response.outcomes[0].status == "ok"
                assert response.outcomes[0].result.rows == [(600,)]
            # Replica turns are reserved under the primary's lock: no
            # collisions with window turns, no gaps in admission order.
            turns = sorted(r.turn for r in responses)
            assert turns == list(range(1, 9))
        finally:
            system.close()

    def test_unloaded_gateway_keeps_probes_on_primary(self, tmp_path):
        system = make_system(
            tmp_path, replicas=1, gateway_max_batch=8, gateway_max_wait=0.01
        )
        try:
            ticket = system.gateway.submit(bounded(tolerance=10))
            system.gateway.flush()
            response = ticket.result(timeout=30.0)
            # Eligible, but the primary was idle: fresher answer, no spill.
            assert not any("read replica" in s for s in response.steering)
            assert system.gateway.stats()["probes_offloaded"] == 0
        finally:
            system.close()

    def test_replica_pool_disabled_without_config(self):
        system = AgentFirstDataSystem(build_db())
        try:
            assert system.replicas is None  # no WAL, no replicas
        finally:
            system.close()

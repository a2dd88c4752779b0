"""Tests for the probe optimizer, steering, and the system facade."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import AgentFirstDataSystem, Brief, Probe, SystemConfig
from repro.core.brief import Phase
from repro.core.probe import ProbeResponse, QueryOutcome
from repro.core.steering import JoinDiscovery, WhyNotDiagnoser
from repro.db import Database
from repro.memstore import AgenticMemoryStore, ArtifactKind, StalenessPolicy
from repro.util.hashing import stable_hash_int


@pytest.fixture
def system_db() -> Database:
    db = Database("sys")
    db.execute("CREATE TABLE stores (id INT PRIMARY KEY, city TEXT, state TEXT)")
    db.execute(
        "CREATE TABLE sales (id INT, store_id INT, product TEXT, amount FLOAT)"
    )
    db.execute(
        "INSERT INTO stores VALUES (1,'Berkeley','California'),"
        "(2,'Oakland','California'),(3,'Seattle','Washington')"
    )
    db.execute(
        "INSERT INTO sales VALUES (1,1,'coffee',120.5),(2,1,'tea',30.0),"
        "(3,2,'coffee',80.0),(4,3,'coffee',200.0)"
    )
    return db


@pytest.fixture
def system(system_db) -> AgentFirstDataSystem:
    return AgentFirstDataSystem(system_db)


class TestProbeExecution:
    def test_basic_probe_answers(self, system):
        response = system.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
        assert response.outcomes[0].status == "ok"
        assert response.first_result().first_value() == 4

    def test_multi_query_probe_order_preserved(self, system):
        response = system.submit(
            Probe.sql(
                "SELECT COUNT(*) FROM sales",
                "SELECT COUNT(*) FROM stores",
            )
        )
        assert [o.sql for o in response.outcomes] == [
            "SELECT COUNT(*) FROM sales",
            "SELECT COUNT(*) FROM stores",
        ]

    def test_bad_query_is_error_outcome_not_exception(self, system):
        response = system.submit(Probe.sql("SELECT * FROM ghost"))
        assert response.outcomes[0].status == "error"
        assert "no such table" in response.outcomes[0].reason

    def test_turns_increment(self, system):
        first = system.submit(Probe.sql("SELECT 1"))
        second = system.submit(Probe.sql("SELECT 1"))
        assert second.turn == first.turn + 1

    def test_repeat_query_answered_from_history(self, system):
        system.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
        response = system.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
        outcome = response.outcomes[0]
        assert outcome.status == "from_history"
        assert outcome.result.first_value() == 4
        assert outcome.result.stats.rows_scanned > 0  # original result object

    def test_history_shared_across_agents(self, system):
        system.submit(
            Probe(queries=("SELECT COUNT(*) FROM sales",), agent_id="alice")
        )
        response = system.submit(
            Probe(queries=("SELECT COUNT(*) FROM sales",), agent_id="bob")
        )
        assert response.outcomes[0].status == "from_history"
        assert "alice" in response.outcomes[0].reason

    def test_history_invalidated_by_writes(self, system, system_db):
        system.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
        system_db.execute("INSERT INTO sales VALUES (5,1,'tea',10.0)")
        response = system.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
        assert response.outcomes[0].status == "ok"
        assert response.first_result().first_value() == 5

    def test_termination_criterion_stops_probe(self, system):
        probe = Probe(
            queries=(
                "SELECT COUNT(*) FROM sales WHERE product = 'coffee'",
                "SELECT COUNT(*) FROM sales WHERE product = 'tea'",
                "SELECT COUNT(*) FROM stores",
            ),
            brief=Brief(goal="find any non-empty count"),
            termination=lambda results: any(
                r.rows and r.rows[0][0] > 0 for r in results
            ),
        )
        response = system.submit(probe)
        statuses = [o.status for o in response.outcomes]
        assert "terminated" in statuses
        assert statuses.count("ok") >= 1

    def test_termination_after_first_result_statuses(self, system):
        """A criterion satisfied by the first result leaves every later
        query with status 'terminated' (not silently dropped)."""
        probe = Probe(
            queries=(
                "SELECT COUNT(*) FROM sales",
                "SELECT COUNT(*) FROM stores",
                "SELECT COUNT(*) FROM sales WHERE product = 'tea'",
            ),
            # Pin execution order: the satisficer runs highest-priority
            # first, and the criterion fires on that first result.
            brief=Brief(priorities={0: 5.0, 1: 2.0, 2: 1.0}),
            termination=lambda results: len(results) >= 1,
        )
        response = system.submit(probe)
        statuses = [o.status for o in response.outcomes]
        assert statuses == ["ok", "terminated", "terminated"]
        for outcome in response.outcomes[1:]:
            assert outcome.result is None
            assert "termination criterion" in outcome.reason

    def test_termination_stops_work_accounting(self, system_db):
        """Terminated queries must not add rows_processed: the probe's
        bill equals the bill for its first query alone."""
        first_only = AgentFirstDataSystem(system_db)
        baseline = first_only.submit(Probe.sql("SELECT COUNT(*) FROM sales"))

        terminating = AgentFirstDataSystem(system_db)
        response = terminating.submit(
            Probe(
                queries=(
                    "SELECT COUNT(*) FROM sales",
                    "SELECT COUNT(*) FROM stores",
                    "SELECT id FROM stores",
                ),
                brief=Brief(priorities={0: 5.0, 1: 2.0, 2: 1.0}),
                termination=lambda results: len(results) >= 1,
            )
        )
        assert response.rows_processed == baseline.rows_processed

    def test_termination_criterion_error_is_ignored(self, system):
        def broken(results):
            raise RuntimeError("criterion bug")

        probe = Probe(
            queries=(
                "SELECT COUNT(*) FROM sales",
                "SELECT COUNT(*) FROM stores",
            ),
            termination=broken,
        )
        response = system.submit(probe)
        assert [o.status for o in response.outcomes] == ["ok", "ok"]

    def test_k_of_n_prunes_with_reason(self, system):
        probe = Probe(
            queries=(
                "SELECT COUNT(*) FROM sales",
                "SELECT COUNT(*) FROM stores",
            ),
            brief=Brief(goal="exact answer", complete_k_of_n=1),
        )
        response = system.submit(probe)
        statuses = sorted(o.status for o in response.outcomes)
        assert statuses == ["ok", "pruned"]
        pruned = next(o for o in response.outcomes if o.status == "pruned")
        assert "k-of-n" in pruned.reason
        assert pruned.result is None

    def test_semantic_prune_during_exploration(self, system):
        probe = Probe(
            queries=("SELECT city FROM stores",),
            brief=Brief(goal="explore zzqx flurbles telemetry"),
        )
        response = system.submit(probe)
        # Whatever the embedder decides, a pruned outcome must carry its
        # reason and no result; an executed one must carry rows.
        outcome = response.outcomes[0]
        if outcome.status == "pruned":
            assert "unrelated" in outcome.reason
            assert outcome.result is None
        else:
            assert outcome.result is not None

    def test_from_history_carries_no_new_work(self, system):
        system.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
        repeat = system.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
        outcome = repeat.outcomes[0]
        assert outcome.status == "from_history"
        # The reused result object keeps its original stats, but the
        # response bills zero new engine work for it.
        assert repeat.rows_processed == 0
        assert not outcome.executed
        assert outcome.answered

    def test_from_history_then_termination_interaction(self, system):
        system.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
        probe = Probe(
            queries=(
                "SELECT COUNT(*) FROM sales",  # from history
                "SELECT COUNT(*) FROM stores",  # terminated before running
            ),
            brief=Brief(priorities={0: 5.0, 1: 1.0}),
            termination=lambda results: len(results) >= 1,
        )
        response = system.submit(probe)
        assert [o.status for o in response.outcomes] == [
            "from_history",
            "terminated",
        ]

    def test_semantic_search_attached(self, system):
        probe = Probe(
            queries=(),
            semantic_search="coffee products",
        )
        response = system.submit(probe)
        assert response.semantic_hits
        assert any(
            hit.location.table == "sales" for hit in response.semantic_hits
        )

    def test_rows_processed_accounted(self, system):
        response = system.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
        assert response.rows_processed > 0


class TestSteering:
    def test_why_not_explains_empty_result(self, system):
        response = system.submit(
            Probe.sql("SELECT * FROM stores WHERE state = 'CA'", goal="final answer")
        )
        assert any("California" in hint for hint in response.steering)

    def test_join_discovery_in_exploration(self, system):
        response = system.submit(
            Probe.sql("SELECT store_id FROM sales", goal="explore the sales schema")
        )
        assert any("stores.id" in hint for hint in response.steering)

    def test_similar_query_pointer(self, system):
        system.submit(Probe.sql("SELECT city, state FROM stores"))
        response = system.submit(Probe.sql("SELECT state, city FROM stores"))
        assert any("equivalent" in hint for hint in response.steering)

    def test_batching_hint_after_sequential_probes(self, system):
        for _ in range(4):
            response = system.submit(
                Probe.sql("SELECT COUNT(*) FROM sales WHERE amount > 1")
            )
        assert any("batching" in hint for hint in response.steering)

    def test_steering_disabled(self, system_db):
        system = AgentFirstDataSystem(
            system_db, config=SystemConfig(enable_steering=False)
        )
        response = system.submit(
            Probe.sql("SELECT * FROM stores WHERE state = 'CA'")
        )
        assert response.steering == []

    def test_cost_warning_on_budget_overrun(self, system, system_db):
        system_db.insert_rows(
            "sales", [(100 + i, 1, "coffee", 1.0) for i in range(2000)]
        )
        probe = Probe(
            queries=("SELECT * FROM sales s1 JOIN sales s2 ON s1.id = s2.id",),
            brief=Brief(goal="exact", max_cost=10.0),
        )
        response = system.submit(probe)
        assert any("exceeds" in hint for hint in response.steering)


class TestMemoryIntegration:
    def test_solution_results_remembered(self, system):
        system.submit(
            Probe.sql("SELECT COUNT(*) FROM sales", goal="compute the exact answer")
        )
        artifacts = system.memory.artifacts_about("sales")
        assert any(a.kind is ArtifactKind.PROBE_RESULT for a in artifacts)

    def test_encoding_lessons_remembered(self, system):
        system.submit(
            Probe.sql("SELECT * FROM stores WHERE state = 'CA'", goal="final")
        )
        artifacts = system.memory.artifacts_about("stores")
        assert any(a.kind is ArtifactKind.COLUMN_ENCODING for a in artifacts)

    def test_goal_recalls_memory(self, system):
        system.submit(
            Probe.sql("SELECT * FROM stores WHERE state = 'CA'", goal="final")
        )
        response = system.submit(
            Probe.sql(
                "SELECT COUNT(*) FROM stores",
                goal="how are states encoded in stores",
            )
        )
        assert response.memory_hits

    def test_memory_disabled(self, system_db):
        system = AgentFirstDataSystem(
            system_db, config=SystemConfig(enable_memory=False)
        )
        system.submit(Probe.sql("SELECT COUNT(*) FROM sales", goal="exact answer"))
        assert len(system.memory) == 0

    def test_empty_store_passed_in_is_kept(self, system_db):
        # An empty store is falsy (it defines __len__); the caller's
        # policy and sharing choice must survive construction anyway.
        store = AgenticMemoryStore(
            policy=StalenessPolicy.EAGER, share_across_principals=False
        )
        system = AgentFirstDataSystem(system_db, memory=store)
        assert system.memory is store
        assert system.memory.policy is StalenessPolicy.EAGER

    def test_explicit_memory_queries(self, system):
        system.memory.remember(
            ArtifactKind.SCHEMA_NOTE,
            ("sales",),
            "sales.amount is in US dollars including tax",
            shared=True,
        )
        response = system.submit(
            Probe(queries=(), memory_queries=("what currency is amount",))
        )
        assert response.memory_hits
        assert "dollars" in response.memory_hits[0][0].text

    def test_probe_result_key_uses_stable_digest(self, system):
        """A result is keyed by its first table and a 64-bit digest of its
        statement shape: the text with ``?`` for each literal."""
        response = system.submit(
            Probe.sql(
                "SELECT COUNT(*) FROM sales WHERE amount > 50",
                goal="compute the exact answer",
            )
        )
        shape = "SELECT COUNT(*) FROM sales WHERE (amount > ?)"
        (artifact,) = probe_results(system)
        assert artifact.subject == ("sales", f"q{stable_hash_int(shape):016x}")
        assert artifact.text == f"compute the exact answer: {shape}"
        assert artifact.created_turn == response.turn

    def test_probe_result_keys_reproducible_across_processes(self):
        """Python string ``hash`` is salted per process; the memory keys
        must not be. Run the same probe under two different
        ``PYTHONHASHSEED`` values and require identical artifact keys."""
        script = (
            "from repro.core import AgentFirstDataSystem, Probe\n"
            "from repro.db import Database\n"
            "from repro.memstore import ArtifactKind\n"
            "db = Database('m')\n"
            "db.execute('CREATE TABLE t (id INT, v FLOAT)')\n"
            "db.execute('INSERT INTO t VALUES (1, 2.0), (2, 3.5)')\n"
            "system = AgentFirstDataSystem(db)\n"
            "system.submit(Probe.sql('SELECT COUNT(*) FROM t WHERE v > 1.5',"
            " goal='compute the exact answer'))\n"
            "print(sorted(a.subject for a in system.memory._artifacts.values()"
            " if a.kind is ArtifactKind.PROBE_RESULT))\n"
            "db.execute('CREATE TABLE u (id INT, w TEXT)')\n"
            "plan = db.plan_select('SELECT x.v, y.w FROM t x JOIN u y"
            " ON x.id = y.id WHERE y.w <> \\'z\\'')\n"
            "print(plan.fingerprints().strict, plan.fingerprints().lenient)\n"
        )
        repo_root = Path(__file__).resolve().parents[1]
        outputs = []
        for hash_seed in ("1", "271828"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = str(repo_root / "src")
            completed = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                cwd=repo_root,
                check=True,
            )
            outputs.append(completed.stdout.strip())
        assert outputs[0] == outputs[1]
        digest = stable_hash_int("SELECT COUNT(*) FROM t WHERE (v > ?)")
        assert outputs[0].splitlines()[0] == str([("t", f"q{digest:016x}")])


def probe_results(system) -> list:
    return [
        artifact
        for artifact in system.memory._artifacts.values()
        if artifact.kind is ArtifactKind.PROBE_RESULT
    ]


#: Statement shapes over ``system_db``; ``{v}`` takes a literal unique to
#: each probe.
MEMORY_SHAPES = (
    "SELECT COUNT(*) FROM sales WHERE amount > {v}",
    "SELECT product FROM sales WHERE amount < {v} ORDER BY id",
    "SELECT city FROM stores WHERE id < {v} + 2",
    "SELECT COUNT(*) FROM sales s JOIN stores t ON s.store_id = t.id"
    " WHERE s.amount > {v}",
)
SOLVE = Brief(goal="compute the exact answer", phase=Phase.SOLUTION_FORMULATION)


def shape_probe(shape: int, sequence: int, principal: str = "public") -> Probe:
    literal = f"{sequence % 7}.{sequence:05d}"
    return Probe(
        queries=(MEMORY_SHAPES[shape].format(v=literal),),
        brief=SOLVE,
        agent_id=f"a{sequence % 3}",
        principal=principal,
    )


class TestShapeBoundedMemory:
    """One ``PROBE_RESULT`` per (table, statement shape, principal): a new
    binding of a known shape refreshes that artifact in place."""

    def test_store_grows_with_shapes_not_probes(self, system):
        principals = ("alice", "bob")
        probes = [
            shape_probe(n % len(MEMORY_SHAPES), n, principals[n // 4 % 2])
            for n in range(60)
        ]
        for start in range(0, len(probes), 8):
            responses = system.submit_many(probes[start : start + 8])
            assert all(r.outcomes[0].status == "ok" for r in responses)
        results = probe_results(system)
        tables = {"sales", "stores"}
        assert len(results) <= len(MEMORY_SHAPES) * len(tables) * len(principals)
        assert len(results) == len(MEMORY_SHAPES) * len(principals)
        assert {a.subject[0] for a in results} == tables

    def test_second_binding_refreshes_in_place(self, system):
        system.submit(shape_probe(0, 1))
        (first,) = probe_results(system)
        rows = len(system.memory._vectors)
        system.submit(shape_probe(0, 2))
        hits, misses = system.memory.recall_memo_counters()
        response = system.submit(shape_probe(0, 3))
        assert system.memory.recall_memo_counters() == (hits + 1, misses)
        assert len(system.memory._vectors) == rows
        (artifact,) = probe_results(system)
        assert artifact is first and artifact.created_turn == response.turn
        assert artifact.content == {
            "sql": "SELECT COUNT(*) FROM sales WHERE amount > 3.00003",
            "literals": (3.00003,),
            "rows": 1,
        }

    def test_colliding_16_bit_digests_keep_both_shapes(self, system):
        """Two shapes over one table whose 16-bit digests collide, in one
        probe (one turn): both results survive."""
        seen: dict[int, str] = {}
        for limit in range(1, 5000):
            sql = f"SELECT id FROM sales LIMIT {limit}"
            other = seen.setdefault(stable_hash_int(sql, 16), sql)
            if other != sql:
                break
        assert stable_hash_int(other, 16) == stable_hash_int(sql, 16)
        response = system.submit(Probe(queries=(other, sql), brief=SOLVE))
        assert [o.status for o in response.outcomes] == ["ok", "ok"]
        assert sorted(a.content["sql"] for a in probe_results(system)) == sorted(
            [other, sql]
        )

    @pytest.mark.parametrize("policy", list(StalenessPolicy))
    def test_staleness_round_trip(self, system, policy):
        """An INSERT makes the shape's artifact stale (LAZY) or removes it
        (EAGER); the next execution of the shape makes it fresh again
        (LAZY: the same artifact) or adds it anew (EAGER)."""
        system.memory.policy = policy
        goal = SOLVE.goal
        system.submit(shape_probe(0, 1))
        (before,) = probe_results(system)
        assert [a for a, _ in system.memory.search(goal, include_stale=False)] == [
            before
        ]
        system.db.execute("INSERT INTO sales VALUES (5, 2, 'tea', 10.0)")
        assert system.memory.search(goal, include_stale=False) == []
        stale = probe_results(system)
        assert stale == ([before] if policy is StalenessPolicy.LAZY else [])
        assert all(artifact.stale for artifact in stale)
        system.submit(shape_probe(0, 2))
        (after,) = probe_results(system)
        assert not after.stale
        assert (after is before) == (policy is StalenessPolicy.LAZY)
        assert [a for a, _ in system.memory.search(goal, include_stale=False)] == [
            after
        ]


class TestResponseDescribe:
    def outcome(self, sql, index=0, status="ok"):
        return QueryOutcome(sql=sql, status=status, query_index=index)

    def test_short_sql_is_not_ellipsized(self):
        response = ProbeResponse(
            turn=3, outcomes=[self.outcome("SELECT COUNT(*) FROM sales")]
        )
        text = response.describe()
        assert "SELECT COUNT(*) FROM sales -> ok" in text
        assert "..." not in text

    def test_long_sql_is_truncated_with_ellipsis(self):
        long_sql = "SELECT " + ", ".join(f"col_{i}" for i in range(20)) + " FROM t"
        assert len(long_sql) > 60
        response = ProbeResponse(turn=1, outcomes=[self.outcome(long_sql)])
        text = response.describe()
        assert long_sql[:60] + "..." in text
        assert long_sql not in text

    def test_query_index_labels_reordered_outcomes(self):
        response = ProbeResponse(
            turn=2,
            outcomes=[
                self.outcome("SELECT COUNT(*) FROM stores", index=1),
                self.outcome("SELECT COUNT(*) FROM sales", index=0),
            ],
        )
        lines = response.describe().splitlines()
        assert lines[1].startswith("  - [1] ")
        assert lines[2].startswith("  - [0] ")


class TestBriefInference:
    def test_explicit_phase_wins_over_markers(self):
        brief = Brief(goal="explore the schema sample", phase=Phase.VALIDATION)
        assert brief.infer_phase() is Phase.VALIDATION

    def test_validation_marker_beats_exploration_votes(self):
        # Plenty of exploration evidence, but a single validation marker
        # decides the phase outright.
        brief = Brief(goal="verify the schema sample statistics we explored")
        assert brief.infer_phase() is Phase.VALIDATION

    def test_tie_between_exploration_and_solution_is_solution(self):
        # One exploration marker ("explore") vs one solution marker
        # ("final"): ties fall through to solution formulation.
        brief = Brief(goal="explore the final table")
        assert brief.infer_phase() is Phase.SOLUTION_FORMULATION

    def test_markers_in_notes_only(self):
        brief = Brief(goal="", notes="look around the schema first")
        assert brief.infer_phase() is Phase.METADATA_EXPLORATION

    def test_validation_marker_in_notes_only(self):
        brief = Brief(goal="", notes="double-check the totals")
        assert brief.infer_phase() is Phase.VALIDATION

    def test_empty_brief_defaults_to_solution(self):
        assert Brief().infer_phase() is Phase.SOLUTION_FORMULATION

    def test_repeated_markers_outvote_single_solution_marker(self):
        brief = Brief(goal="sample the schema, sample the statistics, answer")
        # exploration: sample x2 + schema + statistics = 4 > solution: 1.
        assert brief.infer_phase() is Phase.METADATA_EXPLORATION

    def test_priority_of_defaults_to_one(self):
        assert Brief().priority_of(0) == 1.0
        assert Brief().priority_of(7) == 1.0

    def test_priority_of_reads_table_and_falls_back(self):
        brief = Brief(priorities={1: 2.5, 2: 0.25})
        assert brief.priority_of(1) == 2.5
        assert brief.priority_of(2) == 0.25
        assert brief.priority_of(0) == 1.0


class TestMaterializationAdvisor:
    def test_recurring_join_suggested(self, system):
        sql = (
            "SELECT s.city, SUM(x.amount) FROM stores s JOIN sales x"
            " ON s.id = x.store_id GROUP BY s.city"
        )
        for _ in range(3):
            system.submit(Probe.sql(sql))
            system.optimizer.history.clear()  # force re-execution each turn
        suggestions = system.materialization_suggestions()
        assert suggestions
        assert suggestions[0][1] >= 3


class TestSteeringComponents:
    def test_why_not_no_finding_for_matching_predicate(self, system_db):
        diagnoser = WhyNotDiagnoser(system_db)
        plan = system_db.plan_select(
            "SELECT * FROM stores WHERE state = 'California'"
        )
        assert diagnoser.diagnose(plan) == []

    def test_why_not_close_match_suggestion(self, system_db):
        diagnoser = WhyNotDiagnoser(system_db)
        plan = system_db.plan_select(
            "SELECT * FROM stores WHERE city = 'berkely'"
        )
        findings = diagnoser.diagnose(plan)
        assert findings
        assert "Berkeley" in (findings[0].suggestion or "")

    def test_join_discovery_direct(self, system_db):
        discovery = JoinDiscovery(system_db)
        suggestions = discovery.related_tables("sales")
        assert suggestions
        assert suggestions[0].target_table == "stores"
        assert suggestions[0].value_overlap > 0.9

    def test_join_discovery_unknown_table(self, system_db):
        assert JoinDiscovery(system_db).related_tables("ghost") == []

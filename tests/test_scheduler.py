"""Differential and stress tests for the cross-agent probe scheduler.

The scheduler's contract has two halves:

* **semantics** — ``submit_many([p1..pn])`` returns byte-identical
  per-query rows and statuses to ``n`` serial ``submit`` calls on an
  identically-fresh system;
* **work** — the batch processes strictly fewer rows than the same probes
  served by independent per-agent systems whenever they overlap.

Plus: sharing lives for one window. Each window's subplan memo is
dropped when the window ends, its hit/miss tallies must add up to the
system's counters, and a window served by many threads must answer the
same rows as one served by a single thread.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.agents.parallel import run_parallel_attempts
from repro.core import AgentFirstDataSystem, Brief, Probe, SystemConfig
from repro.db import Database


def build_db() -> Database:
    db = Database("sched")
    db.execute("CREATE TABLE stores (id INT PRIMARY KEY, city TEXT, state TEXT)")
    db.execute(
        "CREATE TABLE sales (id INT, store_id INT, product TEXT, amount FLOAT)"
    )
    db.execute(
        "INSERT INTO stores VALUES (1,'Berkeley','California'),"
        "(2,'Oakland','California'),(3,'Seattle','Washington')"
    )
    db.insert_rows(
        "sales",
        [
            (i, 1 + i % 3, "coffee" if i % 2 else "tea", float(i % 40))
            for i in range(900)
        ],
    )
    return db


SHARED_JOIN = (
    "SELECT s.city, SUM(x.amount) FROM stores s JOIN sales x"
    " ON s.id = x.store_id GROUP BY s.city"
)


def overlapping_probes(n: int) -> list[Probe]:
    """n agents; every probe shares a join, half share a filter query."""
    probes = []
    for agent in range(n):
        probes.append(
            Probe(
                queries=(
                    SHARED_JOIN,
                    f"SELECT COUNT(*) FROM sales WHERE store_id = {1 + agent % 2}",
                ),
                brief=Brief(goal="compute the exact answer"),
                agent_id=f"agent-{agent}",
            )
        )
    return probes


def assert_same_outcomes(serial_responses, batch_responses):
    assert len(serial_responses) == len(batch_responses)
    for serial, batch in zip(serial_responses, batch_responses):
        assert serial.turn == batch.turn
        assert [o.sql for o in serial.outcomes] == [o.sql for o in batch.outcomes]
        assert [o.status for o in serial.outcomes] == [
            o.status for o in batch.outcomes
        ]
        for serial_outcome, batch_outcome in zip(serial.outcomes, batch.outcomes):
            serial_rows = (
                serial_outcome.result.rows if serial_outcome.result else None
            )
            batch_rows = batch_outcome.result.rows if batch_outcome.result else None
            assert serial_rows == batch_rows
            serial_cols = (
                serial_outcome.result.columns if serial_outcome.result else None
            )
            batch_cols = (
                batch_outcome.result.columns if batch_outcome.result else None
            )
            assert serial_cols == batch_cols


class TestDifferentialEquivalence:
    def test_batch_matches_serial_overlapping(self):
        probes = overlapping_probes(8)
        serial = [AgentFirstDataSystem(build_db())]  # one fresh system
        serial_responses = [serial[0].submit(p) for p in probes]
        batch_responses = AgentFirstDataSystem(build_db()).submit_many(probes)
        assert_same_outcomes(serial_responses, batch_responses)

    def test_batch_matches_serial_disjoint(self):
        probes = [
            Probe.sql(f"SELECT COUNT(*) FROM sales WHERE id < {100 * (i + 1)}")
            for i in range(5)
        ]
        serial_system = AgentFirstDataSystem(build_db())
        serial_responses = [serial_system.submit(p) for p in probes]
        batch_responses = AgentFirstDataSystem(build_db()).submit_many(probes)
        assert_same_outcomes(serial_responses, batch_responses)

    def test_batch_matches_serial_with_errors_and_pruning(self):
        probes = [
            Probe.sql("SELECT * FROM ghost_table"),
            Probe(
                queries=(
                    "SELECT COUNT(*) FROM sales",
                    "SELECT COUNT(*) FROM stores",
                ),
                brief=Brief(goal="exact answer", complete_k_of_n=1),
            ),
            Probe.sql("SELECT COUNT(*) FROM sales"),
        ]
        serial_system = AgentFirstDataSystem(build_db())
        serial_responses = [serial_system.submit(p) for p in probes]
        batch_responses = AgentFirstDataSystem(build_db()).submit_many(probes)
        assert_same_outcomes(serial_responses, batch_responses)

    def test_batch_matches_serial_with_termination(self):
        def stop_after_first(results):
            return any(r.rows for r in results)

        probes = [
            Probe(
                queries=(
                    "SELECT COUNT(*) FROM sales WHERE product = 'coffee'",
                    "SELECT COUNT(*) FROM sales WHERE product = 'tea'",
                    "SELECT COUNT(*) FROM stores",
                ),
                termination=stop_after_first,
                agent_id=f"agent-{i}",
            )
            for i in range(3)
        ]
        serial_system = AgentFirstDataSystem(build_db())
        serial_responses = [serial_system.submit(p) for p in probes]
        batch_responses = AgentFirstDataSystem(build_db()).submit_many(probes)
        assert_same_outcomes(serial_responses, batch_responses)

    def test_pull_forward_preserves_serial_history_attribution(self):
        """The round-robin hazard case: a duplicate appears *later* in an
        earlier-admitted probe. Serial order (not dispatch order) must
        decide who executes and who answers from history."""
        duplicate = "SELECT COUNT(*) FROM sales WHERE product = 'coffee'"
        first = Probe(
            queries=("SELECT COUNT(*) FROM stores", duplicate),
            # Make the stores query run first within the probe.
            brief=Brief(priorities={0: 5.0, 1: 1.0}),
            agent_id="alice",
        )
        second = Probe(queries=(duplicate,), agent_id="bob")

        serial_system = AgentFirstDataSystem(build_db())
        serial_responses = [serial_system.submit(p) for p in [first, second]]
        batch_responses = AgentFirstDataSystem(build_db()).submit_many(
            [first, second]
        )
        assert_same_outcomes(serial_responses, batch_responses)
        # Alice (admitted first) executed; bob reused her answer.
        assert batch_responses[0].outcomes[1].status == "ok"
        assert batch_responses[1].outcomes[0].status == "from_history"
        assert "alice" in batch_responses[1].outcomes[0].reason

    def test_batch_matches_serial_sampled_exploration(self):
        """Approximate (sampled) queries draw seed-dependent rows; the
        batch must return the same draws as serial submission even when
        probes share sampled subtrees."""
        probes = [
            Probe(
                queries=(
                    "SELECT COUNT(*) FROM sales WHERE amount > 5.0",
                    "SELECT product FROM sales WHERE amount > 5.0",
                ),
                # An explicit accuracy contract forces sampled execution
                # (the queries are expensive enough to qualify).
                brief=Brief(accuracy=0.3),
                agent_id=f"explorer-{i}",
            )
            for i in range(4)
        ]
        serial_system = AgentFirstDataSystem(build_db())
        serial_responses = [serial_system.submit(p) for p in probes]
        batch_responses = AgentFirstDataSystem(build_db()).submit_many(probes)
        assert any(
            o.status == "approximate"
            for r in serial_responses
            for o in r.outcomes
        )
        assert_same_outcomes(serial_responses, batch_responses)

    def test_batch_matches_serial_with_mqo_disabled(self):
        """With MQO off there is no cache anywhere: the batch must not
        smuggle sharing back in (ablation baselines depend on it)."""
        probes = overlapping_probes(4)
        config = SystemConfig(enable_mqo=False)
        serial_system = AgentFirstDataSystem(build_db(), config=config)
        serial_responses = [serial_system.submit(p) for p in probes]
        batch_system = AgentFirstDataSystem(build_db(), config=config)
        batch_responses = batch_system.submit_many(probes)
        assert_same_outcomes(serial_responses, batch_responses)
        # Work must match serial exactly: no cache means no batch sharing
        # (history reuse of identical queries still applies to both).
        assert sum(r.rows_processed for r in batch_responses) == sum(
            r.rows_processed for r in serial_responses
        )
        report = batch_responses[0].sharing
        assert report.cache_hits == 0
        assert report.cache_misses == 0
        # Cross-agent hints must not claim sharing that never happened.
        assert not any(
            "shared batch-wide" in hint
            for r in batch_responses
            for hint in r.steering
        )

    def test_stateful_termination_criterion_called_identically(self):
        """Criteria are user code and may count calls or watch the clock:
        the batch must invoke them exactly as often as serial submission
        (after executed queries only, never after firing)."""

        class Counting:
            def __init__(self):
                self.calls = 0

            def __call__(self, results):
                self.calls += 1
                return self.calls >= 2

        def make_probes(criterion_a, criterion_b):
            return [
                Probe(
                    queries=(
                        "SELECT COUNT(*) FROM sales",
                        "SELECT * FROM ghost_table",
                        "SELECT COUNT(*) FROM stores",
                        "SELECT id FROM stores",
                    ),
                    brief=Brief(priorities={0: 5.0, 1: 4.0, 2: 3.0, 3: 1.0}),
                    termination=criterion_a,
                    agent_id="a",
                ),
                Probe(
                    queries=("SELECT COUNT(*) FROM sales",),
                    termination=criterion_b,
                    agent_id="b",
                ),
            ]

        serial_criteria = [Counting(), Counting()]
        batch_criteria = [Counting(), Counting()]
        serial_system = AgentFirstDataSystem(build_db())
        serial_responses = [
            serial_system.submit(p) for p in make_probes(*serial_criteria)
        ]
        batch_responses = AgentFirstDataSystem(build_db()).submit_many(
            make_probes(*batch_criteria)
        )
        assert_same_outcomes(serial_responses, batch_responses)
        assert [c.calls for c in serial_criteria] == [
            c.calls for c in batch_criteria
        ]

    def test_similar_query_pointer_survives_batching(self):
        """The 'equivalent query answered at turn N' hint depends on
        lenient-history order; pull-forward must preserve it even when
        round-robin would dispatch the later-admitted equivalent first."""
        first = Probe(
            queries=(
                "SELECT COUNT(*) FROM stores",
                "SELECT city, state FROM stores",
            ),
            # Pin the equivalent query to position 1 of the first probe.
            brief=Brief(priorities={0: 5.0, 1: 1.0}),
            agent_id="alice",
        )
        second = Probe(
            queries=("SELECT state, city FROM stores",), agent_id="bob"
        )
        serial_system = AgentFirstDataSystem(build_db())
        serial_responses = [serial_system.submit(p) for p in [first, second]]
        batch_responses = AgentFirstDataSystem(build_db()).submit_many(
            [first, second]
        )
        assert_same_outcomes(serial_responses, batch_responses)

        def equivalence_hints(response):
            return [h for h in response.steering if "answered at" in h]

        assert equivalence_hints(serial_responses[1])
        assert equivalence_hints(batch_responses[1]) == equivalence_hints(
            serial_responses[1]
        )

    def test_turns_advance_per_probe(self):
        system = AgentFirstDataSystem(build_db())
        responses = system.submit_many(overlapping_probes(4))
        assert [r.turn for r in responses] == [1, 2, 3, 4]
        follow_up = system.submit(Probe.sql("SELECT COUNT(*) FROM stores"))
        assert follow_up.turn == 5

    def test_empty_batch(self):
        assert AgentFirstDataSystem(build_db()).submit_many([]) == []


class TestWorkerDifferential:
    """The parallel dispatch path must be byte-identical to serial
    submission at every worker count — speculation may only move engine
    work earlier, never change an answer, a status, or an attribution."""

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_exact_overlapping(self, workers):
        probes = overlapping_probes(8)
        serial_system = AgentFirstDataSystem(build_db())
        serial_responses = [serial_system.submit(p) for p in probes]
        batch_responses = AgentFirstDataSystem(
            build_db(), workers=workers
        ).submit_many(probes)
        assert_same_outcomes(serial_responses, batch_responses)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_sampled_exploration(self, workers):
        probes = [
            Probe(
                queries=(
                    "SELECT COUNT(*) FROM sales WHERE amount > 5.0",
                    "SELECT product FROM sales WHERE amount > 5.0",
                ),
                brief=Brief(accuracy=0.3),
                agent_id=f"explorer-{i}",
            )
            for i in range(4)
        ]
        serial_system = AgentFirstDataSystem(build_db())
        serial_responses = [serial_system.submit(p) for p in probes]
        batch_responses = AgentFirstDataSystem(
            build_db(), workers=workers
        ).submit_many(probes)
        assert any(
            o.status == "approximate"
            for r in batch_responses
            for o in r.outcomes
        )
        assert_same_outcomes(serial_responses, batch_responses)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_mqo_disabled(self, workers):
        probes = overlapping_probes(4)
        config = SystemConfig(enable_mqo=False)
        serial_system = AgentFirstDataSystem(build_db(), config=config)
        serial_responses = [serial_system.submit(p) for p in probes]
        batch_responses = AgentFirstDataSystem(
            build_db(), config=SystemConfig(enable_mqo=False), workers=workers
        ).submit_many(probes)
        assert_same_outcomes(serial_responses, batch_responses)
        # Without a cache the engine work is deterministic per query, so
        # even the speculative path must account identical row totals.
        assert sum(r.rows_processed for r in batch_responses) == sum(
            r.rows_processed for r in serial_responses
        )

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_errors_and_pruning(self, workers):
        """Plan errors, satisficer pruning and engine errors raised inside
        speculation all surface exactly as serial submission reports them."""
        probes = [
            Probe.sql("SELECT * FROM ghost_table"),
            Probe(
                queries=(
                    "SELECT COUNT(*) FROM sales",
                    "SELECT COUNT(*) FROM stores",
                ),
                brief=Brief(goal="exact answer", complete_k_of_n=1),
            ),
            Probe.sql("SELECT 1 / (id - id) FROM stores"),
            Probe.sql("SELECT COUNT(*) FROM sales WHERE product = 'tea'"),
        ]
        serial_system = AgentFirstDataSystem(build_db())
        serial_responses = [serial_system.submit(p) for p in probes]
        batch_system = AgentFirstDataSystem(build_db(), workers=workers)
        batch_responses = batch_system.submit_many(probes)
        # The division by zero must actually raise on a pool thread.
        assert (batch_system.scheduler.speculative_executions > 0) == (workers > 1)
        assert_same_outcomes(serial_responses, batch_responses)
        for serial, batch in zip(serial_responses, batch_responses):
            assert [o.reason for o in serial.outcomes] == [
                o.reason for o in batch.outcomes
            ]
        (engine_error,) = batch_responses[2].outcomes
        assert engine_error.status == "error"
        assert "division by zero" in engine_error.reason

    @pytest.mark.parametrize("workers", [2, 8])
    def test_termination_discards_speculative_work(self, workers):
        """Speculation may run queries that termination then skips; the
        results must be discarded, and criterion call counts must still
        match serial submission exactly."""

        class Counting:
            def __init__(self):
                self.calls = 0

            def __call__(self, results):
                self.calls += 1
                return self.calls >= 2

        def make_probes(criteria):
            return [
                Probe(
                    queries=(
                        "SELECT COUNT(*) FROM sales WHERE product = 'coffee'",
                        "SELECT COUNT(*) FROM sales WHERE product = 'tea'",
                        "SELECT COUNT(*) FROM stores",
                    ),
                    termination=criterion,
                    agent_id=f"agent-{i}",
                )
                for i, criterion in enumerate(criteria)
            ]

        serial_criteria = [Counting() for _ in range(3)]
        batch_criteria = [Counting() for _ in range(3)]
        serial_system = AgentFirstDataSystem(build_db())
        serial_responses = [
            serial_system.submit(p) for p in make_probes(serial_criteria)
        ]
        batch_responses = AgentFirstDataSystem(
            build_db(), workers=workers
        ).submit_many(make_probes(batch_criteria))
        assert_same_outcomes(serial_responses, batch_responses)
        assert [c.calls for c in serial_criteria] == [
            c.calls for c in batch_criteria
        ]

    @pytest.mark.parametrize("workers", [2, 8])
    def test_pull_forward_attribution_survives_speculation(self, workers):
        duplicate = "SELECT COUNT(*) FROM sales WHERE product = 'coffee'"
        first = Probe(
            queries=("SELECT COUNT(*) FROM stores", duplicate),
            brief=Brief(priorities={0: 5.0, 1: 1.0}),
            agent_id="alice",
        )
        second = Probe(queries=(duplicate,), agent_id="bob")
        batch_responses = AgentFirstDataSystem(
            build_db(), workers=workers
        ).submit_many([first, second])
        assert batch_responses[0].outcomes[1].status == "ok"
        assert batch_responses[1].outcomes[0].status == "from_history"
        assert "alice" in batch_responses[1].outcomes[0].reason

    def test_speculation_runs_only_independent_units(self):
        """One engine run per distinct strict fingerprint; a repeat batch
        is answered entirely by history, so nothing speculates."""
        system = AgentFirstDataSystem(build_db(), workers=4)
        system.submit_many(overlapping_probes(6))
        # The shared join plus the two distinct filters (store_id 1 / 2).
        assert system.scheduler.speculative_executions == 3
        system.submit_many(overlapping_probes(6))
        assert system.scheduler.speculative_executions == 3

    def test_workers_one_never_speculates(self):
        system = AgentFirstDataSystem(build_db(), workers=1)
        system.submit_many(overlapping_probes(6))
        assert system.scheduler.speculative_executions == 0

    def test_workers_override_does_not_mutate_shared_config(self):
        config = SystemConfig()
        system = AgentFirstDataSystem(build_db(), config=config, workers=1)
        assert system.scheduler.workers == 1
        assert config.workers is None  # caller's object left untouched


class TestBackendDifferential:
    """The dispatch-substrate axis of the equivalence contract, pinned
    explicitly: speculation runs on a per-batch thread pool, and the same
    batch must produce byte-identical rows, statuses, and attributions
    there as under serial submission."""

    @pytest.mark.parametrize("backend", ["thread"])
    def test_exact_overlapping_matches_serial(self, backend):
        probes = overlapping_probes(6)
        serial_system = AgentFirstDataSystem(build_db())
        serial_responses = [serial_system.submit(p) for p in probes]
        batch_system = AgentFirstDataSystem(build_db(), workers=2)
        try:
            batch_responses = batch_system.submit_many(probes)
        finally:
            batch_system.close()
        assert batch_system.scheduler.speculative_executions > 0
        assert_same_outcomes(serial_responses, batch_responses)

    @pytest.mark.parametrize("backend", ["thread"])
    def test_history_attribution_matches_across_backends(self, backend):
        duplicate = "SELECT COUNT(*) FROM sales WHERE product = 'coffee'"
        first = Probe(
            queries=("SELECT COUNT(*) FROM stores", duplicate),
            brief=Brief(priorities={0: 5.0, 1: 1.0}),
            agent_id="alice",
        )
        second = Probe(queries=(duplicate,), agent_id="bob")
        system = AgentFirstDataSystem(build_db(), workers=2)
        try:
            batch_responses = system.submit_many([first, second])
        finally:
            system.close()
        assert batch_responses[0].outcomes[1].status == "ok"
        assert batch_responses[1].outcomes[0].status == "from_history"
        assert "alice" in batch_responses[1].outcomes[0].reason


class TestThreadedOptimizerState:
    """ProbeOptimizer owns session-shared history; with the scheduler's
    worker pool (and any concurrent serving threads) in play, its state
    must stay consistent under concurrent ``run_decision`` calls."""

    def test_concurrent_run_decision_keeps_history_consistent(self):
        from repro.plan.fingerprint import fingerprints

        system = AgentFirstDataSystem(build_db())
        optimizer = system.optimizer
        probe = Probe(
            queries=(
                "SELECT COUNT(*) FROM sales",
                "SELECT COUNT(*) FROM stores",
                "SELECT city, state FROM stores",
                "SELECT state, city FROM stores",
                "SELECT COUNT(*) FROM sales WHERE product = 'coffee'",
            ),
            brief=Brief(goal="compute the exact answer"),
        )
        interpreted = system.interpreter.interpret(probe)
        decisions = optimizer.satisficer.decide(interpreted)
        failures: list[Exception] = []

        def hammer(thread_index: int) -> None:
            try:
                for i in range(40):
                    for decision in decisions:
                        outcome = optimizer.run_decision(
                            interpreted, decision, 1 + thread_index * 1000 + i
                        )
                        assert outcome.status in ("ok", "from_history")
                        assert outcome.result is not None
            except Exception as exc:  # surfaced after join
                failures.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        strict_fps = {
            fingerprints(d.query.plan).strict
            for d in decisions
            if d.query.plan is not None
        }
        lenient_fps = {
            fingerprints(d.query.plan).lenient
            for d in decisions
            if d.query.plan is not None
        }
        # Exactly one entry per distinct fingerprint, each internally
        # consistent — no torn writes, no lost keys, no phantom entries.
        assert set(optimizer.history) == strict_fps
        assert set(optimizer.lenient_history) == lenient_fps
        for lenient, entry in optimizer.lenient_history.items():
            assert entry.lenient_fingerprint == lenient
            assert entry.result is not None


class TestSharedWork:
    def test_batch_processes_fewer_rows_than_independent_agents(self):
        probes = overlapping_probes(8)
        independent_total = 0
        for probe in probes:
            independent_total += AgentFirstDataSystem(build_db()).submit(
                probe
            ).rows_processed
        batch_responses = AgentFirstDataSystem(build_db()).submit_many(probes)
        batch_total = sum(r.rows_processed for r in batch_responses)
        assert batch_total < independent_total

    def test_disjoint_probes_share_nothing(self):
        probes = [
            Probe.sql("SELECT COUNT(*) FROM sales"),
            Probe.sql("SELECT COUNT(*) FROM stores"),
        ]
        responses = AgentFirstDataSystem(build_db()).submit_many(probes)
        report = responses[0].sharing
        assert report is not None
        assert report.cross_agent_subplans == 0

    def test_sharing_report_attached_and_consistent(self):
        probes = overlapping_probes(6)
        responses = AgentFirstDataSystem(build_db()).submit_many(probes)
        report = responses[0].sharing
        assert report is not None
        assert all(r.sharing is report for r in responses)
        assert report.probes == 6
        assert report.agents == 6
        assert report.queries == 12
        assert report.cross_agent_subplans > 0
        assert report.duplicate_fraction > 0.5
        assert report.rows_processed_shared == sum(
            r.rows_processed for r in responses
        )

    def test_cross_agent_steering_hint(self):
        probes = overlapping_probes(5)
        responses = AgentFirstDataSystem(build_db()).submit_many(probes)
        assert any(
            "other agent" in hint for hint in responses[0].steering
        ), responses[0].steering

    def test_budget_hint_when_brief_budget_exhausted(self):
        expensive = (
            "SELECT s1.id FROM sales s1 JOIN sales s2 ON s1.store_id = s2.store_id"
        )
        probes = [
            Probe(
                queries=(expensive, "SELECT COUNT(*) FROM sales"),
                brief=Brief(goal="exact answer", max_cost=1.0),
                agent_id="strapped",
            ),
            Probe.sql("SELECT COUNT(*) FROM stores"),
        ]
        responses = AgentFirstDataSystem(build_db()).submit_many(probes)
        assert any("deprioritised" in hint for hint in responses[0].steering)

    def test_single_probe_batch_equals_submit(self):
        probe = Probe.sql("SELECT COUNT(*) FROM sales", goal="exact")
        via_submit = AgentFirstDataSystem(build_db()).submit(probe)
        via_batch = AgentFirstDataSystem(build_db()).submit_many([probe])[0]
        assert_same_outcomes([via_submit], [via_batch])
        assert via_submit.sharing is not None


class TestParallelAgentsThroughScheduler:
    def test_parallel_attempts_match_standalone_execution(self):
        from repro.agents.model import GPT_4O_MINI_SIM
        from repro.agents.parallel import run_field_attempt
        from repro.util.rng import RngStream
        from repro.workloads.bird import BirdTaskPool

        task = BirdTaskPool(seed=1).generate(2)[0]
        outcome = run_parallel_attempts(task, GPT_4O_MINI_SIM, 12, seed=9)
        assert len(outcome.attempts) == 12
        # Batched serving must not change any attempt's answer signature.
        rng = RngStream(9, "parallel", task.task_id, GPT_4O_MINI_SIM.name)
        for index, batched in enumerate(outcome.attempts):
            standalone = run_field_attempt(
                task, GPT_4O_MINI_SIM, rng.child("agent", index)
            )
            assert batched.sql == standalone.sql
            assert batched.ok == standalone.ok
            assert batched.signature == standalone.signature

    def test_serving_system_is_shared_per_database(self):
        from repro.agents.model import GPT_4O_MINI_SIM
        from repro.workloads.bird import BirdTaskPool

        task = BirdTaskPool(seed=3).generate(1)[0]
        observers_before = len(task.db._observers)
        run_parallel_attempts(task, GPT_4O_MINI_SIM, 4, seed=1)
        observers_first = len(task.db._observers)
        run_parallel_attempts(task, GPT_4O_MINI_SIM, 4, seed=2)
        # One serving system per database: repeat calls must not stack
        # change observers (each system registers one, forever).
        assert len(task.db._observers) == observers_first
        assert observers_first > observers_before

    def test_mismatched_serving_system_rejected(self):
        import pytest as _pytest

        from repro.agents.model import GPT_4O_MINI_SIM
        from repro.workloads.bird import BirdTaskPool

        tasks = BirdTaskPool(seed=4, databases_per_domain=1).generate(8)
        other = next(t for t in tasks if t.db is not tasks[0].db)
        foreign_system = AgentFirstDataSystem(other.db)
        with _pytest.raises(ValueError, match="different database"):
            run_parallel_attempts(
                tasks[0], GPT_4O_MINI_SIM, 2, seed=1, system=foreign_system
            )


class TestFederatedCohort:
    def test_cohort_logs_relational_interactions(self):
        from repro.agents.federated import run_federated_cohort
        from repro.agents.model import GPT_4O_MINI_SIM
        from repro.workloads.multibackend import build_cross_backend_tasks

        task = build_cross_backend_tasks(seed=2, n_tasks=1)[0]
        outcomes, system = run_federated_cohort(
            task, GPT_4O_MINI_SIM, n_agents=4, seed=7
        )
        assert len(outcomes) == 4
        assert all(o.answer is not None for o in outcomes)
        # Batched relational full attempts must still appear in the
        # environment's interaction log (Figure 3's counting unit).
        relational_queries = [
            r
            for r in task.env.log
            if r.backend == task.rel_backend and r.operation == "query"
        ]
        assert relational_queries
        assert system.turn > 0


class TestWindowScopedSharing:
    GROUPED = "SELECT product, {agg} FROM sales WHERE amount > 20.0 GROUP BY product"

    def test_second_window_shares_nothing_with_the_first(self):
        """A later window re-asks a query whose Filter subtree an earlier
        window computed: the memo died with that window, so the later one
        does the same work a fresh system does."""
        first = Probe.sql(self.GROUPED.format(agg="COUNT(*)"), goal="exact")
        second = Probe.sql(self.GROUPED.format(agg="SUM(amount)"), goal="exact")
        system = AgentFirstDataSystem(build_db())
        system.submit_many([first])
        (response,) = system.submit_many([second])
        (fresh,) = AgentFirstDataSystem(build_db()).submit_many([second])
        assert response.outcomes[0].status == "ok"
        assert response.sharing.cache_hits == 0
        assert response.rows_processed == fresh.rows_processed

    def test_hit_miss_counters_consistent_across_batches(self):
        system = AgentFirstDataSystem(build_db())
        batch_hits = batch_misses = 0
        for round_no in range(6):
            responses = system.submit_many(overlapping_probes(4 + round_no))
            report = responses[0].sharing
            batch_hits += report.cache_hits
            batch_misses += report.cache_misses
        snap = system.metrics()
        # Per-window tallies must tile the system's lifetime counters.
        assert snap.get("repro_engine_subplan_cache_hits") == batch_hits
        assert snap.get("repro_engine_subplan_cache_misses") == batch_misses
        assert batch_misses > 0

    def test_subtree_sharing_window_under_thread_churn(self):
        """16 probes whose queries share Filter subtrees across lenient
        groups, served at workers 8 while the interpreter switches threads
        every microsecond: the window's memo may move work between
        threads, never change a row."""

        def window():
            return [
                Probe(
                    queries=tuple(
                        f"SELECT product, {agg} FROM sales"
                        f" WHERE amount > {agent % 8}.5 GROUP BY product"
                        for agg in ("COUNT(*)", "SUM(amount)")
                    ),
                    brief=Brief(goal="compute the exact answer"),
                    agent_id=f"agent-{agent}",
                )
                for agent in range(16)
            ]

        serial = AgentFirstDataSystem(build_db(), workers=1).submit_many(window())
        assert serial[0].sharing.cache_hits > 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            system = AgentFirstDataSystem(build_db(), workers=8)
            churned = system.submit_many(window())
        finally:
            sys.setswitchinterval(interval)
        assert system.scheduler.speculative_executions == 16
        assert_same_outcomes(serial, churned)


class TestSharingHints:
    """The "computed once and shared" clause is a claim about this window:
    it rides on the cross-agent hint only when the equivalent queries
    really shared work."""

    CLAUSE = "shared batch-wide"

    @staticmethod
    def serve_pair(workers, first_sql, second_sql):
        return AgentFirstDataSystem(build_db(), workers=workers).submit_many(
            [
                Probe(
                    queries=(sql,),
                    brief=Brief(goal="compute the exact answer"),
                    agent_id=agent,
                )
                for agent, sql in (("alice", first_sql), ("bob", second_sql))
            ]
        )

    @staticmethod
    def equivalence_hints(response):
        hints = [h for h in response.steering if "other agent(s) asked" in h]
        assert hints, response.steering
        return hints

    @pytest.mark.parametrize("workers", [1, 8])
    def test_reordered_projection_claims_no_sharing(self, workers):
        """Lenient-equal, strict-different, and the only common node is a
        bare scan (too small to memoize): nothing was shared."""
        responses = self.serve_pair(
            workers, "SELECT id, product FROM sales", "SELECT product, id FROM sales"
        )
        assert [r.outcomes[0].status for r in responses] == ["ok", "ok"]
        assert responses[0].sharing.cache_hits == 0
        assert responses[0].rows_processed == responses[1].rows_processed
        for response in responses:
            assert not any(
                self.CLAUSE in hint for hint in self.equivalence_hints(response)
            )

    @pytest.mark.parametrize("workers", [1, 8])
    def test_shared_filter_keeps_the_clause(self, workers):
        responses = self.serve_pair(
            workers,
            "SELECT id, product FROM sales WHERE amount > 20.0",
            "SELECT product, id FROM sales WHERE amount > 20.0",
        )
        assert [r.outcomes[0].status for r in responses] == ["ok", "ok"]
        assert responses[0].sharing.cache_hits > 0
        for response in responses:
            assert any(
                self.CLAUSE in hint for hint in self.equivalence_hints(response)
            )

    @pytest.mark.parametrize("workers", [1, 8])
    def test_answer_from_this_window_keeps_the_clause(self, workers):
        sql = "SELECT COUNT(*) FROM sales WHERE product = 'tea'"
        responses = self.serve_pair(workers, sql, sql)
        assert [r.outcomes[0].status for r in responses] == ["ok", "from_history"]
        for response in responses:
            assert any(
                self.CLAUSE in hint for hint in self.equivalence_hints(response)
            )

    def test_answer_from_an_earlier_window_claims_no_sharing(self):
        sql = "SELECT COUNT(*) FROM sales WHERE product = 'tea'"
        system = AgentFirstDataSystem(build_db(), workers=1)
        system.submit(Probe.sql(sql, goal="exact"))
        responses = system.submit_many(
            [
                Probe(queries=(sql,), brief=Brief(goal="exact"), agent_id=agent)
                for agent in ("alice", "bob")
            ]
        )
        assert [r.outcomes[0].status for r in responses] == ["from_history"] * 2
        for response in responses:
            assert not any(
                self.CLAUSE in hint for hint in self.equivalence_hints(response)
            )

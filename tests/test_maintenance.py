"""Sleeper-agent maintenance runtime: differential + unit coverage.

The headline contract: with the maintenance runtime ON — materialized
views being built and served, auxiliary indexes rewriting scan paths,
statistics refreshed — per-query rows, statuses, reasons (history
attribution), and declared order are **byte-identical**
to a maintenance-off run, including across writes that invalidate views
and indexes mid-workload, at every worker count (CI reruns this module
under ``REPRO_SCHEDULER_WORKERS``).
"""

from __future__ import annotations

import time

import pytest

from repro.core import AgentFirstDataSystem, Brief, Probe, SystemConfig
from repro.db import Database
from repro.maintenance import (
    MaintenanceConfig,
    MaintenanceRuntime,
    resolve_maintenance_enabled,
)
from repro.plan import logical
from repro.plan.fingerprint import fingerprints

JOIN = (
    "SELECT s.city, SUM(x.amount) FROM stores s JOIN sales x"
    " ON s.id = x.store_id GROUP BY s.city"
)
#: The same work with the projection reordered: a lenient (not strict)
#: twin of JOIN, closable by a pure output-column permutation.
JOIN_REORDERED = (
    "SELECT SUM(x.amount), s.city FROM stores s JOIN sales x"
    " ON s.id = x.store_id GROUP BY s.city"
)
EQ_FILTER = "SELECT COUNT(*) FROM sales WHERE store_id = {k}"
RANGE_ROWS = "SELECT id, amount FROM sales WHERE amount > {t}"


def build_db(rows: int = 600, wal_dir: str | bool | None = None) -> Database:
    db = Database("maint", wal_dir=wal_dir)
    db.execute("CREATE TABLE stores (id INT PRIMARY KEY, city TEXT, state TEXT)")
    db.execute(
        "CREATE TABLE sales (id INT, store_id INT, product TEXT, amount FLOAT)"
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


def maintenance_config(**overrides) -> MaintenanceConfig:
    """Thresholds low enough that a short workload triggers every job."""
    defaults = dict(
        view_min_occurrences=2, index_min_occurrences=2, index_min_rows=10
    )
    defaults.update(overrides)
    return MaintenanceConfig(**defaults)


def make_system(maintenance: bool, workers: int | None = None) -> AgentFirstDataSystem:
    config = SystemConfig(
        enable_maintenance=maintenance,
        maintenance=maintenance_config() if maintenance else None,
    )
    return AgentFirstDataSystem(build_db(), config=config, workers=workers)


def turn_probes(n_agents: int, turn: int) -> list[Probe]:
    """A swarm turn mixing hot shared work with per-agent variation."""
    probes = []
    for agent in range(n_agents):
        queries = [
            JOIN if agent % 3 else JOIN_REORDERED,
            EQ_FILTER.format(k=1 + agent % 4),
            RANGE_ROWS.format(t=float(3 + (agent + turn) % 5)),
        ]
        probes.append(
            Probe(
                queries=tuple(queries),
                brief=Brief(goal="compute the exact answer"),
                agent_id=f"agent-{agent}",
            )
        )
    return probes


def signature(responses) -> list:
    """Everything the byte-identity contract covers, per probe."""
    out = []
    for response in responses:
        out.append(
            [
                (
                    outcome.sql,
                    outcome.status,
                    outcome.reason,
                    outcome.query_index,
                    outcome.sample_rate,
                    None if outcome.result is None else outcome.result.columns,
                    None if outcome.result is None else outcome.result.rows,
                )
                for outcome in response.outcomes
            ]
        )
    return out


def run_script(system: AgentFirstDataSystem, script: list) -> list:
    """Drive one system through a workload script; collect signatures.

    Steps: ``("turn", n_agents, turn_no)`` serves a swarm batch,
    ``("sql", stmt)`` runs a write, ``("maintain",)`` gives the
    maintenance runtime an idle window (a no-op on maintenance-off
    systems, keeping the two sides' serving histories aligned).
    """
    signatures = []
    for step in script:
        if step[0] == "turn":
            responses = system.submit_many(turn_probes(step[1], step[2]))
            signatures.append(signature(responses))
        elif step[0] == "sql":
            system.db.execute(step[1])
        elif step[0] == "maintain":
            system.maintenance.run_pending()
        else:  # pragma: no cover - script typo guard
            raise AssertionError(step)
    return signatures


#: Repeated hot turns with invalidating writes mid-workload: the views
#: and indexes built after turn 2 are invalidated by the UPDATE/DELETE
#: burst, rebuilt, and invalidated again.
DIFFERENTIAL_SCRIPT = [
    ("turn", 6, 0),
    ("maintain",),
    ("turn", 6, 1),
    ("maintain",),
    ("sql", "INSERT INTO sales VALUES (9001, 2, 'tea', 7.5)"),
    ("turn", 6, 2),
    ("maintain",),
    ("turn", 6, 3),
    ("sql", "UPDATE sales SET amount = 11.0 WHERE id = 9001"),
    ("sql", "DELETE FROM sales WHERE id = 3"),
    ("maintain",),
    ("turn", 6, 4),
    ("maintain",),
    ("turn", 6, 5),
]


class TestMaintenanceDifferential:
    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_byte_identical_across_writes(self, workers):
        on = make_system(True, workers=workers)
        off = make_system(False, workers=workers)
        got = run_script(on, DIFFERENTIAL_SCRIPT)
        expected = run_script(off, DIFFERENTIAL_SCRIPT)
        assert got == expected
        # The run must actually have exercised the runtime, or the
        # equality above proves nothing.
        assert on.maintenance.views_built > 0
        assert on.maintenance.indexes_built > 0
        assert on.maintenance.stats_refreshes > 0

    def test_sampled_probes_never_served_from_views(self):
        """Approximate runs must sample real scans, not full view rows."""
        on = make_system(True, workers=1)
        off = make_system(False, workers=1)
        exact = Probe(queries=(JOIN,), brief=Brief(goal="exact answer"))
        sampled = Probe(
            queries=(
                "SELECT COUNT(*), SUM(amount) FROM sales WHERE amount > 2.0",
            ),
            brief=Brief(goal="compute the answer", accuracy=0.25),
        )
        for system in (on, off):
            for _ in range(3):
                system.submit(exact)
            system.maintenance.run_pending()
        got = [on.submit(sampled)]
        expected = [off.submit(sampled)]
        assert signature(got) == signature(expected)
        assert got[0].outcomes[0].status == "approximate"

    def test_termination_and_pruning_unchanged(self):
        def stop_after_one(results):
            return len(results) >= 1

        probe = Probe(
            queries=(JOIN, EQ_FILTER.format(k=1), JOIN),
            brief=Brief(goal="exact answer"),
            termination=stop_after_one,
        )
        script_probe = Probe(
            queries=(JOIN,),
            brief=Brief(goal="exact answer", max_cost=0.5),
        )
        on = make_system(True, workers=1)
        off = make_system(False, workers=1)
        for system in (on, off):
            for _ in range(3):
                system.submit(Probe(queries=(JOIN,), brief=Brief(goal="exact")))
            system.maintenance.run_pending()
        assert signature([on.submit(probe)]) == signature([off.submit(probe)])
        assert signature([on.submit(script_probe)]) == signature(
            [off.submit(script_probe)]
        )


class TestViewMaterializer:
    def build_warm_system(self) -> AgentFirstDataSystem:
        system = make_system(True, workers=1)
        for _ in range(3):
            system.submit(Probe(queries=(JOIN,), brief=Brief(goal="exact")))
        report = system.maintenance.run_pending()
        assert report.views_built
        return system

    def test_strict_match_rewrites_to_view_scan(self):
        system = self.build_warm_system()
        plan = system.db.plan_select(JOIN)
        rewritten = system.maintenance.rewrite_for_execution(plan)
        assert any(isinstance(n, logical.ViewScan) for n in rewritten.walk())
        # The largest materialized subtree wins: the root itself.
        assert isinstance(rewritten, logical.ViewScan)

    def test_lenient_permutation_served_through_projection(self):
        system = self.build_warm_system()
        plan = system.db.plan_select(JOIN_REORDERED)
        rewritten = system.maintenance.rewrite_for_execution(plan)
        scans = [n for n in rewritten.walk() if isinstance(n, logical.ViewScan)]
        assert scans and scans[0].projection != tuple(range(len(scans[0].projection)))
        # Served rows equal a from-scratch execution, column order included.
        from repro.engine.executor import ExecContext, Executor

        fresh = Executor(system.db.catalog, ExecContext()).run(plan)
        assert scans[0].materialized_rows() == fresh.rows

    def test_write_invalidates_view_until_rebuilt(self):
        system = self.build_warm_system()
        plan = system.db.plan_select(JOIN)
        system.db.execute("INSERT INTO sales VALUES (9002, 1, 'tea', 1.0)")
        # Views were retired eagerly; nothing matches any more.
        rewritten = system.maintenance.rewrite_for_execution(plan)
        assert not any(isinstance(n, logical.ViewScan) for n in rewritten.walk())
        report = system.maintenance.run_pending()
        assert report.views_built  # rebuilt against the new data
        rewritten = system.maintenance.rewrite_for_execution(plan)
        assert isinstance(rewritten, logical.ViewScan)
        # ... and the rebuilt rows reflect the write.
        from repro.engine.executor import ExecContext, Executor

        fresh = Executor(system.db.catalog, ExecContext()).run(plan)
        assert rewritten.materialized_rows() == fresh.rows

    def test_stale_view_refuses_to_serve_even_if_installed(self):
        """Belt and braces: a view whose stamp trails the catalog is inert
        even when ChangeEvent-based retirement did not fire (e.g. a direct
        table mutation that bypassed the database facade)."""
        system = self.build_warm_system()
        plan = system.db.plan_select(JOIN)
        system.db.catalog.table("sales").insert((9003, 1, "tea", 2.0))
        assert len(system.maintenance.views)  # nobody retired it...
        rewritten = system.maintenance.rewrite_for_execution(plan)
        assert not any(  # ...but the version stamp refuses to serve it
            isinstance(n, logical.ViewScan) for n in rewritten.walk()
        )


class TestAutoIndexer:
    def warm(self, queries: list[str]) -> AgentFirstDataSystem:
        system = make_system(True, workers=1)
        for sql in queries:
            system.submit(Probe(queries=(sql,), brief=Brief(goal="exact")))
        return system

    def test_equality_demand_builds_planner_invisible_hash_index(self):
        system = self.warm([EQ_FILTER.format(k=1 + i % 4) for i in range(4)])
        report = system.maintenance.run_pending()
        assert ("sales", "store_id", "hash") in report.indexes_built
        catalog = system.db.catalog
        # Planner-invisible: plans (and their fingerprints) are unchanged.
        assert catalog.hash_index("sales", "store_id") is None
        plan = system.db.plan_select(EQ_FILTER.format(k=2))
        assert not any(isinstance(n, logical.IndexScan) for n in plan.walk())
        # Executor-visible: the execution-time rewrite uses it.
        rewritten = system.maintenance.rewrite_for_execution(plan)
        assert any(
            isinstance(n, logical.IndexScan) and n.row_id_order
            for n in rewritten.walk()
        )

    def test_range_demand_builds_sorted_index_preserving_row_order(self):
        system = self.warm([RANGE_ROWS.format(t=float(t)) for t in range(2, 6)])
        report = system.maintenance.run_pending()
        assert ("sales", "amount", "sorted") in report.indexes_built
        plan = system.db.plan_select(RANGE_ROWS.format(t=4.0))
        rewritten = system.maintenance.rewrite_for_execution(plan)
        assert any(
            isinstance(n, logical.IndexScan) and not n.is_equality and n.row_id_order
            for n in rewritten.walk()
        )
        from repro.engine.executor import ExecContext, Executor

        catalog = system.db.catalog
        original = Executor(catalog, ExecContext()).run(plan)
        via_index = Executor(catalog, ExecContext()).run(rewritten)
        assert via_index.rows == original.rows  # order included
        assert via_index.stats.rows_processed < original.stats.rows_processed

    def test_direct_table_mutation_disables_stale_auxiliary_index(self):
        system = self.warm([EQ_FILTER.format(k=1) for _ in range(3)])
        system.maintenance.run_pending()
        catalog = system.db.catalog
        assert catalog.auxiliary_hash_index("sales", "store_id") is not None
        catalog.table("sales").insert((9004, 1, "tea", 2.0))  # bypasses catalog
        assert catalog.auxiliary_hash_index("sales", "store_id") is None
        plan = system.db.plan_select(EQ_FILTER.format(k=1))
        rewritten = system.maintenance.rewrite_for_execution(plan)
        assert not any(isinstance(n, logical.IndexScan) for n in rewritten.walk())

    def test_stale_index_at_execution_time_degrades_to_scan_not_error(self):
        """A direct table mutation landing *between* rewrite and execution
        must cost speed, never an answer: the rewritten IndexScan falls
        back to the equivalent predicate scan over current data."""
        # Distinct literals: enough demand to mine the columns, but no
        # single query hot enough to become a whole-plan view (which
        # would, correctly, win the rewrite over the index).
        system = self.warm(
            [EQ_FILTER.format(k=1 + i % 4) for i in range(4)]
            + [RANGE_ROWS.format(t=float(t)) for t in range(2, 6)]
        )
        system.maintenance.run_pending()
        catalog = system.db.catalog
        eq_plan = system.db.plan_select(EQ_FILTER.format(k=7))
        range_plan = system.db.plan_select(RANGE_ROWS.format(t=9.0))
        eq_rewritten = system.maintenance.rewrite_for_execution(eq_plan)
        range_rewritten = system.maintenance.rewrite_for_execution(range_plan)
        assert any(isinstance(n, logical.IndexScan) for n in eq_rewritten.walk())
        catalog.table("sales").insert((9104, 1, "tea", 2.5))  # bypasses catalog
        from repro.engine.executor import ExecContext, Executor

        for rewritten, original in ((eq_rewritten, eq_plan), (range_rewritten, range_plan)):
            degraded = Executor(catalog, ExecContext()).run(rewritten)
            fresh = Executor(catalog, ExecContext()).run(original)
            assert degraded.rows == fresh.rows  # current data, order included

    def test_type_mismatched_literals_never_rewritten(self):
        """compare_values raises on TEXT-vs-number (status 'error'
        maintenance-off), while an index lookup would silently answer
        empty — so the rewrite must refuse mis-typed literals and keep
        the statuses byte-identical."""
        on = self.warm([EQ_FILTER.format(k=1) for _ in range(3)])
        on.maintenance.run_pending()
        assert ("sales", "store_id", "hash") in on.db.catalog.auxiliary_index_keys()
        off = make_system(False, workers=1)
        bad_probes = [
            Probe(queries=("SELECT COUNT(*) FROM sales WHERE store_id = 'oops'",)),
            Probe(queries=("SELECT id FROM sales WHERE store_id = 'oops'",)),
        ]
        for probe in bad_probes:
            got, expected = on.submit(probe), off.submit(probe)
            assert got.outcomes[0].status == expected.outcomes[0].status == "error"
            assert got.outcomes[0].reason == expected.outcomes[0].reason
        # ...and the rewrite itself refuses (no IndexScan substituted).
        plan = on.db.plan_select("SELECT id FROM sales WHERE store_id = 'oops'")
        rewritten = on.maintenance.rewrite_for_execution(plan)
        assert not any(isinstance(n, logical.IndexScan) for n in rewritten.walk())

    def test_equality_served_via_auxiliary_sorted_index(self):
        """A column with only a sorted auxiliary index still accelerates
        equality predicates (the branch the planner's rewrite has)."""
        system = self.warm([RANGE_ROWS.format(t=float(t)) for t in range(2, 6)])
        system.maintenance.run_pending()
        assert ("sales", "amount", "sorted") in system.db.catalog.auxiliary_index_keys()
        plan = system.db.plan_select("SELECT id FROM sales WHERE amount = 4.0")
        rewritten = system.maintenance.rewrite_for_execution(plan)
        scans = [n for n in rewritten.walk() if isinstance(n, logical.IndexScan)]
        assert scans and not scans[0].is_equality and scans[0].row_id_order
        from repro.engine.executor import ExecContext, Executor

        catalog = system.db.catalog
        assert (
            Executor(catalog, ExecContext()).run(rewritten).rows
            == Executor(catalog, ExecContext()).run(plan).rows
        )

    def test_tiny_tables_are_never_indexed(self):
        system = make_system(True, workers=1)
        system.config.maintenance.index_min_rows = 10_000
        system.maintenance.config.index_min_rows = 10_000
        for _ in range(4):
            system.submit(Probe(queries=(EQ_FILTER.format(k=1),)))
        report = system.maintenance.run_pending()
        assert not report.indexes_built


class TestStatsRefresh:
    def test_write_burst_queues_stats_refresh(self):
        system = make_system(True, workers=1)
        system.db.execute("INSERT INTO sales VALUES (9005, 1, 'tea', 3.0)")
        report = system.maintenance.run_pending()
        assert "sales" in report.stats_refreshed
        # The refreshed stats are memoized on the table's current state:
        # the next cost estimate pays nothing.
        catalog = system.db.catalog
        recomputes = catalog.storage_counters.stats_recomputes
        stats = catalog.stats("sales")
        assert catalog.storage_counters.stats_recomputes == recomputes
        assert stats.row_count == catalog.table("sales").num_rows


class TestSuggestionsApi:
    def test_deduped_sorted_and_flagged(self):
        system = make_system(True, workers=1)
        for _ in range(3):
            system.submit(Probe(queries=(JOIN, EQ_FILTER.format(k=1))))
        suggestions = system.materialization_suggestions()
        fingerprints_seen = [s.fingerprint for s in suggestions]
        assert len(fingerprints_seen) == len(set(fingerprints_seen))
        ranks = [(s.count, s.size) for s in suggestions]
        assert ranks == sorted(ranks, reverse=True)
        assert not any(s.materialized for s in suggestions)
        system.maintenance.run_pending()
        refreshed = system.materialization_suggestions()
        assert any(s.materialized for s in refreshed)
        # Positional access stays compatible: [1] is still the count.
        assert refreshed[0][1] == refreshed[0].count

    def test_disabled_runtime_flags_nothing_and_does_nothing(self):
        system = make_system(False, workers=1)
        for _ in range(3):
            system.submit(Probe(queries=(JOIN,)))
        assert system.optimizer.execution_rewriter is None
        assert not system.maintenance.run_pending().did_work()
        assert not any(s.materialized for s in system.materialization_suggestions())


class TestSteeringNotes:
    def test_view_and_index_notes_attached_to_responses(self):
        system = make_system(True, workers=1)
        for _ in range(3):
            system.submit(
                Probe(queries=(JOIN, EQ_FILTER.format(k=1)), brief=Brief(goal="exact"))
            )
        system.maintenance.run_pending()
        # Writes drop history so the next probe really executes...
        system.db.execute("INSERT INTO sales VALUES (9006, 1, 'tea', 4.0)")
        system.maintenance.run_pending()  # ...and rebuilds the views
        # A fresh literal (k=2): not hot enough to be a view itself, so it
        # is truthfully credited to the auto-built index, while the hot
        # join is credited to its materialized view.
        response = system.submit(
            Probe(queries=(JOIN, EQ_FILTER.format(k=2)), brief=Brief(goal="exact"))
        )
        assert any("materialized view" in hint for hint in response.steering)
        assert any("auto-built hash index" in hint for hint in response.steering)

    def test_no_notes_when_disabled(self):
        system = make_system(False, workers=1)
        for _ in range(3):
            system.submit(Probe(queries=(JOIN,), brief=Brief(goal="exact")))
        response = system.submit(Probe(queries=(JOIN,), brief=Brief(goal="exact")))
        assert not any("sleeper agent" in hint for hint in response.steering)


class TestIdleScheduling:
    def test_gateway_idle_window_triggers_background_maintenance(self):
        system = make_system(True, workers=1)
        try:
            session = system.session(agent_id="streamer")
            for _ in range(3):
                session.submit(Probe(queries=(JOIN,))).result(timeout=30.0)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not system.maintenance.views_built:
                time.sleep(0.02)
            assert system.maintenance.views_built > 0
            assert system.maintenance.idle_notifications > 0
        finally:
            system.close()

    def test_preemption_yields_to_pending_probes(self, monkeypatch):
        system = make_system(True, workers=1)
        for _ in range(3):
            system.submit(Probe(queries=(JOIN,)))
        monkeypatch.setattr(system.gateway, "serving_demand", lambda: 1)
        report = system.maintenance.run_pending(preemptible=True)
        assert report.preempted
        assert not report.did_work()
        # One preemption event counts exactly once in the observability.
        assert system.maintenance.preemptions == 1
        # The synchronous form still runs to completion.
        monkeypatch.setattr(system.gateway, "serving_demand", lambda: 0)
        assert system.maintenance.run_pending().did_work()

    def test_serving_demand_sees_direct_windows_not_just_admission_queue(self):
        """Direct submit/submit_many windows never enter the admission
        queue — they block straight on the serve lock. The preemption
        signal must count them, or a background pass would run to
        completion while a probe waits."""
        system = make_system(True, workers=1)
        gateway = system.gateway
        assert gateway.serving_demand() == 0
        observed = []
        with gateway.serve_lock:  # play the maintenance runtime
            waiter = __import__("threading").Thread(
                target=lambda: system.submit(Probe(queries=(EQ_FILTER.format(k=1),)))
            )
            waiter.start()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and gateway.serving_demand() == 0:
                time.sleep(0.005)
            observed.append(gateway.serving_demand())
        waiter.join(timeout=30.0)
        assert observed and observed[0] > 0
        assert gateway.serving_demand() == 0

    def test_stop_sticks_across_later_idle_notifications(self):
        system = make_system(True, workers=1)
        system.maintenance.notify_idle()
        system.maintenance.stop()
        thread = system.maintenance._thread
        assert thread is None or not thread.is_alive()
        system.maintenance.notify_idle()  # must NOT resurrect the loop
        thread = system.maintenance._thread
        assert thread is None or not thread.is_alive()
        # The synchronous surface stays available after stop.
        for _ in range(3):
            system.submit(Probe(queries=(JOIN,)))
        assert system.maintenance.run_pending().did_work()

    def test_no_match_rewrites_preserve_plan_identity(self):
        """When no artifact matches, the rewrite must hand back the same
        node objects — rebuilding the tree would strip the fingerprint
        memos and re-tax every execution's cache keying."""
        system = make_system(True, workers=1)
        for _ in range(3):
            system.submit(Probe(queries=(EQ_FILTER.format(k=1),)))
        system.maintenance.run_pending()
        assert system.db.catalog.auxiliary_index_keys()
        untouched = system.db.plan_select("SELECT city FROM stores")
        assert system.maintenance.rewrite_for_execution(untouched) is untouched

    def test_budget_exhaustion_does_not_spin_the_idle_loop(self):
        """With every view slot held by a valid hotter view, _has_work must
        go quiet — not retry the excess candidates every idle window."""
        system = AgentFirstDataSystem(
            build_db(),
            config=SystemConfig(
                enable_maintenance=True,
                maintenance=maintenance_config(max_views=1, auto_index=False),
            ),
            workers=1,
        )
        for _ in range(3):
            system.submit(Probe(queries=(JOIN, EQ_FILTER.format(k=1))))
        first = system.maintenance.run_pending()
        assert len(first.views_built) == 1  # the one slot filled
        assert not system.maintenance.run_pending().did_work()
        assert not system.maintenance._has_work()  # idle loop stays asleep

    def test_cannot_displace_candidates_skipped_before_building(self, monkeypatch):
        """A candidate the store would refuse (not strictly hotter than
        the coldest installed view) must be skipped *before* the subplan
        executes — not rebuilt and discarded every idle window."""
        from repro.core.mqo import MaterializationCandidate

        system = AgentFirstDataSystem(
            build_db(),
            config=SystemConfig(
                enable_maintenance=True,
                maintenance=maintenance_config(max_views=1, auto_index=False),
            ),
            workers=1,
        )
        for _ in range(3):
            system.submit(Probe(queries=(JOIN,)))
        assert len(system.maintenance.run_pending().views_built) == 1
        installed = system.maintenance.views.snapshot()[0]
        fake = MaterializationCandidate(
            fingerprint="f" * 40,
            strict_fingerprint="s" * 40,
            count=installed.occurrences,  # equal, never strictly hotter
            size=999,  # ranks first, so the generator must skip it itself
            description="fake",
            plan=system.db.plan_select(EQ_FILTER.format(k=1)),
        )
        real_candidates = system.optimizer.advisor.candidates
        monkeypatch.setattr(
            system.optimizer.advisor,
            "candidates",
            lambda *a, **k: [fake] + real_candidates(*a, **k),
        )
        builds = []
        original = system.maintenance._execute_subplan
        monkeypatch.setattr(
            system.maintenance,
            "_execute_subplan",
            lambda plan: builds.append(plan) or original(plan),
        )
        assert not system.maintenance.run_pending().did_work()
        assert not builds  # skipped pre-build
        assert not system.maintenance._has_work()

    def test_doomed_candidates_are_deferred_not_retried(self, monkeypatch):
        """A candidate whose build can never install (or never build at
        all) is deferred until demand grows past the failed attempt —
        otherwise every idle window would re-execute the doomed subplan."""
        system = make_system(True, workers=1)
        for _ in range(3):
            system.submit(Probe(queries=(JOIN,)))
        monkeypatch.setattr(system.maintenance.views, "install", lambda view: False)
        report = system.maintenance.run_pending()
        assert not report.views_built
        assert system.maintenance._deferred_views  # recorded at this demand
        assert not system.maintenance.run_pending().did_work()
        assert not system.maintenance._has_work()

    def test_view_swallowed_predicate_not_credited_to_index(self):
        """Notes must mirror execution: a Filter served from inside a
        materialized view never gets an 'auto-built index' hint."""
        hot = RANGE_ROWS.format(t=2.0)
        system = make_system(True, workers=1)
        for _ in range(3):
            system.submit(Probe(queries=(hot,), brief=Brief(goal="exact")))
        system.maintenance.run_pending()
        plan = system.db.plan_select(hot)
        rewritten = system.maintenance.rewrite_for_execution(plan)
        assert isinstance(rewritten, logical.ViewScan)  # view wins the root
        notes = system.maintenance.serving_notes(plan)
        assert any("materialized view" in note for note in notes)
        assert not any("auto-built" in note for note in notes)

    def test_env_override_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAINTENANCE", raising=False)
        assert resolve_maintenance_enabled(None) is False
        assert resolve_maintenance_enabled(True) is True
        monkeypatch.setenv("REPRO_MAINTENANCE", "1")
        assert resolve_maintenance_enabled(None) is True
        assert resolve_maintenance_enabled(False) is False
        system = AgentFirstDataSystem(build_db(rows=10))
        assert system.maintenance.enabled
        assert system.optimizer.execution_rewriter is not None


class TestRuntimeRobustness:
    def test_rewriter_failure_falls_back_to_original_plan(self, monkeypatch):
        system = make_system(True, workers=1)
        for _ in range(3):
            system.submit(Probe(queries=(JOIN,)))
        system.maintenance.run_pending()
        plan = system.db.plan_select(JOIN)

        def boom(node, catalog):
            raise RuntimeError("sick view store")

        monkeypatch.setattr(system.maintenance.views, "resolve", boom)
        assert system.maintenance.rewrite_for_execution(plan) is plan
        # Serving still answers correctly through the fallback.
        response = system.submit(Probe(queries=(JOIN,)))
        assert response.outcomes[0].status in ("ok", "from_history")

    def test_racing_write_discards_torn_view_build(self):
        system = make_system(True, workers=1)
        for _ in range(3):
            system.submit(Probe(queries=(JOIN,)))
        runtime: MaintenanceRuntime = system.maintenance
        original = runtime._execute_subplan

        def racing(plan):
            rows = original(plan)
            system.db.catalog.table("sales").insert((9007, 1, "tea", 5.0))
            return rows

        runtime._execute_subplan = racing  # type: ignore[method-assign]
        report = runtime.run_pending()
        assert not report.views_built  # every build raced a write: discarded


class TestIdleHookHardening:
    def test_poison_idle_job_never_kills_admission(self, caplog):
        """A maintenance job that raises inside the gateway's idle window
        must not take the admission loop down with it: the gateway logs,
        counts, and keeps serving every subsequent probe."""
        system = make_system(True, workers=1)
        try:
            calls = {"n": 0}

            def poison() -> None:
                calls["n"] += 1
                raise RuntimeError("poison maintenance job")

            system.gateway.idle_hook = poison
            session = system.session(agent_id="streamer")
            with caplog.at_level("ERROR", logger="repro.core.gateway"):
                for _ in range(3):
                    response = session.submit(
                        Probe(queries=(JOIN,))
                    ).result(timeout=30.0)
                    assert response.outcomes[0].status in ("ok", "from_history")
            assert calls["n"] >= 1  # the hook did fire — and failed
            stats = system.gateway.stats()
            assert stats["idle_hook_errors"] >= 1
            assert "RuntimeError: poison maintenance job" == stats[
                "last_idle_hook_error"
            ]
            assert any(
                "idle hook failed" in record.message for record in caplog.records
            )
        finally:
            system.close()

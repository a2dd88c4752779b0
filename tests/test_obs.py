"""Observability layer tests: traces, metrics, slow log, differential.

Three contracts pinned here:

* **answers never change** — tracing on vs off is byte-identical on
  rows, statuses, steering, and ``stats()`` keys, at worker counts 1
  and 8, and equal to the row and columnar executors run directly on
  the same plans;
* **completeness** — every traced served probe's tree carries a gateway
  span, a scheduler span, and at least one engine span (``node:*`` /
  ``engine:*``), including speculated units and the cross-shard
  scatter fan-out;
* **compatibility** — the migrated ``stats()`` dicts keep their exact
  keys and values while ``system.metrics()`` exposes the same counters
  as one registry with JSON and Prometheus renderers.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.core import AgentFirstDataSystem, Brief, Probe, SystemConfig
from repro.core.gateway import merge_brief
from repro.engine.columnar import ColumnarExecutor
from repro.engine.executor import ExecContext, Executor
from repro.obs import trace as obs_trace
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricAttr,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.slowlog import SlowProbeEntry, SlowProbeLog, resolve_slow_probe_ms
from repro.obs.trace import (
    Span,
    Trace,
    child_span,
    current_span,
    ensure_probe_trace,
    probe_trace,
    resolve_trace_enabled,
    trace_wanted,
    use_span,
)
from repro.qos import QosConfig
from repro.shard import ShardedSystem
from test_scheduler import (
    SHARED_JOIN,
    assert_same_outcomes,
    build_db,
    overlapping_probes,
)
from test_shard import PARTITION, build_tenant_db

# The row engine is the oracle; the columnar one serves.
REFERENCE_ENGINES = {"row": Executor, "columnar": ColumnarExecutor}


@pytest.fixture(autouse=True)
def _no_ambient_trace_env(monkeypatch):
    """Tests control tracing explicitly; CI's REPRO_TRACE leg must not
    flip the untraced halves of the differentials below."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_SLOW_PROBE_MS", raising=False)


def traced_probes(n: int) -> list[Probe]:
    """The scheduler corpus, opted into tracing probe-by-probe."""
    probes = []
    for agent in range(n):
        probes.append(
            Probe(
                queries=(
                    SHARED_JOIN,
                    f"SELECT COUNT(*) FROM sales WHERE store_id = {1 + agent % 2}",
                ),
                brief=Brief(goal="compute the exact answer", trace=True),
                agent_id=f"agent-{agent}",
            )
        )
    return probes


def span_names(trace: Trace) -> list[str]:
    return [span.name for span in trace.spans()]


def assert_complete(trace: Trace) -> None:
    """The 100%-completeness predicate ``bench_obs`` also asserts."""
    names = span_names(trace)
    assert any(n.startswith("gateway:") for n in names), names
    assert any(n.startswith("scheduler:") for n in names), names
    assert any(n.startswith(("node:", "engine:")) for n in names), names


# -- span / trace primitives ---------------------------------------------------


class TestSpanPrimitives:
    def test_tree_construction_and_walk_order(self):
        root = Span("probe", start=10.0)
        a = root.child("gateway:queued", start=10.0)
        a.finish(end=10.5)
        b = root.child("scheduler:batch", start=10.5, workers=2)
        b.child("node:Scan", start=10.6).finish(end=10.7)
        b.finish(end=11.0)
        root.finish(end=11.0)
        assert [s.name for s in root.walk()] == [
            "probe",
            "gateway:queued",
            "scheduler:batch",
            "node:Scan",
        ]
        assert b.attrs == {"workers": 2}
        assert root.find("node:") == [b.children[0]]
        assert a.duration_ms == pytest.approx(500.0)

    def test_finish_is_idempotent(self):
        span = Span("probe", start=0.0)
        span.finish(end=1.0)
        span.finish(end=99.0)  # second finish must not move the end
        assert span.end == 1.0

    def test_note_merges_attrs(self):
        span = Span("x")
        span.note(rows=3).note(cache="hit")
        assert span.attrs == {"rows": 3, "cache": "hit"}

    def test_to_dict_round_trips_structure(self):
        root = Span("probe", start=0.0)
        root.child("node:Scan", start=0.1, rows=9).finish(end=0.2)
        root.finish(end=0.3)
        payload = root.to_dict()
        assert payload["name"] == "probe"
        assert payload["children"][0]["attrs"] == {"rows": 9}
        assert payload["children"][0]["duration_ms"] == pytest.approx(100.0)


class TestChromeExport:
    def build(self) -> Trace:
        trace = Trace(agent_id="a-1")
        trace.root.start = 5.0
        child = trace.root.child("node:Scan", start=5.001, rows=10)
        child.finish(end=5.002)
        trace.root.finish(end=5.010)
        return trace

    def test_complete_events_relative_microseconds(self):
        chrome = self.build().to_chrome()
        assert chrome["displayTimeUnit"] == "ms"
        events = chrome["traceEvents"]
        assert [e["name"] for e in events] == ["probe", "node:Scan"]
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == 1 and event["tid"] == 1
        # Timestamps are µs relative to the trace origin.
        assert events[0]["ts"] == pytest.approx(0.0)
        assert events[0]["dur"] == pytest.approx(10_000.0)
        assert events[1]["ts"] == pytest.approx(1_000.0)
        assert events[1]["dur"] == pytest.approx(1_000.0)
        assert events[1]["args"] == {"rows": 10}

    def test_json_export_is_loadable(self):
        parsed = json.loads(self.build().to_chrome_json())
        assert parsed["traceEvents"][0]["args"] == {"agent_id": "a-1"}

    def test_unfinished_span_exports_zero_duration(self):
        trace = Trace()
        trace.root.child("node:Scan")  # never finished
        events = trace.to_chrome()["traceEvents"]
        assert events[1]["dur"] == 0.0


class TestAmbientContext:
    def test_default_is_none(self):
        assert current_span() is None

    def test_use_span_sets_and_restores(self):
        span = Span("probe")
        with use_span(span) as active:
            assert active is span
            assert current_span() is span
        assert current_span() is None

    def test_use_span_none_is_a_no_op(self):
        with use_span(None) as active:
            assert active is None
            assert current_span() is None

    def test_child_span_without_ambient_yields_none(self):
        with child_span("node:Scan") as span:
            assert span is None

    def test_child_span_nests_and_finishes(self):
        root = Span("probe")
        with use_span(root):
            with child_span("node:Scan", rows=3) as span:
                assert current_span() is span
            assert span.end is not None
            assert span.attrs == {"rows": 3}
        assert root.children == [span]

    def test_disabled_short_circuits(self, monkeypatch):
        root = Span("probe")
        with use_span(root):
            monkeypatch.setattr(obs_trace, "DISABLED", True)
            assert current_span() is None
            with child_span("node:Scan") as span:
                assert span is None
        assert root.children == []


class TestTraceWanted:
    def test_env_off_by_default(self):
        assert resolve_trace_enabled() is False
        assert trace_wanted(Brief()) is False

    def test_repro_trace_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert resolve_trace_enabled() is True
        assert trace_wanted(Brief()) is True
        assert trace_wanted(None) is True

    def test_slow_probe_threshold_implies_tracing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_PROBE_MS", "5")
        assert resolve_trace_enabled() is True

    def test_explicit_brief_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert trace_wanted(Brief(trace=False)) is False
        monkeypatch.delenv("REPRO_TRACE")
        assert trace_wanted(Brief(trace=True)) is True

    def test_disabled_beats_everything(self, monkeypatch):
        monkeypatch.setattr(obs_trace, "DISABLED", True)
        assert trace_wanted(Brief(trace=True)) is False

    def test_ensure_probe_trace_creates_once(self):
        probe = Probe(queries=("SELECT 1",), brief=Brief(trace=True))
        assert probe_trace(probe) is None  # never creates
        trace = ensure_probe_trace(probe)
        assert trace is not None
        assert trace.root.attrs["agent_id"] == probe.agent_id
        assert ensure_probe_trace(probe) is trace  # idempotent
        assert probe_trace(probe) is trace

    def test_ensure_probe_trace_respects_opt_out(self):
        probe = Probe(queries=("SELECT 1",), brief=Brief())
        assert ensure_probe_trace(probe) is None


# -- metrics primitives --------------------------------------------------------


class TestMetricsPrimitives:
    def test_counter_inc_and_labels(self):
        counter = Counter("hits_total", labelnames=("lane",))
        counter.inc(lane="bulk")
        counter.inc(2, lane="bulk")
        counter.inc(lane="interactive")
        assert counter.value(lane="bulk") == 3
        assert counter.value(lane="interactive") == 1
        assert counter.value(lane="never-touched") == 0

    def test_label_mismatch_rejected(self):
        counter = Counter("hits_total", labelnames=("lane",))
        with pytest.raises(ValueError, match="hits_total"):
            counter.inc()
        with pytest.raises(ValueError, match="declared"):
            counter.inc(shard="0")

    def test_gauge_goes_down(self):
        gauge = Gauge("depth")
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value() == 3
        gauge.set(0)
        assert gauge.value() == 0

    def test_histogram_cumulative_buckets(self):
        hist = Histogram("lat_ms", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 5.0, 50.0, 5_000.0):
            hist.observe(value)
        snap = hist.value()
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(5_060.5)
        # Buckets are cumulative (Prometheus semantics); +Inf is implied
        # by count.
        assert snap["buckets"] == {1.0: 1, 10.0: 3, 100.0: 4}

    def test_empty_histogram_value(self):
        hist = Histogram("lat_ms", buckets=(1.0,))
        assert hist.value() == {"count": 0, "sum": 0.0, "buckets": {}}

    def test_bound_instrument_pins_labels(self):
        counter = Counter("hits_total", labelnames=("lane",))
        bound = counter.bind(lane="bulk")
        bound.inc()
        bound.inc(4)
        assert bound.value() == 5
        assert counter.value(lane="bulk") == 5

    def test_metric_attr_shim_reads_and_writes(self):
        registry = MetricsRegistry()

        class Component:
            windows = MetricAttr("_m_windows")

            def __init__(self) -> None:
                self._m_windows = registry.counter("windows_total").bind()
                self.windows = 0

        component = Component()
        component.windows += 1
        component.windows += 1
        assert component.windows == 2
        assert registry.counter("windows_total").value() == 2


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total", "help text")
        assert registry.counter("a_total") is first

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("a_total")
        registry.gauge("b")
        with pytest.raises(ValueError, match="already registered as gauge"):
            registry.histogram("b")

    def test_collectors_run_at_snapshot_time(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("live_depth")
        live = {"depth": 7}
        registry.add_collector(lambda: gauge.set(live["depth"]))
        assert registry.snapshot().get("live_depth") == 7
        live["depth"] = 3
        assert registry.snapshot().get("live_depth") == 3

    def test_snapshot_get_and_names(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", labelnames=("lane",)).inc(lane="bulk")
        registry.counter("misses_total").inc(9)
        snap = registry.snapshot()
        assert snap.names() == ["hits_total", "misses_total"]
        assert snap.get("hits_total", lane="bulk") == 1
        assert snap.get("hits_total", lane="other") is None
        assert snap.get("misses_total") == 9
        assert snap.get("absent") is None
        assert json.loads(snap.to_json())["misses_total"]["series"][0]["value"] == 9


class TestPrometheusText:
    def test_counter_and_gauge_rendering(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "Cache hits.", labelnames=("lane",)).inc(
            lane="bulk"
        )
        registry.gauge("depth").set(4)
        text = registry.snapshot().to_prometheus_text()
        assert "# HELP hits_total Cache hits." in text
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{lane="bulk"} 1' in text
        assert "# TYPE depth gauge" in text
        assert "depth 4" in text
        assert text.endswith("\n")

    def test_histogram_rendering(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_ms", "Latency.", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(500.0)
        text = registry.snapshot().to_prometheus_text()
        assert 'lat_ms_bucket{le="1"} 1' in text
        assert 'lat_ms_bucket{le="10"} 2' in text
        assert 'lat_ms_bucket{le="+Inf"} 3' in text
        assert "lat_ms_sum 505.5" in text
        assert "lat_ms_count 3" in text

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", labelnames=("q",)).inc(q='say "hi"\n')
        text = registry.snapshot().to_prometheus_text()
        assert 'odd_total{q="say \\"hi\\"\\n"} 1' in text

    def test_merge_snapshots_adds_shard_label(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("hits_total").inc(2)
        right.counter("hits_total").inc(5)
        merged = merge_snapshots({"0": left.snapshot(), "router": right.snapshot()})
        assert merged.get("hits_total", shard="0") == 2
        assert merged.get("hits_total", shard="router") == 5
        assert merged.get("hits_total") is None  # unlabeled series is gone


# -- end-to-end traces through the serving stack -------------------------------


class TestEndToEndTrace:
    def test_untraced_probe_has_no_trace(self):
        system = AgentFirstDataSystem(build_db())
        response = system.submit(overlapping_probes(1)[0])
        assert response.trace is None

    def test_traced_probe_carries_finished_trace(self):
        system = AgentFirstDataSystem(build_db())
        response = system.submit(traced_probes(1)[0])
        trace = response.trace
        assert trace is not None and trace.finished
        assert trace.root.attrs["agent_id"] == "agent-0"
        assert_complete(trace)
        names = span_names(trace)
        assert "gateway:window" in names
        assert "scheduler:batch" in names
        # Engine node spans carry row counts.
        node = trace.find("node:")[0]
        assert node.attrs["rows_out"] >= 0
        # The export carries every span.
        assert len(trace.to_chrome()["traceEvents"]) == len(names)

    def test_streamed_probe_trace_has_queue_and_classify_spans(self):
        system = AgentFirstDataSystem(
            build_db(),
            config=SystemConfig(enable_qos=True, gateway_max_batch=4),
            workers=1,
        )
        probes = traced_probes(4)
        tickets = [system.gateway.submit(p) for p in probes]
        system.gateway.flush()
        responses = [t.result(timeout=60.0) for t in tickets]
        system.gateway.close()
        for response in responses:
            trace = response.trace
            assert trace is not None and trace.finished
            assert_complete(trace)
            (queued,) = trace.find("gateway:queued")
            assert queued.end is not None
            assert queued.attrs["window_size"] >= 1
            assert "formation_ms" in queued.attrs
            (classify,) = trace.find("qos:classify")
            assert classify.attrs["lane"] == "standard"

    def test_every_probe_in_traced_batch_is_complete(self):
        system = AgentFirstDataSystem(build_db(), workers=8)
        responses = system.submit_many(traced_probes(8))
        assert len(responses) == 8
        for response in responses:
            assert response.trace is not None
            assert_complete(response.trace)

    def test_speculation_unit_spans_hold_engine_work(self):
        """Speculated engine work nests under its unit span (recorded on a
        pool thread); the decision consuming it gets a provenance marker."""
        system = AgentFirstDataSystem(build_db(), workers=8)
        responses = system.submit_many(traced_probes(8))
        units = [
            span
            for response in responses
            for span in response.trace.find("speculate:unit")
        ]
        assert units
        assert all(unit.find("node:") for unit in units)
        shared = [
            span
            for response in responses
            for span in response.trace.find("engine:shared")
        ]
        assert shared
        assert all(span.attrs["source"] == "speculation" for span in shared)

    def test_node_latency_histogram_populated_by_traced_runs(self):
        system = AgentFirstDataSystem(build_db())
        system.submit(traced_probes(1)[0])
        series = system.metrics().get("repro_engine_node_latency_ms", node="Scan")
        assert series is not None and series["count"] >= 1


class TestQosTraceSpans:
    def test_degraded_probe_trace_carries_shed_verdict(self):
        system = AgentFirstDataSystem(
            build_db(),
            config=SystemConfig(
                enable_qos=True,
                qos=QosConfig(queue_high=4, shed_sample_rate=0.1),
                gateway_max_batch=64,
                gateway_max_wait=30.0,
            ),
            workers=1,
        )
        probes = [
            Probe(
                queries=("SELECT product FROM sales WHERE amount > 1.0",),
                brief=Brief(lane="bulk", trace=True),
                agent_id=f"bulk-{i}",
            )
            for i in range(8)
        ]
        tickets = [system.gateway.submit(p) for p in probes]
        system.gateway.flush()
        responses = [t.result(timeout=60.0) for t in tickets]
        system.gateway.close()
        assert system.gateway.probes_degraded == len(probes)
        for response in responses:
            assert response.outcomes[0].status == "approximate"
            (shed,) = response.trace.find("qos:shed")
            assert shed.attrs["kind"] == "sample"
            assert shed.attrs["cause"]  # names the crossed watermark
            assert shed.attrs["sample_cap"] == pytest.approx(0.1)
            (classify,) = response.trace.find("qos:classify")
            assert classify.attrs["lane"] == "bulk"


class TestScatterTrace:
    def test_cross_shard_probe_shows_fanout_and_merge(self):
        sharded = ShardedSystem(build_tenant_db(), shards=2, partition=PARTITION)
        try:
            response = sharded.submit(
                Probe(
                    queries=("SELECT COUNT(*), SUM(qty) FROM sales",),
                    brief=Brief(trace=True),
                    agent_id="scatterer",
                )
            )
            trace = response.trace
            assert trace is not None and trace.finished
            (fanout,) = trace.find("scatter:fanout")
            assert fanout.attrs["shards"] == 2
            assert trace.find("scatter:merge")
            shard_spans = trace.find("scatter:shard")
            assert len(shard_spans) == 2
            for shard_span in shard_spans:
                # Each fan-out leg carries the shard's full probe subtree.
                assert shard_span.find("node:") or shard_span.find("engine:")
        finally:
            sharded.close()

    def test_single_shard_passthrough_trace_is_ordinary(self):
        sharded = ShardedSystem(build_tenant_db(), shards=1)
        try:
            response = sharded.submit(
                Probe(
                    queries=("SELECT COUNT(*) FROM sales",),
                    brief=Brief(trace=True),
                )
            )
            assert response.trace is not None
            assert not response.trace.find("scatter:")
            assert_complete(response.trace)
        finally:
            sharded.close()


# -- the differential: tracing must never change answers -----------------------


class TestTracingDifferential:
    @pytest.mark.parametrize("workers", [1, 8])
    @pytest.mark.parametrize("engine", ["row", "columnar"])
    def test_traced_matches_untraced(self, workers, engine):
        """``engine`` names the reference executor the traced answers are
        also checked against, run directly on the same plans."""
        plain_system = AgentFirstDataSystem(build_db(), workers=workers)
        traced_system = AgentFirstDataSystem(build_db(), workers=workers)
        plain = plain_system.submit_many(overlapping_probes(6))
        traced = traced_system.submit_many(traced_probes(6))
        assert_same_outcomes(plain, traced)
        for plain_response, traced_response in zip(plain, traced):
            assert plain_response.steering == traced_response.steering
            assert plain_response.trace is None
            assert traced_response.trace is not None
        # The migrated stats() surfaces keep identical keys either way.
        assert (
            plain_system.gateway.stats().keys()
            == traced_system.gateway.stats().keys()
        )
        assert (
            plain_system.scheduler.batches_served
            == traced_system.scheduler.batches_served
        )
        assert (
            plain_system.scheduler.queries_dispatched
            == traced_system.scheduler.queries_dispatched
        )
        db = traced_system.db
        reference = REFERENCE_ENGINES[engine]
        exact = [o for r in traced for o in r.outcomes if o.status == "ok"]
        assert exact
        for outcome in exact:
            expected = reference(db.catalog, ExecContext()).run(
                db.plan_select(outcome.sql)
            )
            assert outcome.result.rows == expected.rows, outcome.sql


# -- stats() compatibility and the unified metrics surface ---------------------


class TestMetricsSurface:
    def test_stats_keys_and_registry_agree(self):
        system = AgentFirstDataSystem(build_db())
        system.submit_many(overlapping_probes(4))
        snap = system.metrics()
        gateway_stats = system.gateway.stats()
        assert gateway_stats["windows_direct"] == snap.get(
            "repro_gateway_windows_direct_total"
        )
        assert system.scheduler.batches_served == snap.get(
            "repro_scheduler_batches_served_total"
        )
        assert system.scheduler.queries_dispatched == snap.get(
            "repro_scheduler_queries_dispatched_total"
        )
        # Engine collectors surface the window memos' lifetime tallies.
        assert system.scheduler.memo_hits == snap.get(
            "repro_engine_subplan_cache_hits"
        )
        assert system.scheduler.memo_misses == snap.get(
            "repro_engine_subplan_cache_misses"
        )
        text = snap.to_prometheus_text()
        assert "# TYPE repro_gateway_windows_direct_total counter" in text
        assert "# TYPE repro_engine_subplan_cache_hit_ratio gauge" in text

    def test_kernel_list_path_runs_gauge(self):
        """Scans over mirrored numeric columns stay on numpy; a column
        with a NULL has no mirror, and its kernel run is counted."""
        from repro.engine.columnar import KERNEL_MEMO_STATS

        db = build_db()
        db.execute("CREATE TABLE gaps (id INT, amount FLOAT)")
        db.insert_rows("gaps", [(i, None if i == 7 else i * 0.5) for i in range(50)])
        system = AgentFirstDataSystem(db)
        KERNEL_MEMO_STATS.reset()
        system.submit(
            Probe.sql("SELECT COUNT(*), SUM(amount) FROM sales WHERE amount < 20.5")
        )
        snap = system.metrics()
        assert snap.get("repro_engine_kernel_memo_list_path_runs") == 0
        assert snap.get("repro_engine_kernel_memo_fallbacks") == 0
        system.submit(Probe.sql("SELECT SUM(amount) FROM gaps WHERE amount > 3.0"))
        # Filter and aggregate each read the mirror-less column once.
        assert system.metrics().get("repro_engine_kernel_memo_list_path_runs") == 2

    def test_text_filter_moves_list_path_runs(self):
        """An all-``str`` column compares on its text codes and counts no
        run; a NULL-bearing text column and a column-vs-column comparison
        have no numpy path, and each of their runs is counted."""
        from repro.engine.columnar import KERNEL_MEMO_STATS

        db = build_db()
        db.execute("CREATE TABLE notes (id INT, tag TEXT, alt TEXT)")
        db.insert_rows(
            "notes",
            [(i, None if i == 3 else f"k{i % 4}", f"k{i % 3}") for i in range(30)],
        )
        system = AgentFirstDataSystem(db)
        KERNEL_MEMO_STATS.reset()
        system.submit(Probe.sql("SELECT COUNT(*) FROM sales WHERE product = 'tea'"))
        system.submit(Probe.sql("SELECT COUNT(*) FROM notes WHERE alt = 'k1'"))
        assert system.metrics().get("repro_engine_kernel_memo_list_path_runs") == 0
        system.submit(Probe.sql("SELECT COUNT(*) FROM notes WHERE tag = 'k1'"))
        assert system.metrics().get("repro_engine_kernel_memo_list_path_runs") == 1
        system.submit(Probe.sql("SELECT COUNT(*) FROM notes WHERE tag < alt"))
        assert system.metrics().get("repro_engine_kernel_memo_list_path_runs") == 2

    def test_pinned_text_probes_on_a_shard_count_no_list_path_runs(self):
        """Tenant-pinned probes (``tenant = '…'`` ANDed with numeric
        predicates) filter on one numpy mask built from text codes."""
        from repro.engine.columnar import KERNEL_MEMO_STATS

        sharded = ShardedSystem(build_tenant_db(), shards=2, partition=PARTITION)
        try:
            KERNEL_MEMO_STATS.reset()
            for n, template in enumerate(
                (
                    "SELECT COUNT(*), SUM(amount) FROM sales"
                    " WHERE tenant = 't3' AND qty >= 304 AND qty <> {n}",
                    "SELECT qty, COUNT(*) FROM sales WHERE tenant = 't3'"
                    " AND qty <> {n} GROUP BY qty",
                    "SELECT MIN(amount), MAX(amount) FROM sales"
                    " WHERE tenant = 't3' AND qty <> {n}",
                )
            ):
                sql = template.format(n=300 + n)
                response = sharded.submit(
                    Probe(queries=(sql,), principal="t3", agent_id="pinned")
                )
                (outcome,) = response.outcomes
                assert outcome.status == "ok", sql
                assert outcome.result.rows == build_tenant_db().execute(sql).rows
            assert KERNEL_MEMO_STATS.builds > 0
            snap = sharded.metrics()
            for handle in sharded.shards:
                assert snap.get(
                    "repro_engine_kernel_memo_list_path_runs",
                    shard=str(handle.shard_id),
                ) == 0
        finally:
            sharded.close()

    def test_storage_series_move_once_per_write(self):
        """One write and one probe rebuild one table state's segment and
        statistics, so each storage series moves once; a probe over an
        unchanged state moves none."""
        names = (
            "repro_storage_stats_recomputes_total",
            "repro_storage_stats_recompute_ms_total",
            "repro_storage_segment_builds_total",
        )
        db = build_db()
        db.execute("CREATE TABLE readings (v FLOAT)")
        db.insert_rows("readings", [(i * 0.5,) for i in range(40)])
        system = AgentFirstDataSystem(db)
        sql = "SELECT COUNT(*) FROM readings WHERE v > {lit}"

        def series() -> list:
            snap = system.metrics()
            return [snap.get(name) for name in names]

        system.submit(Probe.sql(sql.format(lit=3.0)))
        before = series()
        system.submit(Probe.sql(sql.format(lit=4.0)))
        assert series() == before
        db.execute("INSERT INTO readings VALUES (99.5)")
        system.submit(Probe.sql(sql.format(lit=5.0)))
        recomputes, recompute_ms, builds = series()
        assert recomputes == before[0] + 1
        assert recompute_ms > before[1]
        assert builds == before[2] + 1

    def test_grounding_memo_series_count_repeated_lookups(self):
        """A repeated phrase and goal against unchanged data are answered
        from the semantic and recall memos; a write rebuilds the semantic
        index, so the phrase's next search ranks again."""
        names = (
            "repro_semantic_search_memo_hits_total",
            "repro_semantic_search_memo_misses_total",
            "repro_memstore_recall_memo_hits_total",
            "repro_memstore_recall_memo_misses_total",
        )
        db = build_db()
        system = AgentFirstDataSystem(db)
        probe = Probe(
            queries=("SELECT COUNT(*) FROM sales",),
            semantic_search="sales region",
            brief=Brief(goal="sales totals"),
        )

        def series() -> list:
            snap = system.metrics()
            return [snap.get(name) for name in names]

        system.submit(probe)  # executes, and remembers its answer
        system.submit(probe)  # from history: remembers nothing
        before = series()
        system.submit(probe)
        assert series() == [before[0] + 1, before[1], before[2] + 1, before[3]]
        db.execute("CREATE TABLE regions (id INT, name TEXT)")
        system.submit(probe)
        after = series()
        assert after[:2] == [before[0] + 1, before[1] + 1]

    def test_template_series_count_binds_misses_and_unliftable_parses(self):
        """The statement-template counters are process-wide: a repeated
        shape with a new literal is a hit, and a shape the parser folds
        (``-n``) is parsed in full every time."""
        names = (
            "repro_sql_template_hits_total",
            "repro_sql_template_misses_total",
            "repro_sql_template_unliftable_total",
        )
        system = AgentFirstDataSystem(build_db())

        def series() -> list:
            snap = system.metrics()
            return [snap.get(name) for name in names]

        sql = "SELECT COUNT(*) FROM sales WHERE amount > {lit} AND id <> 424242"
        # The counters are process-wide, so another live system may add to
        # them meanwhile: assert lower bounds.
        system.submit(Probe.sql(sql.format(lit=3.0)))
        before = series()
        system.submit(Probe.sql(sql.format(lit=4.0)))
        assert series()[0] >= before[0] + 1
        folded = "SELECT COUNT(*) FROM sales WHERE amount > -{lit} AND id <> 424242"
        system.submit(Probe.sql(folded.format(lit=3.0)))
        system.submit(Probe.sql(folded.format(lit=4.0)))
        assert series()[2] >= before[2] + 1

    def test_sharded_metrics_report_template_series_once(self):
        sharded = ShardedSystem(build_tenant_db(), shards=2, partition=PARTITION)
        try:
            sharded.submit(Probe.sql("SELECT COUNT(*) FROM sales WHERE qty > 3"))
            snap = sharded.metrics()
            series = snap.as_dict()["repro_sql_template_hits_total"]["series"]
            assert [entry["labels"] for entry in series] == [{"shard": "router"}]
        finally:
            sharded.close()

    def test_sharded_metrics_carry_grounding_memo_series_per_shard(self):
        sharded = ShardedSystem(build_tenant_db(), shards=2, partition=PARTITION)
        try:
            probe = Probe(
                queries=("SELECT COUNT(*) FROM sales",),
                semantic_search="sales tenant",
                brief=Brief(goal="sales totals"),
            )
            for _ in range(3):
                sharded.submit(probe)
            snap = sharded.metrics()
            searched = 0
            for handle in sharded.shards:
                shard, system = str(handle.shard_id), handle.system
                memo = (system.search.memo_hits, system.search.memo_misses)
                assert (
                    snap.get("repro_semantic_search_memo_hits_total", shard=shard),
                    snap.get("repro_semantic_search_memo_misses_total", shard=shard),
                ) == memo
                assert (
                    snap.get("repro_memstore_recall_memo_hits_total", shard=shard),
                    snap.get("repro_memstore_recall_memo_misses_total", shard=shard),
                ) == system.memory.recall_memo_counters()
                searched += sum(memo)
            assert searched == 3
        finally:
            sharded.close()

    def test_sharded_metrics_carry_storage_series_per_shard(self):
        sharded = ShardedSystem(build_tenant_db(), shards=2, partition=PARTITION)
        try:
            sharded.submit(Probe.sql("SELECT COUNT(*) FROM sales WHERE qty > 3"))
            snap = sharded.metrics()
            for handle in sharded.shards:
                built = handle.system.db.catalog.storage_counters
                assert built.segment_builds > 0  # the scatter read every shard
                shard = str(handle.shard_id)
                assert snap.get(
                    "repro_storage_stats_recomputes_total", shard=shard
                ) == built.stats_recomputes
                assert snap.get(
                    "repro_storage_segment_builds_total", shard=shard
                ) == built.segment_builds
        finally:
            sharded.close()

    def test_sharded_metrics_merge_with_shard_labels(self):
        sharded = ShardedSystem(build_tenant_db(), shards=2, partition=PARTITION)
        try:
            sharded.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
            snap = sharded.metrics()
            # The tier registry rides along as the pseudo-shard "router".
            assert (
                snap.get("repro_shard_units_matched_total", shard="router")
                is not None
            )
            per_shard = [
                snap.get("repro_gateway_windows_direct_total", shard=str(i))
                for i in range(2)
            ]
            assert all(value is not None for value in per_shard)
        finally:
            sharded.close()

    def test_growth_gauges_are_shard_labelled(self):
        """Derived state that grows with throughput is visible per shard:
        memory-store artifacts."""
        sharded = ShardedSystem(build_tenant_db(), shards=2, partition=PARTITION)
        try:
            for shard_probe in (
                "SELECT COUNT(*) FROM sales",
                "SELECT tenant, SUM(qty) FROM sales WHERE qty > 3 GROUP BY tenant",
            ):
                sharded.submit(
                    Probe(queries=(shard_probe,), brief=Brief(goal="sales totals"))
                )
            snap = sharded.metrics()
            artifacts = 0
            for handle in sharded.shards:
                shard, system = str(handle.shard_id), handle.system
                assert snap.get("repro_memstore_artifacts", shard=shard) == len(
                    system.memory
                )
                artifacts += len(system.memory)
            assert artifacts > 0
        finally:
            sharded.close()


# -- merge_brief and the gateway's trace plumbing ------------------------------


class TestBriefMerging:
    def test_trace_field_merges_like_the_others(self):
        assert merge_brief(Brief(), Brief(trace=True)).trace is True
        assert merge_brief(Brief(trace=False), Brief(trace=True)).trace is False
        assert merge_brief(Brief(trace=True), Brief()).trace is True
        assert merge_brief(Brief(), Brief()).trace is None


# -- slow-probe log ------------------------------------------------------------


class TestSlowProbeLog:
    def entry(self, agent: str, ms: float = 12.0) -> SlowProbeEntry:
        return SlowProbeEntry(
            agent_id=agent, turn=1, duration_ms=ms, threshold_ms=1.0, trace=None
        )

    def test_ring_buffer_evicts_oldest(self):
        log = SlowProbeLog(capacity=2)
        for name in ("a", "b", "c"):
            log.record(self.entry(name))
        assert [e.agent_id for e in log.entries()] == ["b", "c"]
        assert len(log) == 2
        log.clear()
        assert len(log) == 0

    def test_record_emits_warning(self, caplog):
        log = SlowProbeLog()
        with caplog.at_level(logging.WARNING, logger="repro.obs.slowlog"):
            log.record(self.entry("laggard", ms=77.0))
        assert "slow probe" in caplog.text
        assert "laggard" in caplog.text

    def test_resolve_threshold(self, monkeypatch):
        assert resolve_slow_probe_ms() is None
        assert resolve_slow_probe_ms(5.0) == 5.0
        monkeypatch.setenv("REPRO_SLOW_PROBE_MS", "2.5")
        assert resolve_slow_probe_ms() == 2.5
        assert resolve_slow_probe_ms(5.0) == 2.5  # env wins
        monkeypatch.setenv("REPRO_SLOW_PROBE_MS", "not-a-number")
        assert resolve_slow_probe_ms(5.0) == 5.0

    def test_config_threshold_captures_traced_probe(self):
        system = AgentFirstDataSystem(
            build_db(), config=SystemConfig(slow_probe_ms=0.0)
        )
        system.submit(traced_probes(1)[0])
        entries = system.slow_probes.entries()
        assert entries
        assert entries[0].agent_id == "agent-0"
        assert entries[0].trace is not None and entries[0].trace.finished

    def test_env_threshold_implies_tracing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_PROBE_MS", "0")
        system = AgentFirstDataSystem(build_db())
        response = system.submit(overlapping_probes(1)[0])
        # No Brief.trace anywhere: the threshold alone turned tracing on.
        assert response.trace is not None
        assert system.slow_probes.entries()

"""Differential and API tests for the streaming admission gateway.

The gateway's contract: for any probe stream, gateway-served responses
have byte-identical per-query rows and statuses to serial ``submit`` of
the same probes in admission order — at every worker count, and *no
matter how arrivals split into admission windows* (``max_batch`` /
``max_wait`` / jitter only move work between windows; session-lived
history and caches carry sharing across the boundaries). The suite is
parametrized over worker counts and window shapes, and CI re-runs it
unmodified under ``REPRO_SCHEDULER_WORKERS`` 1/8 with window-timing
jitter (``REPRO_GATEWAY_JITTER``).
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FuturesTimeout

import pytest

from repro.core import AgentFirstDataSystem, Brief, Probe, SystemConfig
from test_scheduler import assert_same_outcomes, build_db, overlapping_probes


def stream_and_gather(system, probes, session=None):
    """Stream probes in submission order; gather responses via tickets."""
    submit = session.submit if session is not None else system.gateway.submit
    tickets = [submit(probe) for probe in probes]
    system.gateway.flush()
    responses = [ticket.result(timeout=60.0) for ticket in tickets]
    system.gateway.close()
    return responses


def mixed_stream():
    """A heterogeneous stream: errors, pruning, sampling, termination."""

    def stop_after_first(results):
        return any(r.rows for r in results)

    return [
        Probe.sql("SELECT * FROM ghost_table"),
        Probe(
            queries=("SELECT COUNT(*) FROM sales", "SELECT COUNT(*) FROM stores"),
            brief=Brief(goal="exact answer", complete_k_of_n=1),
            agent_id="pruner",
        ),
        *overlapping_probes(4),
        Probe(
            queries=(
                "SELECT COUNT(*) FROM sales WHERE amount > 5.0",
                "SELECT product FROM sales WHERE amount > 5.0",
            ),
            brief=Brief(accuracy=0.3),
            agent_id="explorer",
        ),
        Probe(
            queries=(
                "SELECT COUNT(*) FROM sales WHERE product = 'coffee'",
                "SELECT COUNT(*) FROM sales WHERE product = 'tea'",
                "SELECT COUNT(*) FROM stores",
            ),
            termination=stop_after_first,
            agent_id="terminator",
        ),
    ]


class TestStreamingDifferential:
    """Streamed admission vs serial submit, across window shapes."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "max_batch,max_wait",
        [
            (64, 30.0),  # one big window (flush closes it)
            (3, 30.0),  # size-split windows
            (1, 0.0),  # every probe its own window
            (64, 0.0),  # timer-split windows (racy sizes, same answers)
        ],
    )
    def test_streamed_matches_serial(self, workers, max_batch, max_wait):
        serial_system = AgentFirstDataSystem(build_db(), workers=workers)
        serial_responses = [serial_system.submit(p) for p in mixed_stream()]

        stream_system = AgentFirstDataSystem(
            build_db(),
            config=SystemConfig(
                gateway_max_batch=max_batch, gateway_max_wait=max_wait
            ),
            workers=workers,
        )
        stream_responses = stream_and_gather(stream_system, mixed_stream())
        assert_same_outcomes(serial_responses, stream_responses)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_streamed_matches_serial_with_mqo_disabled(self, workers):
        config = SystemConfig(enable_mqo=False, gateway_max_batch=2)
        serial_system = AgentFirstDataSystem(
            build_db(), config=SystemConfig(enable_mqo=False), workers=workers
        )
        serial_responses = [serial_system.submit(p) for p in overlapping_probes(4)]
        stream_system = AgentFirstDataSystem(build_db(), config=config, workers=workers)
        stream_responses = stream_and_gather(stream_system, overlapping_probes(4))
        assert_same_outcomes(serial_responses, stream_responses)
        assert sum(r.rows_processed for r in stream_responses) == sum(
            r.rows_processed for r in serial_responses
        )

    def test_window_split_is_invisible_in_rows_and_work(self):
        """The same stream served as one window vs many: identical rows,
        statuses, and row-work accounting (history + the session-lived
        cache carry sharing across window boundaries)."""
        one_window = AgentFirstDataSystem(build_db(), workers=1)
        one_responses = one_window.submit_many(overlapping_probes(8))
        split_system = AgentFirstDataSystem(
            build_db(),
            config=SystemConfig(gateway_max_batch=3, gateway_max_wait=30.0),
            workers=1,
        )
        split_responses = stream_and_gather(split_system, overlapping_probes(8))
        assert_same_outcomes(one_responses, split_responses)
        assert sum(r.rows_processed for r in split_responses) == sum(
            r.rows_processed for r in one_responses
        )

    def test_turns_follow_admission_order(self):
        system = AgentFirstDataSystem(build_db())
        responses = stream_and_gather(system, overlapping_probes(5))
        assert [r.turn for r in responses] == [1, 2, 3, 4, 5]


class TestAdmissionWindows:
    def test_max_batch_bounds_window_size(self):
        system = AgentFirstDataSystem(
            build_db(),
            config=SystemConfig(gateway_max_batch=4, gateway_max_wait=30.0),
        )
        responses = stream_and_gather(system, overlapping_probes(10))
        assert len(responses) == 10
        stats = system.gateway.stats()
        assert stats["probes_streamed"] == 10
        assert stats["max_window_size"] <= 4
        assert stats["windows_streamed"] >= 3

    def test_max_wait_closes_partial_window(self):
        """A lone probe must not wait forever for max_batch company."""
        system = AgentFirstDataSystem(
            build_db(),
            config=SystemConfig(gateway_max_batch=64, gateway_max_wait=0.01),
        )
        ticket = system.gateway.submit(Probe.sql("SELECT COUNT(*) FROM stores"))
        response = ticket.result(timeout=30.0)  # no flush: the timer fires
        assert response.outcomes[0].status == "ok"
        system.gateway.close()

    def test_submit_many_is_a_one_window_shim(self):
        system = AgentFirstDataSystem(build_db())
        system.submit_many(overlapping_probes(3))
        system.submit(Probe.sql("SELECT COUNT(*) FROM stores"))
        assert system.gateway.windows_direct == 2
        assert system.gateway.windows_streamed == 0
        # The shim path never starts the admission loop thread.
        assert system.gateway._thread is None

    @pytest.mark.parametrize("bad_sql", ["SELECT 1e FROM sales", "SELECT @"])
    def test_unlexable_probe_fails_alone_in_its_window(self, bad_sql):
        """A statement the lexer rejects is that probe's ``error`` outcome;
        the other session's probe in the same window still answers."""
        system = AgentFirstDataSystem(
            build_db(),
            config=SystemConfig(gateway_max_batch=64, gateway_max_wait=30.0),
        )
        good = system.session(agent_id="good").submit(
            Probe.sql("SELECT COUNT(*) FROM stores")
        )
        bad = system.session(agent_id="bad").submit(Probe.sql(bad_sql))
        system.gateway.flush()
        good_outcome = good.result(timeout=30.0).outcomes[0]
        bad_outcome = bad.result(timeout=30.0).outcomes[0]
        system.gateway.close()
        assert system.gateway.stats()["windows_streamed"] == 1
        assert good_outcome.status == "ok"
        assert bad_outcome.status == "error"
        assert bad_outcome.reason.endswith("(at offset 7)")

    def test_uncoordinated_threads_share_work(self):
        """The tentpole scenario: independently-arriving agents (threads
        that never coordinate) get cross-agent sharing because the
        gateway — not a caller — forms the batch."""
        n_agents = 12
        probes = overlapping_probes(n_agents)
        reference = build_db()
        expected = {
            probe.agent_id: [reference.execute(sql).rows for sql in probe.queries]
            for probe in probes
        }

        system = AgentFirstDataSystem(
            build_db(), config=SystemConfig(gateway_max_wait=0.05)
        )
        responses: dict[str, object] = {}
        errors: list[Exception] = []
        barrier = threading.Barrier(n_agents)

        def agent_main(probe):
            try:
                session = system.session(agent_id=probe.agent_id)
                barrier.wait()
                responses[probe.agent_id] = session.submit(
                    Probe(queries=probe.queries)
                ).result(timeout=60.0)
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=agent_main, args=(probe,)) for probe in probes
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for probe in probes:
            got = [o.result.rows for o in responses[probe.agent_id].outcomes]
            assert got == expected[probe.agent_id]

        # Sharing actually happened: the swarm processed fewer rows than
        # the same probes served by independent per-agent systems.
        independent = sum(
            AgentFirstDataSystem(build_db()).submit(p).rows_processed for p in probes
        )
        streamed = sum(r.rows_processed for r in responses.values())
        assert streamed < independent
        assert system.gateway.stats()["probes_streamed"] == n_agents
        system.gateway.close()


COUNT_SALES = "SELECT COUNT(*) FROM sales"
COUNT_STORES = "SELECT COUNT(*) FROM stores"


def closed_by(system):
    return system.gateway.stats()["windows_closed_by"]


def causes(**counts):
    """An expected ``windows_closed_by`` dict: the given causes, else 0."""
    expected = {cause: 0 for cause in ("cohort", "batch", "timer", "flush", "stop")}
    expected.update(counts)
    return expected


class TestCohortClose:
    """A streamed window closes once every session answered in the
    previous window has submitted again; ``max_wait`` is only a ceiling."""

    def first_round(self, system, sessions):
        tickets = [session.submit(Probe.sql(COUNT_STORES)) for session in sessions]
        system.gateway.flush()
        return [ticket.result(timeout=30.0) for ticket in tickets]

    def test_closed_loop_window_closes_when_its_cohort_resubmits(self):
        system = AgentFirstDataSystem(
            build_db(), config=SystemConfig(gateway_max_wait=30.0)
        )
        agents = [system.session(agent_id=f"agent-{i}") for i in range(4)]
        self.first_round(system, agents)
        again = [agent.submit(Probe.sql(COUNT_SALES)) for agent in agents]
        # No flush, and the ceiling is 30 s: only the cohort can close this.
        responses = [ticket.result(timeout=10.0) for ticket in again]
        assert [r.outcomes[0].result.rows for r in responses] == [[(900,)]] * 4
        stats = system.gateway.stats()
        assert stats["windows_streamed"] == 2 and stats["max_window_size"] == 4
        assert closed_by(system) == causes(flush=1, cohort=1)
        snapshot = system.metrics()
        assert snapshot.get("repro_gateway_windows_closed_total", cause="cohort") == 1
        waits = snapshot.get("repro_gateway_serve_lock_wait_ms", holder="window")
        assert waits["count"] == 2
        system.gateway.close()

    def test_silent_session_costs_one_ceiling_then_drops_out(self):
        system = AgentFirstDataSystem(
            build_db(), config=SystemConfig(gateway_max_wait=0.2)
        )
        talker, silent = system.session(agent_id="talker"), system.session()
        self.first_round(system, [talker, silent])
        # ``silent`` never returns: this window waits out the ceiling...
        talker.submit(Probe.sql(COUNT_STORES)).result(timeout=30.0)
        assert closed_by(system) == causes(flush=1, timer=1)
        # ...and the next cohort is only ``talker``.
        talker.submit(Probe.sql(COUNT_STORES)).result(timeout=30.0)
        assert closed_by(system) == causes(flush=1, timer=1, cohort=1)
        system.gateway.close()

    def test_session_less_submits_never_close_early(self):
        system = AgentFirstDataSystem(
            build_db(), config=SystemConfig(gateway_max_wait=30.0)
        )
        anonymous = system.gateway.submit(Probe.sql(COUNT_STORES))
        system.gateway.flush()
        anonymous.result(timeout=30.0)
        # A session-less window leaves no cohort: the next one is timed.
        held = system.gateway.submit(Probe.sql(COUNT_STORES))
        with pytest.raises(FuturesTimeout):
            held.result(timeout=0.2)
        system.gateway.flush()
        held.result(timeout=30.0)
        # A session-less arrival does not strike a cohort member off.
        agent = system.session(agent_id="agent")
        self.first_round(system, [agent])
        held = system.gateway.submit(Probe.sql(COUNT_STORES))
        with pytest.raises(FuturesTimeout):
            held.result(timeout=0.2)
        agent.submit(Probe.sql(COUNT_STORES)).result(timeout=10.0)
        assert held.result(timeout=10.0).outcomes[0].result.rows == [(3,)]
        assert closed_by(system) == causes(flush=3, cohort=1)
        system.gateway.close()

    def test_cancelled_cohort_ticket_strands_nothing(self):
        system = AgentFirstDataSystem(
            build_db(), config=SystemConfig(gateway_max_wait=30.0)
        )
        stayer, quitter = system.session(agent_id="stayer"), system.session()
        self.first_round(system, [stayer, quitter])
        withdrawn = quitter.submit(Probe.sql(COUNT_STORES))
        assert withdrawn.cancel() is True
        kept = stayer.submit(Probe.sql(COUNT_STORES))
        # The withdrawn resubmit still counted for the cohort.
        assert kept.result(timeout=10.0).turn == 3  # no turn burned
        assert withdrawn.cancelled()
        assert closed_by(system) == causes(flush=1, cohort=1)
        # The next cohort is the window actually served: ``stayer`` alone.
        assert stayer.submit(Probe.sql(COUNT_STORES)).result(timeout=10.0).turn == 4
        assert closed_by(system) == causes(flush=1, cohort=2)
        system.gateway.close()

    def test_data_change_keeps_the_timer_until_the_loop_retires(self):
        system = AgentFirstDataSystem(
            build_db(), config=SystemConfig(gateway_max_wait=0.2)
        )
        gateway = system.gateway
        gateway.idle_stop = 1.0
        agents = [system.session(agent_id=f"agent-{i}") for i in range(2)]

        def round_trip():
            tickets = [agent.submit(Probe.sql(COUNT_STORES)) for agent in agents]
            return [t.result(timeout=10.0).outcomes[0].result.rows for t in tickets]

        self.first_round(system, agents)
        assert round_trip() == [[(3,)]] * 2
        assert closed_by(system) == causes(flush=1, cohort=1)
        system.db.execute("INSERT INTO stores VALUES (4, 'Reno', 'NV')")
        # Every cohort is back, but the data changed under this loop: the
        # ceiling closes these windows, not the cohort.
        assert round_trip() == [[(4,)]] * 2
        assert round_trip() == [[(4,)]] * 2
        assert closed_by(system) == causes(flush=1, cohort=1, timer=2)
        deadline = time.monotonic() + 10.0
        while gateway._thread is not None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert gateway._thread is None, "admission loop did not retire"
        # A new loop has seen no change: the cohort closes windows again.
        assert round_trip() == [[(4,)]] * 2
        assert closed_by(system) == causes(flush=1, cohort=2, timer=2)
        gateway.close()


class TestWritersFirst:
    def test_writer_waits_behind_at_most_one_window(self):
        """Agents keep streamed windows back to back while a writer takes
        ``gateway.serve_lock`` to INSERT: no window may start between a
        writer's request and its grant beyond the one already running,
        and every reader's ``COUNT(*)`` only grows."""
        db = build_db()
        db.execute("CREATE TABLE events (id INT)")
        db.execute("INSERT INTO events VALUES (0)")
        # Windows of two under eight agents: probes are always queued when
        # a window ends, so the next one is ready to take the lock at once.
        system = AgentFirstDataSystem(
            db, config=SystemConfig(gateway_max_batch=2), workers=2
        )
        windows_started = [0]
        original = system._serve_batch

        def counting(probes, **kwargs):
            windows_started[0] += 1  # under the serve lock
            return original(probes, **kwargs)

        system._serve_batch = counting
        n_agents, n_writes = 8, 25
        stop = threading.Event()
        errors: list[str] = []
        behind: list[int] = []
        streamed: list[int] = []

        def agent_main(index):
            session = system.session(agent_id=f"agent-{index}")
            last = 0
            try:
                while not stop.is_set():
                    response = session.submit(
                        Probe.sql("SELECT COUNT(*) FROM events")
                    ).result(timeout=30.0)
                    count = response.outcomes[0].result.rows[0][0]
                    if count < last:
                        errors.append(f"agent {index}: {count} after {last}")
                    last = count
            except Exception as exc:  # surfaced after join
                errors.append(f"agent {index}: {exc!r}")

        def writer_main():
            try:
                deadline = time.monotonic() + 30.0
                while windows_started[0] < 3 and time.monotonic() < deadline:
                    stop.wait(0.001)  # let the windows start streaming first
                first_window = windows_started[0]
                lock = system.gateway.serve_lock
                for i in range(1, n_writes + 1):
                    # Holding the lock's (re-entrant) condition makes the
                    # read and the writer's place in the queue one step:
                    # no window can acquire in between.
                    with lock._cond:
                        before = windows_started[0]
                        with lock:
                            behind.append(windows_started[0] - before)
                            system.db.execute(f"INSERT INTO events VALUES ({i})")
                    stop.wait(0.002)
                streamed.append(windows_started[0] - first_window)
            except Exception as exc:  # surfaced after join
                errors.append(f"writer: {exc!r}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            agents = [
                threading.Thread(target=agent_main, args=(i,)) for i in range(n_agents)
            ]
            for thread in agents:
                thread.start()
            writer = threading.Thread(target=writer_main)
            writer.start()
            writer.join(timeout=60.0)
            assert not writer.is_alive()
            stop.set()
            for thread in agents:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not errors
        assert len(behind) == n_writes and max(behind) <= 1
        final = system.submit(Probe.sql("SELECT COUNT(*) FROM events"))
        assert final.outcomes[0].result.rows == [(n_writes + 1,)]
        assert streamed[0] > 0  # windows kept streaming beside the writer
        writer_waits = system.metrics().get(
            "repro_gateway_serve_lock_wait_ms", holder="writer"
        )
        # Maintenance passes (REPRO_MAINTENANCE=1) are outside holders too.
        assert writer_waits["count"] >= n_writes
        system.gateway.close()


class TestProbeTickets:
    def make_slow_gateway_system(self):
        return AgentFirstDataSystem(
            build_db(),
            config=SystemConfig(gateway_max_batch=100, gateway_max_wait=30.0),
        )

    def test_ticket_lifecycle(self):
        system = self.make_slow_gateway_system()
        ticket = system.gateway.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
        assert not ticket.done()
        system.gateway.flush()
        response = ticket.result(timeout=30.0)
        assert ticket.done() and not ticket.cancelled()
        assert response.outcomes[0].status == "ok"
        assert ticket.cancel() is False  # too late: already served
        system.gateway.close()

    def test_cancel_before_admission(self):
        system = self.make_slow_gateway_system()
        keep = system.gateway.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
        drop = system.gateway.submit(Probe.sql("SELECT COUNT(*) FROM stores"))
        assert drop.cancel() is True
        assert drop.cancelled() and drop.done()
        with pytest.raises(CancelledError):
            drop.result(timeout=1.0)
        system.gateway.flush()
        assert keep.result(timeout=30.0).outcomes[0].status == "ok"
        # The cancelled probe never consumed a turn: serial equivalence is
        # against the admitted stream only.
        assert keep.result().turn == 1
        system.gateway.close()

    def hold_serving(self, system, monkeypatch):
        """Block ``_serve_batch`` so a window sits admitted-but-unserved."""
        entered = threading.Event()
        release = threading.Event()
        original = system._serve_batch

        def slow(probes):
            entered.set()
            release.wait(timeout=30.0)
            return original(probes)

        monkeypatch.setattr(system, "_serve_batch", slow)
        return entered, release

    def test_cancel_after_admission_is_deterministically_false(
        self, monkeypatch
    ):
        """The racing window: a probe pulled into a window but not yet
        served. ``cancel()`` used to return True here while the window
        served the probe anyway (burning a turn for a caller who thinks
        it never ran); admission now marks the future RUNNING, so the
        answer is a deterministic False."""
        system = AgentFirstDataSystem(
            build_db(),
            config=SystemConfig(gateway_max_batch=1, gateway_max_wait=0.01),
        )
        entered, release = self.hold_serving(system, monkeypatch)
        ticket = system.gateway.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
        system.gateway.flush()
        assert entered.wait(timeout=30.0)
        assert ticket.admitted()
        assert ticket.cancel() is False  # in-flight: refusal, not a lie
        assert not ticket.cancelled()
        release.set()
        response = ticket.result(timeout=30.0)
        assert response.outcomes[0].status == "ok"
        assert response.turn == 1
        system.gateway.close()

    def test_result_timeout_leaves_ticket_servable(self, monkeypatch):
        system = AgentFirstDataSystem(
            build_db(),
            config=SystemConfig(gateway_max_batch=1, gateway_max_wait=0.01),
        )
        entered, release = self.hold_serving(system, monkeypatch)
        ticket = system.gateway.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
        system.gateway.flush()
        assert entered.wait(timeout=30.0)
        with pytest.raises(FuturesTimeout):
            ticket.result(timeout=0.05)
        release.set()  # an expired wait is not a cancel: the probe finishes
        assert ticket.result(timeout=30.0).outcomes[0].status == "ok"
        system.gateway.close()

    def test_cancel_hammer_never_strands_or_double_serves(self):
        """Cancels racing admission from another thread: every ticket ends
        exactly one way — CancelledError before it burned a turn, or a
        served response — and the served turns stay contiguous."""
        system = AgentFirstDataSystem(
            build_db(),
            config=SystemConfig(gateway_max_batch=2, gateway_max_wait=0.001),
        )
        tickets = [
            system.gateway.submit(Probe.sql("SELECT COUNT(*) FROM stores"))
            for _ in range(24)
        ]
        canceller = threading.Thread(
            target=lambda: [t.cancel() for t in reversed(tickets)]
        )
        canceller.start()
        system.gateway.flush()
        canceller.join(timeout=30.0)
        served = 0
        for ticket in tickets:
            # The canceller has finished: every ticket is either cancelled
            # for good or owed a served response — nothing may strand.
            if ticket.cancelled():
                with pytest.raises(CancelledError):
                    ticket.result(timeout=5.0)
            else:
                response = ticket.result(timeout=30.0)
                assert response.outcomes[0].status in ("ok", "from_history")
                assert response.outcomes[0].result.rows == [(3,)]
                served += 1
            assert ticket.done()
        turns = sorted(
            t.result().turn for t in tickets if not t.cancelled()
        )
        assert turns == list(range(1, served + 1))
        system.gateway.close()

    def test_submit_after_close_raises(self):
        system = AgentFirstDataSystem(build_db())
        system.gateway.close()
        with pytest.raises(RuntimeError, match="closed"):
            system.gateway.submit(Probe.sql("SELECT 1"))
        # The raise is the structured ReproError, not a bare RuntimeError.
        from repro.errors import GatewayClosed, ReproError

        with pytest.raises(GatewayClosed) as exc_info:
            system.gateway.submit(Probe.sql("SELECT 1"))
        assert isinstance(exc_info.value, ReproError)
        assert "resubmit on a live system" in str(exc_info.value)

    @pytest.mark.parametrize("rejection", ["closed", "overload"])
    def test_rejected_submit_leaves_no_open_span(self, rejection):
        """A rejected submit must not open ``gateway:queued`` on the trace
        its probe carries: the retry the error advises reuses that trace
        and must come back with exactly one, finished, queued span."""
        from repro.errors import GatewayClosed, OverloadError
        from repro.obs.trace import probe_trace
        from repro.qos import QosConfig

        probe = Probe(queries=("SELECT COUNT(*) FROM stores",), brief=Brief(trace=True))
        if rejection == "closed":
            dead = AgentFirstDataSystem(build_db())
            dead.gateway.close()
            with pytest.raises(GatewayClosed):
                dead.gateway.submit(probe)
            system = AgentFirstDataSystem(build_db())
        else:
            system = AgentFirstDataSystem(
                build_db(),
                config=SystemConfig(
                    enable_qos=True,
                    qos=QosConfig(queue_reject=1),
                    gateway_max_wait=30.0,
                ),
            )
            filler = system.gateway.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
            with pytest.raises(OverloadError):
                system.gateway.submit(probe)
            system.gateway.flush()
            filler.result(timeout=30.0)
        assert probe_trace(probe).find("gateway:queued") == []
        response = stream_and_gather(system, [probe])[0]
        queued = response.trace.find("gateway:queued")
        assert len(queued) == 1
        assert queued[0].end is not None

    def test_close_resolves_stranded_tickets_with_structured_error(
        self, monkeypatch
    ):
        """Tickets still queued when the loop goes down (here: the serve
        path wedged past the join timeout) must resolve with a
        ``GatewayClosed`` error *response* — ``result()`` never blocks on
        shutdown, and every query gets an ``"error"`` outcome that names
        the cause."""
        system = AgentFirstDataSystem(
            build_db(),
            config=SystemConfig(gateway_max_batch=1, gateway_max_wait=0.01),
        )
        entered, release = TestProbeTickets().hold_serving(system, monkeypatch)
        served = system.gateway.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
        stranded = [
            system.gateway.submit(
                Probe(queries=("SELECT COUNT(*) FROM stores", "SELECT 1"))
            )
            for _ in range(2)
        ]
        system.gateway.flush()
        assert entered.wait(timeout=30.0)  # first window wedged in serving
        system.gateway.close(timeout=0.2)  # join times out; queue drains
        for ticket in stranded:
            response = ticket.result(timeout=5.0)  # resolved, not blocked
            assert [o.status for o in response.outcomes] == ["error", "error"]
            assert "gateway is closed" in response.outcomes[0].reason
            assert any("gateway is closed" in s for s in response.steering)
            assert response.turn == 0  # never served: no turn burned
        assert system.gateway.stats()["probes_closed_unserved"] == 2
        release.set()  # the wedged window still finishes its own ticket
        assert served.result(timeout=30.0).outcomes[0].status == "ok"

    def test_submit_racing_close_never_strands_a_ticket(self):
        """The regression this PR fixes: submits racing ``close()`` from
        other threads either raise ``GatewayClosed`` or get a ticket that
        resolves promptly — with a served response or a structured
        closed-error response, never a hang."""
        from repro.errors import GatewayClosed

        system = AgentFirstDataSystem(
            build_db(),
            config=SystemConfig(gateway_max_batch=4, gateway_max_wait=0.001),
        )
        tickets: list = []
        rejected = []
        errors = []
        start = threading.Barrier(9)

        def submitter():
            try:
                start.wait()
                for _ in range(16):
                    try:
                        tickets.append(
                            system.gateway.submit(
                                Probe.sql("SELECT COUNT(*) FROM stores")
                            )
                        )
                    except GatewayClosed:
                        rejected.append(1)
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=submitter) for _ in range(8)]
        for thread in threads:
            thread.start()
        start.wait()
        system.gateway.close()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        served = closed = 0
        for ticket in tickets:
            response = ticket.result(timeout=30.0)
            statuses = {o.status for o in response.outcomes}
            if statuses == {"error"}:
                assert "gateway is closed" in response.outcomes[0].reason
                closed += 1
            else:
                assert statuses <= {"ok", "from_history"}
                served += 1
        # Full accounting: every accepted submit resolved one way.
        assert served + closed == len(tickets)
        assert len(tickets) + len(rejected) == 8 * 16
        stats = system.gateway.stats()
        assert stats["probes_closed_unserved"] == closed
        assert stats["probes_streamed"] == served

    def test_stats_stay_monotone_and_consistent_under_concurrency(self):
        """``stats()`` sampled while submit/flush/close race from other
        threads: monotone counters never step backwards, and the final
        snapshot accounts for every accepted probe exactly once."""
        system = AgentFirstDataSystem(
            build_db(),
            config=SystemConfig(gateway_max_batch=4, gateway_max_wait=0.001),
        )
        monotone_keys = (
            "windows_streamed",
            "probes_streamed",
            "probes_offloaded",
            "overload_windows",
            "probes_degraded",
            "probes_closed_unserved",
            # The shard matchmaker's capacity pair must be stable under
            # the same storm: total windows served (either path) and the
            # peak admission-queue depth only ever grow.
            "windows_served",
            "queue_depth_peak",
        )
        violations = []
        stop_sampling = threading.Event()

        def sampler():
            last = {key: 0 for key in monotone_keys}
            while not stop_sampling.is_set():
                snapshot = system.gateway.stats()
                for key in monotone_keys:
                    if snapshot[key] < last[key]:
                        violations.append((key, last[key], snapshot[key]))
                    last[key] = snapshot[key]

        def flusher():
            while not stop_sampling.is_set():
                system.gateway.flush()

        watchers = [
            threading.Thread(target=sampler),
            threading.Thread(target=flusher),
        ]
        for watcher in watchers:
            watcher.start()
        tickets = []
        submitters = [
            threading.Thread(
                target=lambda: tickets.extend(
                    system.gateway.submit(Probe.sql("SELECT COUNT(*) FROM stores"))
                    for _ in range(24)
                )
            )
            for _ in range(4)
        ]
        for submitter in submitters:
            submitter.start()
        for submitter in submitters:
            submitter.join(timeout=30.0)
        responses = [t.result(timeout=60.0) for t in tickets]
        system.gateway.close()
        stop_sampling.set()
        for watcher in watchers:
            watcher.join(timeout=30.0)
        assert not violations
        assert len(responses) == 4 * 24
        stats = system.gateway.stats()
        assert stats["probes_streamed"] + stats["probes_closed_unserved"] == 96
        assert stats["pending"] == 0
        assert stats["windows_streamed"] >= 96 // 4  # max_batch bounds windows
        assert stats["windows_served"] == (
            stats["windows_streamed"] + stats["windows_direct"]
        )
        assert stats["queue_depth_peak"] >= 1  # something queued at some point

    def test_idle_admission_thread_retires_and_restarts(self):
        """Long-lived serving systems must not pin an idle thread per
        database forever; the loop retires after ``idle_stop`` and a
        later streamed submit restarts it transparently."""
        system = AgentFirstDataSystem(
            build_db(), config=SystemConfig(gateway_max_wait=0.005)
        )
        system.gateway.idle_stop = 0.05
        first = system.gateway.submit(Probe.sql("SELECT COUNT(*) FROM sales"))
        assert first.result(timeout=30.0).outcomes[0].status == "ok"
        thread = system.gateway._thread
        assert thread is not None
        thread.join(timeout=30.0)  # retires once idle past idle_stop
        assert system.gateway._thread is None
        second = system.gateway.submit(Probe.sql("SELECT COUNT(*) FROM stores"))
        assert second.result(timeout=30.0).outcomes[0].status == "ok"
        assert second.result().turn == 2  # same system state, new thread
        system.gateway.close()


class TestAgentSessions:
    def test_sticky_identity_without_probe_plumbing(self):
        system = AgentFirstDataSystem(build_db())
        alice = system.session(agent_id="alice", principal="alice-p")
        bob = system.session(agent_id="bob")
        sql = "SELECT COUNT(*) FROM sales WHERE product = 'coffee'"
        first = alice.submit(Probe(queries=(sql,)))  # no agent_id anywhere
        system.gateway.flush()
        first.result(timeout=30.0)
        second = bob.submit(Probe(queries=(sql,)))
        system.gateway.flush()
        outcome = second.result(timeout=30.0).outcomes[0]
        assert outcome.status == "from_history"
        assert "alice" in outcome.reason  # history attribution saw the session id
        system.gateway.close()

    def test_probe_identity_beats_session_identity(self):
        system = AgentFirstDataSystem(build_db())
        session = system.session(agent_id="session-id")
        effective = session.effective(Probe.sql("SELECT 1"))
        assert effective.agent_id == "session-id"
        explicit = session.effective(
            Probe(queries=("SELECT 1",), agent_id="explicit")
        )
        assert explicit.agent_id == "explicit"

    def test_brief_defaults_merge_fieldwise(self):
        system = AgentFirstDataSystem(build_db())
        session = system.session(
            defaults=Brief(goal="explore the schema", accuracy=0.3, max_cost=9.0)
        )
        merged = session.effective(Probe(queries=("SELECT 1",))).brief
        assert merged.goal == "explore the schema"
        assert merged.accuracy == 0.3
        assert merged.max_cost == 9.0
        overridden = session.effective(
            Probe(queries=("SELECT 1",), brief=Brief(goal="final answer"))
        ).brief
        assert overridden.goal == "final answer"  # probe wins where it speaks
        assert overridden.accuracy == 0.3  # defaults fill the silence

    def test_session_brief_defaults_drive_satisficing(self):
        """An accuracy default on the session makes bare SQL approximate."""
        system = AgentFirstDataSystem(build_db())
        explorer = system.session(agent_id="explorer", defaults=Brief(accuracy=0.3))
        ticket = explorer.submit(
            Probe(queries=("SELECT COUNT(*) FROM sales WHERE amount > 5.0",))
        )
        system.gateway.flush()
        assert ticket.result(timeout=30.0).outcomes[0].status == "approximate"
        system.gateway.close()

    def test_session_accounting(self):
        system = AgentFirstDataSystem(build_db())
        session = system.session(agent_id="bean-counter")
        tickets = [
            session.submit(Probe.sql("SELECT COUNT(*) FROM sales")),
            session.submit(Probe.sql("SELECT COUNT(*) FROM stores")),
        ]
        system.gateway.flush()
        responses = [t.result(timeout=30.0) for t in tickets]
        assert session.probes_submitted == 2
        assert session.turns_served == 2
        assert session.queries_served == 2
        assert session.rows_processed == sum(r.rows_processed for r in responses)
        assert session.spent_cost > 0
        assert session.last_turn == responses[-1].turn
        assert "bean-counter" in session.describe()
        system.gateway.close()


class TestAsyncSurface:
    def test_asubmit_and_serve(self):
        serial_system = AgentFirstDataSystem(build_db())
        serial_responses = [serial_system.submit(p) for p in overlapping_probes(4)]

        async def main():
            system = AgentFirstDataSystem(
                build_db(), config=SystemConfig(gateway_max_wait=0.005)
            )
            session = system.session(agent_id="async-agent")
            first = await session.asubmit(Probe.sql("SELECT COUNT(*) FROM sales"))
            assert first.outcomes[0].status == "ok"

            async def arrivals():
                for probe in overlapping_probes(4):
                    yield probe

            streamed = [r async for r in system.gateway.serve(arrivals())]
            system.gateway.close()
            return streamed

        streamed = asyncio.run(main())
        # The async-served stream matches serial submission of the same
        # probes (the asubmit warm-up occupies turn 1, so compare rows and
        # statuses, which are turn-independent here).
        assert len(streamed) == 4
        for serial, async_served in zip(serial_responses, streamed):
            assert [o.status for o in serial.outcomes] == [
                o.status for o in async_served.outcomes
            ]
            assert [
                o.result.rows if o.result is not None else None
                for o in serial.outcomes
            ] == [
                o.result.rows if o.result is not None else None
                for o in async_served.outcomes
            ]

    def test_serve_propagates_producer_errors(self):
        """A failing probe producer must surface its exception to the
        consumer instead of leaving it blocked on the queue forever."""

        async def main():
            system = AgentFirstDataSystem(
                build_db(), config=SystemConfig(gateway_max_wait=0.005)
            )

            async def arrivals():
                yield Probe.sql("SELECT COUNT(*) FROM sales")
                raise ValueError("producer broke mid-stream")

            served = []
            with pytest.raises(ValueError, match="producer broke"):
                async for response in system.gateway.serve(arrivals()):
                    served.append(response)
            system.gateway.close()
            return served

        served = asyncio.run(asyncio.wait_for(main(), timeout=30.0))
        # The probe submitted before the failure was still served.
        assert len(served) == 1
        assert served[0].outcomes[0].status == "ok"

    def test_serve_accepts_plain_iterables(self):
        async def main():
            system = AgentFirstDataSystem(
                build_db(), config=SystemConfig(gateway_max_wait=0.005)
            )
            values = [
                response.first_result().first_value()
                async for response in system.gateway.serve(
                    [
                        Probe.sql("SELECT COUNT(*) FROM sales"),
                        Probe.sql("SELECT COUNT(*) FROM stores"),
                    ]
                )
            ]
            system.gateway.close()
            return values

        assert asyncio.run(main()) == [900, 3]


class TestSharedServingPathsStillDifferential:
    """The rewired agent runners stream through sessions; their results
    must still match the old hand-assembled batching exactly."""

    def test_parallel_attempts_unchanged_by_streaming(self):
        from repro.agents.model import GPT_4O_MINI_SIM
        from repro.agents.parallel import run_parallel_attempts
        from repro.workloads.bird import BirdTaskPool

        task = BirdTaskPool(seed=5).generate(1)[0]
        first = run_parallel_attempts(task, GPT_4O_MINI_SIM, 8, seed=3)
        again = run_parallel_attempts(task, GPT_4O_MINI_SIM, 8, seed=3)
        assert [a.sql for a in first.attempts] == [a.sql for a in again.attempts]
        assert [a.signature for a in first.attempts] == [
            a.signature for a in again.attempts
        ]
        assert first.picked_signature == again.picked_signature

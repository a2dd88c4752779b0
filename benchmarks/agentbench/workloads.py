"""The four workloads: seeded data, seeded probe streams, answer checks.

Everything the program under test receives is generated here from
``--seed`` with Python's own ``random.Random`` (string-seeded, so stable
across processes) — nothing under ``src/`` takes part in making inputs, and
a later change to the program cannot shift them.

Each workload is a class with the same small surface: ``build_db`` /
``build_system`` (together the timed set-up), ``open_sessions``, one
:class:`AgentStream` per logical agent, and ``check`` for a served
response. The sizes in :data:`SIZES` are the workload definitions; the
``smoke`` column exists only so the test suite can run every code path in
about a second.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass

from repro.core import AgentFirstDataSystem, Brief, Phase, Probe
from repro.db import Database
from repro.shard import ShardedSystem
from repro.txn import BranchManager

from loadgen import LoopResult, Writer, median, percentile

#: (full, smoke) sizes. Names ending ``_rows`` are table cardinalities.
SIZES = {
    "swarm_arc": {"agents": (32, 8), "stores_rows": (50, 20),
                  "products_rows": (200, 40), "sales_rows": (5000, 400)},
    "scan_distinct": {"agents": (8, 2), "big_rows": (20000, 2000)},
    "branch_rw_wal": {"agents": (8, 2), "stores_rows": (50, 20),
                      "products_rows": (200, 40), "sales_rows": (5000, 400)},
    "tenant_sharded": {"agents": (32, 8), "tenants": (64, 16),
                       "rows_per_tenant": (200, 40), "shards": (4, 4)},
}

STATES = ("CA", "WA", "TX", "OR", "NY", "IL", "MA", "CO")
CATEGORIES = ("coffee", "tea", "pastry", "beans", "gear", "syrup", "mug", "filter")

#: The one statement every agent in the swarm shares verbatim.
JOIN_SQL = (
    "SELECT s.state, COUNT(*), SUM(x.amount) FROM sales x"
    " JOIN stores s ON x.store_id = s.id GROUP BY s.state"
)
FILTER_TEMPLATES = (
    "SELECT COUNT(*), SUM(amount) FROM sales WHERE store_id = {lit}",
    "SELECT year, COUNT(*), AVG(amount) FROM sales WHERE qty >= {lit} GROUP BY year",
    "SELECT COUNT(*), MAX(amount) FROM sales WHERE product_id = {lit}",
)
#: Small-table statements: estimated cost stays under the interpreter's
#: 512-unit exact threshold, so ``accuracy=0.8`` still answers exactly and
#: repeats come back from history like everything else in the swarm.
EXPLORE_SQL = (
    "SELECT DISTINCT state FROM stores",
    "SELECT category, COUNT(*) FROM products GROUP BY category",
    "SELECT MIN(opened), MAX(opened) FROM stores",
    "SELECT table_name, row_count FROM information_schema.tables",
)
EXPLORE_GOALS = (
    "explore the schema: stores state and city, products category",
    "discover which tables hold sales amount, products price and stores state",
    "get a sense of the distinct values in products category and stores state",
)
SOLVE_GOAL = "compute the final sales amount by stores state"
VALIDATE_GOAL = "verify the reported sales amount by stores state"
MEMORY_QUERIES = (
    "sales by state", "join sales to stores", "product category encoding",
    "amount per store", "which year has most sales", "stores opened range",
)
COUNT_SALES_SQL = "SELECT COUNT(*) FROM sales"

#: ``scan_distinct`` templates with the range the float literal's integer
#: part is drawn from; ``{f}`` is that float and ``{n}`` an int literal, both
#: carrying the probe's global sequence number and so never repeated. Every
#: template scans all of ``big`` and costs about the same on the row engine
#: (the top-k keeps ~5% of rows so its sort does not dwarf the scans).
SCAN_TEMPLATES = (
    ("SELECT COUNT(*), SUM(amount), AVG(qty) FROM big WHERE amount < {f}", 240, 260),
    ("SELECT id, amount FROM big WHERE amount > {f} AND qty = 7 AND id <> {n}", 240, 260),
    ("SELECT grp, COUNT(*), SUM(amount) FROM big WHERE amount < {f} GROUP BY grp", 240, 260),
    ("SELECT id, amount FROM big WHERE amount < {f} ORDER BY amount DESC, id LIMIT 10",
     24, 28),
    ("SELECT MIN(amount), MAX(amount) FROM big WHERE qty <> {n}", 240, 260),
    ("SELECT grp, AVG(amount) FROM big WHERE id <> {n} GROUP BY grp", 240, 260),
)
SCAN_GOAL = "compute the exact aggregate over big"

PINNED_TEMPLATES = (
    "SELECT COUNT(*), SUM(amount) FROM sales WHERE tenant = '{t}' AND qty >= {j} AND id <> {n}",
    "SELECT qty, COUNT(*) FROM sales WHERE tenant = '{t}' AND id <> {n} GROUP BY qty",
    "SELECT MIN(amount), MAX(amount) FROM sales WHERE tenant = '{t}' AND id <> {n}",
)
SCATTER_TEMPLATE = (
    "SELECT COUNT(*), SUM(amount), AVG(qty) FROM sales WHERE qty >= {j} AND id <> {n}"
)
TENANT_GOAL = "compute the exact tenant sales report"
#: One probe in this many is a cross-tenant scatter probe (per agent, phase
#: shifted by agent index), which pins the scatter share at 10%.
SCATTER_EVERY = 10

#: Unique-literal workloads keep one served answer in this many for the
#: after-run oracle comparison.
VERIFY_EVERY = 20

WRITE_PERIOD_S = 0.1
RECOVER_REPEATS = 5


def _rng(seed: int, *parts: object) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed, *parts)))


@dataclass(frozen=True)
class PlannedProbe:
    probe: Probe
    #: explore | solve | validate | scan | read | pinned | scatter
    kind: str


class AgentStream:
    """One logical agent's deterministic probe sequence.

    Generated sequentially from the agent's own RNG, up front for the
    expected run length (:meth:`ensure`) and extended on demand past it, so
    probe ``k`` is the same object of thought whatever the timing was.
    """

    def __init__(self, generator) -> None:
        self._generator = generator
        self._items: list[PlannedProbe] = []

    def ensure(self, count: int) -> None:
        while len(self._items) < count:
            self._items.append(next(self._generator))

    def __getitem__(self, index: int) -> PlannedProbe:
        if index >= len(self._items):
            self.ensure(index + 64)
        return self._items[index]


def stream_digest(streams: list[AgentStream], per_agent: int) -> str:
    """SHA-256 over the first ``per_agent`` probes of every agent."""
    digest = hashlib.sha256()
    for stream in streams:
        for index in range(per_agent):
            planned = stream[index]
            probe = planned.probe
            digest.update(
                repr(
                    (planned.kind, probe.queries, probe.brief,
                     probe.semantic_search, probe.memory_queries)
                ).encode()
            )
    return digest.hexdigest()


def _rows_equal(served, expected) -> bool:
    return [tuple(r) for r in served] == [tuple(r) for r in expected]


class BaseWorkload:
    name = ""
    #: Pre-generate this many probes per agent per second of run (several
    #: times what any workload consumes; streams extend on demand past it).
    stream_rate = 64

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        sizes = SIZES[self.name]
        self.size = {key: pair[1 if smoke else 0] for key, pair in sizes.items()}
        self.agents = self.size["agents"]
        #: sql -> expected rows, filled by :meth:`prepare_oracles`.
        self.oracle: dict[str, list] = {}
        #: (sql, served rows) kept for the after-run comparison.
        self.deferred: list[tuple[str, list]] = []
        self._seen = 0

    # -- set-up (timed) ----------------------------------------------------

    def build_db(self) -> Database:
        raise NotImplementedError

    def build_system(self, db: Database, workdir: str):
        system = AgentFirstDataSystem(db)
        system.prestart()
        return system

    def open_sessions(self, system) -> list:
        return [
            system.session(agent_id=self.agent_id(i), principal=self.principal(i))
            for i in range(self.agents)
        ]

    def agent_id(self, agent: int) -> str:
        return f"agent{agent}"

    def principal(self, agent: int) -> str:
        return "public"

    # -- inputs ------------------------------------------------------------

    def streams(self) -> list[AgentStream]:
        return [AgentStream(self._generate(i)) for i in range(self.agents)]

    def _generate(self, agent: int):
        raise NotImplementedError

    # -- answers -----------------------------------------------------------

    def prepare_oracles(self, db: Database) -> None:
        """Expected rows for pool statements, from a database built exactly
        like the one served but never handed to a serving system."""

    def check(self, agent: int, planned: PlannedProbe, response) -> str | None:
        """``None`` when the served response is right, else what is wrong."""
        raise NotImplementedError

    def _check_unique(self, planned: PlannedProbe, response) -> str | None:
        """Unique-literal probes: every query answered exactly and freshly;
        one response in ``VERIFY_EVERY`` is kept for the oracle pass."""
        for outcome in response.outcomes:
            if outcome.status != "ok" or outcome.result is None:
                return f"{outcome.status}: {outcome.sql[:60]} {outcome.reason}"
        self._seen += 1
        if self._seen % VERIFY_EVERY == 0:
            for outcome in response.outcomes:
                self.deferred.append((outcome.sql, outcome.result.rows))
        return None

    def verify_deferred(self, oracle_db: Database) -> list[str]:
        """Re-run the kept statements on the oracle database."""
        problems = []
        for sql, served in self.deferred:
            expected = oracle_db.execute(sql).rows
            if not _rows_equal(served, expected):
                problems.append(f"wrong rows for {sql[:70]!r}")
        return problems

    def validity(self, facts: dict) -> list[str]:
        """Workload-validity assertions over the run's own counters: a run
        that stops exercising what the workload exists for must not pass."""
        return []

    # -- what only this workload has ---------------------------------------

    def start_background(self, system, total_s: float) -> None:
        """Start load that runs beside the closed loop (the writer)."""

    def finish(self, system, loop: LoopResult, workdir: str):
        """Stop background load and run end checks. Returns (end-to-end
        metrics only this workload has, its own layer metrics, problems —
        each problem counts as one failed operation)."""
        return {}, {}, []


class _SwarmTables(BaseWorkload):
    """The small three-table sales schema ``swarm_arc`` and
    ``branch_rw_wal`` share."""

    data_name = "swarm"

    def build_db(self) -> Database:
        rng = _rng(self.seed, self.data_name, "data")
        n_stores = self.size["stores_rows"]
        n_products = self.size["products_rows"]
        db = Database(self.name)
        db.execute(
            "CREATE TABLE stores (id INT PRIMARY KEY, city TEXT, state TEXT, opened INT)"
        )
        db.execute(
            "CREATE TABLE products (id INT PRIMARY KEY, name TEXT, category TEXT,"
            " price FLOAT)"
        )
        db.execute(
            "CREATE TABLE sales (id INT PRIMARY KEY, store_id INT, product_id INT,"
            " qty INT, amount FLOAT, year INT)"
        )
        db.insert_rows(
            "stores",
            [(i, f"city{i}", rng.choice(STATES), 2000 + rng.randrange(25))
             for i in range(n_stores)],
        )
        db.insert_rows(
            "products",
            [(i, f"product{i}", rng.choice(CATEGORIES), rng.randrange(4, 240) * 0.25)
             for i in range(n_products)],
        )
        db.insert_rows(
            "sales",
            [self._sale_row(rng, i) for i in range(self.size["sales_rows"])],
        )
        return db

    def _sale_row(self, rng: random.Random, row_id: int) -> tuple:
        # Amounts are multiples of 0.25: float sums stay exact in any order.
        return (
            row_id,
            rng.randrange(self.size["stores_rows"]),
            rng.randrange(self.size["products_rows"]),
            rng.randrange(1, 21),
            rng.randrange(4, 2000) * 0.25,
            2021 + rng.randrange(4),
        )

    def _literal_pool(self) -> list[int]:
        """The swarm-wide pool of 8 filter literals."""
        rng = _rng(self.seed, self.data_name, "literals")
        return rng.sample(range(1, min(self.size["stores_rows"], 20)), 8)

    def _solution_queries(self, rng: random.Random, pool: list[int]) -> tuple[str, ...]:
        filters = rng.sample(FILTER_TEMPLATES, rng.choice((1, 2)))
        return (JOIN_SQL,) + tuple(t.format(lit=rng.choice(pool)) for t in filters)


class SwarmArc(_SwarmTables):
    name = "swarm_arc"

    def _generate(self, agent: int):
        rng = _rng(self.seed, self.name, "agent", agent)
        pool = self._literal_pool()
        last_solution = self._solution_queries(rng, pool)
        while True:
            draw = rng.random()
            if draw < 0.25:
                queries = tuple(rng.sample(EXPLORE_SQL, rng.choice((1, 2))))
                yield PlannedProbe(
                    Probe(
                        queries=queries,
                        brief=Brief(
                            goal=rng.choice(EXPLORE_GOALS),
                            phase=Phase.METADATA_EXPLORATION,
                            accuracy=0.8,
                        ),
                        semantic_search=rng.choice(CATEGORIES + STATES),
                        memory_queries=(rng.choice(MEMORY_QUERIES),),
                    ),
                    "explore",
                )
            elif draw < 0.90:
                last_solution = self._solution_queries(rng, pool)
                yield PlannedProbe(
                    Probe(
                        queries=last_solution,
                        brief=Brief(goal=SOLVE_GOAL, phase=Phase.SOLUTION_FORMULATION),
                    ),
                    "solve",
                )
            else:
                yield PlannedProbe(
                    Probe(
                        queries=last_solution,
                        brief=Brief(goal=VALIDATE_GOAL, phase=Phase.VALIDATION),
                    ),
                    "validate",
                )

    def prepare_oracles(self, db: Database) -> None:
        statements = [JOIN_SQL, *EXPLORE_SQL]
        for template in FILTER_TEMPLATES:
            statements.extend(template.format(lit=lit) for lit in self._literal_pool())
        self.oracle = {sql: db.execute(sql).rows for sql in statements}

    def check(self, agent: int, planned: PlannedProbe, response) -> str | None:
        for outcome in response.outcomes:
            if outcome.status in ("ok", "from_history"):
                if not _rows_equal(outcome.result.rows, self.oracle[outcome.sql]):
                    return f"wrong rows for {outcome.sql[:70]!r}"
            elif outcome.status == "error" or planned.kind != "explore":
                # Exploration may be pruned or sampled by the satisficer;
                # solution and validation probes must be answered exactly.
                return f"{outcome.status}: {outcome.sql[:60]} {outcome.reason}"
        return None

    def validity(self, facts: dict) -> list[str]:
        if facts["mean_window_size"] < self.agents / 2:
            return [
                f"mean window size {facts['mean_window_size']:.1f} is under half the"
                f" {self.agents} agents: the swarm stopped forming shared windows"
            ]
        return []


class ScanDistinct(BaseWorkload):
    name = "scan_distinct"

    def build_db(self) -> Database:
        rng = _rng(self.seed, self.name, "data")
        db = Database(self.name)
        db.execute("CREATE TABLE big (id INT PRIMARY KEY, grp INT, amount FLOAT, qty INT)")
        db.insert_rows(
            "big",
            [(i, rng.randrange(16), rng.randrange(4, 2000) * 0.25, rng.randrange(1, 21))
             for i in range(self.size["big_rows"])],
        )
        return db

    def _generate(self, agent: int):
        rng = _rng(self.seed, self.name, "agent", agent)
        k = 0
        while True:
            sequence = agent + self.agents * k  # globally unique
            # Templates rotate (agent i's k-th probe uses template i+k), so
            # every window the lock-stepped agents form has the same mix and
            # window time does not depend on which templates a seed drew.
            template, low, high = SCAN_TEMPLATES[(agent + k) % len(SCAN_TEMPLATES)]
            sql = template.format(
                f=f"{rng.randrange(low, high)}.{sequence:07d}", n=1_000_000 + sequence
            )
            yield PlannedProbe(
                Probe(
                    queries=(sql,),
                    brief=Brief(goal=SCAN_GOAL, phase=Phase.SOLUTION_FORMULATION),
                ),
                "scan",
            )
            k += 1

    def check(self, agent: int, planned: PlannedProbe, response) -> str | None:
        return self._check_unique(planned, response)

    def validity(self, facts: dict) -> list[str]:
        problems = []
        if facts["history_hit_ratio"] != 0:
            problems.append(
                f"{facts['history_hit_ratio']:.4f} of outcomes came from history:"
                " literals are no longer unique"
            )
        if facts["rows_per_probe"] < self.size["big_rows"]:
            problems.append(
                f"rows_per_probe {facts['rows_per_probe']:.0f} is under the"
                f" {self.size['big_rows']}-row table: probes stopped scanning it"
            )
        return problems


@dataclass(frozen=True)
class WriteTask:
    """One writer task: hypothesis branches, then one insert on main."""

    #: Seconds after the writer starts at which the task is due.
    due_s: float
    #: Per hypothesis branch, the UPDATE statements to run on it.
    branches: tuple[tuple[str, ...], ...]
    merge_index: int
    insert_sql: str


class BranchRwWal(_SwarmTables):
    name = "branch_rw_wal"

    def build_system(self, db: Database, workdir: str):
        # No checkpoint during the run (recovery replays the whole tail);
        # REPRO_WAL_FSYNC is unset, so appends are not fsynced.
        db.attach_wal(os.path.join(workdir, "wal"), checkpoint_every=10**9)
        self.branches = BranchManager(main_db=db)
        return super().build_system(db, workdir)

    def _generate(self, agent: int):
        rng = _rng(self.seed, self.name, "agent", agent)
        pool = self._literal_pool()
        while True:
            yield PlannedProbe(
                Probe(
                    queries=self._solution_queries(rng, pool) + (COUNT_SALES_SQL,),
                    brief=Brief(goal=SOLVE_GOAL, phase=Phase.SOLUTION_FORMULATION),
                ),
                "read",
            )

    def write_tasks(self, count: int) -> list[WriteTask]:
        """The writer's open-loop schedule, ``WRITE_PERIOD_S`` apart on average.

        Gaps are drawn uniformly from 0.5-1.5 periods: a fixed period
        phase-locks with the readers' window cycle (about as long on this
        host) and the lock-in point, not the system, then decides the run.
        Every task is the paper's Sec. 6.2 agentic update — fork 2-4
        hypothesis branches, 2-4 UPDATEs each, merge one, roll the rest back
        — followed by one single-row INSERT on main. The insert is what makes
        every task wipe the serving system's history: a merge replays its
        UPDATEs through ``Catalog.update_row`` without publishing a change
        event, so with UPDATE-only tasks only every other window re-executed
        and the median latency sat on the edge between the two modes.
        """
        rng = _rng(self.seed, self.name, "writer")
        tasks = []
        due_s = 0.0
        for index in range(count):
            due_s += rng.uniform(0.5, 1.5) * WRITE_PERIOD_S
            branches = tuple(
                tuple(
                    "UPDATE products SET price = price + 0.25 WHERE id ="
                    f" {rng.randrange(self.size['products_rows'])}"
                    for _ in range(rng.randint(2, 4))
                )
                for _ in range(rng.randint(2, 4))
            )
            row = self._sale_row(rng, self.size["sales_rows"] + index)
            tasks.append(
                WriteTask(
                    due_s,
                    branches,
                    merge_index=rng.randrange(len(branches)),
                    insert_sql="INSERT INTO sales VALUES"
                    f" ({', '.join(repr(v) for v in row)})",
                )
            )
        return tasks

    def start_background(self, system, total_s: float) -> None:
        self._last_count = [0] * self.agents  # per-agent COUNT(*) seen so far
        tasks = self.write_tasks(int(total_s / WRITE_PERIOD_S) + 200)
        self.writer = Writer(system, self.branches, tasks)
        self._change_events = 0
        self._total_s = total_s

        def count(event) -> None:
            self._change_events += 1

        system.db.on_change(count)
        self.writer.start()

    def finish(self, system, loop: LoopResult, workdir: str):
        self.writer.stop()
        problems = [f"writer: {self.writer.error}"] if self.writer.error else []
        records = self.writer.measured(loop.measure_from, loop.measure_to)
        task_ms = [r.latency_s * 1000.0 for r in records]
        recover_s, replayed, mismatch = self._recover(system.db, workdir)
        if mismatch:
            problems.append(mismatch)
        end_to_end = {
            "write_task_p50_ms": median(task_ms),
            "write_task_p95_ms": percentile(task_ms, 0.95),
            "recover_s": recover_s,
        }
        layer = {
            "serve_lock_wait_ms": median([r.lock_wait_s for r in records]) * 1000.0,
            "writer_lateness_p95_ms":
                percentile([r.lateness_s for r in records], 0.95) * 1000.0,
            "invalidations_per_s": self._change_events / self._total_s,
            "recover_us_per_record": recover_s / max(1, replayed) * 1e6,
            "writer_fork_ms": median([r.fork_s for r in records]) * 1000.0,
            "writer_merge_ms": median([r.merge_s for r in records]) * 1000.0,
            "writer_rollback_ms": median([r.rollback_s for r in records]) * 1000.0,
        }
        return end_to_end, layer, problems

    def _recover(self, db: Database, workdir: str) -> tuple[float, int, str]:
        """Recover copies of the WAL directory (taken before ``close()``):
        median seconds, records replayed, and how the result differs from
        the live tables ('' when it does not)."""
        live = table_digest(db)
        times = []
        mismatch = ""
        replayed = 0
        for repeat in range(RECOVER_REPEATS):
            copy = os.path.join(workdir, f"recover{repeat}")
            shutil.copytree(db.wal.directory, copy)
            started = time.perf_counter()
            recovered = Database.recover(copy)
            times.append(time.perf_counter() - started)
            replayed = len(recovered.wal.replay_records())
            if table_digest(recovered) != live:
                mismatch = "recovered database differs from the live one"
            recovered.wal.close()
        return statistics.median(times), replayed, mismatch

    def check(self, agent: int, planned: PlannedProbe, response) -> str | None:
        for outcome in response.outcomes:
            if outcome.status not in ("ok", "from_history") or outcome.result is None:
                return f"{outcome.status}: {outcome.sql[:60]} {outcome.reason}"
        count = response.outcomes[-1].result.rows[0][0]
        if count < self._last_count[agent]:
            return f"COUNT(*) went backwards: {self._last_count[agent]} -> {count}"
        self._last_count[agent] = count
        return None

    def validity(self, facts: dict) -> list[str]:
        # Normally 25-65 ms. Two periods, not one: when the host slows (a
        # reader window then outlasts a period) the writer runs a task or two
        # behind without the schedule being lost; past two it is.
        if facts["writer_lateness_p95_ms"] >= 2 * WRITE_PERIOD_S * 1000.0:
            return [
                f"writer lateness p95 {facts['writer_lateness_p95_ms']:.1f} ms reached"
                " two periods: the write schedule is not being kept"
            ]
        return []


def table_digest(db: Database) -> dict[str, tuple]:
    """Per-table COUNT(*) plus the sum of every numeric column."""
    digest = {}
    for table in sorted(db.table_names()):
        schema = db.catalog.table(table).schema
        numeric = [
            c.name for c in schema.columns if c.data_type.value in ("INTEGER", "FLOAT")
        ]
        sums = ", ".join(f"SUM({name})" for name in numeric)
        sql = f"SELECT COUNT(*){', ' + sums if sums else ''} FROM {table}"
        digest[table] = tuple(db.execute(sql).rows[0])
    return digest


class TenantSharded(BaseWorkload):
    name = "tenant_sharded"
    partition = {"sales": "tenant"}

    def build_db(self) -> Database:
        rng = _rng(self.seed, self.name, "data")
        db = Database(self.name)
        db.execute("CREATE TABLE sales (tenant TEXT, id INT, qty INT, amount FLOAT)")
        rows = []
        for tenant in range(self.size["tenants"]):
            for i in range(self.size["rows_per_tenant"]):
                rows.append(
                    (f"t{tenant}", tenant * self.size["rows_per_tenant"] + i,
                     rng.randrange(1, 21), rng.randrange(4, 2000) * 0.25)
                )
        db.insert_rows("sales", rows)
        return db

    def build_system(self, db: Database, workdir: str):
        tier = ShardedSystem(db, shards=self.size["shards"], partition=self.partition)
        tier.prestart()
        return tier

    def principal(self, agent: int) -> str:
        return f"t{agent % self.size['tenants']}"

    def _generate(self, agent: int):
        rng = _rng(self.seed, self.name, "agent", agent)
        k = 0
        while True:
            sequence = 1_000_000 + agent + self.agents * k  # globally unique
            if (k + agent) % SCATTER_EVERY == SCATTER_EVERY - 1:
                sql = SCATTER_TEMPLATE.format(j=rng.randrange(1, 10), n=sequence)
                kind = "scatter"
            else:
                sql = rng.choice(PINNED_TEMPLATES).format(
                    t=self.principal(agent), j=rng.randrange(1, 10), n=sequence
                )
                kind = "pinned"
            yield PlannedProbe(
                Probe(
                    queries=(sql,),
                    brief=Brief(goal=TENANT_GOAL, phase=Phase.SOLUTION_FORMULATION),
                ),
                kind,
            )
            k += 1

    def check(self, agent: int, planned: PlannedProbe, response) -> str | None:
        return self._check_unique(planned, response)

    def finish(self, system, loop: LoopResult, workdir: str):
        matchmaker = system.stats()["matchmaker"]
        # Every scatter probe enqueues one unit per shard.
        scatters = matchmaker["units_enqueued"] / self.size["shards"]
        layer = {
            "scatter_probe_p50_ms": median(loop.latencies_ms("scatter")),
            "pinned_probe_p50_ms": median(loop.latencies_ms("pinned")),
            "matchmaker_rounds_per_scatter": matchmaker["rounds"] / max(1.0, scatters),
            "matchmaker_units_forced": matchmaker["units_forced"],
        }
        return {}, layer, []

    def validity(self, facts: dict) -> list[str]:
        share = facts["scatter_share"]
        # A smoke run completes a few dozen probes per agent: wider band.
        tolerance = 0.08 if self.smoke else 0.03
        if abs(share - 1.0 / SCATTER_EVERY) > tolerance:
            return [f"scatter share {share:.3f} is outside 10% +/- {tolerance:.0%}"]
        return []


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (SwarmArc, ScanDistinct, BranchRwWal, TenantSharded)
}

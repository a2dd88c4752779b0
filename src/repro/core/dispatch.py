"""Dispatch backends for the scheduler's speculative execution phase.

PR 2 gave :class:`~repro.core.scheduler.ProbeScheduler` a speculative
phase that runs each admission batch's independent engine work on a
``ThreadPoolExecutor``. On stock CPython that delivers parallelism in
name only: the engine is pure Python, so the GIL timeslices the worker
threads and the batch is no faster than the serial loop
(``bench_scheduler.py`` records ``parallel_capable: false`` on such
hosts). This module adds the **process-pool backend**: the same
speculation units — each a pure ``(plan, sample_rate, seed, catalog) ->
result`` function — execute in spawned worker processes on real cores.

Three pieces make the units portable:

* :class:`SpeculationPayload` — the picklable unit of work: the (frozen,
  memo-stripped) plan plus execution knobs. No optimizer, history, or
  cache references cross the boundary.
* **Versioned catalog snapshots** — each worker process is initialised
  once with a :class:`~repro.storage.catalog.CatalogSnapshot` and reuses
  it across batches. The pool remembers the shipped
  :meth:`~repro.storage.catalog.Catalog.version`; any write (``storage/``
  DML, ``txn/`` branch checkout, even direct table mutation) changes the
  version, and :class:`ProcessDispatcher` retires the pool and re-ships
  on next use. Workers also keep a process-local
  :class:`~repro.engine.executor.SubplanCache`, valid exactly as long as
  the snapshot (it dies with the pool).
* **Worker results** — a :class:`~repro.core.optimizer.PrecomputedExecution`
  (rows + :class:`~repro.engine.result.ExecStats` + estimate errors, or
  the engine error string) travels back for the unchanged serial replay
  to attribute in admission order.

Backend selection is ``"thread" | "process" | "auto"`` via
``SystemConfig.dispatch_backend`` or the ``REPRO_SCHEDULER_BACKEND``
environment override; ``auto`` picks the process pool exactly when
threads cannot overlap engine work (GIL enabled) and the host has more
than one core. Workers use the ``spawn`` start method unconditionally —
the serving system runs gateway/admission threads, which forked children
would inherit mid-lock.

Equivalence: engine runs are pure, so *where* they execute can never
change an answer. The scheduler's serial replay still owns every
order-sensitive effect; the differential suites run unchanged under
``REPRO_SCHEDULER_BACKEND=process`` in CI to prove rows, statuses,
history attribution, and budgets stay byte-identical.
"""

from __future__ import annotations

import os
import sys
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context

from repro.core.optimizer import PrecomputedExecution
from repro.engine.columnar import ColumnarExecutor, ColumnBatch
from repro.engine.executor import ExecContext, SubplanCache
from repro.errors import ReproError
from repro.obs import trace as obs_trace
from repro.plan.logical import PlanNode
from repro.storage.catalog import Catalog, CatalogSnapshot

#: Environment override for the dispatch backend — lets CI rerun the
#: unmodified differential suites under the process pool.
BACKEND_ENV_VAR = "REPRO_SCHEDULER_BACKEND"

BACKENDS = ("thread", "process", "auto")

#: Ceiling on one speculative engine run in a worker (seconds). A wedged
#: worker must not hang serving: on timeout the dispatcher raises, the
#: scheduler retires the pool and falls back to in-process execution.
WORKER_RESULT_TIMEOUT = 120.0


def threads_can_parallelise() -> bool:
    """Can *threads* overlap pure-Python engine work on this host?

    True only on free-threaded (no-GIL) builds; on stock CPython the GIL
    serialises the engine no matter how many cores exist.
    """
    return not getattr(sys, "_is_gil_enabled", lambda: True)()


def resolve_backend(backend: str | None) -> str:
    """Normalise a backend setting to ``"thread"`` or ``"process"``.

    ``None`` falls back to the ``REPRO_SCHEDULER_BACKEND`` environment
    override, else ``"thread"`` (the seed behaviour). ``"auto"`` picks
    the process pool exactly when it can win: threads cannot parallelise
    (GIL) and the host has more than one core.
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or "thread"
    backend = backend.lower()
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown dispatch backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "auto":
        multicore = (os.cpu_count() or 1) > 1
        return "process" if multicore and not threads_can_parallelise() else "thread"
    return backend


@dataclass(frozen=True)
class SpeculationPayload:
    """One picklable speculative engine run: a plan plus execution knobs.

    Everything a worker needs besides the catalog (shipped separately,
    once per worker): plans are frozen dataclasses whose pickled form
    drops the fingerprint memo, and the knobs mirror
    :class:`~repro.engine.executor.ExecContext`.
    """

    plan: PlanNode
    sample_rate: float
    sample_seed: int
    #: Record engine-node spans in the worker and ship them back on
    #: ``PrecomputedExecution.span``. Resolved by the parent (a worker
    #: must not consult its own environment) and set only when some
    #: traced probe shares this unit — tracing-off dispatch is unchanged.
    trace: bool = False


# ---------------------------------------------------------------------------
# worker side (module-level: spawn pickles these by qualified name)
# ---------------------------------------------------------------------------

#: Per-process worker state, populated by the pool initializer: the
#: restored catalog and (when MQO is on) a process-local subplan cache.
#: Both live exactly as long as the pool — retirement on catalog version
#: bump is what keeps them from ever serving stale data.
_WORKER_STATE: dict = {}


def _worker_init(snapshot: CatalogSnapshot, use_cache: bool) -> None:
    """Pool initializer: restore the catalog snapshot once per worker."""
    _WORKER_STATE["catalog"] = Catalog.from_snapshot(snapshot)
    _WORKER_STATE["version"] = snapshot.version
    _WORKER_STATE["cache"] = SubplanCache() if use_cache else None


def _worker_run(payload: SpeculationPayload) -> PrecomputedExecution:
    """Execute one speculation unit against the worker's catalog.

    Mirrors :meth:`ProbeOptimizer.speculative_execute` exactly: pure
    engine work, engine errors captured as strings, everything else a
    real bug that should surface loudly (and break the pool).
    """
    context = ExecContext(
        sample_rate=payload.sample_rate,
        sample_seed=payload.sample_seed,
        cache=_WORKER_STATE["cache"],
    )
    executor = ColumnarExecutor(_WORKER_STATE["catalog"], context)
    span = None
    token = None
    if payload.trace:
        # Detached subtree on this process's own monotonic clock; the
        # coordinator re-anchors it via obs_trace.reparent after unpickle.
        span = obs_trace.Span("speculation:worker")
        span.attrs["pid"] = os.getpid()
        token = obs_trace.set_current(span)
    try:
        result = executor.run(payload.plan)
    except ReproError as exc:
        return PrecomputedExecution(error=str(exc), span=span)
    finally:
        if token is not None:
            obs_trace.reset_current(token)
            span.finish()
    # Ride home column-major: one list per column pickles smaller than a
    # tuple per row. The dispatcher unpacks before replay.
    result.rows = ColumnBatch.from_rows(result.rows, len(result.columns))
    return PrecomputedExecution(result=result, span=span)


def _worker_ping() -> tuple:
    """Warmup probe: forces the worker to spawn and restore its snapshot."""
    return _WORKER_STATE["version"]


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class ProcessDispatcher:
    """Owns the scheduler's worker-process pool and its shipped snapshot.

    The pool outlives individual batches (spawn + snapshot restore are
    the expensive part; amortising them across batches is the point) and
    is retired when the catalog version moves past the shipped snapshot,
    when MQO is toggled, on :meth:`retire`, or when the dispatcher is
    garbage collected (a ``weakref.finalize`` per pool guarantees no
    leaked worker processes across a long test or serving session).
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))
        self._pool: ProcessPoolExecutor | None = None
        self._shipped_version: tuple | None = None
        self._shipped_use_cache: bool | None = None
        self._finalizer: weakref.finalize | None = None
        #: Observability: pools created (== snapshots shipped) and units
        #: executed in worker processes.
        self.snapshot_ships = 0
        self.units_dispatched = 0

    # -- pool lifecycle -----------------------------------------------------

    def ensure(self, catalog: Catalog, use_cache: bool) -> ProcessPoolExecutor:
        """The live pool for ``catalog``'s current version, (re)built as
        needed: a version bump or MQO toggle retires the old pool first."""
        version = catalog.version()
        if (
            self._pool is not None
            and version == self._shipped_version
            and use_cache == self._shipped_use_cache
        ):
            return self._pool
        self.retire()
        snapshot = catalog.snapshot()
        pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=get_context("spawn"),
            initializer=_worker_init,
            initargs=(snapshot, use_cache),
        )
        self._pool = pool
        self._shipped_version = version
        self._shipped_use_cache = use_cache
        self._finalizer = weakref.finalize(
            self, pool.shutdown, wait=False, cancel_futures=True
        )
        self.snapshot_ships += 1
        return pool

    def retire(self) -> None:
        """Shut the pool down; the next :meth:`ensure` ships afresh."""
        pool, self._pool = self._pool, None
        self._shipped_version = None
        self._shipped_use_cache = None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def prestart(self, catalog: Catalog, use_cache: bool) -> None:
        """Spawn every worker and restore its snapshot *now*.

        Serving systems call this to move the pool's cold-start cost
        (spawn + snapshot restore) out of the first batch's latency; the
        benchmark uses it to time steady-state serving honestly.
        """
        pool = self.ensure(catalog, use_cache)
        futures = [pool.submit(_worker_ping) for _ in range(self.workers)]
        for future in futures:
            future.result(timeout=WORKER_RESULT_TIMEOUT)

    # -- execution ----------------------------------------------------------

    def run(
        self, catalog: Catalog, payloads: list[SpeculationPayload], use_cache: bool
    ) -> list[PrecomputedExecution]:
        """Execute payloads on the pool; results in payload order.

        Raises on any pool-level failure (broken pool, unpicklable
        payload, timeout) — the scheduler treats every such exception as
        "this backend is unhealthy", retires the pool, and falls back to
        in-process execution, which can never change an answer.
        """
        pool = self.ensure(catalog, use_cache)
        futures = [pool.submit(_worker_run, payload) for payload in payloads]
        results = [future.result(timeout=WORKER_RESULT_TIMEOUT) for future in futures]
        for precomputed in results:
            result = precomputed.result
            if result is not None:
                result.rows = result.rows.to_rows()
        self.units_dispatched += len(results)
        return results

"""QoS policy: pure decisions about lanes, budgets, and load shedding.

This is the *policy* half of the overload-control layer (the split is
modeled on DIRAC's ResourceStatusSystem/PolicySystem: policies look at
observations and emit verdicts; the enforcement lives elsewhere — here in
:mod:`repro.qos.controller`, which the gateway drives). Everything in
this module is a pure function of its inputs plus explicitly-threaded
state, which is what keeps the QoS layer differential-testable: under no
overload the verdict is always "admit unchanged, FIFO order", so a
QoS-on system is byte-identical to a QoS-off system.

Three policy families live here:

* **Priority lanes** — every probe lands in one of three lanes derived
  from its :class:`~repro.core.brief.Brief` (``lane_of``): *interactive*
  (validation-phase probes, explicitly high-priority work), *standard*
  (solution formulation), *bulk* (metadata exploration, relaxed-accuracy
  scans, self-declared background work). Under overload, windows admit
  interactive before standard before bulk; within a lane, arrival order
  is preserved exactly.
* **Token buckets** — per-principal budgets refilled per served window
  (not wall-clock: window count is deterministic under test, wall-clock
  is not). A principal that floods the gateway exhausts its bucket and
  its surplus probes sort *behind every in-budget probe of any lane*, so
  no principal can starve the window for everyone else.
* **Watermarks** — overload is declared from observable queue state
  (pending depth, window-formation wait), never guessed. Below the
  watermarks the policy's verdict is the identity; above them,
  bulk-lane probes receive a :class:`Degradation` verdict (sample cap or
  bounded-staleness replica serving) that the controller enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util.env import env_flag

if TYPE_CHECKING:  # repro.core imports this package; stay cycle-free
    from repro.core.brief import Brief

#: ``REPRO_QOS`` turns the QoS layer on for every system in the process
#: (CI's differential leg); explicit ``SystemConfig.enable_qos`` wins.
QOS_ENV_VAR = "REPRO_QOS"


def resolve_qos_enabled(enabled: bool | None) -> bool:
    """Explicit config wins; else the ``REPRO_QOS`` env override; else off."""
    if enabled is not None:
        return bool(enabled)
    return env_flag(QOS_ENV_VAR)


# -- priority lanes ----------------------------------------------------------

LANE_INTERACTIVE = 0
LANE_STANDARD = 1
LANE_BULK = 2

LANE_NAMES = ("interactive", "standard", "bulk")

#: Sort offset for probes whose principal has exhausted its token bucket:
#: they keep their relative lane order but yield to every in-budget probe.
STARVED_OFFSET = len(LANE_NAMES)


def lane_of(brief: "Brief") -> int:
    """Derive a probe's priority lane from its brief.

    An explicit ``Brief(lane=...)`` always wins. Otherwise: validation
    probes are interactive (an agent double-checking an answer is at the
    end of its arc — latency matters most); metadata exploration and
    relaxed-accuracy probes are bulk (the brief already said approximate
    is fine); everything else is standard. A stated per-query priority
    weight >= 2 promotes one lane: the brief's own emphasis is the
    paper's channel for "this one matters".
    """
    # Local import: repro.core imports this package at module load, so a
    # module-level import here would close the cycle through repro.core's
    # package __init__ (same pattern as txn/replica.py).
    from repro.core.brief import Phase

    if brief.lane is not None:
        name = brief.lane.strip().lower()
        if name in LANE_NAMES:
            return LANE_NAMES.index(name)
    phase = brief.infer_phase()
    if phase is Phase.VALIDATION:
        lane = LANE_INTERACTIVE
    elif phase is Phase.METADATA_EXPLORATION:
        lane = LANE_BULK
    elif brief.accuracy is not None and brief.accuracy < 1.0:
        lane = LANE_BULK
    else:
        lane = LANE_STANDARD
    if brief.priorities and max(brief.priorities.values()) >= 2.0:
        lane = max(LANE_INTERACTIVE, lane - 1)
    return lane


def lane_name(lane: int) -> str:
    return LANE_NAMES[min(lane, len(LANE_NAMES) - 1)]


# -- token buckets -----------------------------------------------------------


class TokenBucket:
    """A per-principal admission budget, refilled per served window.

    Deliberately clockless: refills are driven by the gateway's own
    window cadence (``refill()`` once per window served), so bucket state
    is a deterministic function of the submission/serving sequence and
    the differential suites can reason about it.
    """

    def __init__(self, capacity: float, refill: float) -> None:
        self.capacity = max(1.0, float(capacity))
        self.refill_amount = max(0.0, float(refill))
        self.tokens = self.capacity

    def take(self, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens; False (and no spend) when short."""
        if self.tokens < cost:
            return False
        self.tokens -= cost
        return True

    def refill(self) -> None:
        self.tokens = min(self.capacity, self.tokens + self.refill_amount)


# -- configuration -----------------------------------------------------------


@dataclass
class QosConfig:
    """Knobs for the overload-control layer (all watermark-gated:
    an unloaded system never sees any of them act)."""

    #: Pending-probe depth at which the gateway declares overload and
    #: lane ordering + shedding activate. Deliberately an absolute count,
    #: not a multiple of ``max_batch``: overload is a statement about the
    #: backlog agents experience, not about window geometry.
    queue_high: int = 128
    #: Window-formation wait (ms) that also declares overload; ``None``
    #: disables the wait watermark (the default — formation wait includes
    #: the configured ``max_wait``, so a low bar would false-positive).
    wait_high_ms: float | None = None
    #: Hard admission cap: ``submit`` raises ``OverloadError`` beyond
    #: this queue depth. ``None`` (default) never rejects — the layer's
    #: whole point is degrade-don't-drop.
    queue_reject: int | None = None
    #: Sample-rate ceiling imposed on bulk-lane probes while shedding.
    shed_sample_rate: float = 0.1
    #: Staleness tolerance (catalog versions) imposed on bulk-lane
    #: read probes offloaded to replicas while shedding; ``None``
    #: restricts offload to probes that declared their own tolerance.
    shed_max_staleness: int | None = 8
    #: Per-principal token bucket: burst capacity and per-window refill.
    bucket_capacity: float = 64.0
    bucket_refill: float = 16.0
    #: Circuit breakers (see :mod:`repro.qos.breaker`): trip when the
    #: failure rate over the last ``breaker_window`` calls reaches
    #: ``breaker_failure_rate`` (with at least ``breaker_min_calls``
    #: observed), or when mean latency crosses ``breaker_latency_ms``.
    breaker_window: int = 16
    breaker_min_calls: int = 4
    breaker_failure_rate: float = 0.5
    breaker_latency_ms: float | None = None
    breaker_cooldown_s: float = 30.0
    breaker_half_open_probes: int = 1


# -- load shedding -----------------------------------------------------------


@dataclass(frozen=True)
class Degradation:
    """One probe's shedding verdict: *how* it degrades, and why.

    ``kind`` is ``"sample"`` (route through the satisficer's approximate
    path at ``sample_cap``) or ``"replica"`` (serve from a bounded-
    staleness read replica at ``staleness`` versions of tolerance). The
    ``cause`` names the watermark that tripped; every degraded response
    carries a steering line built from it — degradation must be legible
    to the agent (the paper's agent-first contract), never silent.
    """

    kind: str
    cause: str
    sample_cap: float | None = None
    staleness: int | None = None

    def steering(self) -> str:
        if self.kind == "sample":
            return (
                f"system under load ({self.cause}): answer sampled at"
                f" {self.sample_cap:.0%} to protect higher-priority lanes;"
                " resubmit with Brief(lane='interactive') if this probe"
                " needs an exact answer now"
            )
        return (
            f"system under load ({self.cause}): served from a read replica"
            f" at staleness <= {self.staleness} versions instead of the"
            " primary"
        )


@dataclass
class LoadState:
    """One observation of gateway pressure (policy input, action output)."""

    queue_depth: int
    window_wait_ms: float = 0.0
    cause: str | None = None


class AdmissionPolicy:
    """Watermark policy: maps queue observations to overload verdicts."""

    def __init__(self, config: QosConfig) -> None:
        self.config = config

    def overload_cause(self, queue_depth: int, window_wait_ms: float = 0.0) -> str | None:
        """The tripped watermark's description, or ``None`` when healthy."""
        if queue_depth > self.config.queue_high:
            return (
                f"admission queue depth {queue_depth} >"
                f" watermark {self.config.queue_high}"
            )
        wait_high = self.config.wait_high_ms
        if wait_high is not None and window_wait_ms > wait_high:
            return (
                f"window formation wait {window_wait_ms:.0f}ms >"
                f" watermark {wait_high:.0f}ms"
            )
        return None

    def rejection(self, queue_depth: int) -> int | None:
        """The hard cap to report in an ``OverloadError``, or ``None``."""
        limit = self.config.queue_reject
        if limit is not None and queue_depth >= limit:
            return limit
        return None


class SheddingPolicy:
    """Per-probe shedding verdicts for one overloaded window."""

    def __init__(self, config: QosConfig) -> None:
        self.config = config

    def degradation_for(self, probe, lane: int, cause: str, replica_ok: bool) -> Degradation | None:
        """The verdict for one admitted probe under a tripped watermark.

        Only bulk-lane (or bucket-starved) probes degrade — the
        interactive and standard lanes are what shedding protects.
        Replica serving wins when available (an exact answer at bounded
        staleness beats a fresh sample); the sampled path is the
        fallback for everything with executable SQL.
        """
        if lane < LANE_BULK:
            return None
        if replica_ok:
            staleness = probe.brief.max_staleness
            if staleness is None:
                staleness = self.config.shed_max_staleness
            if staleness is not None:
                return Degradation(
                    kind="replica", cause=cause, staleness=staleness
                )
        if probe.queries:
            return Degradation(
                kind="sample", cause=cause, sample_cap=self.config.shed_sample_rate
            )
        return None

"""Probe tracing: a zero-dependency ``Trace``/``Span`` tree.

A trace follows one probe end-to-end through the serving stack —
session submit → gateway admission window → QoS verdict → scheduler
work group + speculation unit → engine execution (per-plan-node spans)
→ replica offload / shard scatter-gather — and is attached
to the finished :class:`~repro.core.probe.ProbeResponse` as
``response.trace``. Export with :meth:`Trace.to_chrome` (Chrome
``trace_event`` JSON, loadable in ``about:tracing`` / Perfetto).

Tracing is opt-in per probe via ``Brief.trace`` or globally via
``REPRO_TRACE=1`` (setting ``REPRO_SLOW_PROBE_MS`` also implies it —
a slow probe cannot be traced retroactively). When no trace is active
the entire layer reduces to one ambient-contextvar read per plumbing
point, never per row; the bench-asserted contract is <2% overhead with
tracing off on the scheduler corpus.

Propagation uses a :mod:`contextvars` variable holding the *current
span*: engine recursion and thread-pool speculation each re-anchor it
explicitly.

Concurrency discipline: a ``Span``'s ``children`` list is only ever
appended to by the thread that owns the span at that moment — unit
spans are pre-created on the coordinator thread *before* pool
submission, so pool workers only ever touch their own subtree.
"""

from __future__ import annotations

import contextvars
import json
import os
import time
from contextlib import contextmanager
from typing import Iterator

from repro.util.env import env_flag

TRACE_ENV_VAR = "REPRO_TRACE"
SLOW_PROBE_ENV_VAR = "REPRO_SLOW_PROBE_MS"

#: Kill switch for benchmarking the instrumentation itself: when True,
#: every obs entry point short-circuits before touching the contextvar,
#: so ``bench_obs`` can A/B "tracing off" against "obs layer absent".
DISABLED = False

_now = time.perf_counter


def resolve_trace_enabled() -> bool:
    """Is global tracing requested by the environment right now?

    Read dynamically (not cached at import) so CI legs that export
    ``REPRO_TRACE=1`` and tests that monkeypatch the env both work.
    """
    if env_flag(TRACE_ENV_VAR):
        return True
    # A slow-probe threshold implies tracing: the offending probe's
    # trace must already exist by the time it turns out to be slow.
    return bool(os.environ.get(SLOW_PROBE_ENV_VAR, "").strip())


def trace_wanted(brief) -> bool:
    """Should a probe carrying ``brief`` be traced?

    An explicit ``Brief.trace`` (True *or* False) wins over the
    environment; ``None`` defers to :func:`resolve_trace_enabled`.
    """
    if DISABLED:
        return False
    explicit = getattr(brief, "trace", None) if brief is not None else None
    if explicit is not None:
        return bool(explicit)
    return resolve_trace_enabled()


class Span:
    """One timed node in a trace tree.

    Timings are monotonic-clock (``time.perf_counter``) floats in
    seconds; ``attrs`` is a flat dict of structured attributes;
    ``children`` are sub-spans.
    """

    def __init__(self, name: str, start: float | None = None) -> None:
        self.name = name
        self.start = _now() if start is None else start
        self.end: float | None = None
        self.attrs: dict = {}
        self.children: list[Span] = []

    def child(self, name: str, start: float | None = None, **attrs) -> "Span":
        span = Span(name, start=start)
        if attrs:
            span.attrs.update(attrs)
        self.children.append(span)
        return span

    def note(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def finish(self, end: float | None = None) -> "Span":
        if self.end is None:
            self.end = _now() if end is None else end
        return self

    @property
    def duration_ms(self) -> float:
        end = self.end if self.end is not None else _now()
        return (end - self.start) * 1000.0

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, prefix: str) -> list["Span"]:
        """Every span in this subtree whose name starts with ``prefix``."""
        return [span for span in self.walk() if span.name.startswith(prefix)]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration_ms": self.duration_ms if self.end is not None else None,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_ms:.3f}ms, children={len(self.children)})"


class Trace:
    """A probe's span tree, rooted at the ``probe`` span."""

    def __init__(self, name: str = "probe", **attrs) -> None:
        self.root = Span(name)
        if attrs:
            self.root.attrs.update(attrs)

    def finish(self) -> "Trace":
        self.root.finish()
        return self

    @property
    def finished(self) -> bool:
        return self.root.end is not None

    @property
    def duration_ms(self) -> float:
        return self.root.duration_ms

    def spans(self) -> Iterator[Span]:
        return self.root.walk()

    def find(self, prefix: str) -> list[Span]:
        return self.root.find(prefix)

    def to_dict(self) -> dict:
        return self.root.to_dict()

    def to_chrome(self) -> dict:
        """Chrome ``trace_event`` JSON (one complete ``"X"`` event per
        span, µs timestamps relative to the trace origin) — loadable
        directly in ``about:tracing`` or https://ui.perfetto.dev."""
        origin = self.root.start
        events = []
        for span in self.spans():
            end = span.end if span.end is not None else span.start
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": max(0.0, (end - span.start) * 1e6),
                    "pid": 1,
                    "tid": 1,
                    "args": dict(span.attrs),
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_chrome_json(self) -> str:
        return json.dumps(self.to_chrome(), default=str)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.root.name!r}, spans={sum(1 for _ in self.spans())})"


# -- ambient context ----------------------------------------------------------

_CURRENT: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


def current_span() -> Span | None:
    """The ambient span execution is currently inside, or ``None``.

    This is the single call every tracing-off hot path pays: one module
    flag check plus one contextvar read.
    """
    if DISABLED:
        return None
    return _CURRENT.get()


def set_current(span: Span | None) -> contextvars.Token:
    """Re-anchor the ambient span; pass the token to :func:`reset_current`."""
    return _CURRENT.set(span)


def reset_current(token: contextvars.Token) -> None:
    _CURRENT.reset(token)


@contextmanager
def use_span(span: Span | None):
    """Run a block with ``span`` as the ambient span (no-op on ``None``)."""
    if span is None:
        yield None
        return
    token = _CURRENT.set(span)
    try:
        yield span
    finally:
        _CURRENT.reset(token)


@contextmanager
def child_span(name: str, **attrs):
    """Open a child of the ambient span for the block's duration.

    Yields ``None`` (and does nothing) when no trace is active, so call
    sites need no conditional of their own.
    """
    parent = current_span()
    if parent is None:
        yield None
        return
    span = parent.child(name, **attrs)
    token = _CURRENT.set(span)
    try:
        yield span
    finally:
        _CURRENT.reset(token)
        span.finish()


# -- per-probe attachment -----------------------------------------------------


def ensure_probe_trace(probe) -> Trace | None:
    """The probe's trace, creating one if its brief asks for tracing.

    The trace rides on the probe instance itself (``probe._obs_trace``)
    so it survives the ticket → window → scheduler hand-offs without
    widening any signature. ``dataclasses.replace`` drops the
    attribute — derived probes (scatter partials, effective copies)
    intentionally start fresh.
    """
    if DISABLED:
        return None
    trace = getattr(probe, "_obs_trace", None)
    if trace is not None:
        return trace
    if not trace_wanted(getattr(probe, "brief", None)):
        return None
    trace = Trace(agent_id=getattr(probe, "agent_id", None))
    probe._obs_trace = trace
    return trace


def probe_trace(probe) -> Trace | None:
    """The trace already attached to ``probe``, if any (never creates)."""
    if DISABLED:
        return None
    return getattr(probe, "_obs_trace", None)

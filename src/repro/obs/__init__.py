"""Observability: probe tracing, unified metrics, slow-probe log.

Zero-dependency layer threaded through every serving tier — see
:mod:`repro.obs.trace` (``Trace``/``Span`` + context propagation),
:mod:`repro.obs.metrics` (``Counter``/``Gauge``/``Histogram`` registry
with Prometheus/JSON renderers), and :mod:`repro.obs.slowlog`.
"""

from repro.obs.metrics import (
    BoundInstrument,
    Counter,
    Gauge,
    Histogram,
    MetricAttr,
    MetricsRegistry,
    MetricsSnapshot,
    merge_snapshots,
)
from repro.obs.slowlog import SlowProbeEntry, SlowProbeLog, resolve_slow_probe_ms
from repro.obs.trace import (
    SLOW_PROBE_ENV_VAR,
    TRACE_ENV_VAR,
    Span,
    Trace,
    child_span,
    current_span,
    ensure_probe_trace,
    probe_trace,
    reset_current,
    resolve_trace_enabled,
    set_current,
    trace_wanted,
    use_span,
)

__all__ = [
    "BoundInstrument",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricAttr",
    "MetricsRegistry",
    "MetricsSnapshot",
    "merge_snapshots",
    "SlowProbeEntry",
    "SlowProbeLog",
    "resolve_slow_probe_ms",
    "SLOW_PROBE_ENV_VAR",
    "TRACE_ENV_VAR",
    "Span",
    "Trace",
    "child_span",
    "current_span",
    "ensure_probe_trace",
    "probe_trace",
    "reset_current",
    "resolve_trace_enabled",
    "set_current",
    "trace_wanted",
    "use_span",
]

"""The harness's own span list (the program's ``REPRO_TRACE`` stays off).

Spans are recorded in benchmark code around each call into a layer: name,
layer, start, end, parent, probe id. They stay in memory until the run ends
and are then written as Chrome ``trace_event`` JSON. A layer's *self time*
is its spans' duration minus the part of each interval that child spans
cover (children may overlap each other — worker threads — so coverage is
the union of their intervals, clipped to the parent).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    probe: int | None
    tid: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        #: The span that wrapped calls attach to when their own thread has no
        #: open span (worker threads serving the window the walk opened).
        self._ambient: int | None = None
        self._local = threading.local()

    def add(self, name, layer, start, end, parent=None, probe=None) -> int:
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                Span(span_id, name, layer, start, end, parent, probe,
                     threading.get_ident())
            )
        return span_id

    @contextmanager
    def span(self, name: str, layer: str, probe: int | None = None, ambient=False):
        """Time a block as a child of this thread's open span (else of the
        ambient one); ``ambient=True`` makes it the ambient span meanwhile."""
        parent = getattr(self._local, "open", None)
        if parent is None:
            parent = self._ambient
        with self._lock:
            span_id = len(self.spans)
            record = Span(span_id, name, layer, 0.0, 0.0, parent, probe,
                          threading.get_ident())
            self.spans.append(record)
        previous_open = getattr(self._local, "open", None)
        previous_ambient = self._ambient
        self._local.open = span_id
        if ambient:
            self._ambient = span_id
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._local.open = previous_open
            if ambient:
                self._ambient = previous_ambient

    def wrap(self, owner, attribute: str, name: str, layer: str):
        """Record a span around every call of ``owner.attribute`` (a public
        method, replaced on the instance only); returns the undo function."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)
        return lambda: delattr(owner, attribute)

    # -- analysis ----------------------------------------------------------

    def self_times(self, first: int, last: int) -> dict[str, dict]:
        """Per layer: span count, total and self seconds, over the spans
        numbered ``first`` up to ``last``."""
        spans = self.spans[first:last]
        children: dict[int, list[Span]] = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                children[span.parent].append(span)
        layers: dict[str, dict] = defaultdict(
            lambda: {"spans": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in spans:
            covered = _covered(span, children.get(span.span_id, ()))
            entry = layers[span.layer]
            entry["spans"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += (span.end - span.start) - covered
        return dict(layers)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span.name] += 1
        return dict(out)

    def write_chrome(self, path: str, metadata: dict) -> None:
        """Chrome ``trace_event`` JSON (loads in Perfetto / about:tracing)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 1),
                "dur": round((span.end - span.start) * 1e6, 1),
                "pid": 1,
                "tid": span.tid,
                "args": {"id": span.span_id, "parent": span.parent,
                         "probe": span.probe},
            }
            for span in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "metadata": metadata}, handle)


def _covered(parent: Span, kids) -> float:
    """Length of the union of the children's intervals inside the parent."""
    intervals = sorted(
        (max(k.start, parent.start), min(k.end, parent.end)) for k in kids
    )
    covered = 0.0
    cursor = parent.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered

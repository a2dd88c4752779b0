"""A lock-guarded LRU whose entries are valid under one version stamp.

It sits below every layer that keys derived work by something hashable:
the planner's compiled statements and plan templates (keyed by SQL text
and by token shape, stamped with the catalog version), the shard router's
scatter analyses and the parser's statement templates (both keyed by
token shape under a constant stamp: their values depend on nothing that
changes).
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class StatementCache:
    """LRU of derived values under one version stamp.

    Keys are any hashable (SQL text for compiled statements, a token
    shape for parse templates). ``get``/``put`` carry the caller's stamp; when it differs from the
    cache's, every entry is dropped first (one *invalidation*), so an
    entry is only ever served at the exact stamp it was stored under.
    Values are opaque to the cache. ``max_entries=0`` disables
    caching — the differential tests' always-miss baseline.

    Lock discipline: every accessor — including ``__len__`` and the
    counter snapshot — takes ``_lock`` before touching the entries or the
    counters, and none calls another locked method while holding it (the
    lock is not reentrant).
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self._entries: OrderedDict[object, object] = OrderedDict()
        self._max_entries = max_entries
        self._stamp: tuple | None = None
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def _restamp(self, stamp: tuple) -> None:
        # Caller holds the lock.
        if stamp != self._stamp:
            if self._entries:
                self._entries.clear()
                self.invalidations += 1
            self._stamp = stamp

    def get(self, key, stamp: tuple):
        with self._lock:
            self._restamp(stamp)
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def discount_miss(self) -> None:
        """Take back the miss the last :meth:`get` counted: the text turned
        out to be something this cache never holds (DML, DDL), so it is not
        a compilation the hit ratio should see."""
        with self._lock:
            self.misses -= 1

    def put(self, key, stamp: tuple, entry) -> None:
        if self._max_entries <= 0:
            return
        with self._lock:
            self._restamp(stamp)
            if key in self._entries:
                self._entries.move_to_end(key)
            elif len(self._entries) >= self._max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[key] = entry

    def counters(self) -> tuple[int, int, int, int]:
        """A consistent (hits, misses, evictions, invalidations) snapshot."""
        with self._lock:
            return (self.hits, self.misses, self.evictions, self.invalidations)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class TemplateCache(StatementCache):
    """A shape-keyed template LRU, plus a tally of unliftable lookups.

    A lookup that finds a template marked unliftable is counted as a hit
    by the base class and as unliftable here; :meth:`template_counters`
    separates the two.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        super().__init__(max_entries)
        self.unliftable = 0

    def note_unliftable(self) -> None:
        with self._lock:
            self.unliftable += 1

    def template_counters(self) -> tuple[int, int, int]:
        """A consistent (hits, misses, unliftable) snapshot: lookups served
        by binding a template, lookups that found no template, and lookups
        that found an unliftable one."""
        with self._lock:
            return (self.hits - self.unliftable, self.misses, self.unliftable)

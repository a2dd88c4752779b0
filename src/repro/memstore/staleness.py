"""Staleness policies for the agentic memory store.

The paper (Sec. 6.1) weighs two maintenance strategies for memory whose
source data changed:

* **EAGER** — invalidate (drop) dependent artifacts immediately on change.
  Never serves stale grounding; loses potentially-still-useful facts.
* **LAZY** — keep artifacts but mark them stale; lookups return them with
  a staleness flag the agent can choose to trust or re-verify. Cheaper,
  but "stale information may lead a new probe to make a mistake".

Schema changes (CREATE/DROP) always invalidate dependents under both
policies; data changes only affect ``data_sensitive`` artifacts.
"""

from __future__ import annotations

import enum

from repro.db.database import ChangeEvent


class StalenessPolicy(enum.Enum):
    EAGER = "eager"
    LAZY = "lazy"


def affected_by(event: ChangeEvent, depends_on: tuple[str, ...], data_sensitive: bool) -> bool:
    """Does ``event`` invalidate an artifact with these dependencies?"""
    table = event.table.lower()
    touched = table in {d.lower() for d in depends_on}
    return touched and reaches_dependent(event, data_sensitive)


def reaches_dependent(event: ChangeEvent, data_sensitive: bool) -> bool:
    """Does ``event`` invalidate an artifact that depends on its table?"""
    return event.kind in ("create", "drop") or data_sensitive

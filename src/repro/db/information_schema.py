"""The ``information_schema`` names, re-exported for the facade's callers.

Agents explore metadata the way they would on PostgreSQL (``SELECT
table_name FROM information_schema.tables``). The two tables are derived
state of each :class:`~repro.storage.catalog.Catalog`: built from its
stored tables on first read after a change, memoized on
``Catalog.data_version_tuple()``, and never stored, journaled or
snapshotted. A read of them writes nothing, and a replica or shard answers
them from its own catalog. See :meth:`Catalog.table
<repro.storage.catalog.Catalog.table>`.
"""

from __future__ import annotations

from repro.storage.schema import COLUMNS_NAME, TABLES_NAME, is_information_schema

__all__ = ["COLUMNS_NAME", "TABLES_NAME", "is_information_schema"]

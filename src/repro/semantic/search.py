"""Semantic search over everything in a database.

``SemanticSearch`` indexes table names, column names, schema descriptions
and TEXT cell values of a :class:`~repro.db.Database`, then answers
"where does this phrase appear / what is semantically close to it?" probes
with ranked, located hits. The index is stamped with ``Catalog.version()``
and rebuilds lazily when the stamp has moved — after any schema or data
change, whether or not it published a change event.

Ranking blends exact token overlap (from the inverted index) with hashed-
embedding cosine similarity of the location's description string, so
``electronics`` surfaces a table named ``electronic_goods`` even without a
shared exact token.

A swarm asks the same phrases again and again, so ranked hits are
memoized by ``(phrase, limit, kinds)``. The memo shares one attribute with
the stamp of the index build that computed it, and ``refresh`` replaces
both together when it rebuilds: a memoized ranking is only ever served
from the build it was computed on, so it equals a fresh search. Phrases
come from agents, so the memo holds at most
:data:`~repro.semantic.embedding.MAX_CACHED_TEXTS` rankings (the
embedder's bound on memoized phrase embeddings) and drops the oldest
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.db.database import Database
from repro.semantic import embedding
from repro.semantic.embedding import HashedEmbedder
from repro.semantic.inverted import InvertedIndex, Location

#: Cap on text cells indexed per column, keeping index builds bounded.
MAX_CELLS_PER_COLUMN = 2000


@dataclass(frozen=True)
class SearchHit:
    """One ranked match from a semantic probe."""

    location: Location
    score: float
    snippet: str

    def describe(self) -> str:
        loc = self.location
        if loc.kind == "table_name":
            return f"table {loc.table} (score {self.score:.2f})"
        if loc.kind == "column_name":
            return f"column {loc.table}.{loc.column} (score {self.score:.2f})"
        if loc.kind == "cell":
            return (
                f"value {self.snippet!r} in {loc.table}.{loc.column}"
                f" (score {self.score:.2f})"
            )
        return f"description of {loc.table} (score {self.score:.2f})"


class SemanticSearch:
    """Anywhere-search over a database's data and metadata."""

    def __init__(self, db: Database, embedder: HashedEmbedder | None = None) -> None:
        self._db = db
        self._embedder = embedder or HashedEmbedder()
        self._index = InvertedIndex()
        self._texts: dict[Location, str] = {}
        #: Every metadata (non-cell) location with its text embedding and
        #: that vector's norm. Each search scores all of them, so they are
        #: derived once per index build, not once per probe.
        self._metadata: list[tuple[Location, np.ndarray, float]] = []
        #: (``Catalog.version()`` the index was built at, {(phrase, limit,
        #: kinds): ranked hits}). One attribute, so a reader never pairs
        #: one build's stamp with another build's answers.
        self._memo: tuple[tuple | None, dict] = (None, {})
        self.memo_hits = 0
        self.memo_misses = 0

    # -- indexing ------------------------------------------------------------

    def refresh(self) -> None:
        # Stamp read before the scan: a write racing the rebuild leaves the
        # index behind the catalog, so the next search rebuilds again.
        version = self._db.catalog.version()
        if version == self._memo[0]:
            return
        self._index.clear()
        self._texts.clear()
        for table_name in self._db.table_names():
            table = self._db.catalog.table(table_name)
            schema = table.schema
            table_loc = Location("table_name", schema.name)
            self._add(schema.name, table_loc)
            if schema.description:
                desc_loc = Location("description", schema.name)
                self._add(schema.description, desc_loc)
            for column in schema.columns:
                col_loc = Location("column_name", schema.name, column.name)
                self._add(column.name, col_loc)
                if column.description:
                    self._add(column.description, col_loc)
            self._index_cells(table_name)
        self._metadata = []
        for location, text in self._texts.items():
            if location.kind != "cell":
                vector = self._embedder.embed(text)
                self._metadata.append((location, vector, float(np.linalg.norm(vector))))
        self._memo = (version, {})

    def _index_cells(self, table_name: str) -> None:
        table = self._db.catalog.table(table_name)
        schema = table.schema
        text_positions = [
            (position, column.name)
            for position, column in enumerate(schema.columns)
            if column.data_type.value == "TEXT"
        ]
        if not text_positions:
            return
        budget = {name: MAX_CELLS_PER_COLUMN for _, name in text_positions}
        for row_id, row in table.scan_with_ids():
            for position, name in text_positions:
                value = row[position]
                if not isinstance(value, str) or not value:
                    continue
                if budget[name] <= 0:
                    continue
                budget[name] -= 1
                self._add(value, Location("cell", schema.name, name, row_id))

    def _add(self, text: str, location: Location) -> None:
        self._index.add_text(text, location)
        existing = self._texts.get(location)
        self._texts[location] = f"{existing} {text}" if existing else text

    # -- queries -----------------------------------------------------------------

    def search(
        self,
        phrase: str,
        limit: int = 10,
        kinds: tuple[str, ...] | None = None,
    ) -> list[SearchHit]:
        """Ranked locations matching ``phrase`` anywhere in the database."""
        self.refresh()
        memo = self._memo[1]
        key = (phrase, limit, kinds)
        hits = memo.get(key)
        if hits is not None:
            self.memo_hits += 1
            return list(hits)
        self.memo_misses += 1
        hits = self._rank(phrase, limit, kinds)
        if len(memo) >= embedding.MAX_CACHED_TEXTS:
            memo.pop(next(iter(memo)), None)
        memo[key] = hits
        return list(hits)

    def _rank(
        self, phrase: str, limit: int, kinds: tuple[str, ...] | None
    ) -> list[SearchHit]:
        token_hits = self._index.lookup_phrase(phrase)
        query_vector = self._embedder.embed(phrase)
        query_norm = float(np.linalg.norm(query_vector))

        candidates: dict[Location, float] = {}
        for location, count in token_hits.items():
            candidates[location] = 1.0 + 0.25 * (count - 1)
        # Embedding pass over all metadata locations (tables/columns are few)
        # plus any token-matched cells.
        matched_cells = []
        for location in token_hits:
            if location.kind == "cell":
                vector = self._embedder.embed(self._texts[location])
                matched_cells.append((location, vector, float(np.linalg.norm(vector))))
        for location, vector, norm in chain(self._metadata, matched_cells):
            if query_norm == 0.0 or norm == 0.0:
                continue  # cosine similarity 0: adds no evidence
            similarity = float(np.dot(query_vector, vector) / (query_norm * norm))
            # Hashing collisions put the noise floor near 0.07 at 128 dims;
            # embedding-only evidence must clear it, token hits need not.
            if similarity <= 0.12 and location not in candidates:
                continue
            if similarity <= 0.0:
                continue
            candidates[location] = candidates.get(location, 0.0) + similarity

        hits = [
            SearchHit(location, score, self._texts.get(location, ""))
            for location, score in candidates.items()
        ]
        if kinds is not None:
            hits = [hit for hit in hits if hit.location.kind in kinds]
        hits.sort(key=lambda hit: (-hit.score, _location_key(hit.location)))
        return hits[:limit]

    def find_tables(self, phrase: str, limit: int = 5) -> list[str]:
        """Tables most related to ``phrase`` (by any evidence kind)."""
        self.refresh()
        scores: dict[str, float] = {}
        for hit in self.search(phrase, limit=50):
            scores[hit.location.table] = max(
                scores.get(hit.location.table, 0.0), hit.score
            )
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        return [table for table, _ in ranked[:limit]]

    def find_columns(self, phrase: str, limit: int = 5) -> list[tuple[str, str]]:
        """(table, column) pairs most related to ``phrase``."""
        self.refresh()
        hits = self.search(phrase, limit=50, kinds=("column_name", "cell"))
        seen: list[tuple[str, str]] = []
        for hit in hits:
            if hit.location.column is None:
                continue
            pair = (hit.location.table, hit.location.column)
            if pair not in seen:
                seen.append(pair)
            if len(seen) >= limit:
                break
        return seen


def _location_key(location: Location) -> tuple:
    return (
        location.kind,
        location.table,
        location.column or "",
        location.row_id if location.row_id is not None else -1,
    )

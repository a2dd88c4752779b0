"""The agentic memory store.

A hybrid store over grounding artifacts:

* **semantic lookup** — a vector index over artifact texts answers
  open-ended "what do we know that is like X?" probes;
* **structured lookup** — exact retrieval by kind and subject
  ``(table[, column])`` serves targeted probes. One artifact stands per
  (kind, subject, principal): a put supersedes the previous one, and a put
  with the same text refreshes it in place without touching the vector
  index. The serving system keys an executed statement's result by its
  table and statement *shape* (the text with ``?`` for its literals), so
  the store grows with the shapes a swarm runs, not with its probes;
* **staleness** — subscribes to database change events and applies an
  :class:`~repro.memstore.staleness.StalenessPolicy`; artifacts are
  indexed by the tables they depend on, so an event visits only its
  table's dependents that it can still change;
* **access control** — artifacts live in per-principal namespaces; lookups
  see the caller's own artifacts plus explicitly ``shared`` ones. The
  ``share_across_principals`` knob models the paper's privacy trade-off:
  sharing boosts efficiency but leaks one user's discoveries to another.
"""

from __future__ import annotations

from collections import defaultdict

from repro.db.database import ChangeEvent, Database
from repro.errors import MemoryStoreError
from repro.memstore.artifacts import Artifact, ArtifactKind
from repro.memstore.staleness import StalenessPolicy, reaches_dependent
from repro.memstore.vector_index import VectorIndex
from repro.semantic.embedding import HashedEmbedder


class AgenticMemoryStore:
    """Persistent, queryable grounding shared by agents (paper Sec. 6.1)."""

    def __init__(
        self,
        policy: StalenessPolicy = StalenessPolicy.LAZY,
        share_across_principals: bool = True,
        embedder: HashedEmbedder | None = None,
    ) -> None:
        self.policy = policy
        self.share_across_principals = share_across_principals
        self._artifacts: dict[int, Artifact] = {}
        self._by_subject: dict[tuple, list[int]] = defaultdict(list)
        #: table -> id -> artifact, for every artifact depending on the
        #: table: not yet stale in ``_fresh``, stale (which only an EAGER
        #: event still removes) in ``_stale``. Read from ``depends_on`` at
        #: put; ``on_change`` and ``refresh`` move artifacts between them.
        self._fresh: dict[str, dict[int, Artifact]] = defaultdict(dict)
        self._stale: dict[str, dict[int, Artifact]] = defaultdict(dict)
        self._vectors = VectorIndex(embedder)
        self.invalidations = 0
        self.stale_marks = 0

    # -- wiring ---------------------------------------------------------------

    def attach(self, db: Database) -> None:
        """Subscribe to a database's change events for staleness tracking."""
        db.on_change(self.on_change)

    # -- writes -----------------------------------------------------------------

    def put(self, artifact: Artifact) -> int:
        """Store an artifact; returns the id it is stored under.

        An existing artifact with the same (kind, subject, principal) is
        superseded. When its text is the one ``artifact`` brings, it is
        refreshed in place instead: it keeps its id, its ``hits`` and its
        vector row, and takes ``artifact``'s content, turn, dependencies,
        sharing and staleness. The vector index, and with it the recall
        memo, is then left alone: re-remembering a known fact costs no
        embedding and no rescoring of later recalls. A changed text
        replaces the old artifact with ``artifact``, whose row goes last.
        """
        existing = self._find_exact(
            artifact.kind, artifact.subject_key(), artifact.principal
        )
        if existing is not None:
            if existing.text == artifact.text:
                self._unindex_dependencies(existing)
                existing.content = artifact.content
                existing.created_turn = artifact.created_turn
                existing.depends_on = artifact.depends_on
                existing.data_sensitive = artifact.data_sensitive
                existing.shared = artifact.shared
                existing.stale = artifact.stale
                self._index_dependencies(existing)
                return existing.artifact_id
            self._remove(existing.artifact_id)
        self._artifacts[artifact.artifact_id] = artifact
        self._by_subject[(artifact.kind, artifact.subject_key())].append(
            artifact.artifact_id
        )
        self._index_dependencies(artifact)
        self._vectors.add(artifact.artifact_id, artifact.text)
        return artifact.artifact_id

    def remember(
        self,
        kind: ArtifactKind,
        subject: tuple[str, ...],
        text: str,
        principal: str = "public",
        shared: bool = False,
        depends_on: tuple[str, ...] | None = None,
        data_sensitive: bool = True,
        turn: int = 0,
        **content,
    ) -> int:
        """Convenience constructor + put."""
        artifact = Artifact(
            kind=kind,
            subject=subject,
            text=text,
            content=content,
            principal=principal,
            shared=shared,
            depends_on=depends_on if depends_on is not None else (subject[0],),
            data_sensitive=data_sensitive,
            created_turn=turn,
        )
        return self.put(artifact)

    def _remove(self, artifact_id: int) -> None:
        artifact = self._artifacts.pop(artifact_id, None)
        if artifact is None:
            return
        key = (artifact.kind, artifact.subject_key())
        if artifact_id in self._by_subject.get(key, []):
            self._by_subject[key].remove(artifact_id)
        self._unindex_dependencies(artifact)
        self._vectors.remove(artifact_id)

    def _index_dependencies(self, artifact: Artifact) -> None:
        index = self._stale if artifact.stale else self._fresh
        for table in {table.lower() for table in artifact.depends_on}:
            index[table][artifact.artifact_id] = artifact

    def _unindex_dependencies(self, artifact: Artifact) -> None:
        for table in {table.lower() for table in artifact.depends_on}:
            for index in (self._fresh, self._stale):
                dependents = index.get(table)
                if dependents is not None:
                    dependents.pop(artifact.artifact_id, None)

    # -- reads ------------------------------------------------------------------

    def get(self, artifact_id: int, principal: str = "public") -> Artifact:
        artifact = self._artifacts.get(artifact_id)
        if artifact is None:
            raise MemoryStoreError(f"no artifact {artifact_id}")
        if not self._visible(artifact, principal):
            from repro.errors import AccessDenied

            raise AccessDenied(
                f"principal {principal!r} cannot read artifact {artifact_id}"
            )
        artifact.hits += 1
        return artifact

    def lookup(
        self,
        kind: ArtifactKind,
        subject: tuple[str, ...],
        principal: str = "public",
        include_stale: bool = True,
    ) -> list[Artifact]:
        """Exact structured lookup by kind and subject."""
        key = tuple(part.lower() for part in subject)
        out = []
        for artifact_id in self._by_subject.get((kind, key), []):
            artifact = self._artifacts[artifact_id]
            if not self._visible(artifact, principal):
                continue
            if artifact.stale and not include_stale:
                continue
            artifact.hits += 1
            out.append(artifact)
        return out

    def search(
        self,
        text: str,
        principal: str = "public",
        k: int = 5,
        include_stale: bool = True,
        min_score: float = 0.05,
    ) -> list[tuple[Artifact, float]]:
        """Semantic lookup: artifacts whose text is similar to ``text``."""
        raw = self._vectors.query(text, k=k * 3)
        out: list[tuple[Artifact, float]] = []
        for artifact_id, score in raw:
            if score < min_score:
                continue
            artifact = self._artifacts.get(artifact_id)
            if artifact is None or not self._visible(artifact, principal):
                continue
            if artifact.stale and not include_stale:
                continue
            artifact.hits += 1
            out.append((artifact, score))
            if len(out) >= k:
                break
        return out

    def artifacts_about(self, table: str, principal: str = "public") -> list[Artifact]:
        """Everything known about a table (any kind, any column)."""
        table_key = table.lower()
        out = []
        for artifact in self._artifacts.values():
            if artifact.subject_key() and artifact.subject_key()[0] == table_key:
                if self._visible(artifact, principal):
                    out.append(artifact)
        return sorted(out, key=lambda a: a.artifact_id)

    def recall_memo_counters(self) -> tuple[int, int]:
        """(hits, misses) of the vector index's recall memo."""
        return self._vectors.memo_hits, self._vectors.memo_misses

    def __len__(self) -> int:
        return len(self._artifacts)

    def stale_count(self) -> int:
        return sum(1 for a in self._artifacts.values() if a.stale)

    # -- staleness ----------------------------------------------------------------

    def on_change(self, event: ChangeEvent) -> None:
        """Apply the staleness policy to artifacts affected by ``event``.

        Only the event table's dependents are visited: under LAZY the ones
        not yet stale (marking a stale one again changes nothing), under
        EAGER the stale ones too, since EAGER removes them.
        """
        table = event.table.lower()
        eager = self.policy is StalenessPolicy.EAGER
        candidates = list(self._fresh.get(table, {}).values())
        if eager:
            candidates += self._stale.get(table, {}).values()
        for artifact in candidates:
            if not reaches_dependent(event, artifact.data_sensitive):
                continue
            if eager:
                self._remove(artifact.artifact_id)
                self.invalidations += 1
            else:
                self._unindex_dependencies(artifact)
                artifact.stale = True
                self._index_dependencies(artifact)
                self.stale_marks += 1

    def refresh(self, artifact_id: int, new_text: str | None = None, **content) -> None:
        """Mark an artifact fresh again after re-verification."""
        artifact = self._artifacts.get(artifact_id)
        if artifact is None:
            raise MemoryStoreError(f"no artifact {artifact_id}")
        self._unindex_dependencies(artifact)
        artifact.stale = False
        self._index_dependencies(artifact)
        if new_text is not None:
            artifact.text = new_text
            self._vectors.remove(artifact_id)
            self._vectors.add(artifact_id, new_text)
        artifact.content.update(content)

    # -- access control ------------------------------------------------------------

    def _visible(self, artifact: Artifact, principal: str) -> bool:
        if artifact.principal == principal:
            return True
        if artifact.shared and self.share_across_principals:
            return True
        return False

    def _find_exact(
        self, kind: ArtifactKind, subject_key: tuple, principal: str
    ) -> Artifact | None:
        for artifact_id in self._by_subject.get((kind, subject_key), []):
            artifact = self._artifacts[artifact_id]
            if artifact.principal == principal:
                return artifact
        return None

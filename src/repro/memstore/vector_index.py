"""Brute-force cosine vector index.

Adequate for the memory store's scale (thousands of artifacts); the
interface is what matters — swap in an ANN structure without touching
callers. Vectors live in the leading rows of a capacity-doubling matrix,
in insertion order: an add writes one row in place (amortised O(dims)),
and a remove shifts the rows behind it up by one, so query order and
tie-breaking stay those of a matrix rebuilt from scratch.

Agents recall with the same goal text again and again, so ``query``
memoizes ``(text, k)`` -> ranked ``(id, score)`` pairs. Every ``add`` and
``remove`` replaces the memo with an empty one, so a memoized ranking is
always the one the current rows give. The memo holds at most
:data:`~repro.semantic.embedding.MAX_CACHED_TEXTS` rankings (the
embedder's bound on memoized text embeddings) and drops the oldest first.
Rankings are never patched for new rows: a product over a slice of the
matrix can differ in the last bit from the full ``matrix @ q``.
"""

from __future__ import annotations

import numpy as np

from repro.semantic import embedding
from repro.semantic.embedding import HashedEmbedder

_INITIAL_CAPACITY = 64


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` highest scores, highest first, ties in
    position order: ``np.argsort(-scores, kind="stable")[:k]`` without
    sorting every score. Partitioning finds the k-th highest score; only
    the scores at or above it (ties included) are then stably sorted.
    """
    negated = -scores
    if not 0 < k < len(negated):
        return np.argsort(negated, kind="stable")[:k]
    kth = np.partition(negated, k - 1)[k - 1]
    if np.isnan(kth):  # NaN sorts last; fewer than k scores are numbers
        return np.argsort(negated, kind="stable")[:k]
    candidates = np.flatnonzero(negated <= kth)
    return candidates[np.argsort(negated[candidates], kind="stable")][:k]


class VectorIndex:
    """Maps integer ids to embedded texts; answers top-k cosine queries."""

    def __init__(self, embedder: HashedEmbedder | None = None) -> None:
        self._embedder = embedder or HashedEmbedder()
        self._ids: list[int] = []
        self._matrix = np.empty((_INITIAL_CAPACITY, self._embedder.dims))
        #: {(text, k): ranking} for the rows as they stand.
        self._memo: dict[tuple[str, int], list[tuple[int, float]]] = {}
        self.memo_hits = 0
        self.memo_misses = 0

    def add(self, item_id: int, text: str) -> None:
        count = len(self._ids)
        if count == len(self._matrix):
            grown = np.empty((2 * count, self._matrix.shape[1]))
            grown[:count] = self._matrix
            self._matrix = grown
        self._matrix[count] = self._embedder.embed(text)
        self._ids.append(item_id)
        self._memo = {}

    def remove(self, item_id: int) -> None:
        """Drop every row stored under ``item_id``, keeping the others'
        relative order."""
        while item_id in self._ids:
            position = self._ids.index(item_id)
            count = len(self._ids)
            self._matrix[position : count - 1] = self._matrix[position + 1 : count]
            del self._ids[position]
        self._memo = {}

    def query(self, text: str, k: int = 5) -> list[tuple[int, float]]:
        """Top-k (id, cosine score) for ``text``; embeddings are unit-norm."""
        if not self._ids:
            return []
        memo = self._memo
        ranking = memo.get((text, k))
        if ranking is not None:
            self.memo_hits += 1
            return list(ranking)
        self.memo_misses += 1
        query_vector = self._embedder.embed(text)
        scores = self._matrix[: len(self._ids)] @ query_vector
        order = top_k(scores, k)
        ranking = [(self._ids[int(i)], float(scores[int(i)])) for i in order]
        if len(memo) >= embedding.MAX_CACHED_TEXTS:
            memo.pop(next(iter(memo)), None)
        memo[(text, k)] = ranking
        return list(ranking)

    def __len__(self) -> int:
        return len(self._ids)

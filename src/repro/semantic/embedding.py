"""Deterministic hashed embeddings.

The paper's agentic memory store and semantic probes need text similarity
without a network-hosted embedding model. We use the classic hashing trick:
character n-grams and word tokens are hashed into a fixed number of
dimensions with ±1 signs, then L2-normalised. Similar strings share
n-grams, so cosine similarity behaves like a (weak but useful) semantic
metric — and is bit-for-bit reproducible.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.util.hashing import stable_hash_int
from repro.util.text import character_ngrams, singularize, tokenize_words

DEFAULT_DIMS = 128

#: LRU bound on memoized embeddings (~1 KB each at the default dims).
MAX_CACHED_TEXTS = 50_000
#: LRU bound on memoized feature slots, and on memoized per-word bucket
#: contributions. Unique literals in probe texts keep adding new words,
#: so both tables must evict too.
MAX_CACHED_SLOTS = 65_536


class HashedEmbedder:
    """Embeds text into a fixed-dimension vector via feature hashing.

    Three bounded LRU memos make repeat work cheap, and none changes a
    result: whole embeddings by text; each word's summed bucket
    contributions (its whole-word feature plus its n-grams), so a new
    text made of known words costs one dict lookup per word; and each
    feature's ``(bucket, sign)`` slot — a pure function of the feature
    string that otherwise costs two SHA-1 digests per feature per call.
    Returned vectors are shared with the memo: callers must not mutate
    them.
    """

    def __init__(self, dims: int = DEFAULT_DIMS) -> None:
        if dims <= 0:
            raise ValueError("dims must be positive")
        self.dims = dims
        self._cache: OrderedDict[str, np.ndarray] = OrderedDict()
        self._slots: OrderedDict[str, tuple[int, float]] = OrderedDict()
        self._words: OrderedDict[str, tuple[tuple[int, float], ...]] = OrderedDict()
        self._lock = threading.Lock()

    def embed(self, text: str) -> np.ndarray:
        """L2-normalised embedding of ``text`` (zero vector for no features)."""
        with self._lock:
            cached = self._cache.get(text)
            if cached is not None:
                self._cache.move_to_end(text)
                return cached
            # Every feature adds +-1 or +-2, so each bucket holds a small
            # integer, exact in float64 whatever the summation order:
            # adding per-word totals gives the bytes the per-feature loop
            # over ``_features`` gives.
            sums = [0.0] * self.dims
            for word in tokenize_words(text):
                for bucket, delta in self._word_deltas(word):
                    sums[bucket] += delta
            vector = np.array(sums, dtype=np.float64)
            norm = float(np.linalg.norm(vector))
            if norm > 0:
                vector /= norm
            self._cache[text] = vector
            if len(self._cache) > MAX_CACHED_TEXTS:
                self._cache.popitem(last=False)
            return vector

    def _word_deltas(self, word: str) -> tuple[tuple[int, float], ...]:
        """``word``'s summed (bucket, contribution) pairs, memoized; caller
        holds the lock. A word contributes its whole-word feature and its
        boundary-marked n-grams, as :meth:`_features` lists them."""
        words = self._words
        deltas = words.get(word)
        if deltas is not None:
            words.move_to_end(word)
            return deltas
        totals: dict[int, float] = {}
        for feature, weight in self._features(word):
            bucket, sign = self._slot(feature)
            totals[bucket] = totals.get(bucket, 0.0) + sign * weight
        deltas = words[word] = tuple(
            (bucket, total) for bucket, total in totals.items() if total
        )
        if len(words) > MAX_CACHED_SLOTS:
            words.popitem(last=False)
        return deltas

    def _slot(self, feature: str) -> tuple[int, float]:
        """``feature``'s (bucket, sign), memoized; caller holds the lock."""
        slots = self._slots
        slot = slots.get(feature)
        if slot is not None:
            slots.move_to_end(feature)
            return slot
        bucket = stable_hash_int(("emb", feature), bits=32) % self.dims
        sign = 1.0 if stable_hash_int(("sign", feature), bits=1) else -1.0
        slot = slots[feature] = (bucket, sign)
        if len(slots) > MAX_CACHED_SLOTS:
            slots.popitem(last=False)
        return slot

    def _features(self, text: str) -> list[tuple[str, float]]:
        features: list[tuple[str, float]] = []
        words = tokenize_words(text)
        for word in words:
            # Whole words weigh more than n-grams; singulars unify plurals.
            features.append((f"w:{singularize(word)}", 2.0))
        for gram in character_ngrams(text, n=3):
            features.append((f"g:{gram}", 1.0))
        return features


def cosine_similarity(left: np.ndarray, right: np.ndarray) -> float:
    """Cosine similarity of two (already normalised or not) vectors."""
    left_norm = float(np.linalg.norm(left))
    right_norm = float(np.linalg.norm(right))
    if left_norm == 0.0 or right_norm == 0.0:
        return 0.0
    return float(np.dot(left, right) / (left_norm * right_norm))

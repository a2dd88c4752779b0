"""Tests for semantic operators: embeddings, inverted index, anywhere-search."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.db import Database
from repro.semantic import (
    HashedEmbedder,
    InvertedIndex,
    Location,
    SemanticSearch,
    cosine_similarity,
)
from repro.semantic import embedding as embedding_module
from repro.util.hashing import stable_hash_int


def reference_embedding(embedder: HashedEmbedder, text: str) -> np.ndarray:
    """The embedding formula spelled out: two SHA-1 digests per feature,
    each contribution added into a float64 vector in feature order."""
    vector = np.zeros(embedder.dims, dtype=np.float64)
    for feature, weight in embedder._features(text):
        bucket = stable_hash_int(("emb", feature), bits=32)
        sign = 1.0 if stable_hash_int(("sign", feature), bits=1) else -1.0
        vector[bucket % embedder.dims] += sign * weight
    norm = float(np.linalg.norm(vector))
    if norm > 0:
        vector /= norm
    return vector


EMBEDDING_TEXTS = [
    "",
    "   ",
    "coffee sales",
    "Ünïcödé café naïve straße 東京 ß",
    "find the weekly total: SELECT region, SUM(amount) FROM sales s JOIN stores t"
    " ON s.store_id = t.id WHERE s.day BETWEEN 3 AND 17 AND t.label = 'x-4711'"
    " GROUP BY region ORDER BY region -> 12 rows " * 8,
]


class TestEmbedder:
    def test_deterministic(self):
        embedder = HashedEmbedder()
        assert np.allclose(embedder.embed("coffee sales"), embedder.embed("coffee sales"))

    def test_unit_norm(self):
        vector = HashedEmbedder().embed("electronics")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_empty_text_zero_vector(self):
        assert np.linalg.norm(HashedEmbedder().embed("")) == 0.0

    def test_similar_strings_closer_than_random(self):
        embedder = HashedEmbedder()
        base = embedder.embed("electronic goods")
        close = embedder.embed("electronics")
        far = embedder.embed("flight crew roster")
        assert cosine_similarity(base, close) > cosine_similarity(base, far)

    def test_plural_folding(self):
        embedder = HashedEmbedder()
        similarity = cosine_similarity(embedder.embed("store"), embedder.embed("stores"))
        assert similarity > 0.8

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            HashedEmbedder(dims=0)

    def test_cosine_zero_for_zero_vector(self):
        embedder = HashedEmbedder()
        assert cosine_similarity(embedder.embed(""), embedder.embed("x")) == 0.0

    @pytest.mark.parametrize("dims", [128, 7])
    def test_vectors_match_the_reference_formula_bytewise(self, dims):
        embedder = HashedEmbedder(dims=dims)
        for _ in range(2):  # cold slots, then memoized slots and texts
            for text in EMBEDDING_TEXTS:
                expected = reference_embedding(embedder, text).tobytes()
                assert embedder.embed(text).tobytes() == expected
        # Texts that share features with memoized ones but are new.
        for text in EMBEDDING_TEXTS:
            fresh = text + " coffee"
            assert (
                embedder.embed(fresh).tobytes()
                == reference_embedding(embedder, fresh).tobytes()
            )

    @pytest.mark.parametrize("bound", [65_536, 4])
    def test_per_word_totals_match_the_per_feature_loop(self, monkeypatch, bound):
        """Summing memoized per-word totals gives the bytes of adding every
        feature in order: plurals, 1-2 letter words, digit runs, repeated
        words and empty text, with the word memo evicting or not."""
        monkeypatch.setattr(embedding_module, "MAX_CACHED_SLOTS", bound)
        embedder = HashedEmbedder()
        texts = [
            "",
            "a I x of is",
            "stores store glasses boxes cities ss s",
            "tenant t7 qty 1234567 0 00 42 4711x",
            "sales sales sales SALES",
            "SELECT COUNT(*), SUM(amount) FROM sales WHERE tenant = 't3'"
            " AND qty >= 7 AND id <> 104233",
        ]
        for _ in range(2):
            for text in texts:
                assert (
                    embedder.embed(text + " ").tobytes()
                    == reference_embedding(embedder, text).tobytes()
                )
            embedder._cache.clear()
        assert len(embedder._words) <= bound

    def test_text_first_seen_after_cache_is_full_is_memoized(self):
        embedder = HashedEmbedder()
        filler = np.zeros(embedder.dims)
        embedder._cache.update(
            (f"seen-{i}", filler) for i in range(embedding_module.MAX_CACHED_TEXTS)
        )
        first = embedder.embed("a question asked twice")
        assert embedder.embed("a question asked twice") is first
        assert len(embedder._cache) == embedding_module.MAX_CACHED_TEXTS

    def test_text_cache_is_lru(self, monkeypatch):
        monkeypatch.setattr(embedding_module, "MAX_CACHED_TEXTS", 3)
        embedder = HashedEmbedder()
        kept = embedder.embed("a")
        embedder.embed("b")
        embedder.embed("c")
        assert embedder.embed("a") is kept  # a hit refreshes a: b is oldest
        embedder.embed("d")
        assert list(embedder._cache) == ["c", "a", "d"]

    def test_concurrent_embeds_under_eviction_match_reference(self, monkeypatch):
        monkeypatch.setattr(embedding_module, "MAX_CACHED_TEXTS", 3)
        monkeypatch.setattr(embedding_module, "MAX_CACHED_SLOTS", 16)
        embedder = HashedEmbedder()
        texts = [f"{text} {i}" for i in range(4) for text in EMBEDDING_TEXTS[:4]]
        expected = {
            text: reference_embedding(embedder, text).tobytes() for text in texts
        }
        failures: list[str] = []

        def hammer(offset: int) -> None:
            try:
                for round_no in range(40):
                    text = texts[(offset + round_no) % len(texts)]
                    if embedder.embed(text).tobytes() != expected[text]:
                        failures.append(text)
            except Exception as exc:  # a torn LRU raises KeyError here
                failures.append(repr(exc))

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(embedder._cache) <= 3 and len(embedder._slots) <= 16

    def test_slot_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(embedding_module, "MAX_CACHED_SLOTS", 8)
        embedder = HashedEmbedder()
        for text in EMBEDDING_TEXTS:
            expected = reference_embedding(embedder, text).tobytes()
            assert embedder.embed(text).tobytes() == expected
            assert len(embedder._slots) <= 8


class TestInvertedIndex:
    def test_add_and_lookup(self):
        index = InvertedIndex()
        loc = Location("table_name", "sales")
        index.add_text("sales data", loc)
        assert index.lookup("sales") == {loc}
        assert index.lookup("data") == {loc}

    def test_singular_plural_fold(self):
        index = InvertedIndex()
        loc = Location("table_name", "stores")
        index.add_text("stores", loc)
        assert index.lookup("store") == {loc}

    def test_phrase_counts(self):
        index = InvertedIndex()
        loc = Location("column_name", "t", "coffee_sales")
        index.add_text("coffee sales", loc)
        hits = index.lookup_phrase("coffee bean sales")
        assert hits[loc] == 2

    def test_missing_token_empty(self):
        assert InvertedIndex().lookup("ghost") == set()

    def test_clear(self):
        index = InvertedIndex()
        index.add_text("x", Location("table_name", "t"))
        index.clear()
        assert index.vocabulary_size() == 0


@pytest.fixture
def shop_db() -> Database:
    db = Database("shop")
    db.execute(
        "CREATE TABLE electronic_goods (id INT, product_name TEXT, price FLOAT)"
    )
    db.execute("CREATE TABLE coffee_sales (id INT, city TEXT, revenue FLOAT)")
    db.execute("CREATE TABLE hr_roster (id INT, employee TEXT)")
    db.execute(
        "INSERT INTO electronic_goods VALUES (1,'laptop',999.0),(2,'tariff-free tv',499.0)"
    )
    db.execute(
        "INSERT INTO coffee_sales VALUES (1,'Berkeley',120.0),(2,'Oakland',80.0)"
    )
    db.execute("INSERT INTO hr_roster VALUES (1,'Ada'),(2,'Grace')")
    return db


class TestSemanticSearch:
    def test_finds_table_by_related_phrase(self, shop_db):
        search = SemanticSearch(shop_db)
        tables = search.find_tables("electronics import tariffs")
        assert tables[0] == "electronic_goods"

    def test_finds_value_in_cells(self, shop_db):
        search = SemanticSearch(shop_db)
        hits = search.search("Berkeley")
        cell_hits = [h for h in hits if h.location.kind == "cell"]
        assert cell_hits
        assert cell_hits[0].location.table == "coffee_sales"
        assert cell_hits[0].location.row_id is not None

    def test_finds_column(self, shop_db):
        search = SemanticSearch(shop_db)
        columns = search.find_columns("product names")
        assert ("electronic_goods", "product_name") in columns

    def test_kind_filter(self, shop_db):
        search = SemanticSearch(shop_db)
        hits = search.search("coffee", kinds=("table_name",))
        assert all(h.location.kind == "table_name" for h in hits)

    def test_refresh_after_ddl(self, shop_db):
        """The same phrase before and after the write: the answer memoized
        on the old index build is not served from the new one."""
        search = SemanticSearch(shop_db)
        assert "spice_inventory" not in search.find_tables("spice inventory")
        shop_db.execute("CREATE TABLE spice_inventory (id INT, spice TEXT)")
        tables = search.find_tables("spice inventory")
        assert tables[0] == "spice_inventory"

    def test_refresh_after_dml(self, shop_db):
        search = SemanticSearch(shop_db)
        assert not any(h.location.kind == "cell" for h in search.search("Zanzibar"))
        shop_db.execute("INSERT INTO coffee_sales VALUES (3, 'Zanzibar', 10.0)")
        hits = search.search("Zanzibar")
        assert any(h.location.kind == "cell" for h in hits)

    def test_repeated_phrase_is_answered_from_the_memo(self, shop_db):
        search = SemanticSearch(shop_db)
        first = search.search("coffee", limit=4)
        assert (search.memo_hits, search.memo_misses) == (0, 1)
        assert search.search("coffee", limit=4) == first
        search.search("coffee", limit=3)  # another limit is another ranking
        assert (search.memo_hits, search.memo_misses) == (1, 2)

    def test_mutating_a_returned_list_leaves_the_next_answer_unchanged(
        self, shop_db
    ):
        search = SemanticSearch(shop_db)
        expected = list(search.search("coffee"))
        assert expected
        for _ in range(3):  # a miss's list, then the memo's
            answer = search.search("coffee")
            assert answer == expected
            answer.clear()
            answer.append("junk")

    def test_memo_is_bounded_by_the_embedder_text_bound(self, shop_db, monkeypatch):
        monkeypatch.setattr(embedding_module, "MAX_CACHED_TEXTS", 3)
        search = SemanticSearch(shop_db)
        phrases = ["coffee", "laptop", "Berkeley", "roster", "price"]
        answers = {phrase: search.search(phrase) for phrase in phrases}
        assert len(search._memo[1]) == 3
        for phrase in phrases:
            assert search.search(phrase) == answers[phrase]
            assert len(search._memo[1]) <= 3

    @pytest.mark.parametrize("seed", range(4))
    def test_memoized_search_matches_a_fresh_instance(self, shop_db, seed):
        """Phrases interleaved with INSERTs and CREATE TABLEs: every answer
        of one long-lived (memoizing) instance equals, location, score and
        snippet, that of an instance built for the question."""
        rng = np.random.default_rng(seed)
        phrases = ["coffee", "Zanzibar", "spice", "laptop tariffs", "roster", "id"]
        kinds_choices = [None, ("cell",), ("table_name", "column_name")]
        search = SemanticSearch(shop_db)
        tables = 0
        for step in range(60):
            action = rng.random()
            if action < 0.15:
                shop_db.execute(
                    f"INSERT INTO coffee_sales VALUES ({100 + step},"
                    f" '{rng.choice(phrases)} {step}', 1.0)"
                )
            elif action < 0.22:
                tables += 1
                shop_db.execute(
                    f"CREATE TABLE {rng.choice(['spice', 'tea'])}_{tables}"
                    " (id INT, note TEXT)"
                )
            else:
                phrase = str(rng.choice(phrases))
                limit = int(rng.choice([3, 8]))
                kinds = kinds_choices[int(rng.integers(len(kinds_choices)))]
                got = search.search(phrase, limit=limit, kinds=kinds)
                fresh = SemanticSearch(shop_db).search(phrase, limit=limit, kinds=kinds)
                assert [(h.location, h.score, h.snippet) for h in got] == [
                    (h.location, h.score, h.snippet) for h in fresh
                ], (step, phrase)
        assert search.memo_hits > 0

    def test_limit_respected(self, shop_db):
        search = SemanticSearch(shop_db)
        assert len(search.search("id", limit=2)) <= 2

    def test_describe_is_readable(self, shop_db):
        search = SemanticSearch(shop_db)
        hits = search.search("coffee")
        assert any("coffee" in h.describe() for h in hits)

    def test_no_match_empty(self, shop_db):
        search = SemanticSearch(shop_db)
        assert search.search("xylophone zither") == []

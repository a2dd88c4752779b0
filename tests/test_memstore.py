"""Tests for the agentic memory store: lookups, staleness, access control."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.db.database import ChangeEvent
from repro.errors import AccessDenied, MemoryStoreError
from repro.memstore import AgenticMemoryStore, Artifact, ArtifactKind, StalenessPolicy
from repro.memstore.staleness import affected_by
from repro.memstore.vector_index import VectorIndex, top_k
from repro.semantic import embedding as embedding_module
from repro.semantic.embedding import HashedEmbedder


def note(table="sales", column=None, text="states use two-letter codes", **kwargs):
    subject = (table, column) if column else (table,)
    return Artifact(
        kind=kwargs.pop("kind", ArtifactKind.COLUMN_ENCODING),
        subject=subject,
        text=text,
        depends_on=(table,),
        **kwargs,
    )


class TestBasicStore:
    def test_put_and_get(self):
        store = AgenticMemoryStore()
        artifact_id = store.put(note())
        assert store.get(artifact_id).text == "states use two-letter codes"

    def test_get_missing_raises(self):
        with pytest.raises(MemoryStoreError):
            AgenticMemoryStore().get(12345)

    def test_structured_lookup(self):
        store = AgenticMemoryStore()
        store.put(note(column="state"))
        found = store.lookup(ArtifactKind.COLUMN_ENCODING, ("sales", "state"))
        assert len(found) == 1

    def test_lookup_case_insensitive(self):
        store = AgenticMemoryStore()
        store.put(note(column="state"))
        assert store.lookup(ArtifactKind.COLUMN_ENCODING, ("SALES", "STATE"))

    def test_put_supersedes_same_subject(self):
        store = AgenticMemoryStore()
        store.put(note(text="old fact"))
        store.put(note(text="new fact"))
        found = store.lookup(ArtifactKind.COLUMN_ENCODING, ("sales",))
        assert [a.text for a in found] == ["new fact"]

    def test_put_with_equal_text_refreshes_in_place(self):
        """Same kind, subject, principal and text: the stored artifact
        keeps its id, hits and vector row, takes the new content and turn,
        turns fresh, and the recall memo survives."""
        db = Database()
        db.execute("CREATE TABLE sales (id INT, state TEXT)")
        store = AgenticMemoryStore(policy=StalenessPolicy.LAZY)
        store.attach(db)
        first_id = store.put(note(content={"rows": 1}, created_turn=1))
        store.put(note(table="other", text="unrelated fact"))
        store.get(first_id)
        db.execute("INSERT INTO sales VALUES (1, 'CA')")
        assert store.get(first_id).stale
        assert store.search("two-letter codes", include_stale=False) == []
        rows = list(store._vectors._ids)
        memo = store._vectors._memo
        assert store.put(note(content={"rows": 2}, created_turn=5)) == first_id
        assert store._vectors._memo is memo and store._vectors._ids == rows
        (artifact,) = store.lookup(ArtifactKind.COLUMN_ENCODING, ("sales",))
        assert artifact.artifact_id == first_id
        assert (artifact.content, artifact.created_turn) == ({"rows": 2}, 5)
        assert not artifact.stale and artifact.hits == 3  # two gets, one lookup
        assert [a.artifact_id for a, _ in store.search("two-letter codes")] == [
            first_id
        ]
        assert store.recall_memo_counters() == (1, 1)

    def test_remember_convenience(self):
        store = AgenticMemoryStore()
        store.remember(
            ArtifactKind.VALUE_RANGE,
            ("sales", "year"),
            "years span 2020-2024",
            low=2020,
            high=2024,
        )
        (artifact,) = store.lookup(ArtifactKind.VALUE_RANGE, ("sales", "year"))
        assert artifact.content == {"low": 2020, "high": 2024}

    def test_semantic_search_finds_related(self):
        store = AgenticMemoryStore()
        store.put(note(text="state column uses two-letter abbreviations like CA"))
        store.put(
            note(
                table="flights",
                kind=ArtifactKind.SCHEMA_NOTE,
                text="flight crew assignments live here",
            )
        )
        results = store.search("how are US states encoded")
        assert results
        assert "two-letter" in results[0][0].text

    def test_artifacts_about_table(self):
        store = AgenticMemoryStore()
        store.put(note())
        store.put(note(column="state", kind=ArtifactKind.MISSING_VALUES))
        store.put(note(table="other"))
        assert len(store.artifacts_about("sales")) == 2

    def test_hit_counter(self):
        store = AgenticMemoryStore()
        artifact_id = store.put(note())
        store.get(artifact_id)
        store.get(artifact_id)
        assert store.get(artifact_id).hits == 3

    def test_recall_memo_serves_repeats_and_is_dropped_by_a_put(self):
        """A repeated recall is answered from the memo and still counts a
        hit on each artifact it returns; a put between two recalls of the
        same text makes the second one see the new artifact."""
        store = AgenticMemoryStore()
        first_id = store.remember(
            ArtifactKind.COLUMN_ENCODING, ("sales", "state"), "state codes in sales"
        )
        assert [a.artifact_id for a, _ in store.search("sales state codes")] == [
            first_id
        ]
        assert [a.artifact_id for a, _ in store.search("sales state codes")] == [
            first_id
        ]
        assert store.recall_memo_counters() == (1, 1)
        assert store.get(first_id).hits == 3  # two recalls, one get
        second_id = store.remember(
            ArtifactKind.MISSING_VALUES, ("sales", "state"), "sales state codes"
        )
        recalled = [a.artifact_id for a, _ in store.search("sales state codes")]
        assert recalled[0] == second_id and first_id in recalled
        assert store.recall_memo_counters() == (1, 2)

    def test_recall_memo_applies_visibility_and_staleness_per_call(self):
        """A write marks an artifact stale without touching the vector
        index, so the next recall is a memo hit that must still filter."""
        db = Database()
        db.execute("CREATE TABLE sales (id INT, state TEXT)")
        store = AgenticMemoryStore(share_across_principals=False)
        store.attach(db)
        store.put(note(principal="alice"))
        assert store.search("two-letter codes", principal="alice")
        assert store.search("two-letter codes", principal="bob") == []
        db.execute("INSERT INTO sales VALUES (1, 'CA')")
        assert store.search("two-letter codes", principal="alice")
        assert (
            store.search("two-letter codes", principal="alice", include_stale=False)
            == []
        )
        assert store.recall_memo_counters() == (3, 1)


class TestStaleness:
    def make_db(self) -> Database:
        db = Database()
        db.execute("CREATE TABLE sales (id INT, state TEXT)")
        db.execute("INSERT INTO sales VALUES (1, 'CA')")
        return db

    def test_lazy_marks_stale_on_dml(self):
        db = self.make_db()
        store = AgenticMemoryStore(policy=StalenessPolicy.LAZY)
        store.attach(db)
        artifact_id = store.put(note())
        db.execute("INSERT INTO sales VALUES (2, 'WA')")
        assert store.get(artifact_id).stale
        assert store.stale_count() == 1

    def test_eager_drops_on_dml(self):
        db = self.make_db()
        store = AgenticMemoryStore(policy=StalenessPolicy.EAGER)
        store.attach(db)
        store.put(note())
        db.execute("INSERT INTO sales VALUES (2, 'WA')")
        assert len(store) == 0
        assert store.invalidations == 1

    def test_data_insensitive_artifact_survives_dml(self):
        db = self.make_db()
        store = AgenticMemoryStore(policy=StalenessPolicy.EAGER)
        store.attach(db)
        artifact_id = store.put(note(data_sensitive=False))
        db.execute("INSERT INTO sales VALUES (2, 'WA')")
        assert not store.get(artifact_id).stale

    def test_schema_change_invalidates_even_data_insensitive(self):
        db = self.make_db()
        store = AgenticMemoryStore(policy=StalenessPolicy.LAZY)
        store.attach(db)
        artifact_id = store.put(note(data_sensitive=False))
        db.execute("DROP TABLE sales")
        assert store.get(artifact_id).stale

    def test_unrelated_table_change_ignored(self):
        db = self.make_db()
        db.execute("CREATE TABLE other (x INT)")
        store = AgenticMemoryStore(policy=StalenessPolicy.LAZY)
        store.attach(db)
        artifact_id = store.put(note())
        db.execute("INSERT INTO other VALUES (1)")
        assert not store.get(artifact_id).stale

    def test_lookup_can_exclude_stale(self):
        db = self.make_db()
        store = AgenticMemoryStore(policy=StalenessPolicy.LAZY)
        store.attach(db)
        store.put(note())
        db.execute("INSERT INTO sales VALUES (2, 'WA')")
        assert store.lookup(ArtifactKind.COLUMN_ENCODING, ("sales",)) != []
        assert (
            store.lookup(
                ArtifactKind.COLUMN_ENCODING, ("sales",), include_stale=False
            )
            == []
        )

    def test_refresh_clears_staleness(self):
        db = self.make_db()
        store = AgenticMemoryStore(policy=StalenessPolicy.LAZY)
        store.attach(db)
        artifact_id = store.put(note())
        db.execute("INSERT INTO sales VALUES (2, 'WA')")
        store.refresh(artifact_id, new_text="verified: still two-letter codes")
        artifact = store.get(artifact_id)
        assert not artifact.stale
        assert "verified" in artifact.text


class BruteForceStore(AgenticMemoryStore):
    """Staleness by walking every artifact on every event: the reference
    for the store's dependents index."""

    def on_change(self, event: ChangeEvent) -> None:
        victims = [
            artifact
            for artifact in self._artifacts.values()
            if affected_by(event, artifact.depends_on, artifact.data_sensitive)
        ]
        for artifact in victims:
            if self.policy is StalenessPolicy.EAGER:
                self._remove(artifact.artifact_id)
                self.invalidations += 1
            elif not artifact.stale:
                artifact.stale = True
                self.stale_marks += 1


STALENESS_TABLES = ("sales", "Stores", "items")


def store_state(store: AgenticMemoryStore) -> tuple:
    return (
        sorted((a.artifact_id, a.stale, a.text) for a in store._artifacts.values()),
        store.stale_marks,
        store.invalidations,
        {key: ids for key, ids in store._by_subject.items() if ids},
        store.search("sales fact", k=50),
    )


class TestStalenessIndex:
    """The dependents index against the brute-force walk: the same
    artifacts marked or dropped, the same counters, over seeded streams of
    puts, removes, refreshes, policy flips and every event kind."""

    @pytest.mark.parametrize("policy", list(StalenessPolicy))
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, policy, seed):
        rng = np.random.default_rng(seed)
        stores = [AgenticMemoryStore(policy=policy), BruteForceStore(policy=policy)]
        next_id = 10_000_000 * (seed + 1)
        for step in range(300):
            roll = rng.random()
            live = sorted(stores[1]._artifacts)
            if roll < 0.4:
                next_id += 1
                tables = rng.choice(
                    STALENESS_TABLES, size=int(rng.integers(0, 3)), replace=True
                )
                fields = dict(
                    kind=[ArtifactKind.PROBE_RESULT, ArtifactKind.JOIN_HINT][
                        int(rng.integers(0, 2))
                    ],
                    subject=(
                        str(rng.choice(STALENESS_TABLES)),
                        f"c{rng.integers(0, 6)}",
                    ),
                    text=f"sales fact {next_id}",
                    principal=["alice", "bob"][int(rng.integers(0, 2))],
                    depends_on=tuple(str(t) for t in tables),
                    data_sensitive=bool(rng.random() < 0.7),
                    stale=bool(rng.random() < 0.1),
                    artifact_id=next_id,
                )
                for store in stores:
                    store.put(Artifact(**fields))
            elif roll < 0.5 and live:
                victim = int(rng.choice(live))
                for store in stores:
                    store._remove(victim)
            elif roll < 0.6 and live:
                target = int(rng.choice(live))
                for store in stores:
                    store.refresh(target, new_text=f"sales fact refreshed {step}")
            elif roll < 0.63:
                for store in stores:
                    store.policy = (
                        StalenessPolicy.LAZY
                        if store.policy is StalenessPolicy.EAGER
                        else StalenessPolicy.EAGER
                    )
            else:
                kind = ["insert", "update", "delete", "create", "drop"][
                    int(rng.integers(0, 5))
                ]
                table = str(rng.choice(STALENESS_TABLES + ("other",)))
                if rng.random() < 0.3:
                    table = table.upper()
                event = ChangeEvent(kind, table)
                for store in stores:
                    store.on_change(event)
            assert store_state(stores[0]) == store_state(stores[1]), step
        assert stores[1].stale_marks + stores[1].invalidations > 0


class TestAccessControl:
    def test_private_artifact_hidden_from_others(self):
        store = AgenticMemoryStore()
        artifact_id = store.put(note(principal="alice"))
        with pytest.raises(AccessDenied):
            store.get(artifact_id, principal="bob")

    def test_shared_artifact_visible_when_sharing_on(self):
        store = AgenticMemoryStore(share_across_principals=True)
        artifact_id = store.put(note(principal="alice", shared=True))
        assert store.get(artifact_id, principal="bob")

    def test_shared_artifact_hidden_when_sharing_off(self):
        store = AgenticMemoryStore(share_across_principals=False)
        artifact_id = store.put(note(principal="alice", shared=True))
        with pytest.raises(AccessDenied):
            store.get(artifact_id, principal="bob")

    def test_search_respects_namespaces(self):
        store = AgenticMemoryStore()
        store.put(note(principal="alice", text="alice private secret about sales"))
        results = store.search("secret about sales", principal="bob")
        assert results == []

    def test_same_principal_always_sees_own(self):
        store = AgenticMemoryStore(share_across_principals=False)
        artifact_id = store.put(note(principal="alice"))
        assert store.get(artifact_id, principal="alice")

    def test_namespaced_put_does_not_supersede_other_principal(self):
        store = AgenticMemoryStore()
        store.put(note(principal="alice", text="alice fact"))
        store.put(note(principal="bob", text="bob fact"))
        found = store.lookup(
            ArtifactKind.COLUMN_ENCODING, ("sales",), principal="alice"
        )
        assert [a.text for a in found] == ["alice fact"]


# -- the vector index against a brute-force reference -----------------------

#: Few distinct texts (and an empty one, a zero vector) so queries tie.
INDEX_TEXTS = ["coffee sales", "coffee", "flight crew roster", "sales", ""]


class ReferenceIndex:
    """Rebuilds the matrix from scratch on every query: insertion order,
    removals dropping every row of an id, stable argsort on -scores."""

    def __init__(self, embedder: HashedEmbedder) -> None:
        self.embedder = embedder
        self.items: list[tuple[int, np.ndarray]] = []

    def add(self, item_id: int, text: str) -> None:
        self.items.append((item_id, self.embedder.embed(text)))

    def remove(self, item_id: int) -> None:
        self.items = [item for item in self.items if item[0] != item_id]

    def query(self, text: str, k: int) -> list[tuple[int, float]]:
        if not self.items:
            return []
        scores = np.vstack([v for _, v in self.items]) @ self.embedder.embed(text)
        order = np.argsort(-scores, kind="stable")[:k]
        return [(self.items[int(i)][0], float(scores[int(i)])) for i in order]


def apply(index, op: tuple) -> None:
    kind, item_id, text = op
    if kind == "add":
        index.add(item_id, text)
    elif kind == "remove":
        index.remove(item_id)
    else:  # refresh: what AgenticMemoryStore.refresh does to the index
        index.remove(item_id)
        index.add(item_id, text)


INDEX_OPS = st.tuples(
    st.sampled_from(["add", "add", "remove", "refresh"]),
    st.integers(min_value=0, max_value=12),
    st.sampled_from(INDEX_TEXTS),
)


class TestVectorIndex:
    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(INDEX_OPS, max_size=120),
        queries=st.lists(
            st.tuples(st.sampled_from(INDEX_TEXTS), st.integers(1, 20)),
            min_size=1,
            max_size=4,
        ),
        repeats=st.integers(min_value=1, max_value=3),
    )
    def test_queries_match_brute_force_reference(self, ops, queries, repeats):
        """``repeats`` > 1 asks each checkpoint's query again, so repeats
        are answered from the recall memo of the rows as they stand."""
        embedder = HashedEmbedder()
        index, reference = VectorIndex(embedder), ReferenceIndex(embedder)
        for step, op in enumerate(ops):
            apply(index, op)
            apply(reference, op)
            if step % 7 == 0:
                text, k = queries[step % len(queries)]
                for _ in range(repeats):
                    assert index.query(text, k) == reference.query(text, k)
        assert len(index) == len(reference.items)
        for _ in range(repeats):
            for text, k in queries:
                assert index.query(text, k) == reference.query(text, k)

    @pytest.mark.parametrize("seed", range(6))
    def test_top_k_matches_full_stable_sort(self, seed):
        """Random scores, heavily tied scores (few distinct values, signed
        zeros) and NaN, for every k from 0 past the length."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        tied = rng.choice([0.5, 0.25, 0.0, -0.0, -0.25], size=n)
        with_nan = rng.random(n)
        with_nan[rng.random(n) < 0.3] = np.nan
        for scores in (rng.random(n), tied, np.round(rng.random(n), 1), with_nan):
            for k in range(0, n + 3):
                expected = np.argsort(-scores, kind="stable")[:k]
                assert top_k(scores, k).tolist() == expected.tolist(), (k, scores)

    def test_add_and_remove_drop_the_recall_memo(self):
        embedder = HashedEmbedder()
        index, reference = VectorIndex(embedder), ReferenceIndex(embedder)
        for op in [("add", i, text) for i, text in enumerate(INDEX_TEXTS)] + [
            ("remove", 1, ""),
            ("add", 7, "coffee"),
            ("remove", 0, ""),
        ]:
            apply(index, op)
            apply(reference, op)
            for _ in range(2):
                assert index.query("coffee", 3) == reference.query("coffee", 3)
        assert (index.memo_hits, index.memo_misses) == (8, 8)

    def test_recall_memo_is_bounded_by_the_embedder_text_bound(self, monkeypatch):
        monkeypatch.setattr(embedding_module, "MAX_CACHED_TEXTS", 2)
        embedder = HashedEmbedder()
        index, reference = VectorIndex(embedder), ReferenceIndex(embedder)
        for item_id, text in enumerate(INDEX_TEXTS):
            apply(index, ("add", item_id, text))
            apply(reference, ("add", item_id, text))
        for text in INDEX_TEXTS * 2:
            assert index.query(text, 3) == reference.query(text, 3)
            assert len(index._memo) <= 2

    def test_top_k_on_an_empty_index(self):
        assert top_k(np.empty(0), 5).tolist() == []
        assert VectorIndex().query("anything", k=5) == []

    def test_growth_past_initial_capacity_keeps_order(self):
        embedder = HashedEmbedder()
        index, reference = VectorIndex(embedder), ReferenceIndex(embedder)
        for i in range(300):
            op = ("remove", i // 3, "") if i % 5 == 4 else ("add", i, f"note {i % 17}")
            apply(index, op)
            apply(reference, op)
        assert len(index) == len(reference.items) > 64
        for text in ("note 3", "note", ""):
            assert index.query(text, k=40) == reference.query(text, k=40)


# -- supersede semantics against a reference model ----------------------------


class ReferenceStore:
    """The store's put/remove/search from first principles: vector rows in
    insertion order, one artifact per (kind, subject, principal). A put
    whose text equals the superseded artifact's keeps that artifact's id
    and row and takes the new content; any other supersede drops the old
    row and appends a new one."""

    def __init__(self, embedder: HashedEmbedder) -> None:
        self.index = ReferenceIndex(embedder)
        self.texts: dict[int, str] = {}
        self.content: dict[int, dict] = {}
        self.by_key: dict[tuple, int] = {}

    def put(self, key: tuple, artifact_id: int, text: str, content: dict) -> int:
        old = self.by_key.get(key)
        if old is not None and self.texts[old] == text:
            self.content[old] = content
            return old
        if old is not None:
            self.remove(old)
        self.index.add(artifact_id, text)
        self.texts[artifact_id], self.content[artifact_id] = text, content
        self.by_key[key] = artifact_id
        return artifact_id

    def remove(self, artifact_id: int) -> None:
        if self.texts.pop(artifact_id, None) is None:
            return
        del self.content[artifact_id]
        self.index.remove(artifact_id)
        self.by_key = {k: v for k, v in self.by_key.items() if v != artifact_id}


STORE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.sampled_from([ArtifactKind.PROBE_RESULT, ArtifactKind.JOIN_HINT]),
            st.sampled_from(["q1", "q2", "Q1", "q3"]),
            st.sampled_from(["alice", "bob"]),
            st.sampled_from(INDEX_TEXTS),
        ),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=30)),
        st.tuples(
            st.just("search"), st.sampled_from(INDEX_TEXTS), st.integers(1, 8)
        ),
    ),
    max_size=80,
)


class TestSupersedeModel:
    @settings(max_examples=80, deadline=None)
    @given(ops=STORE_OPS)
    def test_equal_text_keeps_id_and_vector_row(self, ops):
        """Puts, removes and recalls against :class:`ReferenceStore`: the
        same ids returned, the same vector rows in the same order, the same
        content and the same ranked recalls; a put that refreshes in place
        leaves the recall memo standing."""
        embedder = HashedEmbedder()
        store, reference = AgenticMemoryStore(embedder=embedder), ReferenceStore(embedder)
        next_id = 0
        for op in ops:
            if op[0] == "put":
                _, kind, column, principal, text = op
                next_id += 1
                memo = store._vectors._memo
                artifact = Artifact(
                    kind=kind,
                    subject=("sales", column),
                    text=text,
                    content={"turn": next_id},
                    principal=principal,
                    shared=True,
                    depends_on=("sales",),
                    artifact_id=next_id,
                )
                key = (kind, ("sales", column.lower()), principal)
                expected = reference.put(key, next_id, text, {"turn": next_id})
                assert store.put(artifact) == expected
                assert (store._vectors._memo is memo) == (expected != next_id)
            elif op[0] == "remove":
                store._remove(op[1])
                reference.remove(op[1])
            else:
                _, text, k = op
                got = store.search(text, k=k, min_score=-2.0)
                want = reference.index.query(text, k)
                assert [(a.artifact_id, score) for a, score in got] == want
            assert store._vectors._ids == [item for item, _ in reference.index.items]
            assert {i: a.content for i, a in store._artifacts.items()} == reference.content

"""Tests for repro.util: hashing, RNG streams, text, tables."""

from __future__ import annotations

import enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.hashing import stable_hash, stable_hash_int
from repro.util.rng import RngStream, derive_seed
from repro.util.tabulate import format_series, format_table
from repro.util.text import (
    character_ngrams,
    jaccard,
    normalize_identifier,
    singularize,
    tokenize_words,
)


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash(("a", 1, 2.5)) == stable_hash(("a", 1, 2.5))

    def test_type_tags_prevent_collisions(self):
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash(True) != stable_hash(1)
        assert stable_hash(None) != stable_hash("None")
        assert stable_hash((1, 2)) != stable_hash([1, 2])

    def test_dict_order_insensitive(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_frozenset_order_insensitive(self):
        assert stable_hash(frozenset({1, 2, 3})) == stable_hash(frozenset({3, 1, 2}))

    def test_nested_structures(self):
        value = {"rows": [(1, "x"), (2, None)], "tags": frozenset({"a"})}
        assert stable_hash(value) == stable_hash(value)

    def test_unhashable_type_raises(self):
        with pytest.raises(TypeError):
            stable_hash(object())

    class _Level(enum.IntEnum):
        HIGH = 3

    @pytest.mark.parametrize(
        "value,digest",
        [
            (None, "b51a60734da64be0e618bacbea2865a8a7dcd669"),
            (True, "ef48c8d0df5118edd036315d2021412c3ca49d8a"),
            (-12345678901234567890, "f6d7ba021986d9dd20ad01826e1f3d5bff336105"),
            (2.5, "3033a4ecd31ec8c48cf40f834097d5b9caca7f5c"),
            ("é", "e5a4e3a82cfe8a00e85400b80955bf199dece687"),
            (b"xy", "0bb45be1c5c6071ef57121ac12ba2029b6badd6e"),
            (("scan", "sales", ("amount", "id")), "554104078f3f89c8494de9e5ece8999953ec4dd3"),
            ([1, (2, None), "x"], "21cedb78b83fbf0ff9d0cd496366fee618b95801"),
            (frozenset({1, "a"}), "d2d8fb2cff19582ae2cf1f0971769c01d5c4e24a"),
            ({"k": (1.0, False), 3: []}, "79603c87d116876b1992c0c6d370d9c76402ae56"),
            (_Level.HIGH, "5cd0a3cf169aa914b41cbeeec65c01f4c8c95433"),
        ],
    )
    def test_digests_are_pinned(self, value, digest):
        """Memory keys, embeddings and RNG stream seeds derive from these
        digests, so the byte encoding behind them must never drift."""
        assert stable_hash(value) == digest

    def test_int_hash_bits(self):
        assert 0 <= stable_hash_int("hello", bits=16) < (1 << 16)

    @given(st.text(), st.text())
    def test_distinct_strings_rarely_collide(self, left, right):
        if left != right:
            assert stable_hash(left) != stable_hash(right)


class TestRngStream:
    def test_same_name_same_sequence(self):
        a = RngStream(42, "agents")
        b = RngStream(42, "agents")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_differ(self):
        a = RngStream(42, "agents")
        b = RngStream(42, "sampling")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_child_streams_independent(self):
        parent = RngStream(7, "x")
        child1 = parent.child("one")
        child2 = parent.child("two")
        seq1 = [child1.random() for _ in range(3)]
        seq2 = [child2.random() for _ in range(3)]
        assert seq1 != seq2
        # Drawing from the parent does not disturb replayed children.
        parent.random()
        replayed = parent.child("one")
        assert [replayed.random() for _ in range(3)] == seq1

    def test_bernoulli_bounds(self):
        stream = RngStream(1, "b")
        assert not any(stream.bernoulli(0.0) for _ in range(50))
        stream = RngStream(1, "b2")
        assert all(stream.bernoulli(1.0) for _ in range(50))

    def test_weighted_choice_respects_zero_weight(self):
        stream = RngStream(3, "w")
        for _ in range(50):
            assert stream.weighted_choice({"a": 1.0, "b": 0.0}) == "a"

    def test_poisson_zero_lambda(self):
        assert RngStream(1, "p").poisson(0) == 0

    def test_poisson_mean_reasonable(self):
        stream = RngStream(5, "poisson")
        draws = [stream.poisson(4.0) for _ in range(500)]
        assert 3.0 < sum(draws) / len(draws) < 5.0

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestText:
    def test_normalize_identifier(self):
        assert normalize_identifier('"MyTable"') == "mytable"
        assert normalize_identifier("Users") == "users"

    def test_tokenize_words(self):
        assert tokenize_words("Hello, SQL-World 42!") == ["hello", "sql", "world", "42"]

    def test_character_ngrams_boundaries(self):
        grams = character_ngrams("cat")
        assert "#ca" in grams and "at#" in grams

    def test_character_ngrams_short_word(self):
        assert character_ngrams("ab", n=5) == ["#ab#"]

    def test_singularize(self):
        assert singularize("categories") == "category"
        assert singularize("stores") == "store"
        assert singularize("glasses") == "glasse" or singularize("glasses")
        assert singularize("class") == "class"

    def test_jaccard(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
        assert jaccard(set(), set()) == 0.0


class TestTabulate:
    def test_format_table_alignment(self):
        text = format_table(["name", "n"], [["alpha", 1], ["b", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4

    def test_format_table_floats(self):
        text = format_table(["x"], [[1.23456]], float_fmt=".2f")
        assert "1.23" in text

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="Table 1")
        assert text.splitlines()[0] == "Table 1"

    def test_format_series_merges_axes(self):
        text = format_series(
            "k", {"a": {1: 0.5, 2: 0.6}, "b": {2: 0.7, 3: 0.8}}
        )
        lines = text.splitlines()
        assert lines[0].split()[0] == "k"
        assert len(lines) == 2 + 3  # header + rule + 3 x values

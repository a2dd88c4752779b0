"""Shared utilities: stable hashing, seeded RNG streams, text, tables,
environment switches."""

from repro.util.env import env_flag
from repro.util.hashing import stable_hash, stable_hash_int
from repro.util.rng import RngStream, derive_seed
from repro.util.tabulate import format_table
from repro.util.text import normalize_identifier, tokenize_words

__all__ = [
    "RngStream",
    "derive_seed",
    "env_flag",
    "format_table",
    "normalize_identifier",
    "stable_hash",
    "stable_hash_int",
    "tokenize_words",
]

"""Stable, process-independent hashing.

Python's built-in ``hash`` is salted per process, so anything that must be
reproducible across runs (plan fingerprints, embeddings, RNG stream seeds)
goes through these helpers instead.
"""

from __future__ import annotations

import hashlib
from typing import Any


def stable_hash(value: Any) -> str:
    """Return a 40-char hex digest that is stable across processes.

    ``value`` may be any composition of str/bytes/int/float/bool/None,
    tuples, lists, dicts and frozensets; containers are serialised
    structurally so that e.g. ``("a", 1)`` and ``["a", 1]`` differ.
    """
    parts: list[bytes] = []
    _encode(value, parts)
    return hashlib.sha1(b"".join(parts)).hexdigest()


def stable_hash_int(value: Any, bits: int = 64) -> int:
    """Return a non-negative integer hash with ``bits`` bits of entropy."""
    digest = stable_hash(value)
    return int(digest, 16) % (1 << bits)


def _encode(value: Any, out: list[bytes]) -> None:
    """Append ``value``'s type-tagged encoding to ``out``.

    Type tags prevent cross-type collisions such as ``1`` vs ``"1"``.
    Strings and tuples (most of a canonical plan tuple) are tested first;
    no value is an instance of two of the types below, so the order does
    not change any encoding.
    """
    if isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(b"S" + str(len(encoded)).encode() + b":" + encoded)
    elif isinstance(value, tuple):
        out.append(b"T" + str(len(value)).encode() + b"[")
        for item in value:
            _encode(item, out)
        out.append(b"]")
    elif value is None:
        out.append(b"N")
    elif isinstance(value, bool):
        out.append(b"B1" if value else b"B0")
    elif isinstance(value, int):
        out.append(b"I" + str(value).encode())
    elif isinstance(value, float):
        out.append(b"F" + repr(value).encode())
    elif isinstance(value, bytes):
        out.append(b"Y" + str(len(value)).encode() + b":" + value)
    elif isinstance(value, list):
        out.append(b"L" + str(len(value)).encode() + b"[")
        for item in value:
            _encode(item, out)
        out.append(b"]")
    elif isinstance(value, frozenset):
        # Hash members independently and combine order-insensitively.
        member_digests = sorted(stable_hash(item) for item in value)
        out.append(b"E" + str(len(value)).encode() + b"[")
        for digest in member_digests:
            out.append(digest.encode())
        out.append(b"]")
    elif isinstance(value, dict):
        items = sorted((stable_hash(k), v) for k, v in value.items())
        out.append(b"D" + str(len(items)).encode() + b"{")
        for key_digest, item in items:
            out.append(key_digest.encode())
            _encode(item, out)
        out.append(b"}")
    else:
        raise TypeError(f"stable_hash cannot hash values of type {type(value).__name__}")

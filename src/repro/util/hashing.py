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


class Hole:
    """A placeholder for a value that is encoded later.

    :func:`encode_with_holes` keeps holes in place of their encoding, and
    :func:`stable_hash_filled` hashes the encoding with each hole filled,
    which equals :func:`stable_hash` of the value with the fills in place.
    A hole has no value of its own: comparing, hashing or rendering one
    raises :class:`HoleRead`, so code that would read the value before it
    is filled (a sort, a ``repr``) fails loudly instead of deciding on the
    placeholder.
    """

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def _read(self, *args: Any) -> Any:
        raise HoleRead(self.key)

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _read
    __hash__ = __repr__ = __str__ = __format__ = __bool__ = _read


class HoleRead(Exception):
    """A :class:`Hole`'s value was read before it was filled. Deliberately
    not a ``TypeError``: callers that tolerate incomparable values must not
    swallow it."""


def encode_with_holes(value: Any) -> list:
    """``value``'s :func:`stable_hash` encoding as byte strings and the
    holes it contains, adjacent bytes merged."""
    parts: list = []
    _encode(value, parts)
    pieces: list = []
    run: list[bytes] = []
    for part in parts:
        if type(part) is bytes:
            run.append(part)
            continue
        pieces.append(b"".join(run))
        pieces.append(part)
        run = []
    pieces.append(b"".join(run))
    return pieces


def stable_hash_filled(pieces: list, fill: Any) -> str:
    """:func:`stable_hash` of the value :func:`encode_with_holes` encoded,
    with each hole replaced by ``fill(hole)``."""
    parts: list[bytes] = []
    for piece in pieces:
        if type(piece) is bytes:
            parts.append(piece)
        else:
            _encode(fill(piece), parts)
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
    elif type(value) is Hole:
        out.append(value)
    else:
        raise TypeError(f"stable_hash cannot hash values of type {type(value).__name__}")

"""Boolean environment switches, parsed one way everywhere."""

from __future__ import annotations

import os

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def env_flag(name: str) -> bool:
    """Is the switch ``name`` turned on in the environment right now?

    ``1``/``true``/``yes``/``on`` (any case, surrounding whitespace
    ignored) mean on; anything else, including unset or empty, means off.
    Read at call time, so tests that monkeypatch the environment work.
    """
    return os.environ.get(name, "").strip().lower() in _TRUTHY

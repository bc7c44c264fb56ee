"""Parsers for the ``RCC_*`` environment toggles.

Every boolean toggle goes through :func:`env_flag` and every integer one
through :func:`env_int`, so ``RCC_NO_MP=0`` means the same "off" as
``RCC_SANITIZE=0`` and a malformed number fails the same way everywhere.
"""

from __future__ import annotations

import os
from typing import Mapping, Optional

from repro.errors import ConfigError

#: Values (case-insensitive, surrounding blanks ignored) that switch a
#: boolean toggle on. Anything else — ``0``, ``off``, ``no``, unset or
#: empty — leaves it off.
TRUTHY = frozenset({"1", "true", "yes", "on"})


def env_flag(name: str, environ: Optional[Mapping[str, str]] = None) -> bool:
    """Is the boolean toggle ``name`` switched on?"""
    env = os.environ if environ is None else environ
    return env.get(name, "").strip().lower() in TRUTHY


def env_int(name: str, default: int,
            environ: Optional[Mapping[str, str]] = None) -> int:
    """The integer toggle ``name``, or ``default`` when unset or empty.

    Raises :class:`~repro.errors.ConfigError` naming the variable when the
    value is not an integer."""
    env = os.environ if environ is None else environ
    raw = env.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"environment variable {name}={raw!r} is not an integer"
        ) from None

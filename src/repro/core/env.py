"""Validated parsing of the ``DEAR_*`` environment variables.

Historically every subsystem parsed its own kill switch with an ad-hoc
"not in the falsy set" test, which silently treated any typo
(``DEAR_CACHE=ture``) as *enabled*.  This module is the single place
that knows how to read the repo's environment knobs:

- :func:`env_flag` — boolean switches (``DEAR_TELEMETRY``,
  ``DEAR_CACHE``).  Recognised spellings are
  ``1/true/on/yes/y`` and ``0/false/off/no/n`` (case-insensitive,
  whitespace-tolerant); anything else warns once and falls back to the
  default, so a typo degrades loudly instead of flipping behaviour.
- :func:`env_int` — integer knobs (``DEAR_JOBS``).  Non-integer or
  out-of-range values warn and fall back to the default.
- :func:`env_str` — free-form string knobs (``DEAR_CACHE_DIR``).
  Unset, empty, or whitespace-only values fall back to the default, so
  an accidental ``DEAR_CACHE_DIR=""`` in a CI step cannot silently
  point the cache at the filesystem root.
- :func:`env_float` — float knobs (``DEAR_SERVE_BATCH_WINDOW``).
  Non-numeric or out-of-range values warn and fall back.

Both helpers are intentionally pure stdlib and import nothing from the
rest of the package, so any module (telemetry, sim, runner) can use
them without creating an import cycle.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

__all__ = ["env_flag", "env_float", "env_int", "env_str"]

#: Accepted spellings, lowercase.  Kept deliberately small: the point
#: of validation is to catch typos, not to bless new dialects.
_TRUE = frozenset(("1", "true", "on", "yes", "y"))
_FALSE = frozenset(("0", "false", "off", "no", "n"))


def env_flag(name: str, default: bool = True) -> bool:
    """Read a boolean ``DEAR_*`` switch, warning on unrecognised values.

    Unset or empty returns ``default``.  A value outside the recognised
    true/false spellings (e.g. ``DEAR_CACHE=ture``) emits a
    ``RuntimeWarning`` naming the variable and returns ``default`` —
    previously such typos were silently truthy.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if not value:
        return default
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    warnings.warn(
        f"ignoring unrecognised {name}={raw!r} (expected one of "
        f"{sorted(_TRUE)} or {sorted(_FALSE)}); using default {default}",
        RuntimeWarning,
        stacklevel=2,
    )
    return default


def env_int(
    name: str,
    default: Optional[int] = None,
    minimum: Optional[int] = None,
) -> Optional[int]:
    """Read an integer ``DEAR_*`` knob, warning on invalid values.

    Unset or empty returns ``default``.  Non-integer values, and values
    below ``minimum`` when one is given, warn and return ``default``.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip()
    if not value:
        return default
    try:
        parsed = int(value)
    except ValueError:
        warnings.warn(
            f"ignoring non-integer {name}={raw!r}; using default {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    if minimum is not None and parsed < minimum:
        warnings.warn(
            f"ignoring {name}={raw!r} (must be >= {minimum}); "
            f"using default {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    return parsed


def env_str(name: str, default: Optional[str] = None) -> Optional[str]:
    """Read a free-form string ``DEAR_*`` knob.

    Unset, empty, or whitespace-only values return ``default``; any
    other value is returned stripped.  Used for path-like knobs
    (``DEAR_CACHE_DIR``) where an empty string would otherwise resolve
    to a surprising location.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip()
    if not value:
        return default
    return value


def env_float(
    name: str,
    default: Optional[float] = None,
    minimum: Optional[float] = None,
) -> Optional[float]:
    """Read a float ``DEAR_*`` knob, warning on invalid values.

    Unset or empty returns ``default``.  Non-numeric values, and values
    below ``minimum`` when one is given, warn and return ``default``.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip()
    if not value:
        return default
    try:
        parsed = float(value)
    except ValueError:
        warnings.warn(
            f"ignoring non-numeric {name}={raw!r}; using default {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    if minimum is not None and parsed < minimum:
        warnings.warn(
            f"ignoring {name}={raw!r} (must be >= {minimum}); "
            f"using default {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    return parsed

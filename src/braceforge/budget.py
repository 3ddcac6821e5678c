"""Search budget control.

Every enumeration that could blow up checks its candidate-space size against
a budget before starting.  The default can be overridden with the
BRACEFORGE_BUDGET environment variable or per call; a budget must be a
non-negative integer.
"""

from __future__ import annotations

import os

from .errors import InputError, SearchBudgetExceeded

DEFAULT_BUDGET = 2_000_000

_ENV_VAR = "BRACEFORGE_BUDGET"


def get_budget(override: int | None = None) -> int:
    """The effective budget: override, else BRACEFORGE_BUDGET, else the default.

    Raises InputError when the value is not an integer or is negative.
    """
    raw = override if override is not None else os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    source = "budget" if override is not None else _ENV_VAR
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise InputError(f"bad {source} value {raw!r}: not an integer") from None
    if value < 0:
        raise InputError(f"bad {source} value {raw!r}: negative")
    return value


def guard(size: int, what: str, budget: int | None = None, partial_count: int = 0) -> int:
    """Raise SearchBudgetExceeded when size exceeds the effective budget."""
    limit = get_budget(budget)
    if size > limit:
        raise SearchBudgetExceeded(what, size, limit, partial_count)
    return limit

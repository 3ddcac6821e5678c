"""Search budget control: one limit, scoped to a computation.

Every search that could blow up checks the size of its space against the
budget before it starts (guard).  The budget is one value per context:
`with limit(n):` holds every search in the block to n, and the command
line enters it once per command with --budget.  Outside any limit()
block, BRACEFORGE_BUDGET sets it, else DEFAULT_BUDGET.  A budget must be a
non-negative integer; 0 stops every search.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from .errors import InputError, SearchBudgetExceeded

DEFAULT_BUDGET = 2_000_000

_ENV_VAR = "BRACEFORGE_BUDGET"

_SCOPED: ContextVar[Optional[int]] = ContextVar("braceforge_budget", default=None)


def get_budget(override: Optional[int] = None) -> int:
    """The effective budget: override, else the innermost limit(), else
    BRACEFORGE_BUDGET, else the default; InputError unless the value is a
    non-negative integer."""
    raw = override if override is not None else _SCOPED.get()
    source = "budget"
    if raw is None:
        raw, source = os.environ.get(_ENV_VAR), _ENV_VAR
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise InputError(f"bad {source} value {raw!r}: not an integer") from None
    if value < 0:
        raise InputError(f"bad {source} value {raw!r}: negative")
    return value


@contextmanager
def limit(n: Optional[int] = None) -> Iterator[None]:
    """Hold every search in the block to budget n, or with n None to the
    budget in force on entry; the value is checked on entry."""
    token = _SCOPED.set(get_budget(n))
    try:
        yield
    finally:
        _SCOPED.reset(token)


def guard(size: int, what: str) -> None:
    """Raise SearchBudgetExceeded when size exceeds the effective budget."""
    budget = get_budget()
    if size > budget:
        raise SearchBudgetExceeded(what, size, budget)

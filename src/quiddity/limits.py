"""Resource ceilings for the exhaustive searches.

The enumerators refuse lengths above a ceiling instead of silently
truncating.  A ceiling can be set per call, or raised globally through
the ``QUIDDITY_BUDGET`` environment variable, which never lowers a
default ceiling.
"""

from __future__ import annotations

import os

DEFAULT_BRUTE_FORCE_CEILING = 12
DEFAULT_GENERATIVE_CEILING = 14
DEFAULT_DISSECTION_CEILING = 14

ENV_VAR = "QUIDDITY_BUDGET"


class BudgetExceededError(RuntimeError):
    """A search was asked for more than its configured ceiling."""


def ceiling(default: int, override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get(ENV_VAR)
    if env is not None:
        try:
            return max(default, int(env))
        except ValueError:
            raise ValueError(f"{ENV_VAR} must be an integer, got {env!r}") from None
    return default


def check_budget(n: int, default: int, override: int | None, what: str) -> None:
    limit = ceiling(default, override)
    if n > limit:
        raise BudgetExceededError(
            f"{what} for n={n} exceeds the ceiling {limit}; "
            f"raise it via the budget argument or {ENV_VAR}"
        )

"""Run configuration read from the environment by the CLI."""

from __future__ import annotations

import os

from .errors import SigcurveError
from .groebner import EliminationBudget

BUDGET_ENV = "SIGCURVE_BUDGET"


def budget_from_env(default: EliminationBudget | None = None) -> EliminationBudget:
    """Elimination budget, overridable via SIGCURVE_BUDGET="max_basis,max_degree"."""
    base = default or EliminationBudget()
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return base
    try:
        parts = [int(x) for x in raw.replace(":", ",").split(",")]
        if len(parts) != 2 or parts[0] <= 0 or parts[1] <= 0:
            raise ValueError
    except ValueError:
        raise SigcurveError(
            f"{BUDGET_ENV} must be 'MAX_BASIS,MAX_DEGREE', got {raw!r}"
        ) from None
    return EliminationBudget(max_basis=parts[0], max_degree=parts[1])

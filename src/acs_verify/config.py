"""Tolerance policy for rank decisions and algebraic identities, and the
residual fold that compares against it. An FD cross-check is judged
against its own check's tolerance."""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # rank cutoff, relative to the largest singular value of the matrix at hand
    rank_rtol: float = 1e-8
    # absolute tolerance for algebraic identities evaluated in closed form
    alg_atol: float = 1e-9


DEFAULT = Tolerances()


def worst_of(*values):
    """Largest of the values, or NaN when any of them is NaN.

    Python's max keeps its first argument unless a later one compares
    greater, so max(0.0, nan) is 0.0 and a NaN residual would vanish
    from a running fold; this keeps it, and a tolerance test on the
    result then fails.
    """
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values)

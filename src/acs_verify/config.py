"""Tolerance policy for rank decisions, algebraic identities and FD cross-checks."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # rank cutoff, relative to the largest singular value of the matrix at hand
    rank_rtol: float = 1e-8
    # absolute tolerance for algebraic identities evaluated in closed form
    alg_atol: float = 1e-9
    # relative tolerance when one side of a comparison is finite-difference based
    fd_rtol: float = 1e-4


DEFAULT = Tolerances()

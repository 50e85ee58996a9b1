"""Exact integral points on conics with a positive square discriminant.

The quadratic part of an admissible conic splits into two rational lines,
turning the equation into F1*F2 = I over the integers.  The solver
enumerates divisor splittings of I (finite case) or parametrizes the two
lines (degenerate case I = 0); the oracle module re-derives answers by a
bounded discriminant search that shares no code with the solver route.
"""

from .conic import Conic, Invariants, LatticePoint, invariants_of, validate
from .errors import (
    ConicError,
    DegenerateAlpha,
    DegenerateGamma,
    DivisorLimitExceeded,
    NotFactorable,
)
from .oracle import SearchBound, brute_force, random_valid_conic, solution_bound
from .solver import (
    MOD4_OBSTRUCTION,
    FiniteSolutions,
    LinePair,
    ParamLine,
    power_of_two_conic,
    power_of_two_points,
    solve,
    solve_difference_of_squares,
)

__all__ = [
    "Conic",
    "ConicError",
    "DegenerateAlpha",
    "DegenerateGamma",
    "DivisorLimitExceeded",
    "FiniteSolutions",
    "Invariants",
    "LatticePoint",
    "LinePair",
    "MOD4_OBSTRUCTION",
    "NotFactorable",
    "ParamLine",
    "SearchBound",
    "brute_force",
    "invariants_of",
    "power_of_two_conic",
    "power_of_two_points",
    "random_valid_conic",
    "solution_bound",
    "solve",
    "solve_difference_of_squares",
    "validate",
]

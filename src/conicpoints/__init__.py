"""Exact integral points on conics with a positive square discriminant.

The quadratic part of an admissible conic splits into two rational lines,
turning the equation into F1*F2 = I over the integers.  The solver
enumerates divisor splittings of I (finite case) or parametrizes the two
lines (degenerate case I = 0); the oracle module re-derives answers by a
bounded discriminant search that shares no code with the solver route.
"""

from .conic import (
    Conic,
    FactorForm,
    Invariants,
    LatticePoint,
    content_reduce,
    factor_forms,
    invariants_of,
    validate,
)
from .errors import (
    ConicError,
    DegenerateAlpha,
    DegenerateGamma,
    DivisorLimitExceeded,
    NotFactorable,
)
from .intmath import (
    DEFAULT_DIVISOR_CAP,
    extended_gcd,
    integer_sqrt,
    positive_divisors,
)
from .oracle import SearchBound, brute_force, random_valid_conic, solution_bound
from .solver import (
    MOD4_OBSTRUCTION,
    FiniteSolutions,
    LinePair,
    ParamLine,
    SolutionSet,
    SquareSplitResult,
    power_of_two_conic,
    power_of_two_points,
    solve,
    solve_degenerate,
    solve_difference_of_squares,
    solve_finite,
    solve_homogeneous,
    solve_linear_diophantine,
)

__all__ = [
    "Conic",
    "ConicError",
    "DEFAULT_DIVISOR_CAP",
    "DegenerateAlpha",
    "DegenerateGamma",
    "DivisorLimitExceeded",
    "FactorForm",
    "FiniteSolutions",
    "Invariants",
    "LatticePoint",
    "LinePair",
    "MOD4_OBSTRUCTION",
    "NotFactorable",
    "ParamLine",
    "SearchBound",
    "SolutionSet",
    "SquareSplitResult",
    "brute_force",
    "content_reduce",
    "extended_gcd",
    "factor_forms",
    "integer_sqrt",
    "invariants_of",
    "positive_divisors",
    "power_of_two_conic",
    "power_of_two_points",
    "random_valid_conic",
    "solution_bound",
    "solve",
    "solve_degenerate",
    "solve_difference_of_squares",
    "solve_finite",
    "solve_homogeneous",
    "solve_linear_diophantine",
    "validate",
]

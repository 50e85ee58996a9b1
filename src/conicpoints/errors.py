"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can emit
stable error documents without string-matching messages.
"""

from __future__ import annotations


class ConicError(ValueError):
    """Base class for rejected inputs and enforced resource limits."""

    code = "conic-error"


class DegenerateAlpha(ConicError):
    """The x^2 coefficient is zero, so the equation is not quadratic in x."""

    code = "degenerate-alpha"


class DegenerateGamma(ConicError):
    """The y^2 coefficient is zero."""

    code = "degenerate-gamma"


class NotFactorable(ConicError):
    """beta^2 - 4*alpha*gamma is not a positive perfect square.

    Without a square discriminant the quadratic part does not split into
    two rational linear forms and the divisor method does not apply.
    """

    code = "not-factorable"


class DivisorLimitExceeded(ConicError):
    """Divisor enumeration was refused.

    Either the number is above the configured cap, or one of its cofactors
    was not split within the factoring budget; the message names which.
    """

    code = "divisor-limit"

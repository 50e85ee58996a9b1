"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can emit
stable error documents without string-matching messages.
"""


def _int_text(n: int) -> str:
    """n in decimal below 2^14000 (4,215 digits), else "<b-bit integer>":
    str() refuses ints over 4,300 digits under Python's default limit."""
    if n.bit_length() <= 14000:
        return str(n)
    return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"


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

    One of the number's cofactors was not split or not proven prime
    within the one factoring budget, which rho, ECM and the primality
    proofs share, or its divisors give more points than the point budget
    allows, each counted by its size; the message names which.
    """

    code = "divisor-limit"

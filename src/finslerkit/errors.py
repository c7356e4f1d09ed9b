"""Exception hierarchy with stable machine-readable codes.

Every error carries a ``code`` string that the CLI emits verbatim, so
scripts can dispatch on failures without parsing human text.  Codes in
``DOMAIN_CODES`` map to exit status 2 (the request asked for something
outside a metric's domain or was malformed); everything else numeric
maps to exit status 3.

A library function that rejects one of its own arguments raises
``InvalidArgument``: a ``ValidationError`` (code ``validation_error``)
whose ``path`` is the parameter's name, for example ``samples`` or
``box``, and whose ``constraint`` names the rule (``minimum``,
``maximum``, ``positive``, ``finite``, ``shape``, ``grid``, ...).  It is
also a ``ValueError``, so callers that catch ``ValueError`` keep working.
The CLI reports it at ``run.<command>.<path>``.
"""

from __future__ import annotations

import numbers


class FinslerError(Exception):
    """Base class for all library errors."""

    code = "error"


class NonFiniteSample(FinslerError):
    """A probed function value was NaN/inf (too close to a domain boundary)."""

    code = "non_finite_sample"


class NoBracket(FinslerError):
    """Root bracketing failed after the doubling search (degenerate direction);
    ``row`` is the index of the first row that found no bracket."""

    code = "no_bracket"

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class OutsideCone(FinslerError):
    """A vector's polar angle lies outside the curve's angular interval."""

    code = "outside_cone"


class DegenerateDirection(FinslerError):
    """A ray never crosses the unit-ball boundary; the gauge is not defined there."""

    code = "degenerate_direction"


class OutsideDomain(FinslerError):
    """A tangent vector is not in the metric's conic domain."""

    code = "outside_domain"


class OutsideProfile(FinslerError):
    """The homogeneous ratio falls outside the profile's interval."""

    code = "outside_profile"


class DomainEmpty(FinslerError):
    """No probed direction is admissible for a combined metric."""

    code = "domain_empty"


class BadExponent(FinslerError):
    """Family exponent violates its validity range."""

    code = "bad_exponent"


class _AtParameter(FinslerError):
    """An error along a curve or orbit; ``parameter`` is where it happened."""

    def __init__(self, message: str, parameter: float | None = None):
        super().__init__(message)
        self.parameter = parameter


class NotAdmissible(_AtParameter):
    """A curve velocity leaves the conic domain; carries the offending parameter."""

    code = "not_admissible"


class DegenerateTensor(_AtParameter):
    """The fundamental tensor is (numerically) degenerate along an orbit; carries the parameter."""

    code = "degenerate_tensor"


class LeftDomain(_AtParameter):
    """Geodesic integration exited the conic domain; carries the exit parameter."""

    code = "left_domain"


class StepBudget(_AtParameter):
    """Geodesic integration used up its trial-step budget; carries the parameter reached."""

    code = "step_budget"


class ParseError(FinslerError):
    """Configuration text is not syntactically valid."""

    code = "parse_error"

    def __init__(self, message: str, line: int | None = None, path: str = ""):
        super().__init__(message)
        self.line = line
        self.path = path


class ValidationError(FinslerError):
    """Configuration is well-formed but violates a schema constraint."""

    code = "validation_error"

    def __init__(self, message: str, path: str = "", constraint: str = ""):
        super().__init__(message)
        self.path = path
        self.constraint = constraint


class InvalidArgument(ValidationError, ValueError):
    """A library function's argument breaks one of its rules; ``path`` is the parameter name."""


def check_real(value, name: str) -> None:
    """InvalidArgument at ``name`` (constraint ``integer``) unless ``value`` is
    a real number.  A count rule calls it before it compares the bounds, so
    that a string is a typed error there and not a TypeError."""
    if not isinstance(value, numbers.Real):
        raise InvalidArgument(f"{name} must be an integer, got {value!r}", path=name, constraint="integer")


def check_integer(value, name: str) -> int:
    """``value`` as an int: an integer, or a real with an integral value; InvalidArgument
    at ``name`` (constraint ``integer``) for anything else, a boolean included."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        raise InvalidArgument(f"{name} must be an integer, got {value!r}", path=name, constraint="integer")
    return int(value)


# Codes that signal a domain/usage problem (CLI exit 2); the remaining
# library codes signal numerical failure (CLI exit 3).
DOMAIN_CODES = frozenset(
    {
        "outside_domain",
        "outside_cone",
        "outside_profile",
        "domain_empty",
        "bad_exponent",
        "not_admissible",
        "parse_error",
        "validation_error",
    }
)

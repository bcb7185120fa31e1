"""Exception hierarchy shared by all slopewalk modules.

Two bases map onto the CLI exit codes: bad inputs / unmet preconditions
(exit 2) and internal invariant breaches that signal a bug or a corrupted
build (exit 4). Failed verification of well-formed data (exit 3) is reported
as a list of violations or a report, not raised.
"""


class SlopewalkError(Exception):
    """Base class for all package errors."""


class PreconditionError(SlopewalkError):
    """An operation was called outside its documented domain."""


class InvariantError(SlopewalkError):
    """An internal consistency guarantee was violated; this is a bug."""


# -- padic ------------------------------------------------------------------

class EmptyPolynomial(PreconditionError):
    """All polynomial coefficients are zero; no Newton polygon exists."""


# -- qseries ----------------------------------------------------------------

class InsufficientPrecision(PreconditionError):
    """Known coefficients do not determine the requested result."""


# -- spaces -----------------------------------------------------------------

class ParityError(PreconditionError):
    """Weight/level combination admits no forms of the requested kind."""


class DependentGenerators(InvariantError):
    """Graded-ring generator monomials failed the independence check."""


class ResidualNonzero(InvariantError):
    """An operator solve left a nonzero residual past the pivot rows."""


class NoUniqueSlope(PreconditionError):
    """The characteristic polynomial has no unique root at the target slope."""


class IrrationalEigenvalue(PreconditionError):
    """The requested eigenvalue is not rational; out of supported scope."""


class RepeatedRoot(PreconditionError):
    """The Hecke polynomial has a double root; the refinement ratio is 1."""


# -- weightspace / eigencurve -----------------------------------------------

class CenterOfWeightSpace(PreconditionError):
    """The weight character (k=2, m=0) has w = 0; no valuation exists."""


class NotInBoundary(PreconditionError):
    """The weight character lies outside the boundary annulus 0 < v(w) < 3."""


class NonIntegralIndex(PreconditionError):
    """slope / v(w) is not a positive integer; inconsistent point data."""


class NotPotentiallyCrystalline(PreconditionError):
    """The twin involution is only defined on potentially crystalline points."""


# -- pingpong ---------------------------------------------------------------

class ConstraintViolated(PreconditionError):
    """A walk-construction constraint (such as 2^m - 1 > i) fails."""

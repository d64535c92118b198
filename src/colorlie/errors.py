"""Exception hierarchy shared by all modules.

``ValidationError`` subclasses signal bad inputs or violated call contracts;
``HypothesisFailed`` subclasses signal that a theorem's hypotheses do not
hold for the given algebra; ``TheoremViolation`` signals an internal
inconsistency (a guaranteed conclusion failed to materialise, i.e. a bug).
"""

from __future__ import annotations


class ColorLieError(Exception):
    """Base class for all errors raised by this package."""

    def __str__(self) -> str:
        base = super().__str__()
        depth = getattr(self, "flag_depth", None)
        if depth is not None:
            return f"{base} [flag depth {depth}]"
        return base


class ValidationError(ColorLieError):
    """Invalid input data or violated operation contract."""


# grading
class ModulusTooSmall(ValidationError):
    pass


class GroupMismatch(ValidationError):
    pass


class NotSkewSymmetric(ValidationError):
    pass


class BadDiagonal(ValidationError):
    pass


class TorsionIncompatible(ValidationError):
    pass


# exact linear algebra
class NotSquare(ValidationError):
    pass


class SizeMismatch(ValidationError):
    pass


class ZeroPolynomial(ValidationError):
    pass


# graded linear algebra
class ShapeMismatch(ValidationError):
    pass


class UnknownDegree(ValidationError):
    pass


class SpaceMismatch(ValidationError):
    pass


class DegreeMismatch(ValidationError):
    pass


class TorsionDegree(ValidationError):
    """The map's degree has finite order, so the grading argument fails."""


class ZeroDegree(ValidationError):
    pass


class NonzeroDegree(ValidationError):
    pass


# color algebra
class ParentMismatch(ValidationError):
    pass


class NotClosed(ValidationError):
    pass


class NotInAlgebra(ValidationError):
    pass


class ZeroAlgebra(ValidationError):
    pass


# structure theorems
class HypothesisFailed(ColorLieError):
    """A theorem hypothesis does not hold for the given input.  When a
    component of degree g is not nil, ``witness`` is (g, t): sum t_i B_i
    over that component's maps B_i is not nilpotent; otherwise it is
    None."""

    witness = None


class NotSolvable(HypothesisFailed):
    pass


class TorsionGrading(HypothesisFailed):
    """The grading group has torsion, which the triangularization
    theorems exclude; see the cyclic-group counterexample demo."""


class EmptySpace(HypothesisFailed):
    pass


class NoHomogeneousEigenvector(ColorLieError):
    """Raised when hypothesis checks were skipped and the eigenvector
    search genuinely came up empty."""


class IrrationalEigenvalue(ColorLieError):
    """A required eigenvalue is not rational.  This is a limitation of
    computing over the rationals, not a failure of the theorem; the
    offending characteristic polynomial is attached."""

    def __init__(self, message, char_poly=None):
        super().__init__(message)
        self.char_poly = char_poly


class TheoremViolation(ColorLieError):
    """A conclusion guaranteed by verified hypotheses failed to hold."""


# cli
class ParseError(ValidationError):
    """Problem-file syntax or schema error, anchored to a location."""

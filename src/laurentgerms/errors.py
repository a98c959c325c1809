"""Exceptions shared across the package.

Every error raised by the library is a subclass of :class:`LaurentGermsError`,
so callers (and the CLI) can map failures to exit codes without fishing for
stdlib exception types.  Each class carries the CLI's exit code for it as
``exit_code``: 3 for a violated mathematical precondition, unless a subclass
says otherwise (2 for unparsable input, 4 for the dimension cap).
"""


class LaurentGermsError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class DependentInput(LaurentGermsError):
    """A family of vectors/forms that must be linearly independent is not."""


class RankDeficient(LaurentGermsError):
    """A matrix does not have the rank an operation requires."""


class NotPolar(LaurentGermsError):
    """Data does not define a polar germ (zero numerator, dependent poles,
    or a numerator not orthogonal to the pole forms)."""


class PoleHit(LaurentGermsError):
    """Evaluation point lies on a pole hyperplane."""


class OrthogonalityViolated(LaurentGermsError):
    """A derivation direction is not orthogonal to the numerator variables."""


class DimensionCapExceeded(LaurentGermsError):
    """Ambient dimension exceeds the command-line cap (``--dim-cap``)."""

    exit_code = 4


class NotStrictlyConvexUnion(LaurentGermsError):
    """The union of a cone family contains a nonzero linear subspace."""


class NotProperlyPositioned(LaurentGermsError):
    """A cone family fails the meets-along-faces / no-line conditions."""


class NotASubdivision(LaurentGermsError):
    """Cones do not exactly tile a target: the pieces of one cone (``I_cone``,
    ``p_res_exp_sum``) or of every supporting cone of an expansion."""


class NotInLaurentSubspace(LaurentGermsError):
    """The germ has no expansion supported on the requested cone family."""


class NotInRDelta(LaurentGermsError):
    """A germ has a pole outside the arrangement it is split against."""


class NotSimplicial(LaurentGermsError):
    """Cone generators are not linearly independent."""


class NotSmooth(LaurentGermsError):
    """A lattice cone's generators do not extend to a lattice basis."""


class NotDimensionTwo(LaurentGermsError):
    """The 2-d smooth subdivision was asked of a cone of other dimension."""


class NoSmoothSubdivisionAvailable(LaurentGermsError):
    """No smooth subdivision was supplied and none can be derived."""


class NonLinearPole(LaurentGermsError):
    """A denominator does not factor into rational linear forms."""


class ExprSyntaxError(LaurentGermsError):
    """Expression text failed to parse; carries the offending position."""

    exit_code = 2

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class UnknownVariable(LaurentGermsError):
    """Expression refers to a variable outside x1..xk."""

    exit_code = 2


class FormatError(LaurentGermsError):
    """Serialized data is malformed; message carries the location."""

    exit_code = 2

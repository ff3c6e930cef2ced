"""Exception hierarchy shared by all singchi modules.

Every failure that a caller can act on is a subclass of SingchiError, so
`except SingchiError` at the CLI boundary maps cleanly onto exit codes.
"""


class SingchiError(Exception):
    """Base class for all singchi errors."""


class PolyParseError(SingchiError):
    """Raised on malformed polynomial text; carries the offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(SingchiError):
    """An identifier was used that is not declared in the ring."""


class EmptyArgsError(SingchiError):
    """A divided difference was requested with no arguments."""


class ZeroDegreeError(SingchiError):
    """A resultant was requested in a variable one argument does not contain."""


class BadPrimeError(SingchiError):
    """A chosen prime divides the denominator of an input coefficient."""


class ExponentLimitError(SingchiError, ValueError):
    """An exponent reached 2^15, past the field of a packed monomial key."""


class ResourceLimitError(SingchiError):
    """The row reductions of a colength exhausted their budget (max_steps)."""


class NonIsolatedError(SingchiError):
    """The hypersurface singularity has a non-isolated critical locus.

    NonIsolatedError(template, *values) formats the template with the
    values when its text is first read, not when it is raised: a caller
    that only catches the error never spells the germ out."""

    def __init__(self, message: str, *values):
        super().__init__(message)
        self.values = values

    def __str__(self):
        if self.values:
            self.args, self.values = (self.args[0].format(*self.values),), ()
        return super().__str__()


class NotAtOriginError(SingchiError):
    """The input does not define a germ at the origin."""


class NotICISError(SingchiError):
    """The presentation is not an isolated complete intersection singularity."""


class NotZeroDimensionalError(SingchiError):
    """A point count was requested for an ideal of positive dimension."""


class NotNormalFormError(SingchiError):
    """Map components are not in the expected coordinate normal form."""


class NotCorankOneError(SingchiError):
    """The differential of the germ does not have rank exactly n-1 at 0."""


class QuadrupleOrbitError(SingchiError):
    """The ordered quadruple point count is not a whole number of orbits."""


class NonIntegralChiError(SingchiError):
    """An Euler characteristic formula produced a non-integer value."""


class NegativeMuImageError(SingchiError):
    """The image Milnor number evaluated to a negative value."""


class UnknownEntryError(SingchiError):
    """A catalog name was requested that does not exist."""


class BadParamsError(SingchiError):
    """Parameters passed to a catalog family violate its constraints."""

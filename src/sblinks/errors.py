"""Exception hierarchy shared by all sblinks modules."""


class SblinksError(Exception):
    """Base class for every error raised by this package."""


# field towers

class ZeroInverse(SblinksError):
    pass


class ActionMismatch(SblinksError):
    pass


class NotInExtension(SblinksError):
    pass


class ParseError(SblinksError):
    pass


# Severi-Brauer surfaces and closed points

class ZeroXi(SblinksError):
    pass


class BadExtension(SblinksError):
    pass


class ExtensionMismatch(SblinksError):
    pass


class NotAnOrbit(SblinksError):
    pass


class BadDegree(SblinksError):
    pass


class Collinear(SblinksError):
    pass


class SplittingFieldMismatch(SblinksError):
    pass


class DegenerateConfiguration(SblinksError):
    pass


class XiIsCube(SblinksError):
    pass


class AlphaIsSquare(SblinksError):
    pass


# birational maps and links

class IdenticallyZero(SblinksError):
    pass


class NonFiniteBaseLocus(SblinksError):
    pass


class EquivariantBasisNotFound(SblinksError):
    pass


class NotEquivariant(SblinksError):
    """A map does not intertwine the twisted actions of its surfaces."""


class SpecialPosition(SblinksError):
    pass


class BaseLocusNotSplit(SblinksError):
    """The base locus is finite but its points cannot be expressed in the
    decidable radical fragment this library works in, or the factorisation
    over the base field that the solver needs failed."""


# cubic models

class LambdaIsCube(SblinksError):
    pass


class IdentityFails(SblinksError):
    def __init__(self, message, residue=None):
        super().__init__(message)
        self.residue = residue


class DegenerateTower(SblinksError):
    pass


class SectionNotFound(SblinksError):
    pass


# word algebra

class UnclassifiablePoint(SblinksError):
    pass


class NotComposable(SblinksError):
    pass


class DegeneratePair(SblinksError):
    pass


# genus bounds

class SmallE(SblinksError):
    pass

"""Exception types shared across the package."""


class FramekitError(Exception):
    """Base class for all framekit errors."""


class ShapeMismatch(FramekitError):
    pass


class DimensionMismatch(FramekitError):
    pass


class NotSelfAdjoint(FramekitError):
    pass


class NotAFrame(FramekitError):
    pass


class NotIndependent(FramekitError):
    pass


class NotUnitNorm(FramekitError):
    pass


class NotABasis(FramekitError):
    pass


class NotPsd(FramekitError):
    pass


class ZeroVector(FramekitError):
    pass


class BadParam(FramekitError):
    pass


class BadCoefficients(FramekitError):
    pass


class TooMany(FramekitError):
    pass


class RankDeficient(FramekitError):
    pass


class BudgetTooLarge(FramekitError):
    pass


class InternalInconsistency(FramekitError):
    """Two independent computation paths disagreed; indicates a numerical or logic bug."""

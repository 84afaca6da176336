"""Exception types shared across the package."""


class BhhtError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BhhtError):
    """Malformed polynomial, group or fixture text."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


class NotInvertibleError(BhhtError):
    """The exponent matrix admits no chain/loop decomposition."""


class DegenerateLoopError(BhhtError):
    """A loop block with all exponents equal to 1 (excluded case)."""


class NotInvariantError(BhhtError):
    """The permutation group does not preserve the polynomial."""


class FlipSymmetryError(BhhtError):
    """A loop is mapped to itself with reversed orientation (excluded case)."""


class MembershipError(BhhtError):
    """An element does not belong to the group it was claimed to be in."""


class AmbientMismatchError(BhhtError):
    """Operands live over different semidirect-product groups."""


class SizeBoundError(BhhtError):
    """A group or enumeration exceeded its configured size bound."""


class DegeneratePairingError(BhhtError):
    """The bilinear pairing turned out degenerate for a valid matrix.

    This should never happen; when raised it carries the offending
    exponent matrix so the case can be recorded.
    """

    def __init__(self, matrix, detail=""):
        super().__init__("degenerate character pairing%s" % (": " + detail if detail else ""))
        self.matrix = matrix


class StructuralAssumptionViolated(BhhtError):
    """A per-stratum isotropy ansatz produced a non-integer or inconsistent solution.

    Besides the message it carries the failing stratum (1-based variable
    indices), the order of the class concerned and the residual left over
    (a division remainder or a solve's difference); each is None when it
    does not apply or is unknown where the failure was raised.
    """

    def __init__(self, message, stratum=None, class_order=None, residual=None):
        super().__init__(message)
        self.stratum = stratum
        self.class_order = class_order
        self.residual = residual

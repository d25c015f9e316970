"""Exception and warning types shared across the package."""


class RepstabError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class ShapeMismatch(RepstabError):
    code = "shape-mismatch"


class DivisibilityViolation(RepstabError):
    code = "divisibility-violation"


class NotASubgroup(RepstabError):
    code = "not-a-subgroup"


class ScaleExceeded(RepstabError):
    code = "scale-exceeded"


class DepthExceeded(RepstabError):
    code = "depth-exceeded"


class NotInFamily(RepstabError):
    code = "not-in-family"


class NotSurjective(RepstabError):
    code = "not-surjective"


class FamilyNotSubmultiplicative(RepstabError):
    code = "family-not-submultiplicative"


class FamilyNotGlobalMultiplicative(RepstabError):
    code = "family-not-global-multiplicative"


class FamilyNotExpansive(RepstabError):
    code = "family-not-expansive"


class FamilyUnsupported(RepstabError):
    code = "family-unsupported"


class TowerUnavailable(RepstabError):
    code = "tower-unavailable"


class NotStabilized(RepstabError):
    code = "not-stabilized"


class NotAInfinity(RepstabError):
    code = "not-a-infinity"


class InvalidFraming(RepstabError):
    code = "invalid-framing"


class LawViolation(RepstabError):
    """A checked categorical law (section, composition) failed."""

    code = "law-violation"


class InvariantViolation(RepstabError):
    """A verification of a computed result failed; this is a bug."""

    code = "invariant-violation"


class ParseError(RepstabError):
    """Raised on malformed textual input; carries the offending position."""

    code = "parse-error"

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class UsageError(RepstabError):
    """Raised on a malformed command line."""

    code = "usage-error"


class CacheCorrupt(UserWarning):
    """Warning emitted when a cache entry cannot be trusted; it is recomputed."""

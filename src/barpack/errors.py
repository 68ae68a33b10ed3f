"""Exception types shared across the package."""


class BarpackError(Exception):
    """Base class for every error barpack raises on bad input or a bad
    request. InvariantViolation is the one exception outside it."""


class InvariantViolation(AssertionError):
    """An internal invariant failed: a bug in barpack, not bad input.

    Raised by explicit checks, so it also fires under python -O. It is not
    a BarpackError, so handlers of input errors cannot swallow it."""


class HeightOutOfRange(BarpackError):
    """A bar height lies outside the half-open interval (0, 1]."""


class NonRepresentable(BarpackError):
    """A height is not an integer multiple of 1/D for the instance's D."""


class EmptyInstance(BarpackError):
    """An instance must contain at least one chart."""


class MalformedJson(BarpackError, ValueError):
    """An instance or packing document does not have the expected shape.

    Also a ValueError, like the JSON decoder's own errors, so a caller can
    catch every unreadable document with one except clause."""


class UnassignedChart(BarpackError):
    """A packing does not assign every chart a start cell in 1..4n."""


class InfeasiblePacking(BarpackError):
    """Some cell's bar heights sum to more than the strip height."""


class OverlapTooLarge(BarpackError):
    """Requested overlap exceeds 2 cells or a chart's own length."""


class InfeasibleMerge(BarpackError):
    """The requested union would overload a shared cell."""


class NotAMatching(BarpackError):
    """Supplied pairs reuse a vertex, name a non-edge, or cannot be formed."""


class NotMaxWeight(BarpackError):
    """Supplied first-round matching is lighter than an optimal one."""


class ProvenanceGap(BarpackError):
    """Charts' provenance does not cover every instance id exactly once."""


class NotBigInstance(BarpackError):
    """Operation is only defined when every chart has a bar above 1/2."""


class JmaxTooSmall(BarpackError):
    """Model export needs at least two candidate cells."""


class KTooSmall(BarpackError):
    """Tight-family size parameter must be at least 1."""

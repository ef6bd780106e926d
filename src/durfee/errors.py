"""Exception hierarchy.

Every error carries a stable machine-readable ``code`` (the class name);
the CLI prints ``error[<code>]: <message>`` and exits 3 for domain errors.
"""


class DurfeeError(Exception):
    """Base class for all library errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class EmptyPartition(DurfeeError):
    """An operation that needs at least one part was given the empty partition."""


class NoSuchDecomposition(DurfeeError):
    """The partition does not have the requested number of rectangles."""


class InvalidDecomposition(DurfeeError):
    """Rectangle widths, side partitions and below-partition are inconsistent."""


class InsertionUnderflow(DurfeeError):
    """Requested insertion total is smaller than the current selection total."""


class RankTooLarge(DurfeeError):
    """Partition rank exceeds the bound required by the map."""


class RankTooSmall(DurfeeError):
    """Partition rank is below the bound required by the inverse map."""


class ZeroWidthRectangle(DurfeeError):
    """The map requires every rectangle of the input to have positive width."""


class UnknownIdentity(DurfeeError):
    """verify_identity was given a name outside the supported set."""


class UnsupportedRegion(DurfeeError):
    """Identity parameters lie outside the region where the identity holds."""


class ImpracticalOrder(DurfeeError):
    """A series was requested at an order too costly to compute.

    Raised before any work when the estimated cost passes
    ``qseries.MAX_SERIES_COST``: by the census engine, by ``multisum_lhs``
    and by ``verify_identity``.
    """


class InternalInvariantViolation(DurfeeError):
    """A structural invariant failed; indicates a bug, not bad input."""

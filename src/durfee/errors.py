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
    """A series or a partition was requested at a size too costly to compute.

    Raised before any work when the price of a series plan, its cells and
    its coefficient additions, passes ``partition.MAX_SERIES_COST`` in
    either, by ``partition._build``, which builds every series and sums the
    two sides of ``verify_identity`` and ``jacobi_specialization``; and by
    ``insert``, priced by its bounds.  Raised before any part is built when
    a partition would have more than ``partition.MAX_PARTS`` parts: by
    ``Partition.conjugate`` (so also by ``gen_conjugate`` and
    ``garvan_conjugate``), by ``compose`` and by ``gen_dyson_inverse``; and
    when a decomposition with m >= 1 would have more than that many
    rectangles: by ``decompose`` (so also by ``rank_km``, ``gen_dyson`` and
    ``gen_dyson_inverse``).
    """


class InternalInvariantViolation(DurfeeError):
    """A structural invariant failed; indicates a bug, not bad input."""

"""Partition bijections: classic Dyson shift, generalized conjugation, and
the generalized Dyson map between rectangle parameters m and m+2."""

from __future__ import annotations

from .decomposition import DurfeeDecomposition, compose, decompose, profile
from .errors import (
    InternalInvariantViolation,
    InvalidDecomposition,
    RankTooLarge,
    RankTooSmall,
    ZeroWidthRectangle,
)
from .partition import Partition
from .rank import _rank_km_full, dyson_rank
from .select_insert import (
    PartitionSequence,
    insert,
    iterate_remove,
    remove_selected,
    select,
)


def dyson_map(lam: Partition, r: int) -> Partition:
    """Remove the first column and prepend a row of size len(lam) + r - 1.

    Defined when dyson_rank(lam) <= r; then the new first row is at least
    as large as the remaining parts and the size grows by r - 1.
    """
    if dyson_rank(lam) > r:
        raise RankTooLarge(f"rank {dyson_rank(lam)} > {r}")
    rest = tuple(x - 1 for x in lam.parts if x > 1)
    first = len(lam) + r - 1
    if first == 0:
        return Partition._fromparts(rest)
    return Partition._fromparts((first,) + rest)


def gen_conjugate(lam: Partition, k: int) -> Partition:
    """Conjugation-like involution on partitions with k Durfee squares.

    Strips selected parts from the side partitions N_k times (their totals,
    as columns, form the new below-partition) and inserts the columns of the
    old below-partition back into the sides, smallest first.  Exchanges the
    selection total with the number of parts below; widths are preserved.
    """
    d = decompose(lam, k, 0)
    n_k = d.widths[-1]
    bounds = profile(d)
    seq = PartitionSequence(d.sides, bounds)
    totals, residue = iterate_remove(seq, n_k)

    alpha_cols = d.below.conjugate().parts
    cur = residue
    for j in range(n_k, 0, -1):
        col = alpha_cols[j - 1] if j <= len(alpha_cols) else 0
        if col < select(cur).total:
            raise InternalInvariantViolation(
                f"column insertion order broke a >= A: {lam.text()}, k={k}, m=0"
            )
        cur = insert(col, cur)

    beta_cols = tuple(t for t in totals if t > 0)
    new_below = Partition._fromparts(beta_cols).conjugate()
    return compose(
        DurfeeDecomposition(0, k, d.widths, cur.partitions, new_below)
    )


def gen_dyson(lam: Partition, k: int, m: int, r: int) -> Partition:
    """Map rectangle parameter m to m+2, shrinking every width by one.

    With t parts below the rectangles, removes the first column below,
    inserts t - r into the side partitions, and reassembles with widths
    N_i - 1 under parameter m + 2.  Requires positive widths and
    (k,m)-rank at most -r; the image then has selection total t - r, at
    most t parts below, and size |lam| - r - k(m+1).
    """
    stats, d, _ = _rank_km_full(lam, k, m)
    if any(w == 0 for w in d.widths):
        raise ZeroWidthRectangle(f"{lam.text()} has a zero-width {m}-Durfee rectangle")
    if stats.r > -r:
        raise RankTooLarge(f"(k,m)-rank {stats.r} > {-r}")
    t = stats.b
    new_sides = insert(t - r, PartitionSequence(d.sides, profile(d)))
    beta = Partition._fromparts(tuple(x - 1 for x in d.below.parts if x > 1))
    new_widths = tuple(w - 1 for w in d.widths)
    for w in new_widths:
        if w + (m + 2) < 1:
            raise InternalInvariantViolation(
                f"image rectangle would have height < 1: {lam.text()}, k={k}, m={m}, r={r}"
            )
    return compose(
        DurfeeDecomposition(m + 2, k, new_widths, new_sides.partitions, beta)
    )


def gen_dyson_inverse(mu: Partition, k: int, m: int, r: int) -> Partition:
    """Invert gen_dyson: mu is decomposed with parameter m + 2.

    Removes the selected parts from the sides (their total is t - r, fixing
    t), prepends a column of height t to the below-partition, and
    reassembles with widths one larger under parameter m.  Requires
    (k,m+2)-rank at least -r.  Images whose rectangles are too small to
    have come from valid m-rectangles (width + 1 + m < 1, possible only
    for m < 0) have no preimage and raise InvalidDecomposition.
    """
    stats, d, _ = _rank_km_full(mu, k, m + 2)
    if stats.r < -r:
        raise RankTooSmall(f"(k,m+2)-rank {stats.r} < {-r}")
    for w in d.widths:
        if w + 1 + m < 1:
            raise InvalidDecomposition(
                f"no preimage: width {w} would need an m-rectangle of height {w + 1 + m}"
            )
    t = stats.a + r
    trace, residue = remove_selected(PartitionSequence(d.sides, profile(d)))
    if trace.total != stats.a:
        raise InternalInvariantViolation(
            f"removal total {trace.total} disagrees with selection total {stats.a}: "
            f"{mu.text()}, k={k}, m={m}, r={r}"
        )
    if len(d.below) > t:
        raise InternalInvariantViolation(
            f"below-partition taller than restored column of {t}: "
            f"{mu.text()}, k={k}, m={m}, r={r}"
        )
    alpha = Partition._fromparts(
        tuple(x + 1 for x in d.below.parts) + (1,) * (t - len(d.below))
    )
    new_widths = tuple(w + 1 for w in d.widths)
    return compose(
        DurfeeDecomposition(m, k, new_widths, residue.partitions, alpha)
    )

"""Partition bijections: classic Dyson shift, generalized conjugation, and
the generalized Dyson map between rectangle parameters m and m+2.

Each map runs once, on part tuples, through the raw helpers of
``decomposition`` and ``select_insert``; the only object it builds is the
image ``Partition``.  ``gen_conjugate`` copies the side partitions into
working lists once, runs its N_k removals as one pass per level, places
every column it puts back against the residue and merges them in once per
level.  ``gen_dyson`` and ``gen_dyson_inverse`` take the selection walk
that ``_rank_raw`` already made, for the a >= A check and for the removal,
so each walks its selection once.  Every placed part is checked against
its neighbours and its bound; a failure raises InternalInvariantViolation.
The image is reassembled by ``_compose_raw``, which checks it with
``_validate`` and the parts budget.
"""

from __future__ import annotations

from .decomposition import _compose_raw, _decompose_raw, _gaps
from .errors import (
    InternalInvariantViolation,
    InvalidDecomposition,
    RankTooLarge,
    RankTooSmall,
    ZeroWidthRectangle,
)
from .partition import Partition, _check_ints, _conjugate_parts, _refuse_parts
from .rank import _rank_raw, dyson_rank
from .select_insert import _insert_raw, _placement, _remove_iterated, _remove_raw, _select_raw


def dyson_map(lam: Partition, r: int) -> Partition:
    """Remove the first column and prepend a row of size len(lam) + r - 1.

    Defined when dyson_rank(lam) <= r; then the new first row is at least
    as large as the remaining parts and the size grows by r - 1.
    """
    if type(r) is not int:  # the cheap test; the helper names the culprit
        _check_ints(r=r)
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

    Each insertion's total is the selection total met by the next, larger
    column, so only the smallest column needs a >= A.  Removing the N_k
    insertions again takes the columns back largest first, and each step
    removes a part with as many residue parts above it as ``_placement``
    of its column into the residue gives (see ``_remove_iterated``).  By
    the uniqueness of the placement, the inserted parts are the placements
    of the columns into the residue, so they are placed there at once and
    merged into each side partition in one sort.
    """
    widths, sides, below = _decompose_raw(lam.parts, k, 0)
    n_k = widths[-1]
    bounds = _gaps(widths)

    def where():
        return f"{lam.text()}, k={k}, m=0"

    work = list(map(list, sides))
    nu = _remove_iterated(work, bounds, n_k, where)
    alpha_cols = _conjugate_parts(below)
    smallest = alpha_cols[n_k - 1] if n_k <= len(alpha_cols) else 0
    if smallest < sum(_select_raw(work, bounds)[1]):
        raise InternalInvariantViolation(f"column insertion order broke a >= A: {where()}")
    placed = [_placement(col, work, bounds) for col in alpha_cols]
    for s, level in zip(work, zip(*placed)):
        s += [v for _, v in level if v]
        s.sort(reverse=True)
    return Partition._fromparts(_compose_raw(0, k, widths, work, _conjugate_parts(nu)))


def gen_dyson(lam: Partition, k: int, m: int, r: int) -> Partition:
    """Map rectangle parameter m to m+2, shrinking every width by one.

    With t parts below the rectangles, removes the first column below,
    inserts t - r into the side partitions, and reassembles with widths
    N_i - 1 under parameter m + 2.  Requires positive widths and
    (k,m)-rank at most -r; the image then has selection total t - r, at
    most t parts below, and size |lam| - r - k(m+1).
    """
    if type(r) is not int:  # as in dyson_map; k and m are checked by the decomposition
        _check_ints(r=r)
    widths, sides, below, _, parts = _rank_raw(lam.parts, k, m)
    if any(w == 0 for w in widths):
        raise ZeroWidthRectangle(f"{lam.text()} has a zero-width {m}-Durfee rectangle")
    t = len(below)
    rank = sum(parts) - t
    if rank > -r:
        raise RankTooLarge(f"(k,m)-rank {rank} > {-r}")

    # rank <= -r is the a >= A of this insertion
    new_sides = _insert_raw(t - r, sides, _gaps(widths))
    beta = tuple([x - 1 for x in below if x > 1])
    # w >= 1 and w + m >= 1, so every image height (w - 1) + (m + 2) is >= 2
    new_widths = tuple([w - 1 for w in widths])
    return Partition._fromparts(
        _compose_raw(m + 2, k, new_widths, tuple(new_sides), beta)
    )


def gen_dyson_inverse(mu: Partition, k: int, m: int, r: int) -> Partition:
    """Invert gen_dyson: mu is decomposed with parameter m + 2.

    Removes the selected parts from the sides (their total is t - r, fixing
    t), prepends a column of height t to the below-partition, and
    reassembles with widths one larger under parameter m.  Requires
    (k,m+2)-rank at least -r.  Images whose rectangles are too small to
    have come from valid m-rectangles (width + 1 + m < 1, possible only
    for m < 0) have no preimage and raise InvalidDecomposition.  A
    preimage of more than ``partition.MAX_PARTS`` parts raises
    ImpracticalOrder before any of it is built.
    """
    if not (type(m) is type(r) is int):  # as in gen_dyson; m + 2 would hide a bool m
        _check_ints(m=m, r=r)
    widths, sides, below, rows, parts = _rank_raw(mu.parts, k, m + 2)
    a = sum(parts)
    rank = a - len(below)
    if rank < -r:
        raise RankTooSmall(f"(k,m+2)-rank {rank} < {-r}")
    for w in widths:
        if w + 1 + m < 1:
            raise InvalidDecomposition(
                f"no preimage: width {w} would need an m-rectangle of height {w + 1 + m}"
            )
    t = a + r
    # every rectangle of the preimage has positive width, so it adds all its
    # w + 1 + m rows; the t rows below follow
    _refuse_parts(sum(widths) + k * (m + 1) + t,
                  lambda: f"preimage of {mu.text()} under k={k}, m={m}, r={r}")

    def where():
        return f"{mu.text()}, k={k}, m={m}, r={r}"

    residue = _remove_raw(sides, rows)
    removed = sum(map(sum, sides)) - sum(map(sum, residue))
    if removed != a:
        raise InternalInvariantViolation(
            f"removal total {removed} disagrees with selection total {a}: {where()}"
        )
    # rank >= -r is len(below) <= t: the restored column covers every row below
    alpha = tuple([x + 1 for x in below]) + (1,) * (t - len(below))
    new_widths = tuple([w + 1 for w in widths])
    return Partition._fromparts(_compose_raw(m, k, new_widths, tuple(residue), alpha))

"""Rank statistics built on the rectangle decomposition.

The (k,m)-rank of a partition compares the selection total over the side
partitions of its k successive m-Durfee rectangles with the number of parts
below the last rectangle.  Garvan's statistic compares short columns of the
first side partition with the same below-count; the two are different
pointwise but equidistributed jointly with the widths.
"""

from __future__ import annotations

from typing import NamedTuple

from .decomposition import DurfeeDecomposition, compose, decompose, profile
from .errors import EmptyPartition, InternalInvariantViolation
from .partition import Partition
from .select_insert import PartitionSequence, SelectionTrace, select


class RankStats(NamedTuple):
    a: int
    b: int
    r: int
    widths: tuple[int, ...]

    def to_json_dict(self, k: int, m: int | None) -> dict:
        return {
            "k": k,
            "m": m,
            "widths": list(self.widths),
            "a": self.a,
            "b": self.b,
            "r": self.r,
        }


def dyson_rank(lam: Partition) -> int:
    """Largest part minus number of parts."""
    if not lam:
        raise EmptyPartition("rank of the empty partition is undefined")
    return lam.largest - len(lam)


def rank_km(lam: Partition, k: int, m: int) -> RankStats:
    """(k,m)-rank: a = selection total over the sides, b = parts below."""
    stats, _, _ = _rank_km_full(lam, k, m)
    return stats


def _rank_km_full(
    lam: Partition, k: int, m: int
) -> tuple[RankStats, DurfeeDecomposition, SelectionTrace]:
    d = decompose(lam, k, m)
    seq = PartitionSequence(d.sides, profile(d))
    trace = select(seq)
    n_k = d.widths[-1]
    for i, j in enumerate(trace.rows):
        # selection never reaches below rectangle i: j <= 1 + N_i - N_k <= N_i + m
        if j > 1 + d.widths[i] - n_k:
            raise InternalInvariantViolation(
                f"selected row {j} in side {i + 1} exceeds 1 + N_i - N_k"
            )
    b = len(d.below)
    return RankStats(trace.total, b, trace.total - b, d.widths), d, trace


def garvan_rank(lam: Partition, k: int) -> RankStats:
    """Garvan's statistic: columns of lambda^1 no taller than N_k, vs parts below.

    Column c of lambda^1 is taller than N_k exactly when part N_k + 1 of
    lambda^1 reaches c, so a = lambda^1_1 - lambda^1_{N_k+1}: O(1) for any
    part size.
    """
    d = decompose(lam, k, 0)
    side = d.sides[0]
    a = side.largest - side.part(d.widths[-1] + 1)
    b = len(d.below)
    return RankStats(a, b, a - b, d.widths)


def garvan_conjugate(lam: Partition, k: int) -> Partition:
    """Exchange the short columns of lambda^1 with the below-partition.

    Columns of lambda^1 of height <= N_k become the rows below the last
    square, and the rows of the old below-partition come back as columns of
    the new lambda^1.  Involutive; negates Garvan's statistic and preserves
    the square widths.
    """
    d = decompose(lam, k, 0)
    n_k = d.widths[-1]
    cols = d.sides[0].conjugate().parts
    tall = [h for h in cols if h > n_k]
    short = [h for h in cols if h <= n_k]
    # old below-rows are <= N_k wide, so they slot in after the tall columns
    new_cols = tuple(tall) + d.below.parts
    new_first = Partition._fromparts(new_cols).conjugate()
    new_below = Partition._fromparts(tuple(short))
    out = DurfeeDecomposition(
        m=0,
        k=k,
        widths=d.widths,
        sides=(new_first,) + d.sides[1:],
        below=new_below,
    )
    return compose(out)

"""Rank statistics built on the rectangle decomposition.

The (k,m)-rank of a partition compares the selection total over the side
partitions of its k successive m-Durfee rectangles with the number of parts
below the last rectangle.  Garvan's statistic compares short columns of the
first side partition with the same below-count; the two are different
pointwise but equidistributed jointly with the widths.
"""

from __future__ import annotations

from typing import NamedTuple

from .decomposition import _compose_raw, _decompose_raw, _gaps, _live
from .errors import EmptyPartition, InternalInvariantViolation
from .partition import Partition, _conjugate_parts
from .select_insert import _select_raw


class RankStats(NamedTuple):
    a: int
    b: int
    r: int
    widths: tuple[int, ...]

    def to_json_dict(self, k: int, m: int | None) -> dict:
        return _rank_json(k, m, self.widths, self.a, self.b, self.r)


def _rank_json(k: int, m: int | None, widths, a: int, b: int, r: int) -> dict:
    """``RankStats.to_json_dict`` of its fields."""
    return {"k": k, "m": m, "widths": list(widths), "a": a, "b": b, "r": r}


def dyson_rank(lam: Partition) -> int:
    """Largest part minus number of parts."""
    if not lam:
        raise EmptyPartition("rank of the empty partition is undefined")
    return lam.largest - len(lam)


def rank_km(lam: Partition, k: int, m: int) -> RankStats:
    """(k,m)-rank: a = selection total over the sides, b = parts below."""
    widths, _, below, _, parts = _rank_raw(lam.parts, k, m)
    a = sum(parts)
    b = len(below)
    return RankStats(a, b, a - b, widths)


def _rank_raw(ps: tuple[int, ...], k: int, m: int):
    """Raw decomposition of ``ps`` and its selection walk over the sides.

    Returns (widths, sides, below, rows, parts), the sides and below as
    part tuples and the selected rows and parts as lists.
    """
    widths, sides, below = _decompose_raw(ps, k, m)
    n_k = widths[-1]
    # past a zero-width rectangle (so n_k = 0) every side is empty, with gap 0:
    # the walk enters each at row 1, selects part 0 there and leaves at row 1
    live = k if n_k else _live(widths)
    rows, parts = _select_raw(sides[:live], _gaps(widths[:live]))
    for i, j in enumerate(rows):
        # selection never reaches below rectangle i: j <= 1 + N_i - N_k <= N_i + m
        if j > 1 + widths[i] - n_k:
            raise InternalInvariantViolation(
                f"selected row {j} in side {i + 1} exceeds 1 + N_i - N_k"
            )
    if live < k:
        rows += [1] * (k - live)
        parts += [0] * (k - live)
    return widths, sides, below, rows, parts


def garvan_rank(lam: Partition, k: int) -> RankStats:
    """Garvan's statistic: columns of lambda^1 no taller than N_k, vs parts below.

    Column c of lambda^1 is taller than N_k exactly when part N_k + 1 of
    lambda^1 reaches c, so a = lambda^1_1 - lambda^1_{N_k+1}: O(1) for any
    part size.
    """
    widths, sides, below = _decompose_raw(lam.parts, k, 0)
    side = sides[0]
    n_k = widths[-1]
    a = (side[0] if side else 0) - (side[n_k] if n_k < len(side) else 0)
    b = len(below)
    return RankStats(a, b, a - b, widths)


def garvan_conjugate(lam: Partition, k: int) -> Partition:
    """Exchange the short columns of lambda^1 with the below-partition.

    Columns of lambda^1 of height <= N_k become the rows below the last
    square, and the rows of the old below-partition come back as columns of
    the new lambda^1.  Involutive; negates Garvan's statistic and preserves
    the square widths.
    """
    widths, sides, below = _decompose_raw(lam.parts, k, 0)
    n_k = widths[-1]
    cols = _conjugate_parts(sides[0])
    tall = [h for h in cols if h > n_k]
    short = [h for h in cols if h <= n_k]
    # old below-rows are <= N_k wide, so they slot in after the tall columns
    new_first = _conjugate_parts(tuple(tall) + below)
    return Partition._fromparts(
        _compose_raw(0, k, widths, (new_first,) + sides[1:], tuple(short))
    )

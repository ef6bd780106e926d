"""Successive m-Durfee-rectangle decomposition and its inverse.

An m-rectangle is ``height = width + m`` with positive height; width may be
zero only when m > 0.  The decomposition stacks maximal m-rectangles top to
bottom: widths N_1 >= ... >= N_k, the side partition lambda^i to the right
of rectangle i, and the below-partition alpha under rectangle k.

``_decompose_raw`` and ``_compose_raw`` work on part tuples and are the
single implementation of both directions.  ``decompose`` and ``compose``
wrap them and build the ``Partition`` objects; the rank statistics and the
bijections call the raw helpers and build objects only for their result.

Every tuple ``_validate`` accepts decomposes exactly one partition, the
rows ``_compose_raw`` assembles, so nothing is checked after assembly.
Rows inside rectangle i are N_i plus a side part, or N_i; the row just past
it starts side i + 1, at most N_{i+1} + (N_i - N_{i+1}) = N_i, or alpha, at
most N_k.  So the rows weakly decrease, and the greedy walk from the same
offset grows through the rectangle and stops at N_i.  A width-0 rectangle
holds only its side, at most m rows, and every later region is empty.
"""

from __future__ import annotations

from operator import sub
from typing import NamedTuple

from .errors import InvalidDecomposition, NoSuchDecomposition
from .partition import _EMPTY, Partition, _check_ints, _parts_text, _refuse_parts


class DurfeeDecomposition(NamedTuple):
    m: int
    k: int
    widths: tuple[int, ...]
    sides: tuple[Partition, ...]
    below: Partition

    def to_json_dict(self) -> dict:
        sides = [s.parts for s in self.sides]
        return _decomposition_json(self.m, self.k, self.widths, sides, self.below.parts)


def _decomposition_json(m, k, widths, sides, below) -> dict:
    """``DurfeeDecomposition.to_json_dict`` of ``_decompose_raw`` output."""
    return {
        "m": m,
        "k": k,
        "widths": list(widths),
        "sides": list(map(_parts_text, sides)),
        "below": _parts_text(below),
    }


def decompose(lam: Partition, k: int, m: int) -> DurfeeDecomposition:
    """Split ``lam`` into its first k successive m-Durfee rectangles.

    Greedy top-down rule: with row offset o_0 = 0,

        N_i = max { w >= max(0, 1-m) : lam[o_{i-1} + w + m] >= w },
        o_i = o_{i-1} + N_i + m.

    Rows o_{i-1}+1 .. o_i lose N_i cells each and become lambda^i (zero
    rows dropped); the rows below o_k become alpha.  For m > 0 every
    partition (including the empty one) decomposes, and a k past MAX_PARTS
    raises ImpracticalOrder before any rectangle is taken; for m <= 0 a
    partition may run out of rectangles of positive height.
    """
    widths, sides, below = _decompose_raw(lam.parts, k, m)
    fp = Partition._fromparts
    live = _live(widths)
    sides = tuple(map(fp, sides[:live])) + (_EMPTY,) * (k - live)
    return DurfeeDecomposition(m, k, widths, sides, fp(below))


def _live(widths: tuple[int, ...]) -> int:
    """Sides up to the first zero-width rectangle: every later side is
    empty, with gap 0 (see ``_decompose_raw``)."""
    return min(len(widths), len(widths) - widths.count(0) + 1)


def _decompose_raw(ps: tuple[int, ...], k: int, m: int):
    """``decompose`` on a part tuple: (widths, side part tuples, below parts)."""
    if not (type(k) is type(m) is int):  # the cheap test; the helper names the culprit
        _check_ints(k=k, m=m)
    if k < 1:
        raise ValueError("k must be positive")
    if m >= 1:  # every partition has k rectangles here, so the output is O(k)
        _refuse_parts(k, "a decomposition into {} {}-Durfee rectangles".format, k, m, unit="widths")
    ell = len(ps)
    widths = []
    sides = []
    off = 0
    w_min = max(0, 1 - m)
    for i in range(k):
        w = w_min
        if w > 0:
            row = off + w + m
            if row > ell or ps[row - 1] < w:
                raise NoSuchDecomposition(
                    f"{_parts_text(ps)} has no {_ordinal(i + 1)} {m}-Durfee rectangle"
                )
        # part o_{i-1} + w + 1 + m, the last row of a rectangle of width
        # w + 1, sits at index base + w
        base = off + m
        while base + w < ell and ps[base + w] > w:
            w += 1
        start = off
        off += w + m
        widths.append(w)
        if not w:
            # a zero width (so m >= 1) means row start + m + 1 is past the last
            # part: this rectangle takes every row left, and every later one is empty
            sides.append(ps[start:])
            break
        # maximal w: rows start..off-1 exist and are >= w; row off (next side or alpha) is <= w
        sides.append(tuple([x - w for x in ps[start:off] if x > w]))
    below = ps[off:]
    rest = k - len(widths)
    return tuple(widths) + (0,) * rest, tuple(sides) + ((),) * rest, below


def compose(d: DurfeeDecomposition) -> Partition:
    """Reassemble a partition from a decomposition; inverse of decompose.

    Raises InvalidDecomposition exactly when a structural invariant fails
    (``_validate``; every other decomposition is that of its rows, see the
    module docstring), and ImpracticalOrder, before any row is built, when
    the result would have more than MAX_PARTS parts.
    """
    sides = tuple(side.parts for side in d.sides)
    return Partition._fromparts(_compose_raw(d.m, d.k, d.widths, sides, d.below.parts))


def _compose_raw(m, k, widths, sides, below) -> tuple[int, ...]:
    """``compose`` on part tuples: the parts of the reassembled partition."""
    _validate(m, k, widths, sides, below)
    # a width-0 rectangle adds only its side's rows, whatever m
    heights = [w + m if w else len(side) for w, side in zip(widths, sides)]
    _refuse_parts(sum(heights) + len(below), "composed partition".format)
    if m >= 1:  # as in decompose
        _refuse_parts(k, "a decomposition into {} {}-Durfee rectangles".format, k, m, unit="widths")
    rows = []
    for w, side, height in zip(widths, sides, heights):
        rows += [w + x for x in side]
        rows += [w] * (height - len(side))
    rows += below
    return tuple(rows)


def profile(d: DurfeeDecomposition) -> tuple[int, ...]:
    """Width gaps p_i = N_{i-1} - N_i for i = 2..k; the selection bounds."""
    return _gaps(d.widths)


def _gaps(widths: tuple[int, ...]) -> tuple[int, ...]:
    """``profile`` of a width tuple."""
    return tuple(map(sub, widths, widths[1:]))


def _validate(m, k, widths, sides, below) -> None:
    if k < 1 or len(widths) != k or len(sides) != k:
        raise InvalidDecomposition("k, widths and sides are inconsistent")
    for i, w in enumerate(widths):
        if w < 0:
            raise InvalidDecomposition("negative width")
        if w + m < 1:
            raise InvalidDecomposition(f"rectangle {i + 1} has non-positive height")
        if i > 0 and w > widths[i - 1]:
            raise InvalidDecomposition("widths must be weakly decreasing")
    for i, side in enumerate(sides):
        if len(side) > widths[i] + m:
            raise InvalidDecomposition(f"side partition {i + 1} has too many parts")
        if i > 0 and side and side[0] > widths[i - 1] - widths[i]:
            raise InvalidDecomposition(f"side partition {i + 1} is too wide")
    if below and below[0] > widths[-1]:
        raise InvalidDecomposition("below-partition is wider than the last rectangle")


def _ordinal(i: int) -> str:
    if 10 <= i % 100 <= 20:
        suffix = "th"
    else:
        suffix = {1: "st", 2: "nd", 3: "rd"}.get(i % 10, "th")
    return f"{i}{suffix}"

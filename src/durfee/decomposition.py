"""Successive m-Durfee-rectangle decomposition and its inverse.

An m-rectangle is ``height = width + m`` with positive height; width may be
zero only when m > 0.  The decomposition stacks maximal m-rectangles top to
bottom: widths N_1 >= ... >= N_k, the side partition lambda^i to the right
of rectangle i, and the below-partition alpha under rectangle k.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    ImpracticalOrder,
    InternalInvariantViolation,
    InvalidDecomposition,
    NoSuchDecomposition,
)
from .partition import MAX_PARTS, Partition


class DurfeeDecomposition(NamedTuple):
    m: int
    k: int
    widths: tuple[int, ...]
    sides: tuple[Partition, ...]
    below: Partition

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "widths": list(self.widths),
            "sides": [s.text() for s in self.sides],
            "below": self.below.text(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DurfeeDecomposition":
        return cls(
            m=int(d["m"]),
            k=int(d["k"]),
            widths=tuple(int(w) for w in d["widths"]),
            sides=tuple(Partition.from_text(s) for s in d["sides"]),
            below=Partition.from_text(d["below"]),
        )


def decompose(lam: Partition, k: int, m: int) -> DurfeeDecomposition:
    """Split ``lam`` into its first k successive m-Durfee rectangles.

    Greedy top-down rule: with row offset o_0 = 0,

        N_i = max { w >= max(0, 1-m) : lam[o_{i-1} + w + m] >= w },
        o_i = o_{i-1} + N_i + m.

    Rows o_{i-1}+1 .. o_i lose N_i cells each and become lambda^i (zero
    rows dropped); the rows below o_k become alpha.  For m > 0 every
    partition (including the empty one) decomposes; for m <= 0 a partition
    may run out of rectangles of positive height.
    """
    if k < 1:
        raise ValueError("k must be positive")
    ps = lam.parts
    ell = len(ps)
    widths = []
    offsets = []
    off = 0
    w_min = max(0, 1 - m)
    for i in range(k):
        w = w_min
        if w > 0:
            row = off + w + m
            if row > ell or ps[row - 1] < w:
                raise NoSuchDecomposition(
                    f"{lam.text()} has no {_ordinal(i + 1)} {m}-Durfee rectangle"
                )
        while True:
            nxt = off + (w + 1) + m
            if nxt <= ell and ps[nxt - 1] >= w + 1:
                w += 1
            else:
                break
        widths.append(w)
        off += w + m
        offsets.append(off)
    sides = []
    start = 0
    for i in range(k):
        w = widths[i]
        rows = []
        end = offsets[i]
        # rows past the last part must lie in width-0 rectangles and add
        # nothing, so the walk over all rectangles is O(ell) whatever m
        if end > ell:
            if w:
                raise InternalInvariantViolation(
                    f"rectangle {i + 1} of width {w} runs past the last part: "
                    f"{lam.text()}, k={k}, m={m}"
                )
            end = ell
        for j in range(start + 1, end + 1):
            v = ps[j - 1] - w
            if v < 0:
                raise InternalInvariantViolation(
                    f"row {j} of rectangle {i + 1} is narrower than its width {w}: "
                    f"{lam.text()}, k={k}, m={m}"
                )
            if v > 0:
                rows.append(v)
        sides.append(Partition._fromparts(tuple(rows)))
        start = offsets[i]
    below = Partition._fromparts(ps[offsets[-1]:])
    d = DurfeeDecomposition(m, k, tuple(widths), tuple(sides), below)
    # bound checks: guaranteed by maximality of the greedy widths
    for i in range(1, k):
        if sides[i].largest > widths[i - 1] - widths[i]:
            raise InternalInvariantViolation(
                f"side partition {i + 1} exceeds its width gap "
                f"{widths[i - 1] - widths[i]}: {lam.text()}, k={k}, m={m}"
            )
    if below.largest > widths[-1]:
        raise InternalInvariantViolation(
            f"below-partition wider than last rectangle: {lam.text()}, k={k}, m={m}"
        )
    return d


def compose(d: DurfeeDecomposition) -> Partition:
    """Reassemble a partition from a decomposition; inverse of decompose.

    Raises InvalidDecomposition unless all structural invariants hold and
    the result decomposes back to the same widths (greedy maximality), and
    ImpracticalOrder, before any row is built, when the result would have
    more than MAX_PARTS parts.
    """
    _validate(d)
    m, k, widths, sides, below = d
    # a width-0 rectangle adds only its side's rows, whatever m
    heights = [w + m if w else len(side) for w, side in zip(widths, sides)]
    parts = sum(heights) + len(below)
    if parts > MAX_PARTS:
        raise ImpracticalOrder(
            f"composed partition would have {parts} parts (cap {MAX_PARTS}); refusing"
        )
    rows = []
    for w, side, height in zip(widths, sides, heights):
        side = side.parts
        for j in range(height):
            rows.append(w + (side[j] if j < len(side) else 0))
    rows.extend(below.parts)
    for a, b in zip(rows, rows[1:]):
        if a < b:
            raise InvalidDecomposition("assembled rows are not weakly decreasing")
    lam = Partition._fromparts(tuple(rows))
    redo = decompose(lam, k, m)
    if redo.widths != widths:
        raise InvalidDecomposition(
            f"widths {widths} are not maximal for {lam.text()} (greedy gives {redo.widths})"
        )
    return lam


def profile(d: DurfeeDecomposition) -> tuple[int, ...]:
    """Width gaps p_i = N_{i-1} - N_i for i = 2..k; the selection bounds."""
    return tuple(d.widths[i - 1] - d.widths[i] for i in range(1, d.k))


def _validate(d: DurfeeDecomposition) -> None:
    if d.k < 1 or len(d.widths) != d.k or len(d.sides) != d.k:
        raise InvalidDecomposition("k, widths and sides are inconsistent")
    for i, w in enumerate(d.widths):
        if w < 0:
            raise InvalidDecomposition("negative width")
        if w + d.m < 1:
            raise InvalidDecomposition(f"rectangle {i + 1} has non-positive height")
        if i > 0 and w > d.widths[i - 1]:
            raise InvalidDecomposition("widths must be weakly decreasing")
    for i in range(d.k):
        if len(d.sides[i]) > d.widths[i] + d.m:
            raise InvalidDecomposition(f"side partition {i + 1} has too many parts")
        if i > 0 and d.sides[i].largest > d.widths[i - 1] - d.widths[i]:
            raise InvalidDecomposition(f"side partition {i + 1} is too wide")
    if d.below.largest > d.widths[-1]:
        raise InvalidDecomposition("below-partition is wider than the last rectangle")


def _ordinal(i: int) -> str:
    if 10 <= i % 100 <= 20:
        suffix = "th"
    else:
        suffix = {1: "st", 2: "nd", 3: "rd"}.get(i % 10, "th")
    return f"{i}{suffix}"

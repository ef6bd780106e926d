"""Rank censuses over all partitions of n, read off a generating function.

The counts come from one engine, ``_rank_series``: Andrews' Durfee
dissection with a second variable z marking the (k,m)-rank, expanded
exactly on packed rank rows, one big integer per power of q with a slot per
rank, so each z-kernel pass is one shift-add per row.  Enumerating and
ranking every partition of n is kept only as the oracle: the ``census``
selftest suite compares the two.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import lru_cache
from operator import sub
from typing import NamedTuple

from .errors import ImpracticalOrder, InternalInvariantViolation
from .partition import MAX_SERIES_COST, _refuse_above_cap, p_table
from .qseries import _durfee_levels, _levels_plan, q_table

# census and h_count of n read the series to n rounded up to this step, so
# a sweep over n computes one series per (k, m) and step.
_ORDER_STEP = 32


class CensusTable(NamedTuple):
    """Counts of partitions of n by (k,m)-rank value."""

    n: int
    k: int
    m: int
    rows: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.rows.values())

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "rows": {str(r): self.rows[r] for r in sorted(self.rows)},
            "total": self.total,
        }


def _series_plan(k: int, m: int, order: int) -> tuple[list, list[list[tuple[int, int]]], int]:
    """The ``qseries._levels_plan`` of the H_k(w) that ``_rank_series(k, m,
    order)`` sums, the z-kernel passes (s, dz), each 1/(1 - z^dz q^s), that
    follow each H_k(w), widest w first, and the price of both: the
    additions of the levels and the cells the passes move.

    A pass shift-adds packed row n - s into row n for every n >= s, one
    big-integer operation that moves the 2(n - s) + 1 rank cells of row
    n - s: (order + 1 - s)^2 cells, none for s > order, so those are left
    out.  When no width survives k levels, the (order + 1)^2 cells of the
    zero rows are the price; they also refuse a huge order before any width
    is listed.
    """
    cells = (order + 1) ** 2
    if cells > MAX_SERIES_COST:
        return [[]], [], cells
    low = max(0, 1 - m)
    levels, cost = _levels_plan(k, lambda j, v: v * (v + m), low, order, order)
    if not levels[-1]:
        return levels, [], cells
    passes = [[(w + m, 1), (w, -1)] for w in range(low + len(levels[-1]) - 1, low, -1)]
    passes.append([(s, 1) for s in range(1, min(low + m, order) + 1)]
                  + [(s, -1) for s in range(1, min(low, order) + 1)])
    passes = [[(s, dz) for s, dz in after if s <= order] for after in passes]
    return levels, passes, cost + sum((order + 1 - s) ** 2 for after in passes for s, _ in after)


def _shift_add_rows(rows: list[int], s: int, shift: int) -> None:
    # one z-kernel pass 1/(1 - z^dz q^s) on packed rows, shift = slot bits
    # times s + dz >= 0: row n gains row n - s moved up s + dz rank slots
    for n in range(s, len(rows)):
        rows[n] += rows[n - s] << shift


def _unpack_row(row: int, slots: int, words: int) -> tuple[int, ...]:
    # the slots of words 64-bit words each, lowest first, as integers
    ws = memoryview(row.to_bytes(8 * words * slots, sys.byteorder)).cast("Q").tolist()
    if sys.byteorder == "big":  # whole-integer byte order reverses the words
        ws.reverse()
    if words == 1:
        return tuple(ws)
    cells = ws[::words]
    for j in range(1, words):
        cells = [w << 64 * j | c if w else c for c, w in zip(cells, ws[j::words])]
    return tuple(cells)


# Bounded in entries, not bytes (sizes in the docstring).  32 entries hold
# every (k, m) the census suite touches (k <= 3, m in -2..4) at one order.
@lru_cache(maxsize=32)
def _rank_series(k: int, m: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Counts of (k,m)-rank values for every n <= order; one entry holds
    13.2 MB by tracemalloc at k = 1, order 600, and 23.8 MB at k = 3, order 792.

    Row n holds the ranks -n..n, rank r at index n + r: the coefficient of
    q^n z^r in

        sum_{N_1 >= ... >= N_k >= max(0, 1-m)} q^(sum N_i (N_i + m))
            * prod_{s=N_k+m+1}^{N_1+m} 1/(1 - q^s)
            * prod_{i=2..k} [N_{i-1} - N_i + N_i + m choose N_i + m]_q
            * 1 / ((zq)_{N_k+m} (q/z)_{N_k})

    taken as the number of partitions of n with k successive
    m-rectangles and (k,m)-rank r.  At z = 1 it is Andrews' Durfee
    dissection (Amer. J. Math. 1979): q^(N_i (N_i + m)) per rectangle,
    1/(q)_{N_1+m} for lambda^1, an (N_i + m) x (N_{i-1} - N_i) box per
    later side, and 1/(q)_{N_k} for the part below, whose b parts each
    carry 1/z.  That z marks a by 1/(zq)_{N_k+m} is what ``iterate_remove``
    suggests: the removed totals, largest first a, form a partition with at
    most N_k + m parts.  This is a conjecture, not proved here: it was
    checked against enumeration for k <= 5, m in -3..3, n <= 22, and for
    k <= 3, m in -3..3, n <= 30; the census suite rechecks n <= 22, k <= 3,
    m in -2..2 on every run.

    Terms are grouped by w = N_k.  The univariate factor of w is H_k(w),
    where H_1(v) = q^(v(v+m)) and H_i(v) = q^(v(v+m)) sum_{u >= v}
    H_{i-1}(u) / (q)_{u-v}: the level recursion ``qseries._durfee_levels``
    that ``multisum_lhs`` also runs.  Horner over w from the widest down adds the
    z-kernel acc = H_k(w) + acc / ((1 - z q^(w+1+m)) (1 - q^(w+1)/z)), and
    the last passes apply 1/((zq)_{w+m} (q/z)_w) at the narrowest w; the
    passes after each w are listed by ``_series_plan``.

    Each row is one non-negative integer with a slot of ``width`` bits per
    rank, cell (n, r) at bit offset width * (n + r).  H_k(w) adds c << width
    * n to row n, and a pass 1/(1 - z^dz q^s) adds row n - s shifted by
    width * (s + dz) to row n for n ascending: one big-integer shift-add per
    row.  Every term added is non-negative, so no cell ever exceeds its
    final value, which at z = 1 counts partitions of n and so is at most
    p(n) <= p(order); a slot of whole 64-bit words wider than p(order)
    never carries into the next.  A packed row with bits above its top slot
    raises InternalInvariantViolation.  The rows are unpacked once, at the
    end.  For m >= 0 every row total is checked against p(n), less
    q_{k-1}(n) at m = 0 (partitions with at most k - 1 Durfee squares have
    no k 0-rectangles), and a mismatch raises InternalInvariantViolation.
    Raises ImpracticalOrder when the price of that plan exceeds MAX_SERIES_COST.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if order < 0:
        raise ValueError("order must be non-negative")
    levels, passes, cost = _series_plan(k, m, order)
    _refuse_above_cap(cost, f"rank series k={k} m={m} to order {order}")
    counts = p_table(order)
    words = counts[-1].bit_length() // 64 + 1
    width = 64 * words
    rows = [0] * (order + 1)
    for terms, after in zip(reversed(_durfee_levels(levels, order)), passes):
        for n, c in enumerate(terms):
            if c:
                rows[n] += c << width * n
        for s, dz in after:
            _shift_add_rows(rows, s, width * (s + dz))
    for n, row in enumerate(rows):  # in place, so the packed table is freed as it goes
        if row >> width * (2 * n + 1):
            raise InternalInvariantViolation(
                f"packed census row n={n} overflows its {2 * n + 1} slots of {width} bits"
                f" for k={k}, m={m}"
            )
        rows[n] = _unpack_row(row, 2 * n + 1, words)
    if m >= 0:
        if m == 0:
            counts = list(map(sub, counts, q_table(k - 1, order)))
        for n, (row, want) in enumerate(zip(rows, counts)):
            if sum(row) != want:
                raise InternalInvariantViolation(
                    f"census total {sum(row)} != expected {want} for n={n}, k={k}, m={m}"
                )
    return tuple(rows)


def _rank_row(n: int, k: int, m: int) -> tuple[int, ...]:
    """Counts of the ranks -n..n for n, rank r at index n + r (cached, shared)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    try:
        series = _rank_series(k, m, -(-max(n, 1) // _ORDER_STEP) * _ORDER_STEP)
    except ImpracticalOrder:
        series = _rank_series(k, m, n)  # padding must not push an n below the cap over it
    return series[n]


def rank_census(n: int, k: int, m: int) -> Counter:
    """Counter of (k,m)-rank values over all partitions of n in the domain.

    Partitions without k successive m-rectangles (possible for m <= 0) are
    skipped.  Each call returns a fresh Counter the caller may modify.
    """
    return Counter(census(n, k, m).rows)


def census(n: int, k: int, m: int = 0) -> CensusTable:
    """Full rank census; total is p(n) for m > 0 and p(n) - q_{k-1}(n) for m = 0.

    ``_rank_series`` checks those totals for every n of each series it computes.
    """
    return CensusTable(n, k, m, {r: c for r, c in enumerate(_rank_row(n, k, m), -n) if c})


def h_count(n: int, k: int, m: int, r: int, mode: str) -> int:
    """h(n,k,m,<=r), h(n,k,m,>=r) or h(n,k,m,r) depending on mode."""
    if mode not in ("le", "ge", "eq"):
        raise ValueError(f"mode must be 'le', 'ge' or 'eq', got {mode!r}")
    if n < 0:
        return 0
    return _h(_rank_row(n, k, m), r, mode)


def _h(row: tuple[int, ...], r: int, mode: str) -> int:
    # a rank outside -n..n clamps to an end of the row: a negative bound would wrap
    i = len(row) // 2 + r
    if mode == "le":
        return sum(row[: max(0, i + 1)])
    if mode == "ge":
        return sum(row[max(0, i) :])
    return row[i] if 0 <= i < len(row) else 0

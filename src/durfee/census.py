"""Rank censuses over all partitions of n, read off a generating function.

The counts come from one engine, ``_rank_series``: Andrews' Durfee
dissection with a second variable z marking the (k,m)-rank, expanded on
exact 2-D integer arrays.  Enumerating and ranking every partition of n is
kept only as the oracle: the ``census`` selftest suite compares the two.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub

from .errors import ImpracticalOrder, InternalInvariantViolation
from .partition import p_table
from .qseries import MAX_SERIES_COST, _durfee_levels, _levels_cost, _refuse_above_cap, q_table

# census and h_count of n read the series to n rounded up to this step, so
# a sweep over n computes one series per (k, m) and step.
_ORDER_STEP = 32


@dataclass(frozen=True)
class CensusTable:
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


def _series_cost(k: int, m: int, order: int) -> int:
    """Coefficient additions ``_rank_series(k, m, order)`` makes.

    The levels cost what ``_levels_cost`` counts.  A pass of
    1/(1 - z^(+-1) q^s) adds row n - s into row n for every n >= s,
    (order + 1 - s)^2 additions: two per width above the narrowest, then the
    last ones.  The (order + 1)^2 cells of the rows, all that is built when
    no width survives k levels, refuse a huge order before any width is
    counted.
    """
    low = max(0, 1 - m)
    if k * low * (low + m) > order or (order + 1) ** 2 > MAX_SERIES_COST:
        return (order + 1) ** 2
    levels, widths = _levels_cost(k, lambda j, v: v * (v + m), low, order, order)
    shifts = [s for w in range(low, low + widths - 1) for s in (w + 1 + m, w + 1)]
    shifts += [*range(1, min(low + m, order) + 1), *range(1, min(low, order) + 1)]
    return levels + sum((order + 1 - s) ** 2 for s in shifts if s <= order)


def _times_z_geometric(rows: list[list[int]], s: int, dz: int) -> None:
    # rows[n][n + r] is the coefficient of q^n z^r (|r| <= n); multiply in
    # place by 1/(1 - z^dz q^s) for dz = +-1 and s >= 1
    shift = s + dz
    for n in range(s, len(rows)):
        src = rows[n - s]
        dst = rows[n]
        end = shift + len(src)
        dst[shift:end] = map(add, dst[shift:end], src)


# Bounded in entries, not bytes (sizes in the docstring).  32 entries hold
# every (k, m) the census suite touches (k <= 3, m in -2..4) at one order.
@lru_cache(maxsize=32)
def _rank_series(k: int, m: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Counts of (k,m)-rank values for every n <= order; one entry holds
    14.6 MB by tracemalloc at k = 1, order 600, and 26 MB at k = 3, order 792.

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
    one last pass applies 1/((zq)_{w+m} (q/z)_w) at the narrowest w.
    For m >= 0 every row total is checked against p(n), less q_{k-1}(n) at
    m = 0 (partitions with at most k - 1 Durfee squares have no k
    0-rectangles), and a mismatch raises InternalInvariantViolation.
    Raises ImpracticalOrder when ``_series_cost`` exceeds MAX_SERIES_COST.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if order < 0:
        raise ValueError("order must be non-negative")
    _refuse_above_cap(_series_cost(k, m, order), f"rank series k={k} m={m} to order {order}")
    low = max(0, 1 - m)
    rows = [[0] * (2 * n + 1) for n in range(order + 1)]
    if k * low * (low + m) <= order:  # else no width survives k levels
        u_terms = _durfee_levels(k, lambda j, v: v * (v + m), low, order, order)
        for w in range(low + len(u_terms) - 1, low - 1, -1):
            for n, c in enumerate(u_terms[w - low]):
                if c:
                    rows[n][n] += c
            if w > low:
                _times_z_geometric(rows, w + m, 1)
                _times_z_geometric(rows, w, -1)
        for s in range(1, min(low + m, order) + 1):
            _times_z_geometric(rows, s, 1)
        for s in range(1, min(low, order) + 1):
            _times_z_geometric(rows, s, -1)
    if m >= 0:
        expect = p_table(order)
        if m == 0:
            expect = list(map(sub, expect, q_table(k - 1, order)))
        for n, (row, want) in enumerate(zip(rows, expect)):
            if sum(row) != want:
                raise InternalInvariantViolation(
                    f"census total {sum(row)} != expected {want} for n={n}, k={k}, m={m}"
                )
    return tuple(map(tuple, rows))


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

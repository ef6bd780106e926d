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
from operator import add

from .errors import ImpracticalOrder, InternalInvariantViolation
from .partition import p_table
from .qseries import _times_geometric, q_table

# Largest series the engine computes, in coefficient additions (about 1 s
# and 40 MB on a 2-core VM): order 630 for k = 1, 760 for k = 3.
MAX_SERIES_COST = 20_000_000

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


def _widths(k: int, m: int, order: int) -> tuple[int, int]:
    """Smallest and largest N_k of a term below q^(order+1)."""
    low = w = max(0, 1 - m)
    while k * (w + 1) * (w + 1 + m) <= order:
        w += 1
    return low, w


def _series_cost(k: int, m: int, order: int) -> int:
    """Coefficient additions ``_rank_series(k, m, order)`` performs.

    Each of the k - 1 univariate levels runs at most V^2 passes of order + 1
    coefficients, for the V possible widths.  Each pass of a
    1/(1 - z^(+-1) q^s) factor touches about (order+1)^2 cells (row n holds
    the 2n+1 ranks -n..n); there are two passes per N_k above the
    narrowest, and N_k + m + N_k more (at most 2 order) for it.
    """
    low, top = _widths(k, m, order)
    if k * low * (low + m) > order:
        return 0
    span = _widths(1, m, order)[1] - low + 1
    passes = 2 * (top - low) + min(low + m, order) + min(low, order)
    return (order + 1) * ((k - 1) * span * span + (order + 1) * passes)


def _times_z_geometric(rows: list[list[int]], s: int, dz: int) -> None:
    # rows[n][n + r] is the coefficient of q^n z^r (|r| <= n); multiply in
    # place by 1/(1 - z^dz q^s) for dz = +-1 and s >= 1
    shift = s + dz
    for n in range(s, len(rows)):
        src = rows[n - s]
        dst = rows[n]
        end = shift + len(src)
        dst[shift:end] = map(add, dst[shift:end], src)


# Bounded: an order-200 entry holds about 40k counts (3 MB).  32 entries hold
# every (k, m) the census suite touches (k <= 3, m in -2..4) at one order.
@lru_cache(maxsize=32)
def _rank_series(k: int, m: int, order: int) -> tuple[Counter, ...]:
    """Counter of (k,m)-rank values for every n <= order.

    The coefficient of q^n z^r in

        sum_{N_1 >= ... >= N_k >= max(0, 1-m)} q^(sum N_i (N_i + m))
            * prod_{s=N_k+m+1}^{N_1+m} 1/(1 - q^s)
            * prod_{i=2..k} [N_{i-1} - N_i + N_i + m choose N_i + m]_q
            * 1 / ((zq)_{N_k+m} (q/z)_{N_k})

    is taken as the number of partitions of n with k successive
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
    H_{i-1}(u) / (q)_{u-v}; Horner over w from the widest down adds the
    z-kernel acc = H_k(w) + acc / ((1 - z q^(w+1+m)) (1 - q^(w+1)/z)), and
    one last pass applies 1/((zq)_{w+m} (q/z)_w) at the narrowest w.
    Raises ImpracticalOrder when ``_series_cost`` exceeds MAX_SERIES_COST.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if order < 0:
        raise ValueError("order must be non-negative")
    cost = _series_cost(k, m, order)
    if cost > MAX_SERIES_COST:
        raise ImpracticalOrder(
            f"rank series k={k} m={m} to order {order} needs {cost} coefficient "
            f"additions (cap {MAX_SERIES_COST}); refusing"
        )
    low, top = _widths(k, m, order)
    rows = [[0] * (2 * n + 1) for n in range(order + 1)]
    if k * low * (low + m) <= order:
        u_terms = _univariate_terms(k, m, order, low, top)
        for w in range(top, low - 1, -1):
            if w < top:
                _times_z_geometric(rows, w + 1 + m, 1)
                _times_z_geometric(rows, w + 1, -1)
            for n, c in enumerate(u_terms[w - low]):
                if c:
                    rows[n][n] += c
        for s in range(1, min(low + m, order) + 1):
            _times_z_geometric(rows, s, 1)
        for s in range(1, min(low, order) + 1):
            _times_z_geometric(rows, s, -1)
    return tuple(
        Counter({i - n: c for i, c in enumerate(row) if c}) for n, row in enumerate(rows)
    )


def _univariate_terms(k: int, m: int, order: int, low: int, top: int) -> list[list[int]]:
    """H_k(w) for w = low..top, truncated at q^order."""
    vmax = _widths(1, m, order)[1]
    h = []
    for v in range(low, vmax + 1):
        cs = [0] * (order + 1)
        cs[v * (v + m)] = 1
        h.append(cs)
    for _ in range(k - 1):
        nxt = []
        for v in range(low, vmax + 1):
            # sum_{u >= v} H(u)/(q)_{u-v} by Horner over u, widest first
            acc = [0] * (order + 1)
            for u in range(vmax, v - 1, -1):
                if u < vmax:
                    _times_geometric(acc, u - v + 1)
                acc = list(map(add, acc, h[u - low]))
            e = v * (v + m)
            nxt.append([0] * e + acc[: order + 1 - e])
        h = nxt
    return h[: top - low + 1]


def _rank_counts(n: int, k: int, m: int) -> Counter:
    """Shared (cached) Counter of rank values for n; callers must not modify it."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 1:
        raise ValueError("k must be positive")
    order = -(-max(n, 1) // _ORDER_STEP) * _ORDER_STEP
    if _series_cost(k, m, order) > MAX_SERIES_COST:
        order = n  # padding must not push an n below the cap over it
    return _rank_series(k, m, order)[n]


def rank_census(n: int, k: int, m: int) -> Counter:
    """Counter of (k,m)-rank values over all partitions of n in the domain.

    Partitions without k successive m-rectangles (possible for m <= 0) are
    skipped.  Each call returns a fresh Counter the caller may modify.
    """
    return Counter(_rank_counts(n, k, m))


def census(n: int, k: int, m: int = 0) -> CensusTable:
    """Full rank census; total is p(n) for m > 0 and p(n) - q_{k-1}(n) for m = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 1:
        raise ValueError("k must be positive")
    table = CensusTable(n, k, m, dict(_rank_counts(n, k, m)))
    if m > 0:
        expect = p_table(n)[n]
    elif m == 0:
        expect = p_table(n)[n] - q_table(k - 1, n)[n]
    else:
        expect = None
    if expect is not None and table.total != expect:
        raise InternalInvariantViolation(
            f"census total {table.total} != expected {expect} for n={n}, k={k}, m={m}"
        )
    return table


def h_count(n: int, k: int, m: int, r: int, mode: str) -> int:
    """h(n,k,m,<=r), h(n,k,m,>=r) or h(n,k,m,r) depending on mode."""
    if mode not in ("le", "ge", "eq"):
        raise ValueError(f"mode must be 'le', 'ge' or 'eq', got {mode!r}")
    if n < 0:
        return 0
    return _h(_rank_counts(n, k, m), r, mode)


def _h(counts: Counter, r: int, mode: str) -> int:
    if mode == "le":
        return sum(v for key, v in counts.items() if key <= r)
    if mode == "ge":
        return sum(v for key, v in counts.items() if key >= r)
    return counts.get(r, 0)

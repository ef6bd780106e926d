"""Exhaustive rank censuses over all partitions of n."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import InternalInvariantViolation, NoSuchDecomposition
from .partition import p_table, partitions_of
from .qseries import q_table
from .rank import rank_km


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


# Bound sized to hold every (n, k, m) the census acceptance suite touches
# (n <= 22, k <= 3, m <= 4), so its repeated h_count sweeps never recount.
@lru_cache(maxsize=512)
def _rank_counts(n: int, k: int, m: int) -> Counter:
    counts: Counter = Counter()
    for lam in partitions_of(n):
        try:
            counts[rank_km(lam, k, m).r] += 1
        except NoSuchDecomposition:
            continue
    return counts


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
    c = _rank_counts(n, k, m)
    if mode == "le":
        return sum(v for key, v in c.items() if key <= r)
    if mode == "ge":
        return sum(v for key, v in c.items() if key >= r)
    return c.get(r, 0)

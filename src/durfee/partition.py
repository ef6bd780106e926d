"""Integer partitions: the core value type, enumeration, and p(n)."""

from __future__ import annotations

from functools import lru_cache
from operator import add, lt, sub
from typing import Iterator

from .errors import EmptyPartition, ImpracticalOrder

# Largest partition a map builds, in parts (about 2 s as a CLI call on a
# 2-core VM).  Conjugation, compose and gen_dyson_inverse count the parts
# of their output before building any of it, and past the budget refuse
# with ImpracticalOrder.  The same budget caps k for a decomposition with
# m >= 1, where every partition has k rectangles.
MAX_PARTS = 1_000_000

# Largest series computation accepted, in coefficient additions (rank cells
# moved, for the census engine's passes).  The census engine, multisum_lhs,
# verify_identity, p_table and the q-series products all price their work
# before doing any and refuse past it with ImpracticalOrder.  Measured at
# the caps on a 2-core VM (Python 3.11, best of 4): the census engine 0.18 s
# (order 644, k = 1) and 0.29 s (order 792, k = 3), multisum_lhs 1.5 s
# (order 2317, large k), pochhammer(None, 6324) 0.76 s,
# jacobi_specialization(1, 6324) 0.73 s and p_table(69784) 2.2 s.
MAX_SERIES_COST = 20_000_000


def _refuse_above_cap(cost: int, what: str) -> None:
    if cost > MAX_SERIES_COST:
        raise ImpracticalOrder(
            f"{what} needs {cost} coefficient additions (cap {MAX_SERIES_COST}); refusing"
        )


class Partition:
    """A weakly decreasing sequence of positive integer parts.

    Parts must be ints: a float, a string or a bool raises TypeError
    rather than being truncated or parsed.  Zero parts are never stored;
    reading past the last part yields 0 (see :meth:`part`).  Instances are
    immutable and hashable.
    """

    __slots__ = ("parts",)

    parts: tuple[int, ...]

    def __init__(self, parts=()):
        ps = tuple(parts)
        # one C-level pass each for the types and the order; the loops below
        # run only to name the first offending part
        if not set(map(type, ps)) <= {int}:
            for x in ps:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError(f"parts must be exact integers, got {x!r}")
            ps = tuple(map(int, ps))
        if ps and (ps[-1] < 1 or any(map(lt, ps, ps[1:]))):
            prev = None
            for x in ps:
                if x < 1:
                    raise ValueError(f"parts must be positive, got {x}")
                if prev is not None and x > prev:
                    raise ValueError(f"parts must be weakly decreasing, got {ps}")
                prev = x
        object.__setattr__(self, "parts", ps)

    @classmethod
    def _fromparts(cls, parts: tuple[int, ...]) -> "Partition":
        # Fast path for internally produced, already-valid part tuples.
        self = object.__new__(cls)
        object.__setattr__(self, "parts", parts)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def size(self) -> int:
        """Sum of the parts; 0 for the empty partition."""
        return sum(self.parts)

    @property
    def largest(self) -> int:
        """The first (largest) part, 0 if empty."""
        return self.parts[0] if self.parts else 0

    @property
    def smallest(self) -> int:
        """The last (smallest non-zero) part."""
        if not self.parts:
            raise EmptyPartition("empty partition has no smallest part")
        return self.parts[-1]

    def part(self, j: int) -> int:
        """The j-th part (1-based); 0 beyond the last stored part."""
        if j < 1:
            raise ValueError(f"part index must be >= 1, got {j}")
        ps = self.parts
        return ps[j - 1] if j <= len(ps) else 0

    def conjugate(self) -> "Partition":
        """Reflect the Young diagram across its main diagonal.

        The conjugate has as many parts as the largest part; past MAX_PARTS
        it raises ImpracticalOrder before building any of them.
        """
        return Partition._fromparts(_conjugate_parts(self.parts))

    def text(self) -> str:
        """Text form: comma-separated parts, '-' for the empty partition."""
        return _parts_text(self.parts)

    @classmethod
    def from_text(cls, s: str) -> "Partition":
        ps = _parse_parts(s)
        return cls._fromparts(ps) if ps else _EMPTY

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"


_EMPTY = Partition._fromparts(())


def _parse_parts(s: str) -> tuple[int, ...]:
    """``Partition.from_text`` as a validated part tuple.

    Raises what ``from_text`` raises: ValueError for text that is not
    comma-separated integers, and the constructor's ValueError, naming the
    first bad part, for parts that are not positive and weakly decreasing.
    """
    s = s.strip()
    if s == "-" or s == "":
        return ()
    try:
        ps = tuple(map(int, s.split(",")))
    except ValueError:
        raise ValueError(f"bad partition text {s!r}") from None
    if ps[-1] < 1 or any(map(lt, ps, ps[1:])):
        Partition(ps)  # fails here, with the constructor's message
    return ps


def _parts_text(ps) -> str:
    """``Partition.text`` of a part tuple."""
    return ",".join(map(str, ps)) if ps else "-"


def _conjugate_parts(ps: tuple[int, ...]) -> tuple[int, ...]:
    """``Partition.conjugate`` on a part tuple, with the same MAX_PARTS refusal."""
    if not ps:
        return ()
    if ps[0] > MAX_PARTS:
        raise ImpracticalOrder(
            f"conjugate of a partition with largest part {ps[0]} would have "
            f"{ps[0]} parts (cap {MAX_PARTS}); refusing"
        )
    out = []
    j = len(ps) - 1
    for c in range(1, ps[0] + 1):
        # number of parts >= c; parts are sorted, so scan from the tail
        while j >= 0 and ps[j] < c:
            j -= 1
        out.append(j + 1)
    return tuple(out)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once, in reverse-lexicographic order.

    The order starts at (n) and ends at (1,...,1); it is fixed so golden
    files stay stable.  Lazy: each partition is built as it is asked for,
    and nothing is cached.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    for parts in _iter_partition_tuples(n):
        yield Partition._fromparts(parts)


def _iter_partition_tuples(n: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    r = (n,)
    yield r
    while True:
        # find rightmost part > 1, decrement it, redistribute the remainder
        i = len(r) - 1
        while i >= 0 and r[i] == 1:
            i -= 1
        if i < 0:
            return
        rem = len(r) - i
        head = r[:i] + (r[i] - 1,)
        cap = head[-1]
        body = []
        while rem > 0:
            x = min(cap, rem)
            body.append(x)
            rem -= x
        r = head + tuple(body)
        yield r


@lru_cache(maxsize=8)
def _partition_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    if n < 0:
        raise ValueError("n must be non-negative")
    return tuple(_iter_partition_tuples(n))


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n as a tuple (reverse-lexicographic).

    Raises ValueError for negative n.
    """
    return tuple(Partition._fromparts(t) for t in _partition_tuples(n))


def p_table(N: int) -> list[int]:
    """Exact values p(0..N): 1 divided by (q)_inf, by ``_divide_by_euler``.

    The price is its terms: N + 1 - g for every generalized pentagonal
    number g <= N, about 1.09 N^1.5.  Past MAX_SERIES_COST (N > 69784) it
    raises ImpracticalOrder before the table is allocated.
    """
    _refuse_euler_division(N)
    p = [0] * (N + 1)
    p[0] = 1
    _divide_by_euler(p)
    return p


def _refuse_euler_division(N: int) -> None:
    # the check and price of p_table(N), shared by every division by (q)_inf
    # to q^N, so they refuse alike and before allocating anything
    if N < 0:
        raise ValueError("N must be non-negative")
    _refuse_above_cap(_p_table_cost(N), f"p_table to {N}")


_BLOCK = 64


def _divide_by_euler(cs: list[int]) -> None:
    """In place, cs becomes cs / (q)_inf modulo q^len(cs), by Euler's
    pentagonal recurrence c_n = cs_n + sum_{j >= 1} (-1)^(j-1) (c_(n-g_j)
    + c_(n-g_j-j)), g_j = j(3j-1)/2.

    Runs in blocks of 64 coefficients.  A generalized pentagonal number g
    >= 64 reads only coefficients finished before the block, so it goes
    into the whole block (from n = g on) as one slice addition; only the
    twelve g < 64 run one n at a time.  Each term is one addition, so
    ``_p_table_cost(len(cs) - 1)`` counts them exactly.
    """
    size = len(cs)
    terms = []  # (g, 1 for + or 0 for -), every generalized pentagonal g < size, ascending
    j = 1
    while (g := j * (3 * j - 1) // 2) < size:
        terms += [(h, j % 2) for h in (g, g + j) if h < size]
        j += 1
    near = [(g, plus) for g, plus in terms if g < _BLOCK]
    far = [(g, add if plus else sub) for g, plus in terms if g >= _BLOCK]
    for b in range(0, size, _BLOCK):
        end = min(b + _BLOCK, size)
        block = cs[b:end]
        for g, op in far:
            if g >= end:
                break
            lo = max(b, g)
            block[lo - b :] = map(op, block[lo - b :], cs[lo - g : end - g])
        for n in range(b, end):
            total = block[n - b]
            for g, plus in near:
                if g > n:
                    break
                if plus:
                    total += cs[n - g]
                else:
                    total -= cs[n - g]
            cs[n] = total


def _p_table_cost(N: int) -> int:
    # terms of p_table(N), counted until past the cap: g1 = j(3j-1)/2 and
    # g2 = g1 + j each enter every n from g up to N
    cost, j = 0, 1
    while (g := j * (3 * j - 1) // 2) <= N and cost <= MAX_SERIES_COST:
        cost += N + 1 - g + max(0, N + 1 - g - j)
        j += 1
    return cost


def durfee_square_widths(lam: Partition) -> tuple[int, ...]:
    """Widths of the successive Durfee squares of ``lam``.

    Each square is the largest d with at least d remaining rows of length
    >= d; the next square is taken below it.  The empty partition has no
    squares.  This is the classical square-only rule, kept independent of
    the general rectangle decomposition so the two can cross-check.
    """
    ps = lam.parts
    widths = []
    off = 0
    n = len(ps)
    while off < n:
        d = 0
        while off + d < n and ps[off + d] >= d + 1:
            d += 1
        # any non-empty remainder admits at least a 1x1 square
        widths.append(d)
        off += d
    return tuple(widths)

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

# Largest series computation accepted.  Every series kernel prices its plan
# as (cells allocated, coefficient additions made; rank cells moved count as
# additions) before allocating anything, and _build, the one place a series
# is built, applies one rule to a series or to the two sides of a verify:
# the summed cells and the summed additions must each stay within the cap.
# Measured at the caps on a 2-core VM (Python 3.11, best of 3 in process):
# the census engine 0.17 s (order 644, k = 1) and 0.31 s (792, k = 3),
# multisum_lhs 1.5 s (2317, large k), p_table(69784) 3.1 s, and the
# costliest verify at each identity's cap over k in {1, 2, 3, 5, 10}:
# pentagonal 0.49 s (6324), schur 2.1 s (k = 2, 50804), rr 0.97 s (k = 10,
# 3615), andrews 1.2 s (k = a = 10, 3615), jacobi 0.54 s (k = 10, 16735)
# and h_closed_form 0.50 s (k = 10, 999).
MAX_SERIES_COST = 20_000_000


def _build(what: str, *plans) -> list:
    # the one place a series is built: the runs of the (price, run) plans, once the cap rule holds
    cells, additions = map(sum, zip(*(price for price, _ in plans)))
    if max(cells, additions) > MAX_SERIES_COST:
        measure = f"{cells} cells" if cells > additions else f"{additions} coefficient additions"
        raise ImpracticalOrder(f"{what} needs {measure} (cap {MAX_SERIES_COST}); refusing")
    return [run() for _, run in plans]


def _check_ints(optional=(), **args) -> None:
    # TypeError naming the first argument neither an int (a bool is not) nor an optional None
    for name, v in args.items():
        if isinstance(v, bool) or not (isinstance(v, int) or v is None and name in optional):
            raise TypeError(f"{name} must be an int{' or None' * (name in optional)}, got {v!r}")


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

    The price is N + 1 cells and its terms, N + 1 - g for every generalized
    pentagonal g <= N, about 1.09 N^1.5.  Past MAX_SERIES_COST (N > 69784)
    it raises ImpracticalOrder before the table is allocated.
    """
    _check_ints(N=N)
    return _build(f"p_table to {N}", (_euler_price(N), lambda: _divide_by_euler([1] + [0] * N)))[0]


def _euler_price(N: int) -> tuple[int, int]:
    # the check and price of p_table(N), shared by every division by (q)_inf: N + 1 cells,
    # and its terms until past the cap (g1 = j(3j-1)/2 and g2 = g1 + j enter each n >= g)
    if N < 0:
        raise ValueError("N must be non-negative")
    cost, j = 0, 1
    while (g := j * (3 * j - 1) // 2) <= N and cost <= MAX_SERIES_COST:
        cost += N + 1 - g + max(0, N + 1 - g - j)
        j += 1
    return N + 1, cost


_BLOCK = 64


def _divide_by_euler(cs: list[int]) -> list[int]:
    """In place, cs becomes cs / (q)_inf modulo q^len(cs), by Euler's
    pentagonal recurrence c_n = cs_n + sum_{j >= 1} (-1)^(j-1) (c_(n-g_j)
    + c_(n-g_j-j)), g_j = j(3j-1)/2.

    Runs in blocks of 64 coefficients.  A generalized pentagonal number g
    >= 64 reads only coefficients finished before the block, so it goes
    into the whole block (from n = g on) as one slice addition; only the
    twelve g < 64 run one n at a time.  Each term is one addition, so
    ``_euler_price(len(cs) - 1)`` counts them exactly.  Returns cs.
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
    return cs


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

"""Integer partitions: the core value type, enumeration, and p(n)."""

from __future__ import annotations

from itertools import chain, zip_longest
from operator import add, lt, sub
from typing import Iterator

from .errors import EmptyPartition, ImpracticalOrder

# Largest partition a map builds, in parts (about 2 s as a CLI call on a
# 2-core VM).  _refuse_parts holds every output the library lists to it: the
# parts of a conjugate, a composed partition or a gen_dyson_inverse preimage,
# the widths of a decomposition with m >= 1 and the partitions of
# partitions_of.
MAX_PARTS = 1_000_000

# Largest series computation accepted.  Every series kernel prices its plan
# as (cells allocated, coefficient additions made; rank cells moved count as
# additions) before allocating anything, and _build, the one place a series
# is built, applies one rule to a series or to the two sides of a verify:
# the summed cells and the summed additions must each stay within the cap.
# Measured at the caps on a 2-core VM (Python 3.11, best of 3 in process):
# the census engine 0.13 s (order 644, k = 1) and 0.22 s (793, k = 3),
# multisum_lhs 1.4 s (2354, large k), p_table(69784) 3.0 s, and the
# costliest verify at each identity's cap over k in {1, 2, 3, 5, 10}:
# pentagonal 0.69 s (6324), schur 1.6 s (k = 2, 50804), rr 1.3 s (k = 5,
# 4615), andrews 1.1 s (k = a = 10, 3753), jacobi 0.59 s (k = 1, 6324)
# and h_closed_form 0.38 s (k = 10, 999).  A QSeries product at its cap
# (order 6323, best of 5): 0.18 s for p(n) times digits in -9..9, and
# 0.47 s for the square of 1/(q)_inf, whose coefficients reach 279 bits.
MAX_SERIES_COST = 20_000_000


def _build(what: str, *plans) -> list:
    # the one place a series is built: the runs of the (price, run) plans, once the cap rule holds;
    # a refusal names additions as a lower bound, since a kernel stops pricing them past the cap
    cells, additions = map(sum, zip(*(price for price, _ in plans)))
    if max(cells, additions) > MAX_SERIES_COST:
        measure = (f"{cells} cells" if cells > additions
                   else f"at least {additions} coefficient additions")
        raise ImpracticalOrder(f"{what} needs {measure} (cap {MAX_SERIES_COST}); refusing")
    return [run() for _, run in plans]


def _refuse_parts(count: int, what, *args, unit: str = "parts") -> None:
    # the parts budget, as _build is the series cap: ImpracticalOrder before anything is built
    # when count entries would pass MAX_PARTS; what(*args) names the output, called only to
    # refuse (a closure would turn the caller's locals it reads into slower cell variables)
    if count > MAX_PARTS:
        raise ImpracticalOrder(f"{what(*args)} would have {count} {unit} (cap {MAX_PARTS}); refusing")


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
    _refuse_parts(ps[0], "conjugate of a partition with largest part {}".format, ps[0])
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
    and nothing is cached.  A bad n raises at the call, before any is built.
    """
    if type(n) is not int:  # the cheap test; the helper names the culprit
        _check_ints(n=n)
    if n < 0:
        raise ValueError("n must be non-negative")
    return map(Partition._fromparts, _iter_partition_tuples(n))


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


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n as a tuple (reverse-lexicographic).

    Raises ValueError for negative n.  Past MAX_PARTS partitions (from
    n = 61 on: p(60) = 966467, p(61) = 1121505) it raises ImpracticalOrder
    before any is built; ``enumerate_partitions`` streams them instead.
    """
    if type(n) is not int:  # as in enumerate_partitions
        _check_ints(n=n)
    if n < 0:
        raise ValueError("n must be non-negative")
    # p rises with n, and the 2^s sets of distinct parts in 2..s+1, filled up with 1s, give
    # p(n) >= 2^s, past MAX_PARTS, for every n >= s(s+3)/2: a small table prices any n
    s = MAX_PARTS.bit_length()
    top = min(n, s * (s + 3) // 2)
    more = "" if n == top else " or more"
    _refuse_parts(p_table(top)[-1], "partitions_of({})".format, n, unit="partitions" + more)
    return tuple(map(Partition._fromparts, _iter_partition_tuples(n)))


def p_table(N: int) -> list[int]:
    """Exact values p(0..N): 1 divided by (q)_inf, by ``_divide_by_euler``.

    Priced by ``_euler_price``: N + 1 cells and one addition per term of
    Euler's recurrence, N + 1 - g for every generalized pentagonal g <= N,
    about 1.09 N^1.5.  Past MAX_SERIES_COST (N > 69784) it raises
    ImpracticalOrder before the table is allocated.
    """
    _check_ints(N=N)
    if N < 0:
        raise ValueError("N must be non-negative")
    return _build(f"p_table to {N}", _over_euler([(0, 1)], N))[0]


def _tail(k: int, c: int, order: int) -> Iterator[tuple[int, int]]:
    """The terms (e_j, (-1)^(j-1)) of the theta tail T_k(c), e_j = j((2k+1)j
    + 2c - 1)/2 <= order, for k >= 1 and c >= 0: e_1 = k + c, and e_j rises.
    Every sparse numerator is made of these: theta_k = 1 - T_k(1) - T_k(0),
    (q)_inf = theta_1, and h(n,k,m,<=-r) = [q^n] T_k(r + km) / (q)_inf.
    """
    j = 1
    while (e := j * ((2 * k + 1) * j + 2 * c - 1) // 2) <= order:
        yield e, 1 if j % 2 else -1
        j += 1


def _sparse(terms, order: int):
    # the plan of a sparse series: its (exponent <= order, sign) terms written into order + 1
    # zero cells, priced as the cells alone; the terms are read only when the plan runs
    def run():
        cs = [0] * (order + 1)
        for e, sign in terms:
            cs[e] += sign
        return cs
    return (order + 1, 0), run


def _over_euler(terms, order: int):
    # the plan of the sparse series of terms divided by (q)_inf, priced as the division
    return _euler_price(order), lambda: _divide_by_euler(_sparse(terms, order)[1]())


def _euler_price(order: int) -> tuple[int, int]:
    # the price of a division by (q)_inf to q^order: order + 1 cells, and until past the cap
    # the additions of its terms, each g entering every n >= g, g_j and g_j + j as one step
    if order < 0:
        raise ValueError("order must be non-negative")
    cost = 0
    pairs = zip_longest(_tail(1, 0, order), _tail(1, 1, order), fillvalue=(order + 1, 0))
    for (g, _), (h, _) in pairs:
        if cost > MAX_SERIES_COST:
            break
        cost += 2 * (order + 1) - g - h
    return order + 1, cost


_BLOCK = 64


def _divide_by_euler(cs: list[int]) -> list[int]:
    """In place, cs becomes cs / (q)_inf modulo q^len(cs), by Euler's
    pentagonal recurrence c_n = cs_n + sum_{j >= 1} (-1)^(j-1) (c_(n-g_j)
    + c_(n-g_j-j)): (q)_inf = 1 - T_1(1) - T_1(0), so g_j = j(3j-1)/2 and
    g_j + j, with their signs, are the terms of ``_tail(1, 0 or 1, .)``.

    Runs in blocks of 64 coefficients.  A generalized pentagonal number g
    >= 64 reads only coefficients finished before the block, so it goes
    into the whole block (from n = g on) as one slice addition.  The twelve
    g < 64 (1, 2, 5, 7, 12, 15, 22, 26, 35, 40, 51, 57) are one
    straight-line sum per n, over the coefficients with 57 zeros in front,
    so that an n < 57 reads a zero for each g > n.  Each term is one
    addition, so ``_euler_price(len(cs) - 1)`` counts them, plus at most
    273 additions of zero (the sum of the twelve g).  Returns cs.
    """
    size = len(cs)
    terms = sorted(chain(_tail(1, 0, size - 1), _tail(1, 1, size - 1)))
    far = [(g, add if sign > 0 else sub) for g, sign in terms if g >= _BLOCK]
    c = [0] * 57 + cs  # coefficient n at c[n + 57]; cs keeps the numerator until the end
    for b in range(0, size, _BLOCK):
        end = min(b + _BLOCK, size)
        block = cs[b:end]
        for g, op in far:
            if g >= end:
                break
            lo = max(b, g)
            block[lo - b :] = map(op, block[lo - b :], c[lo - g + 57 : end - g + 57])
        for n, x in enumerate(block, b + 57):
            c[n] = (x + c[n - 1] + c[n - 2] - c[n - 5] - c[n - 7] + c[n - 12]
                    + c[n - 15] - c[n - 22] - c[n - 26] + c[n - 35] + c[n - 40]
                    - c[n - 51] - c[n - 57])
    cs[:] = c[57:]
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

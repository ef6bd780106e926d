"""Truncated power series in q with exact integer coefficients, the rank
censuses read off them, and coefficient-level verification of the
partition identities.

Andrews' Durfee dissection, run level by level by ``_durfee_levels``, gives
both the multisum side of the staircase identities and the census engine
``_rank_series``, in which a second variable z marks the (k,m)-rank on
packed rank rows.  Enumerating and ranking every partition of n is kept
only as the census oracle: the ``census`` selftest suite compares the two.
"""

from __future__ import annotations

import struct
from collections import Counter
from functools import lru_cache
from itertools import accumulate, chain
from operator import add, neg, sub
from typing import NamedTuple

from .errors import ImpracticalOrder, InternalInvariantViolation, UnknownIdentity, UnsupportedRegion
from .partition import MAX_SERIES_COST, _build, _check_ints, _over_euler, _sparse, _tail, p_table


class QSeries:
    """Coefficients c_0..c_T of a series known modulo q^(T+1).

    Binary operations truncate to the smaller order of the two operands.
    All arithmetic is exact (Python integers).  An order whose order + 1
    coefficients pass MAX_SERIES_COST raises ImpracticalOrder before the
    coefficients given are padded out to it.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int | None = None):
        _check_ints(("order",), order=order)
        cs = list(coeffs)
        # one C-level pass for the types; the loop runs only to name the
        # first bad coefficient (an int subclass other than bool is converted)
        if not set(map(type, cs)) <= {int}:
            for c in cs:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise TypeError(f"coefficients must be exact integers, got {c!r}")
            cs = list(map(int, cs))
        if order is None:
            if not cs:
                raise ValueError("need coefficients or an explicit order")
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be non-negative")
        padded = ((order + 1, 0), lambda: cs[: order + 1] + [0] * (order + 1 - len(cs)))
        object.__setattr__(self, "coeffs", tuple(_build(f"QSeries of order {order}", padded)[0]))
        object.__setattr__(self, "order", order)

    @classmethod
    def _fromcoeffs(cls, cs, order: int) -> "QSeries":
        # Fast path for the kernels: exactly order + 1 int coefficients,
        # already priced.
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls([1], order)

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls([0], order)

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        T = min(self.order, other.order)
        return QSeries._fromcoeffs(map(add, self.coeffs[: T + 1], other.coeffs[: T + 1]), T)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        T = min(self.order, other.order)
        return QSeries._fromcoeffs(map(sub, self.coeffs[: T + 1], other.coeffs[: T + 1]), T)

    def __neg__(self) -> "QSeries":
        return QSeries._fromcoeffs(map(neg, self.coeffs), self.order)

    def __mul__(self, other: "QSeries") -> "QSeries":
        """Product truncated at the smaller order T, priced as T + 1 cells
        and the (T + 1)(T + 2)/2 terms of its truncated convolution, so a
        product past order 6323 raises ImpracticalOrder before any packing."""
        if not isinstance(other, QSeries):
            return NotImplemented
        T = min(self.order, other.order)
        plan = ((T + 1, (T + 1) * (T + 2) // 2), lambda: _mul(self.coeffs, other.coeffs, T))
        return _series(f"QSeries product of order {T}", T, plan)

    def __eq__(self, other) -> bool:
        if isinstance(other, QSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs, self.order))

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"QSeries([{shown}{tail}], order={self.order})"


def _mul(a, b, T: int) -> list[int]:
    """Coefficients 0..T of the product of the coefficient lists a and b.

    Two-point Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009).
    Every coefficient h_j of h = ab satisfies |h_j| < 2^(8w - 1) for a slot
    of w bytes, w the least with 8w >= bits(max|a|) + bits(max|b|) +
    bits(min length) + 1.  Split c(x) = Ce(x^2) + x Co(x^2) for each
    operand, so h(x) = He(x^2) + x Ho(x^2), and evaluate at x = +-2^s, s =
    4w, where x^2 = 2^(8w) is one slot: ``_pack`` writes Ce and Co at
    w-byte slots as E and O, and c(+-2^s) = E +- (O << s).  The two
    half-size multiplies P+- = a(+-2^s) b(+-2^s) = He(2^(8w)) +- 2^s
    Ho(2^(8w)) give He(2^(8w)) = (P+ + P-) >> 1 and Ho(2^(8w)) = (P+ - P-)
    >> (s + 1), both shifts exact.  Adding 2^(8w - 1) to each of their low
    slots makes them non-negative, so a mask and one ``to_bytes`` each give
    h_0, h_2, ... and h_1, h_3, ... back.  Exact for any integers.
    """
    a, b = a[: T + 1], b[: T + 1]
    if not (any(a) and any(b)):
        return [0] * (T + 1)
    amax, bmax = max(max(a), -min(a)), max(max(b), -min(b))
    bits = amax.bit_length() + bmax.bit_length() + min(len(a), len(b)).bit_length() + 1
    width = (bits + 7) // 8
    s, half = 4 * width, 1 << (8 * width - 1)
    evens = T // 2 + 1  # slots of h_0, h_2, ...; h_1, h_3, ... take evens - 1 + T % 2
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * evens, "little")  # 1 in every slot
    ae, ao, be, bo = (_pack(c, width, ones) for c in (a[0::2], a[1::2], b[0::2], b[1::2]))
    ao, bo = ao << s, bo << s
    plus, minus = (ae + ao) * (be + bo), (ae - ao) * (be - bo)
    out = [0] * (T + 1)
    out[0::2] = _unpack((plus + minus) >> 1, width, evens, half, ones)
    out[1::2] = _unpack((plus - minus) >> (s + 1), width, (T + 1) // 2, half, ones)
    return out


def _pack(cs, width: int, ones: int) -> int:
    # sum of cs[i] * 256^(width i) for signed cs, each |cs[i]| < 2^(8 width - 1): the
    # slots are written in two's complement, one pass, where a negative slot reads
    # 256^width too high, so one borrow from the slot above each sign bit corrects all
    p = int.from_bytes(b"".join([c.to_bytes(width, "little", signed=True) for c in cs]), "little")
    return p - (((p >> (8 * width - 1)) & ones) << 8 * width)


def _unpack(h: int, width: int, slots: int, half: int, ones: int) -> list[int]:
    # the lowest `slots` signed coefficients of h, each in [-half, half), half = 2^(8 width - 1):
    # half added to each slot ones covers (at least those, any above lands past the mask)
    # makes every one its own non-negative bytes
    size = width * slots
    raw = ((h + half * ones) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, size, width)]


def _times_geometric(cs: list[int], n: int, start: int) -> None:
    # in place times 1/(1 - q^n) from q^start on, the coefficients below it
    # final: cs[j] += cs[j - n] for j >= max(start, n) ascending, size -
    # max(start, n) additions, along each residue class mod n or block by block
    size, start = len(cs), max(start, n)
    if n * n < size - start + n:
        for r in range(start - n, start):
            cs[r::n] = accumulate(cs[r::n])
    else:
        for i in range(start, size, n):
            cs[i : i + n] = map(add, cs[i : i + n], cs[i - n : i])


def _passes_cost(order: int, first: int, step: int, last: int) -> int:
    """Additions of the passes (1 - q^n)^(+-1) over order + 1 coefficients
    for n = first, first + step, ... <= last: order + 1 - n each.

    The price of ``_product``, and an upper bound on its work, which skips
    the zero window of each pass."""
    if first > last:
        return 0
    count = (last - first) // step + 1
    return count * (order + 1 - first) - step * count * (count - 1) // 2


def _series(what: str, order: int, plan) -> QSeries:
    # one public series: the coefficient list its (price, run) plan builds
    return QSeries._fromcoeffs(_build(what, plan)[0], order)


def _product(order: int, progressions, inverse: bool):
    """The one product kernel: the plan of prod of (1 - q^n)^(-1 if inverse
    else 1) over every n in the disjoint ``progressions`` (ranges of n >=
    1), truncated at q^order.  Its price is order + 1 cells and the
    ``_passes_cost`` of each progression clipped at the order, summed only
    until past the cap, so a long lazy iterable is not listed.

    The factors go in largest first, so cs[1:low] stays zero, low the
    smallest factor so far, and q^n cs reaches only q^n and q^(n + low) on.
    A pass (1 - q^n) sets q^n to -1 and subtracts one slice of order + 1 -
    n - low coefficients; a pass 1/(1 - q^n) runs one running sum along the
    multiples of n below n + low and its step-n running sums from q^(n +
    low) on.  Either makes at most order + 1 - n additions, so the price
    bounds the work, and a factor past order // 2 costs O(1).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    passes, cost = [], 0
    for p in progressions:
        p = range(p.start, min(p.stop, order + 1), p.step)  # a factor past q^order is 1
        cost += _passes_cost(order, p.start, p.step, p.stop - 1)
        if cost > MAX_SERIES_COST:
            break
        passes.append(p)

    def run():
        cs, low = [1] + [0] * order, order + 1
        for n in sorted(chain.from_iterable(passes), reverse=True):
            if inverse:
                cs[: n + low : n] = accumulate(cs[: n + low : n])
                _times_geometric(cs, n, n + low)
            else:
                cs[n] = -1
                cs[n + low :] = map(sub, cs[n + low :], cs[low : order + 1 - n])
            low = n
        return cs
    return (order + 1, cost), run


def pochhammer(n: int | None, order: int) -> QSeries:
    """(q)_n = prod_{i=1..n} (1 - q^i); n=None means the infinite product.

    Priced as ``_product`` prices, and refused past the cap.
    """
    _check_ints(("n",), n=n, order=order)
    return _series(f"pochhammer to order {order}", order, _pochhammer(n, order))


def _pochhammer(n: int | None, order: int):
    # the plan of pochhammer, checked; n = None is the product side of verify pentagonal
    if n is not None and n < 0:
        raise ValueError("n must be non-negative or None")
    return _product(order, [range(1, (order if n is None else min(n, order)) + 1)], False)


def inv_euler(order: int) -> QSeries:
    """1/(q)_infinity: the coefficient of q^n is p(n).

    The numerator 1 through ``partition._divide_by_euler``, Euler's
    pentagonal recurrence, in O(order^1.5), as ``p_table`` builds it; priced
    as it prices, and refused past order 69784 under its own name.
    """
    _check_ints(order=order)
    return _series(f"inv_euler to order {order}", order, _over_euler([(0, 1)], order))


def _levels_plan(k: int, exponent, low: int, top: int, order: int) -> tuple[list[list[int]], int]:
    """What ``_durfee_levels`` builds: per level, the lowest exponent of
    every width kept, from v = low up (at the last level up to ``top``);
    and the coefficient additions it makes building them.

    H_1(v) = q^e(1,v) and H_j(v) = q^e(j,v) sum_{u >= v} H_{j-1}(u) / (q)_{u-v},
    with e = ``exponent``, increasing in v and e(j, 0) = 0.  This is Andrews'
    Durfee dissection (Amer. J. Math. 1979) level by level: v is the width
    of the j-th square or rectangle, u that of the one above it, and
    1/(q)_{u-v} the side between them.  H_j(v) starts at e(1,v) + ... +
    e(j,v), so a width dies once that passes the order, the narrowest last.
    Once width 0 is the only one left, every further level leaves it
    unchanged, so the plan stops there and its cost stops growing with k.
    The sum for H_j(v) keeps its coefficients below q^(order - e(j,v) + 1)
    only, so it runs over those and skips every u whose H_{j-1}(u) starts
    past them.  A pass of 1/(1 - q^s) over a running sum of L kept
    coefficients makes L - s additions, and adding H_{j-1}(u) L more, none
    at level 2, where H_1(u) is a monomial below them.  Stops once past
    MAX_SERIES_COST; a caller whose cells pass it already does not call
    it, as it lists about sqrt(order) widths.
    """
    narrowest = 0
    for j in range(1, k + 1 if low else 1):  # width 0 never dies
        narrowest += exponent(j, low)
        if narrowest > order:  # and as the last to die, leaves no width to build
            return [[]], 0
    starts = []
    while (e := exponent(1, low + len(starts))) <= order:
        starts.append(e)
    plan, cost = [starts], 0
    for j in range(2, k + 1):
        prev = plan[-1]
        if low == 0 and len(prev) == 1:
            break
        starts = []
        for v in range(len(prev) if j < k else min(len(prev), top - low + 1)):
            start = prev[v] + exponent(j, low + v)
            if start > order:
                break
            for u in range(v, len(prev) - 1):
                # coefficients of the running sum that H_j(v) keeps
                fill = order + 1 - start - (prev[u + 1] - prev[v])
                if fill <= 0:
                    break
                cost += max(0, fill - (u - v + 1)) + (fill if j > 2 else 0)
            if cost > MAX_SERIES_COST:
                return plan, cost
            starts.append(start)
        plan.append(starts)
    plan[-1] = plan[-1][: top - low + 1]
    return plan, cost


def _durfee_levels(plan: list[list[int]], order: int) -> list[list[int]]:
    """Runs a ``_levels_plan``: the series of its last level, truncated at
    q^order, narrowest width first.  Each sum is Horner over u, widest
    first: acc = H_{j-1}(u) + acc / (1 - q^(u-v+1)), in place in one list
    of the order + 1 - start coefficients H_j(v) keeps, so no u whose
    H_{j-1}(u) starts past them is summed.
    """
    # (lowest exponent, coefficients from there on; missing ones up to q^order are 0)
    h = [(e, [1]) for e in plan[0]]
    for starts in plan[1:]:
        nxt = []
        for v, start in enumerate(starts):
            low = h[v][0]
            size = order + 1 - start
            acc = [0] * size  # the exponents low .. low + size - 1
            top = v
            while top + 1 < len(h) and h[top + 1][0] - low < size:
                top += 1
            base = size  # the running sum is zero below acc[base]
            for u in range(top, v - 1, -1):
                if u < top:
                    _times_geometric(acc, u - v + 1, base + u - v + 1)
                # H_{j-1}(u) from acc[d] on: copied below the running sum, added into it
                lowest, cs = h[u]
                d = lowest - low
                end = min(size, d + len(cs))
                mid = min(base, end)
                acc[d:mid] = cs[: mid - d]
                acc[base:end] = map(add, acc[base:end], cs[base - d : end - d])
                base = d
            nxt.append((start, acc))
        h = nxt
    return [[0] * base + cs + [0] * (order + 1 - base - len(cs)) for base, cs in h]


def multisum_lhs(k: int, a_shift: int | None, order: int) -> QSeries:
    """Sum side of the staircase identities.

    Sums q^(N_1^2+...+N_{k-1}^2 [+ N_a+...+N_{k-1}]) / ((q)_{n_1}...(q)_{n_{k-1}})
    over n_j >= 0, where N_j = n_j + ... + n_{k-1}.  Without the shift this
    generates partitions with at most k-1 Durfee squares; k=1 gives 1.

    Computed as H_k(0) of ``_durfee_levels`` with e_j(v) = v^2 + v [j >= a]:
    v is N_j and 1/(q)_{u-v} is 1/(q)_{n_j}.  Level j holds the widths with
    j v^2 <= order, about sqrt(order/j) of them, so the cost is
    O(order^2 log order) for any k.  Raises ImpracticalOrder when the
    plan's price passes MAX_SERIES_COST additions: past order 2354 for large k,
    later for small k, and at k = 1 once the order + 1 coefficients alone
    pass it.
    """
    _check_ints(("a_shift",), k=k, a_shift=a_shift, order=order)
    return _series(f"multisum k={k} to order {order}", order, _multisum(k, a_shift, order))


def _multisum(k: int, a_shift: int | None, order: int):
    # the plan of multisum_lhs, checked; with its cells past the cap it lists no width
    if k < 1:
        raise ValueError("k must be positive")
    if a_shift is not None and not 1 <= a_shift <= k:
        raise ValueError(f"a_shift must be in 1..{k}")
    if order < 0:
        raise ValueError("order must be non-negative")
    shift = k if a_shift is None else a_shift
    plan, cost = [[]], 0
    if order + 1 <= MAX_SERIES_COST:
        plan, cost = _levels_plan(k, lambda j, v: v * v + (v if j >= shift else 0), 0, 0, order)
    return (order + 1, cost), lambda: _durfee_levels(plan, order)[0]


def q_table(k: int, N: int) -> list[int]:
    """Counts q_k(0..N) of partitions with at most k Durfee squares.

    These are the coefficients of ``multisum_lhs(k + 1)``, the generating
    function of Andrews' Durfee dissection (Amer. J. Math. 1979).
    """
    _check_ints(k=k, N=N)
    if k < 0:
        raise ValueError("k must be non-negative")
    if N < 0:
        raise ValueError("N must be non-negative")
    return _build(f"multisum k={k + 1} to order {N}", _multisum(k + 1, None, N))[0]


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
        rows = {str(r): self.rows[r] for r in sorted(self.rows)}
        return {**self._asdict(), "rows": rows, "total": self.total}


def _series_plan(k: int, m: int, order: int):
    """The plan of ``_rank_series(k, m, order)``, checked: the
    ``_levels_plan`` of the H_k(w) it sums and the z-kernel passes (s, dz),
    each 1/(1 - z^dz q^s), that follow each H_k(w), widest w first.  Its
    price is the (order + 1)^2 cells of the packed rows, and as additions
    those of the levels and the cells the passes move.

    A pass shift-adds packed row n - s into row n for every n >= s, one
    big-integer operation that moves the 2(n - s) + 1 rank cells of row
    n - s: (order + 1 - s)^2 cells, none for s > order, so those are left
    out.  A huge order lists no width: its cells alone pass the cap.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if order < 0:
        raise ValueError("order must be non-negative")
    cells, levels, passes, cost = (order + 1) ** 2, [[]], [], 0
    if cells <= MAX_SERIES_COST:
        low = max(0, 1 - m)
        levels, cost = _levels_plan(k, lambda j, v: v * (v + m), low, order, order)
        if levels[-1]:
            passes = [[(w + m, 1), (w, -1)] for w in range(low + len(levels[-1]) - 1, low, -1)]
            passes.append([(s, 1) for s in range(1, min(low + m, order) + 1)]
                          + [(s, -1) for s in range(1, min(low, order) + 1)])
            passes = [[(s, dz) for s, dz in after if s <= order] for after in passes]
            cost += sum((order + 1 - s) ** 2 for after in passes for s, _ in after)
    return (cells, cost), lambda: _rank_rows(k, m, order, levels, passes)


def _shift_add_rows(rows: list[int], s: int, shift: int) -> None:
    # one z-kernel pass 1/(1 - z^dz q^s) on packed rows, shift = slot bits
    # times s + dz >= 0: row n gains row n - s moved up s + dz rank slots
    for n in range(s, len(rows)):
        rows[n] += rows[n - s] << shift


def _unpack_row(row: int, slots: int, words: int) -> tuple[int, ...]:
    # the slots of words 64-bit words each, lowest first, as integers
    n = words * slots
    ws = struct.unpack(f"<{n}Q", row.to_bytes(8 * n, "little"))
    cells = ws[::words]
    for j in range(1, words):
        cells = [w << 64 * j | c if w else c for c, w in zip(cells, ws[j::words])]
    return tuple(cells)


# Bounded in entries, not bytes (sizes in the docstring); census, h_count and h_census_series
# (so verify h_closed_form) share it.  32 hold the census suite's k <= 3, m in -2..4 at one order.
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
    H_{i-1}(u) / (q)_{u-v}: the level recursion ``_durfee_levels``
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
    Raises ImpracticalOrder when the price of that plan passes the cap.
    """
    return _build(f"rank series k={k} m={m} to order {order}", _series_plan(k, m, order))[0]


def _rank_rows(k: int, m: int, order: int, levels: list, passes: list) -> tuple:
    # the run of a _series_plan: the rows of _rank_series, packed, checked and unpacked
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
    return Counter(census(n, k, m).rows)  # census checks the arguments


def census(n: int, k: int, m: int = 0) -> CensusTable:
    """Full rank census; total is p(n) for m > 0 and p(n) - q_{k-1}(n) for m = 0.

    ``_rank_series`` checks those totals for every n of each series it computes.
    """
    if not (type(n) is type(k) is type(m) is int):  # the cheap test; the helper names the culprit
        _check_ints(n=n, k=k, m=m)
    return CensusTable(n, k, m, {r: c for r, c in enumerate(_rank_row(n, k, m), -n) if c})


def h_count(n: int, k: int, m: int, r: int, mode: str) -> int:
    """h(n,k,m,<=r), h(n,k,m,>=r) or h(n,k,m,r) depending on mode."""
    if not (type(n) is type(k) is type(m) is type(r) is int):  # as in census
        _check_ints(n=n, k=k, m=m, r=r)
    if mode not in ("le", "ge", "eq"):
        raise ValueError(f"mode must be 'le', 'ge' or 'eq', got {mode!r}")
    if k < 1:
        raise ValueError("k must be positive")
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


def h_census_series(k: int, m: int, r: int, mode: str, order: int) -> QSeries:
    """Generating function of rank-census counts, one coefficient per n.

    mode 'le' counts partitions with (k,m)-rank <= r, mode 'ge' with
    rank >= r.  Read off the census engine's cached bivariate rank series,
    which ``verify h_closed_form`` shares, and refused at that series' price:
    beyond order 644 for k = 1 and 793 for k = 3 at m = 0 (the comment on
    ``partition.MAX_SERIES_COST`` gives the time of a series at those caps).
    """
    _check_ints(k=k, m=m, r=r, order=order)
    plan = _h_census(k, m, r, mode, order)
    return _series(f"rank series k={k} m={m} to order {order}", order, plan)


def _h_census(k: int, m: int, r: int, mode: str, order: int):
    # the plan of h_census_series, checked: priced as its rank series, run on the cached one
    if mode not in ("le", "ge"):
        raise ValueError("mode must be 'le' or 'ge'")
    return _series_plan(k, m, order)[0], lambda: [_h(x, r, mode) for x in _rank_series(k, m, order)]


def _theta(k: int, order: int):
    # the terms of theta_k = 1 - T_k(1) - T_k(0), the sum over all integers j of
    # (-1)^j q^(j(j+1)(2k+1)/2 - kj), up to q^order, read lazily by the plan they enter
    tails = chain(_tail(k, 1, order), _tail(k, 0, order))
    return chain([(0, 1)], ((e, -sign) for e, sign in tails))


def schur_rhs(k: int, order: int) -> QSeries:
    """Alternating-theta side: theta_k(q) / (q)_infinity, the terms of
    ``_theta`` through one division by ``partition._divide_by_euler``.

    Priced as ``p_table`` (so as ``inv_euler``), and refused past the same
    order 69784 under its own name, before the theta sum is allocated.
    """
    _check_ints(k=k, order=order)
    return _series(f"schur_rhs to order {order}", order, _schur_rhs(k, order))


def _schur_rhs(k: int, order: int):
    # the plan of schur_rhs, checked
    if k < 1:
        raise ValueError("k must be positive")
    return _over_euler(_theta(k, order), order)


def rr_product(k: int, a_shift: int, order: int) -> QSeries:
    """Product over n not congruent to 0 or +-a_shift mod 2k+1 of 1/(1-q^n),
    priced and refused like ``pochhammer``."""
    _check_ints(k=k, a_shift=a_shift, order=order)
    return _series(f"rr_product to order {order}", order, _rr_product(k, a_shift, order))


def _rr_product(k: int, a_shift: int, order: int):
    # the plan of rr_product, checked
    if k < 1:
        raise ValueError("k must be positive")
    if not 1 <= a_shift <= k:
        raise ValueError(f"a_shift must be in 1..{k}")
    mod = 2 * k + 1
    # a residue past the order has no factor, so a huge k lists no empty class
    kept = (range(c, order + 1, mod) for c in range(1, min(2 * k, order) + 1)
            if c not in (a_shift, mod - a_shift))
    return _product(order, kept, True)


def jacobi_specialization(k: int, order: int) -> tuple[QSeries, QSeries]:
    """The theta sum and the matching sparse product; the two must agree.

    The product over n congruent to 0 or +-k mod 2k+1 of (1 - q^n) is priced
    like ``pochhammer``, and refused with the theta side, as ``verify jacobi``.
    """
    _check_ints(k=k, order=order)
    sides = _build(f"jacobi_specialization to order {order}", *_jacobi(k, order))
    return tuple(QSeries._fromcoeffs(cs, order) for cs in sides)


def _jacobi(k: int, order: int):
    # the plans of the theta side and the product side of jacobi_specialization, checked
    if k < 1:
        raise ValueError("k must be positive")
    factors = [range(c, order + 1, 2 * k + 1) for c in (k, k + 1, 2 * k + 1)]
    return _sparse(_theta(k, order), order), _product(order, factors, False)


class VerificationReport(NamedTuple):
    name: str
    params: dict
    order: int
    ok: bool
    mismatch: dict | None  # {"n": ..., "lhs": ..., "rhs": ...}

    def to_json_dict(self) -> dict:
        return self._asdict()


def _first_mismatch(lhs: list[int], rhs: list[int]) -> dict | None:
    if lhs == rhs:
        return None
    n = next(n for n, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
    return {"n": n, "lhs": lhs[n], "rhs": rhs[n]}


def _closed_form_sides(order: int, k: int, m: int, r: int):
    if not ((m >= 0 and r >= 1) or (m == 0 and r == 0)):
        raise UnsupportedRegion("closed form requires m >= 0 and r >= 1, or m = r = 0")
    return _h_census(k, m, -r, "le", order), _over_euler(_tail(k, r + k * m, order), order)


# name -> (parameter names, sides(order, **params) -> the (price, run) plans of lhs and rhs)
_IDENTITY_SIDES = {
    "pentagonal": ((), lambda order: (_pochhammer(None, order), _sparse(_theta(1, order), order))),
    "schur": (("k",), lambda order, k: (_multisum(k, None, order), _schur_rhs(k, order))),
    "rr": (("k",), lambda order, k: (_multisum(k, None, order), _rr_product(k, k, order))),
    "andrews": (("k", "a"), lambda order, k, a: (_multisum(k, a, order), _rr_product(k, a, order))),
    "jacobi": (("k",), lambda order, k: _jacobi(k, order)),
    "h_closed_form": (("k", "m", "r"), _closed_form_sides),
}
IDENTITIES = tuple(_IDENTITY_SIDES)


def verify_identity(
    name: str,
    order: int,
    *,
    k: int | None = None,
    a: int | None = None,
    m: int | None = None,
    r: int | None = None,
) -> VerificationReport:
    """Check one named identity coefficient-by-coefficient up to ``order``.

    Names: pentagonal; schur(k); rr(k); andrews(k, a); jacobi(k);
    h_closed_form(k, m, r) with m >= 0 and r >= 1, or m = r = 0.
    Pentagonal compares the product (q)_inf with its theta sum, so it does
    not lean on ``p_table``, which is that same identity as a recurrence.

    Each side is the plan of its public series, and the two prices go
    through the cap rule together, so ImpracticalOrder comes before either
    side is built.  Every order up to 2000 is accepted, whatever k; the cap
    is 6324 for pentagonal and jacobi k = 1, 9837 for rr k = 2, 6367 for
    rr k = 3, and 644 (k = 1) or 793 (k = 3) for h_closed_form at m = 0.
    """
    _check_ints(("k", "a", "m", "r"), order=order, k=k, a=a, m=m, r=r)
    if order < 0:
        raise ValueError("order must be non-negative")
    if name not in IDENTITIES:
        raise UnknownIdentity(f"unknown identity {name!r}; known: {', '.join(IDENTITIES)}")
    pnames, sides = _IDENTITY_SIDES[name]
    given = {"k": k, "a": a, "m": m, "r": r}
    params = {pname: given[pname] for pname in pnames}
    for pname, v in params.items():
        if v is None:
            raise ValueError(f"identity {name!r} needs parameter {pname!r}")
    mismatch = _first_mismatch(*_build(f"verify {name} to order {order}", *sides(order, **params)))
    return VerificationReport(name, params, order, mismatch is None, mismatch)

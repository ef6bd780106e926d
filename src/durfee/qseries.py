"""Truncated power series in q with exact integer coefficients, and
coefficient-level verification of the partition identities."""

from __future__ import annotations

from itertools import accumulate, chain
from operator import add, neg, sub
from typing import NamedTuple

from .errors import UnknownIdentity, UnsupportedRegion
from .partition import (
    MAX_SERIES_COST,
    _divide_by_euler,
    _refuse_above_cap,
    _refuse_euler_division,
    p_table,
)


class QSeries:
    """Coefficients c_0..c_T of a series known modulo q^(T+1).

    Binary operations truncate to the smaller order of the two operands.
    All arithmetic is exact (Python integers).  An order whose order + 1
    coefficients pass MAX_SERIES_COST raises ImpracticalOrder before the
    coefficients given are padded out to it.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int | None = None):
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
        _refuse_above_cap(order + 1, f"QSeries of order {order}")
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        elif len(cs) < order + 1:
            cs.extend([0] * (order + 1 - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))
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
        T = min(self.order, other.order)
        return QSeries._fromcoeffs(map(add, self.coeffs[: T + 1], other.coeffs[: T + 1]), T)

    def __sub__(self, other: "QSeries") -> "QSeries":
        T = min(self.order, other.order)
        return QSeries._fromcoeffs(map(sub, self.coeffs[: T + 1], other.coeffs[: T + 1]), T)

    def __neg__(self) -> "QSeries":
        return QSeries._fromcoeffs(map(neg, self.coeffs), self.order)

    def __mul__(self, other: "QSeries") -> "QSeries":
        T = min(self.order, other.order)
        return QSeries._fromcoeffs(_mul(self.coeffs, other.coeffs, T), T)

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

    Kronecker substitution: each operand becomes one integer with a byte
    slot per coefficient, wide enough that every product coefficient c
    satisfies |c| < 2^(w-1) for a slot of w bits (w >= bits(max|a|) +
    bits(max|b|) + bits(min length) + 1).  Negative coefficients pack as
    the positive part minus the negative part.  One big-integer multiply
    forms every convolution at once; adding 2^(w-1) to each of the T + 1
    low slots makes them non-negative, so a mask and one ``to_bytes`` give
    the coefficients back.  Exact for any integers.
    """
    a, b = a[: T + 1], b[: T + 1]
    amax = max(map(abs, a), default=0)
    bmax = max(map(abs, b), default=0)
    if not amax or not bmax:
        return [0] * (T + 1)
    bits = amax.bit_length() + bmax.bit_length() + min(len(a), len(b)).bit_length() + 1
    width = (bits + 7) // 8
    slots = width * (T + 1)
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * (T + 1), "little")
    product = (_pack(a, width) * _pack(b, width) + bias) & ((1 << (8 * slots)) - 1)
    raw = product.to_bytes(slots, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, slots, width)]


def _pack(cs, width: int) -> int:
    # sum of cs[i] * 256^(width i) for signed cs, each |cs[i]| < 256^width
    pos = int.from_bytes(b"".join([max(c, 0).to_bytes(width, "little") for c in cs]), "little")
    if min(cs) >= 0:
        return pos
    return pos - int.from_bytes(
        b"".join([max(-c, 0).to_bytes(width, "little") for c in cs]), "little"
    )


def _times_one_minus(cs: list[int], n: int) -> None:
    # in place multiply by (1 - q^n)
    if n < len(cs):
        cs[n:] = map(sub, cs[n:], cs[:-n])


def _times_geometric(cs: list[int], n: int) -> None:
    # in place multiply by 1/(1 - q^n) = 1 + q^n + q^2n + ...: a running sum
    # along each residue class mod n, or block by block when blocks are long
    size = len(cs)
    if n * n < size:
        for r in range(n):
            cs[r::n] = accumulate(cs[r::n])
    else:
        for i in range(n, size, n):
            cs[i : i + n] = map(add, cs[i : i + n], cs[i - n : i])


def _passes_cost(order: int, first: int, step: int, last: int) -> int:
    """Additions of the passes (1 - q^n)^(+-1) over order + 1 coefficients
    for n = first, first + step, ... <= last: order + 1 - n each.

    The price of ``_product``, and an upper bound on its work: past
    order // 2 its tail step makes no more additions than these passes."""
    if first > last:
        return 0
    count = (last - first) // step + 1
    return count * (order + 1 - first) - step * count * (count - 1) // 2


def _product(order: int, progressions, inverse: bool, what: str) -> QSeries:
    """prod of (1 - q^n)^(-1 if inverse else 1) over every n in the disjoint
    ``progressions`` (ranges of n >= 1), truncated at q^order.

    The one product kernel.  Its price is the passes it would run one
    factor at a time (``_passes_cost`` per progression, an upper bound,
    summed only until past the cap, so a long lazy iterable of progressions
    is not listed), but at least its order + 1 coefficients; past
    MAX_SERIES_COST it raises ImpracticalOrder before any is allocated.

    The factors n <= order // 2 run as passes in ascending n across all
    progressions, so the partial products stay small.  The factors past
    order // 2 then go in with one tail step: any two of them multiply past
    q^order, and there 1/(1 - q^n) = 1 + q^n, so together they are
    1 -+ sum q^n.  For a progression n0, n0 + d, ..., n1 the coefficient
    of q^j gains -+(S[j - n0] - S[j - n1 - d]), where S is the step-d
    running sum of the coefficients, made once per step d and only as long
    as the lowest tail of that step reads, so below order - order // 2.
    The step reads only there and writes only from q^(order // 2 + 1) on,
    so it runs in place.  A tail of three or more factors makes at most
    the additions of its passes n0, n0 + d and n1 (the two sweeps and S);
    a tail of one or two runs as passes.  So the price bounds the work.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    passes, cost = [], 0
    for p in progressions:
        cost += _passes_cost(order, p.start, p.step, p.stop - 1)
        if cost > MAX_SERIES_COST:
            break
        passes.append(p)
    _refuse_above_cap(max(order + 1, cost), what)
    cs = [0] * (order + 1)
    cs[0] = 1
    low, tails = [], []
    for p in passes:
        below = range(p.start, min(p.stop, order // 2 + 1), p.step)
        if len(p) - len(below) < 3:  # a short tail costs less as passes
            low.append(p)
        else:
            low.append(below)
            tails.append(p[len(below) :])
    times = _times_geometric if inverse else _times_one_minus
    for n in sorted(chain.from_iterable(low)):
        times(cs, n)
    gain, undo = (add, sub) if inverse else (sub, add)
    sums = {}  # step d -> S, as long as the lowest tail of that step reads
    for tail in sorted(tails, key=lambda t: t.start):
        d, n0, n1 = tail.step, tail.start, tail[-1]
        if d not in sums:
            sums[d] = cs[: order + 1 - n0]
            _times_geometric(sums[d], d)
        cs[n0:] = map(gain, cs[n0:], sums[d])
        if n1 + d <= order:
            cs[n1 + d :] = map(undo, cs[n1 + d :], sums[d])
    return QSeries._fromcoeffs(cs, order)


def pochhammer(n: int | None, order: int) -> QSeries:
    """(q)_n = prod_{i=1..n} (1 - q^i); n=None means the infinite product.

    Priced and refused as ``_product`` prices and refuses.
    """
    if n is not None and n < 0:
        raise ValueError("n must be non-negative or None")
    top = order if n is None else min(n, order)
    return _product(order, [range(1, top + 1)], False, f"pochhammer to order {order}")


def inv_euler(order: int) -> QSeries:
    """1/(q)_infinity: the coefficient of q^n is p(n).

    Read off ``p_table``, Euler's pentagonal recurrence, in O(order^1.5),
    and refused as it refuses.
    """
    return QSeries._fromcoeffs(p_table(order), order)


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
    A pass of 1/(1 - q^s) over L coefficients makes L - s additions, and
    adding H_{j-1}(u) L more, none at level 2, where H_1(u) is a monomial
    below them.  Stops once past MAX_SERIES_COST; the order + 1 cells of
    one output series refuse a huge order before any width is listed.
    """
    if order + 1 > MAX_SERIES_COST:
        return [[]], order + 1
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
                fill = order + 1 - prev[u + 1]  # coefficients of the running sum
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
    first: acc = H_{j-1}(u) + acc / (1 - q^(u-v+1)).
    """
    # (lowest exponent, coefficients from there on; missing ones up to q^order are 0)
    h = [(e, [1]) for e in plan[0]]
    for starts in plan[1:]:
        nxt = []
        for v, start in enumerate(starts):
            base, cs = h[-1]
            acc = cs + [0] * (order + 1 - base - len(cs))
            for u in range(len(h) - 2, v - 1, -1):
                _times_geometric(acc, u - v + 1)
                lowest, cs = h[u]
                d = base - lowest
                acc = cs[:d] + [0] * (d - len(cs)) + acc
                acc[d : len(cs)] = map(add, acc[d : len(cs)], cs[d:])
                base = lowest
            del acc[order + 1 - start :]
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
    plan's price passes MAX_SERIES_COST additions: past order 2317 for large k,
    later for small k, and at k = 1 once the order + 1 coefficients alone
    pass it.
    """
    return QSeries._fromcoeffs(_multisum(k, a_shift, order), order)


def _multisum(k: int, a_shift: int | None, order: int) -> list[int]:
    """The coefficients of ``multisum_lhs``, checked, planned, priced and run."""
    if k < 1:
        raise ValueError("k must be positive")
    if a_shift is not None and not 1 <= a_shift <= k:
        raise ValueError(f"a_shift must be in 1..{k}")
    if order < 0:
        raise ValueError("order must be non-negative")
    shift = k if a_shift is None else a_shift
    plan, cost = _levels_plan(k, lambda j, v: v * v + (v if j >= shift else 0), 0, 0, order)
    _refuse_above_cap(cost, f"multisum k={k} to order {order}")
    return _durfee_levels(plan, order)[0]


def q_table(k: int, N: int) -> list[int]:
    """Counts q_k(0..N) of partitions with at most k Durfee squares.

    These are the coefficients of ``multisum_lhs(k + 1)``, the generating
    function of Andrews' Durfee dissection (Amer. J. Math. 1979).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if N < 0:
        raise ValueError("N must be non-negative")
    return _multisum(k + 1, None, N)


def _theta(k: int, order: int) -> QSeries:
    """sum over all integers j of (-1)^j q^(j(j+1)(2k+1)/2 - k j)."""
    cs = [0] * (order + 1)
    j = 0
    while True:
        hit = False
        for jj in ((j, -j) if j else (0,)):
            e = jj * (jj + 1) * (2 * k + 1) // 2 - k * jj
            if 0 <= e <= order:
                cs[e] += 1 if jj % 2 == 0 else -1
                hit = True
        if not hit and j > 0:
            break
        j += 1
    return QSeries._fromcoeffs(cs, order)


def schur_rhs(k: int, order: int) -> QSeries:
    """Alternating-theta side: theta_k(q) / (q)_infinity, one division
    by ``partition._divide_by_euler``.

    Priced and refused as ``p_table`` (so as ``inv_euler``), before the
    theta sum is allocated.
    """
    if k < 1:
        raise ValueError("k must be positive")
    _refuse_euler_division(order)
    cs = list(_theta(k, order).coeffs)
    _divide_by_euler(cs)
    return QSeries._fromcoeffs(cs, order)


def rr_product(k: int, a_shift: int, order: int) -> QSeries:
    """Product over n not congruent to 0 or +-a_shift mod 2k+1 of 1/(1-q^n),
    priced and refused like ``pochhammer``."""
    if k < 1:
        raise ValueError("k must be positive")
    if not 1 <= a_shift <= k:
        raise ValueError(f"a_shift must be in 1..{k}")
    mod = 2 * k + 1
    # a residue past the order has no factor, so a huge k lists no empty class
    kept = (range(c, order + 1, mod) for c in range(1, min(2 * k, order) + 1)
            if c not in (a_shift, mod - a_shift))
    return _product(order, kept, True, f"rr_product to order {order}")


def jacobi_specialization(k: int, order: int) -> tuple[QSeries, QSeries]:
    """The theta sum and the matching sparse product; the two must agree.

    The product runs over n congruent to 0 or +-k mod 2k+1 of (1 - q^n),
    priced and refused like ``pochhammer``.
    """
    if k < 1:
        raise ValueError("k must be positive")
    mod = 2 * k + 1
    wanted = [range(c, order + 1, mod) for c in (k, k + 1, mod)]
    product = _product(order, wanted, False, f"jacobi product to order {order}")
    return _theta(k, order), product


def h_census_series(k: int, m: int, r: int, mode: str, order: int) -> QSeries:
    """Generating function of rank-census counts, one coefficient per n.

    mode 'le' counts partitions with (k,m)-rank <= r, mode 'ge' with
    rank >= r.  Read off the census engine's bivariate rank series, which
    raises ImpracticalOrder above ``MAX_SERIES_COST`` coefficient additions:
    beyond order 644 for k = 1 and 792 for k = 3 at m = 0 (the comment on
    ``partition.MAX_SERIES_COST`` gives the time of a series at those caps).
    """
    from .census import _h, _rank_series  # census imports q_table from here

    if mode not in ("le", "ge"):
        raise ValueError("mode must be 'le' or 'ge'")
    return QSeries([_h(row, r, mode) for row in _rank_series(k, m, order)], order)


def _h_closed_form(k: int, m: int, r: int, order: int) -> QSeries:
    """(1/(q)_inf) sum_{j>=1} (-1)^(j-1) q^(jr + j(j-1)/2 + k(jm + j^2)): the
    sparse sum divided by ``partition._divide_by_euler``, priced and
    refused as ``schur_rhs``."""
    _refuse_euler_division(order)
    cs = [0] * (order + 1)
    j = 1
    while True:
        e = j * r + j * (j - 1) // 2 + k * (j * m + j * j)
        if e > order:
            break
        if e >= 0:
            cs[e] += 1 if j % 2 == 1 else -1
        j += 1
    _divide_by_euler(cs)
    return QSeries._fromcoeffs(cs, order)


class VerificationReport(NamedTuple):
    name: str
    params: dict
    order: int
    ok: bool
    mismatch: dict | None  # {"n": ..., "lhs": ..., "rhs": ...}

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "order": self.order,
            "ok": self.ok,
            "mismatch": self.mismatch,
        }


def _first_mismatch(lhs: QSeries, rhs: QSeries) -> dict | None:
    T = min(lhs.order, rhs.order)
    a, b = lhs.coeffs[: T + 1], rhs.coeffs[: T + 1]
    if a == b:
        return None
    n = next(n for n in range(T + 1) if a[n] != b[n])
    return {"n": n, "lhs": a[n], "rhs": b[n]}


def _closed_form_sides(order: int, k: int, m: int, r: int) -> tuple[QSeries, QSeries]:
    if not ((m >= 0 and r >= 1) or (m == 0 and r == 0)):
        raise UnsupportedRegion("closed form requires m >= 0 and r >= 1, or m = r = 0")
    return h_census_series(k, m, -r, "le", order), _h_closed_form(k, m, r, order)


# name -> (parameter names, sides(order, **params) -> (lhs, rhs))
_IDENTITY_SIDES = {
    "pentagonal": ((), lambda order: (pochhammer(None, order), _theta(1, order))),
    "schur": (("k",), lambda order, k: (multisum_lhs(k, None, order), schur_rhs(k, order))),
    "rr": (("k",), lambda order, k: (multisum_lhs(k, None, order), rr_product(k, k, order))),
    "andrews": (("k", "a"), lambda order, k, a: (multisum_lhs(k, a, order),
                                                 rr_product(k, a, order))),
    "jacobi": (("k",), lambda order, k: jacobi_specialization(k, order)),
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
    Raises ImpracticalOrder when the estimated cost of a side passes
    MAX_SERIES_COST: every order up to 2000 is accepted, whatever k
    (h_closed_form keeps the lower cap of the census engine).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if name not in IDENTITIES:
        raise UnknownIdentity(f"unknown identity {name!r}; known: {', '.join(IDENTITIES)}")
    # a product side takes at most one pass per factor (1 - q^n)^(+-1), n <= order;
    # multisum_lhs guards the sum side itself
    _refuse_above_cap(order * (order + 1) // 2, f"verify {name} to order {order}")
    pnames, sides = _IDENTITY_SIDES[name]
    given = {"k": k, "a": a, "m": m, "r": r}
    params = {}
    for pname in pnames:
        if given[pname] is None:
            raise ValueError(f"identity {name!r} needs parameter {pname!r}")
        params[pname] = given[pname]
    lhs, rhs = sides(order, **params)
    mismatch = _first_mismatch(lhs, rhs)
    return VerificationReport(name, params, order, mismatch is None, mismatch)

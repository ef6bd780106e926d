"""Truncated power series in q with exact integer coefficients, and
coefficient-level verification of the partition identities."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add, sub

from .errors import ImpracticalOrder, UnknownIdentity, UnsupportedRegion
from .partition import p_table

# Largest series computation accepted, in coefficient additions (about 1 s
# and 40 MB on a 2-core VM).  The census engine, multisum_lhs and
# verify_identity all refuse past it with ImpracticalOrder.
MAX_SERIES_COST = 20_000_000


class QSeries:
    """Coefficients c_0..c_T of a series known modulo q^(T+1).

    Binary operations truncate to the smaller order of the two operands.
    All arithmetic is exact (Python integers).
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int | None = None):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coefficients must be exact integers, got {c!r}")
        if order is None:
            if not cs:
                raise ValueError("need coefficients or an explicit order")
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be non-negative")
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        elif len(cs) < order + 1:
            cs.extend([0] * (order + 1 - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls([1], order)

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls([0], order)

    @classmethod
    def monomial(cls, c: int, e: int, order: int) -> "QSeries":
        coeffs = [0] * (order + 1)
        if 0 <= e <= order:
            coeffs[e] = c
        return cls(coeffs, order)

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def __add__(self, other: "QSeries") -> "QSeries":
        T = min(self.order, other.order)
        return QSeries(
            [a + b for a, b in zip(self.coeffs[: T + 1], other.coeffs[: T + 1])], T
        )

    def __sub__(self, other: "QSeries") -> "QSeries":
        T = min(self.order, other.order)
        return QSeries(
            [a - b for a, b in zip(self.coeffs[: T + 1], other.coeffs[: T + 1])], T
        )

    def __neg__(self) -> "QSeries":
        return QSeries([-a for a in self.coeffs], self.order)

    def __mul__(self, other: "QSeries") -> "QSeries":
        T = min(self.order, other.order)
        return QSeries(_mul(self.coeffs, other.coeffs, T), T)

    def __eq__(self, other) -> bool:
        if isinstance(other, QSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs, self.order))

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return QSeries(self.coeffs[: order + 1], order)

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


def pochhammer(n: int | None, order: int) -> QSeries:
    """(q)_n = prod_{i=1..n} (1 - q^i); n=None means the infinite product."""
    if n is not None and n < 0:
        raise ValueError("n must be non-negative or None")
    cs = [0] * (order + 1)
    cs[0] = 1
    top = order if n is None else min(n, order)
    for i in range(1, top + 1):
        _times_one_minus(cs, i)
    return QSeries(cs, order)


def inv_euler(order: int) -> QSeries:
    """1/(q)_infinity: the coefficient of q^n is p(n).

    Read off ``p_table``, Euler's pentagonal recurrence, in O(order^1.5).
    """
    return QSeries(p_table(order), order)


def _durfee_levels(k: int, exponent, low: int, top: int, order: int) -> list[list[int]]:
    """H_k(v) truncated at q^order, for the widths v = low..top whose series
    is not zero there.

    H_1(v) = q^e(1,v) and H_j(v) = q^e(j,v) sum_{u >= v} H_{j-1}(u) / (q)_{u-v},
    with e = ``exponent``, increasing in v and e(j, 0) = 0.  This is Andrews'
    Durfee dissection (Amer. J. Math. 1979) level by level: v is the width
    of the j-th square or rectangle, u that of the one above it, and
    1/(q)_{u-v} the side between them.  Each sum is Horner over u, widest
    first: acc = H_{j-1}(u) + acc / (1 - q^(u-v+1)).  A series is kept from
    its lowest exponent up, which is e(1,v) + ... + e(j,v), so a width dies
    once that passes the order.  Once width 0 is the only one left, every
    further level leaves it unchanged, so the recursion stops there and its
    cost stops growing with k.  ``_levels_cost`` counts its additions.
    """
    # (lowest exponent, coefficients from there on; missing ones up to q^order are 0)
    h = []
    while (e := exponent(1, low + len(h))) <= order:
        h.append((e, [1]))
    for j in range(2, k + 1):
        if not h or (low == 0 and len(h) == 1):
            break
        widest = low + len(h) - 1
        nxt = []
        for v in range(low, (widest if j < k else min(widest, top)) + 1):
            start = h[v - low][0] + exponent(j, v)
            if start > order:
                break
            base, cs = h[-1]
            acc = cs + [0] * (order + 1 - base - len(cs))
            for u in range(widest - 1, v - 1, -1):
                _times_geometric(acc, u - v + 1)
                lowest, cs = h[u - low]
                d = base - lowest
                acc = cs[:d] + [0] * (d - len(cs)) + acc
                acc[d : len(cs)] = map(add, acc[d : len(cs)], cs[d:])
                base = lowest
            del acc[order + 1 - start :]
            nxt.append((start, acc))
        h = nxt
    return [[0] * base + cs + [0] * (order + 1 - base - len(cs)) for base, cs in h[: top - low + 1]]


def _levels_cost(k: int, exponent, low: int, top: int, order: int) -> tuple[int, int]:
    """Coefficient additions ``_durfee_levels`` makes with these arguments,
    and how many series it returns: its loops, run on (lowest exponent,
    length) pairs.  A pass of 1/(1 - q^s) over L coefficients makes L - s
    additions, and adding H_{j-1}(u) to acc one per coefficient they share.
    Stops once past MAX_SERIES_COST.
    """
    h = []
    while (e := exponent(1, low + len(h))) <= order:
        h.append((e, 1))
    cost = 0
    for j in range(2, k + 1):
        if not h or (low == 0 and len(h) == 1):
            break
        widest = low + len(h) - 1
        nxt = []
        for v in range(low, (widest if j < k else min(widest, top)) + 1):
            start = h[v - low][0] + exponent(j, v)
            if start > order or cost > MAX_SERIES_COST:
                break
            for u in range(widest - 1, v - 1, -1):
                lowest, length = h[u - low]
                d = h[u + 1 - low][0] - lowest
                cost += max(0, order + 1 - lowest - d - (u - v + 1)) + max(0, length - d)
            nxt.append((start, order + 1 - start))
        h = nxt
    return cost, len(h[: top - low + 1])


def multisum_lhs(k: int, a_shift: int | None, order: int) -> QSeries:
    """Sum side of the staircase identities.

    Sums q^(N_1^2+...+N_{k-1}^2 [+ N_a+...+N_{k-1}]) / ((q)_{n_1}...(q)_{n_{k-1}})
    over n_j >= 0, where N_j = n_j + ... + n_{k-1}.  Without the shift this
    generates partitions with at most k-1 Durfee squares; k=1 gives 1.

    Computed as H_k(0) of ``_durfee_levels`` with e_j(v) = v^2 + v [j >= a]:
    v is N_j and 1/(q)_{u-v} is 1/(q)_{n_j}.  Level j holds the widths with
    j v^2 <= order, about sqrt(order/j) of them, so the cost is
    O(order^2 log order) for any k.  Raises ImpracticalOrder above
    MAX_SERIES_COST coefficient additions: past order 2317 for large k,
    later for small k.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if a_shift is not None and not 1 <= a_shift <= k:
        raise ValueError(f"a_shift must be in 1..{k}")
    if order < 0:
        raise ValueError("order must be non-negative")
    shift = k if a_shift is None else a_shift
    levels = (k, lambda j, v: v * v + (v if j >= shift else 0), 0, 0, order)
    _refuse_above_cap(_levels_cost(*levels)[0], f"multisum k={k} to order {order}")
    return QSeries(_durfee_levels(*levels)[0], order)


def q_table(k: int, N: int) -> list[int]:
    """Counts q_k(0..N) of partitions with at most k Durfee squares.

    These are the coefficients of ``multisum_lhs(k + 1)``, the generating
    function of Andrews' Durfee dissection (Amer. J. Math. 1979).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if N < 0:
        raise ValueError("N must be non-negative")
    return list(multisum_lhs(k + 1, None, N).coeffs)


def _refuse_above_cap(cost: int, what: str) -> None:
    if cost > MAX_SERIES_COST:
        raise ImpracticalOrder(
            f"{what} needs {cost} coefficient additions (cap {MAX_SERIES_COST}); refusing"
        )


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
    return QSeries(cs, order)


def schur_rhs(k: int, order: int) -> QSeries:
    """Alternating-theta side: theta_k(q) / (q)_infinity."""
    if k < 1:
        raise ValueError("k must be positive")
    return inv_euler(order) * _theta(k, order)


def rr_product(k: int, a_shift: int, order: int) -> QSeries:
    """Product over n not congruent to 0 or +-a_shift mod 2k+1 of 1/(1-q^n)."""
    if k < 1:
        raise ValueError("k must be positive")
    if not 1 <= a_shift <= k:
        raise ValueError(f"a_shift must be in 1..{k}")
    mod = 2 * k + 1
    banned = {0, a_shift % mod, (-a_shift) % mod}
    cs = [0] * (order + 1)
    cs[0] = 1
    for n in range(1, order + 1):
        if n % mod not in banned:
            _times_geometric(cs, n)
    return QSeries(cs, order)


def jacobi_specialization(k: int, order: int) -> tuple[QSeries, QSeries]:
    """The theta sum and the matching sparse product; the two must agree.

    The product runs over n congruent to 0 or +-k mod 2k+1 of (1 - q^n).
    """
    if k < 1:
        raise ValueError("k must be positive")
    theta = _theta(k, order)
    mod = 2 * k + 1
    wanted = {0, k % mod, (-k) % mod}
    cs = [0] * (order + 1)
    cs[0] = 1
    for n in range(1, order + 1):
        if n % mod in wanted:
            _times_one_minus(cs, n)
    return theta, QSeries(cs, order)


def h_census_series(k: int, m: int, r: int, mode: str, order: int) -> QSeries:
    """Generating function of rank-census counts, one coefficient per n.

    mode 'le' counts partitions with (k,m)-rank <= r, mode 'ge' with
    rank >= r.  Read off the census engine's bivariate rank series, which
    raises ImpracticalOrder above ``MAX_SERIES_COST`` coefficient additions
    (about 1 s): beyond order 644 for k = 1 and 792 for k = 3 at m = 0.
    """
    from .census import _h, _rank_series  # census imports q_table from here

    if mode not in ("le", "ge"):
        raise ValueError("mode must be 'le' or 'ge'")
    return QSeries([_h(row, r, mode) for row in _rank_series(k, m, order)], order)


def _h_closed_form(k: int, m: int, r: int, order: int) -> QSeries:
    """(1/(q)_inf) sum_{j>=1} (-1)^(j-1) q^(jr + j(j-1)/2 + k(jm + j^2))."""
    cs = [0] * (order + 1)
    j = 1
    while True:
        e = j * r + j * (j - 1) // 2 + k * (j * m + j * j)
        if e > order:
            break
        if e >= 0:
            cs[e] += 1 if j % 2 == 1 else -1
        j += 1
    return inv_euler(order) * QSeries(cs, order)


@dataclass(frozen=True)
class VerificationReport:
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
    for n in range(T + 1):
        if lhs.coeffs[n] != rhs.coeffs[n]:
            return {"n": n, "lhs": lhs.coeffs[n], "rhs": rhs.coeffs[n]}
    return None


IDENTITIES = ("pentagonal", "schur", "rr", "andrews", "jacobi", "h_closed_form")


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
    if name == "pentagonal":
        params = {}
        lhs, rhs = pochhammer(None, order), _theta(1, order)
    elif name == "schur":
        k = _need(name, "k", k)
        params = {"k": k}
        lhs, rhs = multisum_lhs(k, None, order), schur_rhs(k, order)
    elif name == "rr":
        k = _need(name, "k", k)
        params = {"k": k}
        lhs, rhs = multisum_lhs(k, None, order), rr_product(k, k, order)
    elif name == "andrews":
        k = _need(name, "k", k)
        a = _need(name, "a", a)
        params = {"k": k, "a": a}
        lhs, rhs = multisum_lhs(k, a, order), rr_product(k, a, order)
    elif name == "jacobi":
        k = _need(name, "k", k)
        params = {"k": k}
        lhs, rhs = jacobi_specialization(k, order)
    else:
        k = _need(name, "k", k)
        m = _need(name, "m", m)
        r = _need(name, "r", r)
        params = {"k": k, "m": m, "r": r}
        if not ((m >= 0 and r >= 1) or (m == 0 and r == 0)):
            raise UnsupportedRegion(
                "closed form requires m >= 0 and r >= 1, or m = r = 0"
            )
        lhs = h_census_series(k, m, -r, "le", order)
        rhs = _h_closed_form(k, m, r, order)
    mismatch = _first_mismatch(lhs, rhs)
    return VerificationReport(name, params, order, mismatch is None, mismatch)


def _need(name: str, pname: str, value: int | None) -> int:
    if value is None:
        raise ValueError(f"identity {name!r} needs parameter {pname!r}")
    return value

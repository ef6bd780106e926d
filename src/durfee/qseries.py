"""Truncated power series in q with exact integer coefficients, and
coefficient-level verification of the partition identities."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownIdentity, UnsupportedRegion


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


def _mul(a, b, T: int):
    out = [0] * (T + 1)
    for i, ai in enumerate(a):
        if i > T:
            break
        if ai == 0:
            continue
        top = T - i
        for j, bj in enumerate(b[: top + 1]):
            if bj:
                out[i + j] += ai * bj
    return out


def _times_one_minus(cs: list[int], n: int) -> None:
    # in place multiply by (1 - q^n)
    for i in range(len(cs) - 1, n - 1, -1):
        cs[i] -= cs[i - n]


def _times_geometric(cs: list[int], n: int) -> None:
    # in place multiply by 1/(1 - q^n) = 1 + q^n + q^2n + ...
    for i in range(n, len(cs)):
        cs[i] += cs[i - n]


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
    """1/(q)_infinity: the coefficient of q^n is p(n)."""
    cs = [0] * (order + 1)
    cs[0] = 1
    for i in range(1, order + 1):
        _times_geometric(cs, i)
    return QSeries(cs, order)


def multisum_lhs(k: int, a_shift: int | None, order: int) -> QSeries:
    """Sum side of the staircase identities.

    Sums q^(N_1^2+...+N_{k-1}^2 [+ N_a+...+N_{k-1}]) / ((q)_{n_1}...(q)_{n_{k-1}})
    over n_j >= 0, where N_j = n_j + ... + n_{k-1}.  Without the shift this
    generates partitions with at most k-1 Durfee squares; k=1 gives 1.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if a_shift is not None and not 1 <= a_shift <= k:
        raise ValueError(f"a_shift must be in 1..{k}")
    if k == 1:
        return QSeries.one(order)
    acc = [0] * (order + 1)
    # depth-first over weakly decreasing tuples N_{k-1} <= ... <= N_1, built
    # bottom-up; a tuple dies as soon as its exponent passes the order
    stack = [(k - 1, 0, 0, ())]
    while stack:
        pos, lower, exponent, widths = stack.pop()
        if pos == 0:
            term = _term_product(widths, order - exponent)
            for i, c in enumerate(term):
                if c:
                    acc[exponent + i] += c
            continue
        N = lower
        while True:
            e = exponent + N * N
            if a_shift is not None and pos >= a_shift:
                e += N
            if e > order:
                break
            stack.append((pos - 1, N, e, widths + (N,)))
            N += 1
    return QSeries(acc, order)


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


def _term_product(widths_bottom_up: tuple[int, ...], limit: int) -> list[int]:
    """Product of 1/(q)_{n_j} for the factor sizes derived from widths.

    ``widths_bottom_up`` lists N_{k-1}, ..., N_1; n_j = N_j - N_{j+1} with
    N_k = 0, so the differences of consecutive entries (and the first entry
    itself) are the n_j.
    """
    if limit < 0:
        return []
    ns = []
    prev = 0
    for N in widths_bottom_up:
        ns.append(N - prev)
        prev = N
    out = [0] * (limit + 1)
    out[0] = 1
    for n in ns:
        if n == 0:
            continue
        for i in range(1, min(n, limit) + 1):
            _times_geometric(out, i)
    return out


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
    raises ImpracticalOrder above ``census.MAX_SERIES_COST`` coefficient
    additions: beyond order 630 for k = 1 and 760 for k = 3 (about 1 s).
    """
    from .census import _h, _rank_series  # census imports q_table from here

    if mode not in ("le", "ge"):
        raise ValueError("mode must be 'le' or 'ge'")
    return QSeries([_h(c, r, mode) for c in _rank_series(k, m, order)], order)


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
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if name == "pentagonal":
        params = {}
        lhs, rhs = schur_rhs(1, order), QSeries.one(order)
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
    elif name == "h_closed_form":
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
    else:
        raise UnknownIdentity(f"unknown identity {name!r}; known: {', '.join(IDENTITIES)}")
    mismatch = _first_mismatch(lhs, rhs)
    return VerificationReport(name, params, order, mismatch is None, mismatch)


def _need(name: str, pname: str, value: int | None) -> int:
    if value is None:
        raise ValueError(f"identity {name!r} needs parameter {pname!r}")
    return value

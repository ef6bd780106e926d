import itertools
import operator
import random
import re
import time

import pytest

from durfee import (
    QSeries,
    census,
    durfee_square_widths,
    h_census_series,
    h_count,
    inv_euler,
    jacobi_specialization,
    multisum_lhs,
    p_table,
    partitions_of,
    pochhammer,
    q_table,
    qseries,
    rank_census,
    rr_product,
    schur_rhs,
    selftest,
    verify_identity,
)
from durfee.errors import ImpracticalOrder, UnknownIdentity, UnsupportedRegion
from durfee.partition import _divide_by_euler, _euler_price, _over_euler, _sparse, _tail
from durfee.qseries import (
    IDENTITIES,
    MAX_SERIES_COST,
    _first_mismatch,
    _levels_plan,
    _mul,
    _passes_cost,
    _theta,
    _unpack,
)


def built(plan):
    # the coefficients a (price, run) plan builds, past any cap
    return plan[1]()


def geometric(order):
    return QSeries([1] * (order + 1), order)


def test_mul_basic_identities():
    one_minus_q = QSeries([1, -1], 10)
    assert one_minus_q * geometric(10) == QSeries.one(10)
    f = QSeries([3, 1, 4, 1, 5], 4)
    assert f * QSeries.one(4) == f
    assert (f + (-f)) == QSeries.zero(4)


def schoolbook(a, b, T):
    out = [0] * (T + 1)
    for i, x in enumerate(a[: T + 1]):
        for j, y in enumerate(b[: T + 1 - i]):
            out[i + j] += x * y
    return out


def test_mul_matches_schoolbook():
    rng = random.Random(6)
    for _ in range(200):
        bound = rng.choice((1, 9, 10**6, 10**40))
        a = [rng.randint(-bound, bound) for _ in range(rng.randint(1, 30))]
        b = [rng.randint(-bound, bound) for _ in range(rng.randint(1, 30))]
        if rng.random() < 0.3:
            a = [abs(x) for x in a]  # one operand without a negative part
        T = rng.randint(0, 70)  # also shorter than either operand
        assert _mul(a, b, T) == schoolbook(a, b, T), (a, b, T)
    assert _mul([0, 0, 0], [5, -7], 4) == [0] * 5
    assert _mul([], [1, 2], 2) == [0, 0, 0]
    assert _mul([-(10**40)], [-(10**40), 10**40], 0) == [10**80]
    assert _mul([1, -1], [1, 1, 1, 1], 5) == [1, 0, 0, 0, -1, 0]
    # operands of length 1 and 2 (an empty or one-slot odd half), all signs,
    # T even and odd from 0 up past both lengths
    for a, b in itertools.product(([5], [-5], [3, 7], [-3, -7], [3, -7]), repeat=2):
        for T in range(6):
            assert _mul(a, b, T) == schoolbook(a, b, T), (a, b, T)
    for T in range(9):
        a = [-rng.randint(1, 10**6) for _ in range(rng.randint(1, 5))]
        b = [-rng.randint(1, 10**30) for _ in range(rng.randint(1, 5))]
        assert _mul(a, b, T) == schoolbook(a, b, T), (a, b, T)  # all negative
    # p(n), far wider than the seeded noise it multiplies
    p = p_table(300)
    for T in (0, 1, 298, 299, 300):
        b = [rng.randint(-9, 9) for _ in range(T + 1)]
        assert _mul(p, b, T) == schoolbook(p, b, T), T


def ones(width, slots):
    return int.from_bytes((b"\x01" + bytes(width - 1)) * slots, "little")


def test_mul_codec_edges():
    # the slot of w bytes holds every product coefficient c with |c| < 2^(8w - 1)
    for length, abits, bbits in ((127, 28, 28), (255, 28, 27), (3, 31, 30)):
        # bits(max|a|) + bits(max|b|) + bits(length) + 1 is a whole number of bytes,
        # so the largest coefficient, length (2^abits - 1)(2^bbits - 1), is past half the bound
        atop, btop = 2**abits - 1, 2**bbits - 1
        width = (abits + bbits + length.bit_length() + 1) // 8
        assert abits + bbits + length.bit_length() + 1 == 8 * width
        assert 2 * length * atop * btop > 2 ** (8 * width - 1)
        alternating = [atop if i % 2 else -atop for i in range(length)]
        for a, b in (([atop] * length, [btop] * length), ([-atop] * length, [btop] * length),
                     ([-atop] * length, [-btop] * length), (alternating, [btop] * length),
                     (alternating, [-x for x in alternating])):
            for T in (0, length - 1, 2 * length - 2, 2 * length + 5):  # also past both lengths
                assert _mul(a, b, T) == schoolbook(a, b, T), (length, abits, T)
    # every width from 1 to 10 bytes, with negative, positive and mixed operands
    for bits in range(0, 72):
        for x, y in ((2**bits, 2**bits - 1), (-(2**bits), 2**bits), (2**bits, -1)):
            a, b = [x, -x, x], [y, y]
            for T in (0, 1, 3, 6):
                assert _mul(a, b, T) == schoolbook(a, b, T), (bits, x, y, T)
    for T in (0, 1, 5):
        assert _mul([-3], [-4], T) == schoolbook([-3], [-4], T)  # one coefficient each
        assert _mul([-1, -2, -3], [-4, -5], T) == schoolbook([-1, -2, -3], [-4, -5], T)
        assert _mul([0, 0], [0], T) == _mul([7], [0, 0, 0], T) == [0] * (T + 1)
    # a slot decodes every coefficient c with -2^(8w - 1) <= c <= 2^(8w - 1) - 1,
    # both ends, also next to negative slots that borrow from the slot above
    for width in (1, 2, 9):
        half = 1 << (8 * width - 1)
        for cs in ([half - 1, -(half - 1), -half, 0, half - 1], [-half] * 4 + [half - 1]):
            h = sum(c << 8 * width * i for i, c in enumerate(cs))
            for slots in range(len(cs) + 1):
                assert _unpack(h, width, slots, half, ones(width, 5)) == cs[:slots]


def test_mixed_orders_truncate_to_smaller():
    a = QSeries([1, 1, 1, 1, 1, 1], 5)
    b = QSeries([1, 2], 1)
    assert (a * b).order == 1
    assert (a + b).order == 1


def test_coefficients_must_be_ints():
    with pytest.raises(TypeError):
        QSeries([1.0, 2])
    with pytest.raises(TypeError):
        QSeries([True])
    # the first bad coefficient is named
    with pytest.raises(TypeError, match=r"got 2\.5$"):
        QSeries([1, 2.5, True])
    with pytest.raises(TypeError, match="got False$"):
        QSeries(iter([3, False, 1.0]), 5)

    class Big(int):
        pass

    s = QSeries([Big(3), 1])
    assert s == QSeries([3, 1]) and {type(c) for c in s.coeffs} == {int}


def test_kernel_outputs_are_what_the_constructor_builds():
    # the kernels skip the constructor's checks, so each output must already
    # be order + 1 exact integers
    a, b = QSeries([1, -2, 3], 6), QSeries([5, 0, -1, 7], 4)
    for order in (0, 1, 7, 40):
        outputs = [pochhammer(None, order), pochhammer(3, order), inv_euler(order),
                   multisum_lhs(3, None, order), multisum_lhs(3, 2, order), schur_rhs(2, order),
                   rr_product(2, 1, order), *jacobi_specialization(2, order),
                   QSeries._fromcoeffs(built(_over_euler(_tail(1, 1, order), order)), order),
                   QSeries._fromcoeffs(built(_sparse(_theta(2, order), order)), order),
                   a + b, a - b, -a, a * b]
        for s in outputs:
            assert type(s.coeffs) is tuple and {type(c) for c in s.coeffs} == {int}
            assert len(s.coeffs) == s.order + 1
            assert s == QSeries(list(s.coeffs), s.order)


def test_pochhammer_values():
    assert pochhammer(1, 3).coeffs == (1, -1, 0, 0)
    assert pochhammer(0, 5) == QSeries.one(5)
    assert pochhammer(None, 7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)


def test_inv_euler_two_oracles():
    T = 16
    s = inv_euler(T)
    assert list(s.coeffs) == p_table(T)  # pentagonal recurrence route
    for n in range(T + 1):  # enumeration route
        assert s.coeffs[n] == len(partitions_of(n))
    assert s * pochhammer(None, T) == QSeries.one(T)
    assert inv_euler(10).coeffs[10] == 42


def test_multisum_examples():
    assert multisum_lhs(1, None, 12) == QSeries.one(12)
    ms = multisum_lhs(2, None, 4)
    assert list(ms.coeffs) == [1, 1, 1, 1, 2]
    # q_table reads its counts off multisum_lhs(k+1), so both are checked
    # against enumeration: partitions of n with at most k Durfee squares
    T = 30
    squares = [[len(durfee_square_widths(lam)) for lam in partitions_of(n)] for n in range(T + 1)]
    for k in range(7):
        want = [sum(1 for s in row if s <= k) for row in squares]
        assert list(multisum_lhs(k + 1, None, T).coeffs) == want, k
        assert q_table(k, T) == want, k


def test_multisum_with_more_squares_than_fit():
    # a partition of n <= T has at most T successive Durfee squares, and
    # only 1^T, at n = T, has T of them
    for T in (0, 1, 2, 5, 40):
        assert multisum_lhs(T + 1, None, T) == inv_euler(T)
    for T in (1, 2, 5, 40):
        diff = (inv_euler(T) - multisum_lhs(T, None, T)).coeffs
        assert diff == (0,) * T + (1,)


def test_multisum_cost_is_bounded_in_k():
    t = time.perf_counter()
    assert verify_identity("rr", 50, k=100000).ok
    assert time.perf_counter() - t < 1
    t = time.perf_counter()
    with pytest.raises(ImpracticalOrder):
        verify_identity("rr", 10**8, k=2)
    with pytest.raises(ImpracticalOrder):
        multisum_lhs(3, None, 10**8)
    assert time.perf_counter() - t < 0.1
    # a huge order is refused before any width is listed, also at k = 1
    # where there is a single level and the output cells are the whole cost
    for call, args in ((q_table, (0, 10**12)), (q_table, (1, 10**18)),
                       (multisum_lhs, (1, None, 10**12))):
        t = time.perf_counter()
        with pytest.raises(ImpracticalOrder):
            call(*args)
        assert time.perf_counter() - t < 0.1, args
    # every order up to 2000 stays accepted, whatever k
    for k in (1, 2, 3, 10, 10**9):
        assert _levels_plan(k, lambda j, v: v * v, 0, 0, 2000)[1] <= MAX_SERIES_COST, k
    # and the cap for large k sits at 2354
    assert _levels_plan(10**9, lambda j, v: v * v, 0, 0, 2354)[1] <= MAX_SERIES_COST
    assert _levels_plan(10**9, lambda j, v: v * v, 0, 0, 2355)[1] > MAX_SERIES_COST
    # past the cap the plan stops pricing, so its refusal names a lower bound:
    # the full price of this one is 33,556,023 additions
    with pytest.raises(ImpracticalOrder, match=r"^multisum k=1000000000 to order 3000 needs at "
                       r"least 20000146 coefficient additions \(cap 20000000\); refusing$"):
        multisum_lhs(10**9, None, 3000)


def test_series_entry_points_refuse_huge_orders_at_once():
    # each prices its work before allocating anything: p(0..10^9) alone
    # would be a 10^9-entry list built in O(N^1.5); each refusal names its series
    big = 10**9
    for call, args, what in (
            (p_table, (big,), "p_table to"), (inv_euler, (big,), "inv_euler to order"),
            (pochhammer, (None, big), "pochhammer to order"),
            (pochhammer, (0, big), "pochhammer to order"),
            (rr_product, (2, 1, big), "rr_product to order"),
            (rr_product, (1, 1, big), "rr_product to order"),
            (jacobi_specialization, (2, big), "jacobi_specialization to order"),
            (jacobi_specialization, (10**7, 10**7), "jacobi_specialization to order"),
            (schur_rhs, (2, big), "schur_rhs to order"),
            (QSeries.zero, (big,), "QSeries of order"), (QSeries, ([1], big), "QSeries of order")):
        t = time.perf_counter()
        with pytest.raises(ImpracticalOrder, match=f"^{what} {args[-1]} needs "):
            call(*args)
        assert time.perf_counter() - t < 0.1, (call.__name__, args)
    # a product is priced as the (T + 1)(T + 2)/2 terms of its convolution:
    # order 6323 answers, and 6324 is refused before anything is packed
    assert 6324 * 6325 // 2 <= MAX_SERIES_COST < 6325 * 6326 // 2
    p = inv_euler(6323)
    assert p * QSeries([1, -1], 10**6) == QSeries(map(operator.sub, p.coeffs, (0,) + p.coeffs), 6323)
    for order in (6324, 10**6):
        a, b = QSeries.one(10**6), QSeries([1] * (order + 1), order)
        t = time.perf_counter()
        with pytest.raises(ImpracticalOrder, match=f"^QSeries product of order {order} needs "):
            a * b
        assert time.perf_counter() - t < 0.1, order
    # the prices count the work exactly
    for order in (0, 1, 9, 30):
        for first, step, last in ((1, 1, order), (1, 1, order // 2), (5, 5, order), (2, 3, order)):
            assert _passes_cost(order, first, step, last) == sum(
                order + 1 - n for n in range(first, last + 1, step))
    terms = [sum(1 for j in range(1, n + 1) for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2)
                 if g <= n) for n in range(60)]
    assert [_euler_price(N)[1] for N in range(60)] == [sum(terms[: N + 1]) for N in range(60)]
    # the caps of pochhammer(None, order) and p_table(N) sit here
    assert _passes_cost(6324, 1, 1, 6324) <= MAX_SERIES_COST < _passes_cost(6325, 1, 1, 6325)
    assert _euler_price(69784)[1] <= MAX_SERIES_COST < _euler_price(69785)[1]
    # past the cap the terms g and g + j of each j are still priced as one step
    # (one at a time, 69786 would read 20,000,248); the full price at 80000 is 24,554,070
    assert [_euler_price(N) for N in (69786, 80000)] == [(69787, 20000590), (80001, 20023128)]


# The largest order at which verify accepts, by identity and parameters:
# the pair price of its two sides, (cells, additions) each summed, fits
# MAX_SERIES_COST there and not one order higher.
VERIFY_CAPS = {
    ("pentagonal", ()): 6324,
    ("schur", (1,)): 69784, ("schur", (2,)): 50804, ("schur", (3,)): 9612,
    ("schur", (5,)): 5832, ("schur", (10,)): 4458,
    ("rr", (1,)): 9999999, ("rr", (2,)): 9837, ("rr", (3,)): 6367,
    ("rr", (5,)): 4615, ("rr", (10,)): 3753,
    ("andrews", (1, 1)): 9999999, ("andrews", (2, 1)): 9838, ("andrews", (3, 1)): 6395,
    ("andrews", (5, 1)): 4658, ("andrews", (10, 1)): 3809,
    ("andrews", (2, 2)): 9837, ("andrews", (3, 3)): 6367, ("andrews", (5, 5)): 4615,
    ("andrews", (10, 10)): 3753,
    ("jacobi", (1,)): 6324, ("jacobi", (2,)): 8164, ("jacobi", (3,)): 9661,
    ("jacobi", (5,)): 12111, ("jacobi", (10,)): 16735,
    ("h_closed_form", (1, 0, 1)): 644, ("h_closed_form", (2, 0, 1)): 732,
    ("h_closed_form", (3, 0, 1)): 793, ("h_closed_form", (5, 0, 1)): 872,
    ("h_closed_form", (10, 0, 1)): 999,
    # m >= 1, where the tail T_k(r + km) of the closed form starts past T_k(r)
    ("h_closed_form", (1, 1, 1)): 649, ("h_closed_form", (2, 1, 1)): 741,
    ("h_closed_form", (3, 1, 1)): 804,
}


def verify_params(name, values):
    return dict(zip(qseries._IDENTITY_SIDES[name][0], values))


@pytest.fixture
def sides_priced_only(monkeypatch):
    # every identity's sides, planned and priced as verify plans and prices
    # them, with each run replaced by the coefficient list [1]: a verify that
    # gets past the cap rule reports ok and builds nothing
    def priced_only(sides):
        return lambda *a, **kw: [(price, lambda: [1]) for price, _ in sides(*a, **kw)]
    table = qseries._IDENTITY_SIDES
    monkeypatch.setattr(qseries, "_IDENTITY_SIDES", {
        name: (pnames, priced_only(sides)) for name, (pnames, sides) in table.items()})


def test_verify_caps_are_the_pair_prices(sides_priced_only):
    assert {name for name, _ in VERIFY_CAPS} == set(IDENTITIES)
    for (name, values), cap in VERIFY_CAPS.items():
        params = verify_params(name, values)
        assert verify_identity(name, cap, **params).ok, (name, params)
    # every order up to 2000 is accepted, whatever k: rr at k = 10^6 is the
    # costliest pair there (16,109,140 additions)
    for k in (1, 2, 3, 10, 10**6):
        for name in ("schur", "rr", "jacobi"):
            assert verify_identity(name, 2000, k=k).ok, (name, k)
        assert verify_identity("andrews", 2000, k=k, a=1).ok, k


def test_verify_refuses_one_order_past_its_cap_at_once():
    for (name, values), cap in VERIFY_CAPS.items():
        params = verify_params(name, values)
        t = time.perf_counter()
        with pytest.raises(ImpracticalOrder, match=f"^verify {name} to order {cap + 1} needs "):
            verify_identity(name, cap + 1, **params)
        assert time.perf_counter() - t < 0.1, (name, params)


def test_verify_boundary_calls():
    # the sides price 14,002 cells and 630,734 additions; the old blanket
    # price of order (order + 1) / 2 refused this call
    assert verify_identity("schur", 7000, k=1).ok
    # one past the cap of rr k = 3 (6367): 8,413,532 + 11,589,760 additions,
    # over the cap although each side fits on its own.  At 6324 the pair
    # prices 19,729,308 additions since the level chains stop at what they keep
    with pytest.raises(ImpracticalOrder, match="needs at least 20003292 coefficient additions"):
        verify_identity("rr", 6368, k=3)
    # an empty product and a one-level multisum make no additions, but
    # their 2 (order + 1) cells pass the cap
    t = time.perf_counter()
    with pytest.raises(ImpracticalOrder, match="needs 39999998 cells"):
        verify_identity("rr", 19999998, k=1)
    assert time.perf_counter() - t < 0.1
    for name, params in (("pentagonal", {}), ("jacobi", {"k": 1})):
        with pytest.raises(ImpracticalOrder, match="needs at least 20005975 coefficient additions"):
            verify_identity(name, 6325, **params)
    # jacobi_specialization prices its theta side with its product, as verify
    # jacobi does, and its refusal names both: the product alone is 10,000,001
    # cells and 1 addition
    for call, what in ((lambda: verify_identity("jacobi", 10**7, k=10**7), "verify jacobi"),
                       (lambda: jacobi_specialization(10**7, 10**7), "jacobi_specialization")):
        message = rf"^{what} to order 10000000 needs 20000002 cells \(cap"
        with pytest.raises(ImpracticalOrder, match=message):
            call()
    with pytest.raises(ImpracticalOrder, match=r"^jacobi_specialization to order 6325 needs "
                       r"at least 20005975 coefficient additions \(cap 20000000\); refusing$"):
        jacobi_specialization(1, 6325)
    # a missing parameter is named before any price, at any order
    with pytest.raises(ValueError, match="needs parameter 'k'"):
        verify_identity("rr", 10**18)


def test_multisum_shift_bounds():
    with pytest.raises(ValueError):
        multisum_lhs(2, 3, 10)
    assert multisum_lhs(3, 3, 15) == multisum_lhs(3, None, 15)


def test_schur_rhs_examples():
    assert schur_rhs(1, 20) == QSeries.one(20)
    assert schur_rhs(2, 25) == multisum_lhs(2, None, 25)


def residue_count_oracle(allowed_residues, mod, n):
    """Partitions of n into parts with allowed residues, by enumeration."""
    return sum(
        1
        for lam in partitions_of(n)
        if all(x % mod in allowed_residues for x in lam.parts)
    )


def test_rr_product_against_counting_oracle():
    s = rr_product(2, 2, 14)  # parts not 0, +-2 mod 5, i.e. 1 or 4 mod 5
    for n in range(15):
        assert s.coeffs[n] == residue_count_oracle({1, 4}, 5, n)
    assert list(s.coeffs[:7]) == [1, 1, 1, 1, 2, 2, 3]
    s2 = rr_product(2, 1, 14)  # parts 2 or 3 mod 5
    assert s2.coeffs[1] == 0
    for n in range(15):
        assert s2.coeffs[n] == residue_count_oracle({2, 3}, 5, n)


def test_jacobi_specialization_values():
    theta, prod = jacobi_specialization(1, 12)
    want = [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]
    assert list(theta.coeffs) == want
    assert list(prod.coeffs) == want
    theta2, prod2 = jacobi_specialization(2, 11)
    want2 = [1, 0, -1, -1, 0, 0, 0, 0, 0, 1, 0, 1]
    assert list(theta2.coeffs) == want2
    assert theta2 == prod2


def test_h_census_series_values():
    s = h_census_series(1, 0, 0, "le", 6)
    # partitions of 4 with non-positive Dyson rank: (2,2), (2,1,1), (1,1,1,1)
    assert s.coeffs[4] == 3
    le = h_census_series(2, 1, 1, "le", 10)
    ge = h_census_series(2, 1, 2, "ge", 10)
    pt = p_table(10)
    for n in range(11):
        assert le.coeffs[n] + ge.coeffs[n] == pt[n]


def test_h_census_series_guards():
    with pytest.raises(ValueError):
        h_census_series(1, 0, 0, "<=", 5)
    with pytest.raises(ImpracticalOrder):  # the cap is order 644 for k = 1
        h_census_series(1, 0, 0, "le", 700)
    le = h_census_series(1, 0, 0, "le", 200)
    ge = h_census_series(1, 0, 1, "ge", 200)
    assert le.order == 200
    assert le.coeffs[200] + ge.coeffs[200] == p_table(200)[200]


def test_verify_h_closed_form_reads_the_cached_rank_series():
    qseries._rank_series.cache_clear()
    h_census_series(2, 1, -2, "le", 40)
    before = qseries._rank_series.cache_info()
    assert verify_identity("h_closed_form", 40, k=2, m=1, r=2).ok
    after = qseries._rank_series.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    # the suite checks 10 (m, r) pairs per k at two orders: one series per
    # (k, m, order), 3 * 3 * 2 of them
    qseries._rank_series.cache_clear()
    assert all(check.ok for check in selftest.qseries_suite())
    assert qseries._rank_series.cache_info().misses == 18


def test_verify_identity_reports():
    rep = verify_identity("schur", 30, k=2)
    assert rep.ok and rep.mismatch is None and rep.params == {"k": 2}
    rep = verify_identity("andrews", 25, k=2, a=1)
    assert rep.ok
    rep = verify_identity("pentagonal", 40)
    assert rep.ok
    rep = verify_identity("h_closed_form", 12, k=1, m=0, r=1)
    assert rep.ok


def test_verify_identity_errors():
    with pytest.raises(UnknownIdentity):
        verify_identity("fermat", 10)
    # every parameter of every identity is named when it is missing
    full = {"pentagonal": {}, "schur": {"k": 2}, "rr": {"k": 2}, "andrews": {"k": 2, "a": 1},
            "jacobi": {"k": 2}, "h_closed_form": {"k": 1, "m": 0, "r": 1}}
    assert tuple(full) == IDENTITIES
    for name, params in full.items():
        assert verify_identity(name, 10, **params).ok, name
        for missing in params:
            rest = {p: v for p, v in params.items() if p != missing}
            with pytest.raises(ValueError, match=f"^identity '{name}' needs parameter '{missing}'$"):
                verify_identity(name, 10, **rest)
    with pytest.raises(UnsupportedRegion):
        verify_identity("h_closed_form", 10, k=1, m=-1, r=1)
    with pytest.raises(UnsupportedRegion):
        verify_identity("h_closed_form", 10, k=1, m=1, r=0)
    with pytest.raises(ValueError):
        verify_identity("pentagonal", -1)


def test_first_mismatch_structure():
    a = [1, 2, 3]
    b = [1, 5, 3]
    assert _first_mismatch(a, b) == {"n": 1, "lhs": 2, "rhs": 5}
    assert _first_mismatch(a, a) is None


@pytest.mark.parametrize("call, args", [
    (pochhammer, (None, -1)), (pochhammer, (3, -1)), (inv_euler, (-1,)), (rr_product, (2, 1, -1)),
    (jacobi_specialization, (2, -1)), (schur_rhs, (2, -1)), (multisum_lhs, (2, None, -1)),
    (q_table, (1, -1)), (h_census_series, (1, 0, 0, "le", -1)), (QSeries, ([1], -1)),
], ids=lambda v: getattr(v, "__name__", None))
def test_negative_order_is_value_error(call, args):
    # an IndexError would escape this and fail; each series names its own parameter
    name = "N" if call is q_table else "order"
    with pytest.raises(ValueError, match=f"^{name} must be non-negative$"):
        call(*args)


def test_series_arithmetic_takes_only_series():
    s = QSeries.one(5)
    for bad in (2, 2.0, None):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(s, bad)

    class Scalar:
        def __rmul__(self, series):
            return "reflected"

    # NotImplemented lets the other operand answer
    assert s * Scalar() == "reflected"


@pytest.mark.parametrize("call, bad_calls", [
    (QSeries, [(([1], True), {}, "order must be an int or None, got True"),
               (([1], 2.0), {}, "order must be an int or None, got 2.0")]),
    (pochhammer, [((None, True), {}, "order must be an int, got True"),
                  ((2.0, 5), {}, "n must be an int or None, got 2.0"),
                  ((True, 5), {}, "n must be an int or None, got True"),
                  ((None, None), {}, "order must be an int, got None")]),
    (inv_euler, [((5.0,), {}, "order must be an int, got 5.0"),
                 ((False,), {}, "order must be an int, got False")]),
    (rr_product, [((True, 1, 5), {}, "k must be an int, got True"),
                  ((2, 1.0, 5), {}, "a_shift must be an int, got 1.0"),
                  ((2, 1, None), {}, "order must be an int, got None")]),
    (jacobi_specialization, [((2.0, 5), {}, "k must be an int, got 2.0"),
                             ((2, False), {}, "order must be an int, got False")]),
    (schur_rhs, [((None, 5), {}, "k must be an int, got None"),
                 ((1, "5"), {}, "order must be an int, got '5'")]),
    (multisum_lhs, [((2, None, 5.0), {}, "order must be an int, got 5.0"),
                    ((2, True, 5), {}, "a_shift must be an int or None, got True"),
                    ((True, None, 5), {}, "k must be an int, got True")]),
    (verify_identity, [(("pentagonal", True), {}, "order must be an int, got True"),
                       (("schur", 10.0), {"k": 2}, "order must be an int, got 10.0"),
                       (("rr", 10), {"k": 2.0}, "k must be an int or None, got 2.0"),
                       (("andrews", 10), {"k": 2, "a": True}, "a must be an int or None, got True"),
                       (("h_closed_form", 10), {"k": 1, "m": 0.0, "r": 1},
                        "m must be an int or None, got 0.0"),
                       (("h_closed_form", 10), {"k": 1, "m": 0, "r": "1"},
                        "r must be an int or None, got '1'")]),
    (q_table, [((1, True), {}, "N must be an int, got True"),
               ((1, 5.0), {}, "N must be an int, got 5.0"),
               ((False, 5), {}, "k must be an int, got False")]),
    (p_table, [((True,), {}, "N must be an int, got True"),
               ((5.0,), {}, "N must be an int, got 5.0")]),
    (census, [((True, 1, 0), {}, "n must be an int, got True"),
              ((5, 1.0, 0), {}, "k must be an int, got 1.0"),
              ((5, 1, None), {}, "m must be an int, got None")]),
    (rank_census, [((5.0, 1, 0), {}, "n must be an int, got 5.0"),
                   ((5, 1, True), {}, "m must be an int, got True")]),
    (h_count, [((True, 1, 0, 0, "le"), {}, "n must be an int, got True"),
               ((5, 1, 0, 0.0, "le"), {}, "r must be an int, got 0.0")]),
    (h_census_series, [((1, 0, 0, "le", True), {}, "order must be an int, got True"),
                       ((1, 0.0, 0, "le", 5), {}, "m must be an int, got 0.0"),
                       ((1, 0, "1", "le", 5), {}, "r must be an int, got '1'")]),
], ids=lambda v: getattr(v, "__name__", ""))
def test_non_int_argument_is_type_error(call, bad_calls):
    # a bool or a non-int number argument is named, not read as a number
    for args, kwargs, message in bad_calls:
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call(*args, **kwargs)


def passes_oracle(order, ns, inverse):
    """The product one factor (1 - q^n)^(+-1) at a time, ascending n, in
    plain loops."""
    cs = [0] * (order + 1)
    cs[0] = 1
    for n in sorted(ns):
        if inverse:
            for i in range(n, order + 1):
                cs[i] += cs[i - n]
        else:
            for i in range(order, n - 1, -1):
                cs[i] -= cs[i - n]
    return cs


def test_products_match_pass_by_pass_oracle():
    # every order 0..80, odd and even halves alike; the factors past
    # order // 2 go in first and touch O(1) coefficients each
    for T in range(81):
        # products that stop at, just past or well past order // 2, and below the order
        for n in (None, T // 2, T // 2 + 1, 3 * T // 4, max(T - 1, 0)):
            top = T if n is None else min(n, T)
            assert list(pochhammer(n, T).coeffs) == passes_oracle(T, range(1, top + 1), False), (n, T)
        # every a <= k <= 6; and k >= T, where each progression holds one
        # factor or none
        shapes = {(k, a) for k in range(1, 7) for a in range(1, k + 1)}
        shapes |= {(k, a) for k in (T, T + 1, T + 4) if k > 6 for a in (1, 2, k // 2, k)}
        for k, a in sorted(shapes):
            mod = 2 * k + 1
            if a == 1:
                jacobi = [n for n in range(1, T + 1) if n % mod in (0, k, k + 1)]
                assert list(jacobi_specialization(k, T)[1].coeffs) == passes_oracle(T, jacobi, False), (k, T)
            kept = [n for n in range(1, T + 1) if n % mod not in (0, a, mod - a)]
            assert list(rr_product(k, a, T).coeffs) == passes_oracle(T, kept, True), (k, a, T)


def test_product_kernel_matches_oracle_on_random_progressions():
    # the kernel takes the factors largest first across all progressions, so
    # the smallest factor so far moves between interleaved progressions;
    # starts past order // 2 and past the order, steps larger than the
    # order, one-factor and empty progressions all go in
    rng = random.Random(18)
    for T in range(121):
        for _ in range(6):
            progressions, used = [], set()
            d = rng.randint(2, 7)
            for _ in range(rng.randint(0, 5)):
                if rng.random() < 0.5:  # a class mod d: it interleaves with the other classes
                    start, step = rng.randint(1, d), d
                else:
                    start = rng.choice((1, 2, rng.randint(1, T + 1), T // 2 + 1, max(T, 1),
                                        T + 1, T + 7))
                    step = rng.choice((1, 2, rng.randint(1, T + 1), T + 1, T + 5))
                stop = rng.choice((start, start + 1, start + step, rng.randint(start, 2 * T + 9)))
                p = range(start, stop, step)
                if used.isdisjoint(p):
                    progressions.append(p)
                    used.update(p)
            for inverse in (False, True):
                _, run = qseries._product(T, progressions, inverse)
                assert run() == passes_oracle(T, used, inverse), (T, progressions, inverse)


def kernel_additions(order, ns, inverse):
    """The coefficient additions the product kernel makes for the factors
    ns <= order, largest first, with low the factor before n: a (1 - q^n)
    pass subtracts order + 1 - n - low coefficients (and writes q^n); a
    1/(1 - q^n) pass makes the same running sums plus one addition per
    multiple of n below min(n + low, order + 1)."""
    made, low = 0, order + 1
    for n in sorted(ns, reverse=True):
        made += max(0, order + 1 - n - low)
        if inverse:
            made += len(range(n, min(n + low, order + 1), n))
        low = n
    return made


def test_product_price_bounds_its_additions(monkeypatch):
    # every coefficient addition of the product kernel goes through add, sub
    # or accumulate; the kernel makes exactly the additions counted by
    # kernel_additions, and its price bounds them
    made = [0]

    def counted(op):
        def counted_op(x, y):
            made[0] += 1
            return op(x, y)
        return counted_op

    monkeypatch.setattr(qseries, "add", counted(operator.add))
    monkeypatch.setattr(qseries, "sub", counted(operator.sub))
    monkeypatch.setattr(qseries, "accumulate",
                        lambda xs: itertools.accumulate(xs, counted(operator.add)))
    for T in (0, 1, 2, 7, 8, 40, 41, 121):
        shapes = [(pochhammer, (n, T), [range(1, min(n, T) + 1)])
                  for n in {T // 2, T // 2 + 1, T // 2 + 2, T // 2 + 3, max(T - 1, 0), T}]
        for k in {1, 2, 3, 6, T // 3 + 1, max(T, 1)}:
            mod = 2 * k + 1
            shapes.append((jacobi_specialization, (k, T), [range(c, T + 1, mod) for c in (k, k + 1, mod)]))
            for a in {1, k}:
                kept = [range(c, T + 1, mod) for c in range(1, min(2 * k, T) + 1) if c not in (a, mod - a)]
                shapes.append((rr_product, (k, a, T), kept))
        for call, args, progressions in shapes:
            price = sum(_passes_cost(T, p.start, p.step, p.stop - 1) for p in progressions)
            made[0] = 0
            call(*args)
            assert made[0] <= price, (call.__name__, args)
            factors = [n for p in progressions for n in p]
            exact = kernel_additions(T, factors, call is rr_product)
            assert made[0] == exact, (call.__name__, args)


def unblocked_division(cs):
    """cs / (q)_inf by the pentagonal recurrence, one term at a time."""
    out = []
    for n, c in enumerate(cs):
        j = 1
        while (g := j * (3 * j - 1) // 2) <= n:
            sign = 1 if j % 2 else -1
            c += sign * out[n - g]
            if g + j <= n:
                c += sign * out[n - g - j]
            j += 1
        out.append(c)
    return out


def divided(cs):
    cs = list(cs)
    _divide_by_euler(cs)
    return cs


def test_blocked_division_matches_unblocked_recurrence():
    # every length up to 301 takes in the block edges 63-65 and 127-129, and
    # every n < 57, where the straight-line sum over the g < 64 reads some of
    # the 57 zeros put in front of the coefficients
    want = unblocked_division([1] + [0] * 300)
    for N in range(301):
        assert divided([1] + [0] * N) == want[: N + 1], N
        assert p_table(N) == want[: N + 1], N
    rng = random.Random(13)
    for _ in range(4):
        num = [rng.choice((0, 0, 1, -1, rng.randint(-(10**30), 10**30))) for _ in range(301)]
        want = unblocked_division(num)
        for N in [*range(131), 200, 300]:
            assert divided(num[: N + 1]) == want[: N + 1], N
            assert divided(num[: N + 1]) == _mul(num, p_table(N), N), N


@pytest.mark.parametrize("k", range(1, 7))
def test_theta_tail_terms(k):
    # T_k(c) = sum_{j >= 1} (-1)^(j-1) q^(kj^2 + j(j-1)/2 + cj): every j with
    # its exponent within the order, ascending, with alternating signs
    for c in range(9):
        for order in range(201):
            want = [(k * j * j + j * (j - 1) // 2 + c * j, 1 if j % 2 else -1)
                    for j in range(1, order + 1)]
            assert list(_tail(k, c, order)) == [(e, s) for e, s in want if e <= order], (c, order)
    # the closed form's tail at c = r + km has the exponents jr + j(j-1)/2 + k(jm + j^2)
    for m in range(4):
        for r in range(6):
            want = [j * r + j * (j - 1) // 2 + k * (j * m + j * j) for j in range(1, 201)]
            assert [e for e, _ in _tail(k, r + k * m, 200)] == [e for e in want if e <= 200]
    for order in range(201):
        # theta_k = 1 - T_k(1) - T_k(0) is Jacobi's sum over all integers j of
        # (-1)^j q^(j(j+1)(2k+1)/2 - kj)
        theta = [0] * (order + 1)
        for j in range(-order - 1, order + 1):
            if (e := j * (j + 1) * (2 * k + 1) // 2 - k * j) <= order:
                theta[e] += -1 if j % 2 else 1
        numerator = [1] + [0] * order
        for e, sign in itertools.chain(_tail(k, 1, order), _tail(k, 0, order)):
            numerator[e] -= sign
        assert numerator == theta == built(_sparse(_theta(k, order), order)), order
        if k == 1:  # (q)_inf = theta_1, so Euler's recurrence divides it to 1
            assert _divide_by_euler(numerator) == [1] + [0] * order, order


def test_euler_divisions_match_kronecker_products():
    # truncation commutes with both sides, so one order-300 product checks
    # every lower order
    for k in range(1, 7):
        want = (inv_euler(300) * QSeries(built(_sparse(_theta(k, 300), 300)))).coeffs
        for T in range(301):
            assert schur_rhs(k, T).coeffs == want[: T + 1], (k, T)
    for k in (1, 2, 3):
        for m in (0, 1, 2):
            for r in (0, 1, 2, 5):
                for T in (0, 1, 2, 63, 64, 65, 129, 250):
                    sparse = [0] * (T + 1)
                    j = 1
                    while (e := j * r + j * (j - 1) // 2 + k * (j * m + j * j)) <= T:
                        sparse[e] += 1 if j % 2 else -1
                        j += 1
                    want = inv_euler(T) * QSeries(sparse, T)
                    closed_form = built(_over_euler(_tail(k, r + k * m, T), T))
                    assert closed_form == list(want.coeffs), (k, m, r, T)

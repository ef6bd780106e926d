import random
import time

import pytest

from durfee import (
    QSeries,
    durfee_square_widths,
    h_census_series,
    inv_euler,
    jacobi_specialization,
    multisum_lhs,
    p_table,
    partitions_of,
    pochhammer,
    q_table,
    rr_product,
    schur_rhs,
    verify_identity,
)
from durfee.errors import ImpracticalOrder, UnknownIdentity, UnsupportedRegion
from durfee.qseries import MAX_SERIES_COST, _first_mismatch, _levels_cost, _mul


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
    # every order up to 2000 stays accepted, whatever k
    assert _levels_cost(10**9, lambda j, v: v * v, 0, 0, 2000)[0] <= MAX_SERIES_COST


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
    with pytest.raises(ImpracticalOrder):  # the cap is order 630 for k = 1
        h_census_series(1, 0, 0, "le", 700)
    le = h_census_series(1, 0, 0, "le", 200)
    ge = h_census_series(1, 0, 1, "ge", 200)
    assert le.order == 200
    assert le.coeffs[200] + ge.coeffs[200] == p_table(200)[200]


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
    with pytest.raises(ValueError):
        verify_identity("schur", 10)  # k missing
    with pytest.raises(UnsupportedRegion):
        verify_identity("h_closed_form", 10, k=1, m=-1, r=1)
    with pytest.raises(UnsupportedRegion):
        verify_identity("h_closed_form", 10, k=1, m=1, r=0)
    with pytest.raises(ValueError):
        verify_identity("pentagonal", -1)


def test_first_mismatch_structure():
    a = QSeries([1, 2, 3], 2)
    b = QSeries([1, 5, 3], 2)
    assert _first_mismatch(a, b) == {"n": 1, "lhs": 2, "rhs": 5}
    assert _first_mismatch(a, a) is None

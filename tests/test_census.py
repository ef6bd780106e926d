import importlib
import itertools
import time

import pytest

from durfee import census, h_count, multisum_lhs, p_table, q_table
from durfee.census import rank_census
from durfee.errors import ImpracticalOrder
from durfee.qseries import _levels_cost, h_census_series
from durfee.selftest import _enumerated_census

census_module = importlib.import_module("durfee.census")  # durfee.census is the function
qseries_module = importlib.import_module("durfee.qseries")


def test_census_classic_ranks_n4():
    table = census(4, 1, 0)
    assert table.rows == {3: 1, 1: 1, 0: 1, -1: 1, -3: 1}
    assert table.total == 5


def test_census_empty_partition():
    table = census(0, 1, 1)
    assert table.rows == {0: 1}


def test_census_totals():
    t = census(10, 2, 0)
    assert t.total == p_table(10)[10] - q_table(1, 10)[10]
    for m in (1, 2):
        assert census(9, 2, m).total == p_table(9)[9]


def test_h_count_modes():
    assert h_count(4, 1, 0, 0, "le") == 3
    assert h_count(4, 1, 0, 1, "ge") == 2
    assert h_count(4, 1, 0, 0, "eq") == 1
    assert h_count(-1, 1, 0, 0, "le") == 0
    # ranks outside -n..n: a row slice must clamp, not wrap around
    for r in (-5, -6, -9, -10, -100):
        assert h_count(4, 1, 0, r, "le") == 0
        assert h_count(4, 1, 0, r, "ge") == 5
        assert h_count(4, 1, 0, r, "eq") == 0
    for r in (5, 6, 9, 100):
        assert h_count(4, 1, 0, r, "le") == 5
        assert h_count(4, 1, 0, r, "ge") == 0
        assert h_count(4, 1, 0, r, "eq") == 0
    with pytest.raises(ValueError):
        h_count(4, 1, 0, 0, "between")
    with pytest.raises(ValueError):  # mode is checked before the n < 0 shortcut
        h_count(-1, 1, 0, 0, "bogus")


def test_census_json_shape():
    doc = census(4, 1, 0).to_json_dict()
    assert doc["rows"] == {"-3": 1, "-1": 1, "0": 1, "1": 1, "3": 1}
    assert doc["total"] == 5


def test_rank_census_returns_fresh_counter():
    c = rank_census(4, 1, 0)
    c[3] += 10
    assert rank_census(4, 1, 0)[3] == 1
    assert census(4, 1, 0).total == 5


def test_negative_n_is_rejected_not_enumerated():
    with pytest.raises(ValueError):
        rank_census(-1, 1, 0)


def test_half_line_shift_fails_below_m0():
    # the collapsed half-line identity is false at m=-1: partitions whose
    # shifted rectangles have width 0 (here (3), counted on the right) have
    # no preimage, since that preimage would need a height-0 rectangle
    k, m, r, n = 1, -1, 1, 4
    lhs = h_count(n, k, m, -r, "le")
    rhs = h_count(n - r - k * (m + 1), k, m + 2, -r, "ge")
    assert lhs == 2
    assert rhs == 3
    assert lhs != rhs


@pytest.mark.parametrize(
    "n,k,m", [(26, 4, 3), (26, 4, -3), (25, 5, 3), (26, 5, -3), (24, 4, 0), (23, 5, 1)]
)
def test_engine_matches_enumeration_beyond_suite_range(n, k, m):
    # the census suite compares the engines for k <= 3 and m in -2..2
    assert rank_census(n, k, m) == _enumerated_census(n, k, m)


def test_census_n60_is_fast():
    # 966,467 partitions of 60: about 40 s by enumeration
    start = time.perf_counter()
    total = census(60, 2, 0).total
    elapsed = time.perf_counter() - start
    assert total == p_table(60)[60] - q_table(1, 60)[60]
    assert elapsed < 1.0, elapsed


def test_census_refuses_orders_past_the_cap():
    # enumeration would not finish; the engine refuses before computing
    t = time.perf_counter()
    with pytest.raises(ImpracticalOrder):
        census(5000, 1, 0)
    with pytest.raises(ImpracticalOrder):
        census(10**18, 1, 0)
    with pytest.raises(ImpracticalOrder):
        h_census_series(1, 0, 0, "le", 10**18)
    assert time.perf_counter() - t < 0.1


def test_census_cost_does_not_grow_with_k():
    # the levels stop once width 0 is the only one left
    t = time.perf_counter()
    assert census(200, 2000, 1).total == p_table(200)[200]
    assert time.perf_counter() - t < 1


def test_series_cache_hit_runs_no_cost_estimate(monkeypatch):
    estimates = []
    real = census_module._series_cost
    monkeypatch.setattr(
        census_module, "_series_cost", lambda *a: estimates.append(a) or real(*a)
    )
    census_module._rank_series.cache_clear()
    for n in range(1, 33):
        census(n, 2, 3)
        rank_census(n, 2, 3)
        h_count(n, 2, 3, 0, "le")
    assert estimates == [(2, 3, 32)]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_cost_estimates_count_every_addition(monkeypatch, k):
    count = [0]

    def add(a, b):
        count[0] += 1
        return a + b

    def accumulate(xs):
        xs = list(xs)
        count[0] += max(0, len(xs) - 1)
        return itertools.accumulate(xs)

    def q_table_uncounted(*args):  # the census self-check is not part of the series
        before = count[0]
        out = real_q_table(*args)
        count[0] = before
        return out

    real_q_table = census_module.q_table
    monkeypatch.setattr(qseries_module, "add", add)
    monkeypatch.setattr(qseries_module, "accumulate", accumulate)
    monkeypatch.setattr(census_module, "add", add)
    monkeypatch.setattr(census_module, "q_table", q_table_uncounted)
    def multisum_exponent(j, v):
        return v * v + (v if j >= k else 0)

    for order in (0, 1, 7, 40, 90):
        count[0] = 0
        multisum_lhs(k, None, order)
        assert count[0] == _levels_cost(k, multisum_exponent, 0, 0, order)[0]
        for m in range(-2, 3):
            count[0] = 0
            census_module._rank_series.__wrapped__(k, m, order)
            low = max(0, 1 - m)
            if k * low * (low + m) > order:  # no term: only the zero rows are built
                assert count[0] == 0
                count[0] = (order + 1) ** 2
            assert count[0] == census_module._series_cost(k, m, order), (m, order)

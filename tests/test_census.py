import time

import pytest

from durfee import census, h_count, p_table, q_table
from durfee.census import rank_census
from durfee.errors import ImpracticalOrder
from durfee.selftest import _enumerated_census


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
    with pytest.raises(ImpracticalOrder):
        census(5000, 1, 0)

import time

import pytest

from durfee import (
    Partition,
    decompose,
    dyson_rank,
    garvan_conjugate,
    garvan_rank,
    partitions_of,
    rank_km,
)
from durfee.errors import EmptyPartition, NoSuchDecomposition

P = Partition


def test_dyson_rank_examples():
    assert dyson_rank(P([4, 3, 3, 2, 2, 1])) == -2
    assert dyson_rank(P([7])) == 6
    assert dyson_rank(P([2, 2])) == 0
    with pytest.raises(EmptyPartition):
        dyson_rank(P([]))


def test_rank_km_empty_partition():
    st = rank_km(P([]), 2, 1)
    assert (st.a, st.b, st.r) == (0, 0, 0)
    assert st.widths == (0, 0)


def test_rank_km_requires_decomposition():
    with pytest.raises(NoSuchDecomposition):
        rank_km(P([1, 1]), 3, 0)


def test_rank_km_cost_does_not_grow_with_m():
    t = time.perf_counter()
    for m in (10**12, 4 * 10**6):
        st = rank_km(P([5, 4]), 3, m)
        assert (st.a, st.b, st.widths) == (5, 0, (0, 0, 0))
    assert time.perf_counter() - t < 0.1


def test_rank_km_vs_dyson_rank():
    # with one rectangle the statistic is the Dyson rank shifted by m only
    # while the rectangle stays inside the diagram (len >= m); a single row
    # under m=2 shows why the caveat is needed
    assert rank_km(P([4]), 1, 2).r == 4 != dyson_rank(P([4])) + 2


def test_selected_rows_stay_in_rectangles():
    from durfee.decomposition import decompose, profile
    from durfee.select_insert import PartitionSequence, select

    for n in range(13):
        for lam in partitions_of(n):
            for k in (1, 2, 3):
                for m in (-1, 0, 1):
                    try:
                        d = decompose(lam, k, m)
                    except NoSuchDecomposition:
                        continue
                    tr = select(PartitionSequence(d.sides, profile(d)))
                    n_k = d.widths[-1]
                    for j, w in zip(tr.rows, d.widths):
                        assert j <= 1 + w - n_k <= w + m


def test_garvan_rank_examples():
    st = garvan_rank(P([12, 10, 8, 7, 6, 5, 4, 3, 3, 3, 1, 1]), 2)
    assert (st.a, st.b, st.r) == (5, 4, 1)
    st1 = garvan_rank(P([5, 5, 4, 1]), 1)
    assert (st1.a, st1.b, st1.r) == (2, 1, 1)
    # a is read off two parts of lambda^1, so a huge part costs nothing
    t = time.perf_counter()
    st2 = garvan_rank(P([10**12]), 1)
    assert (st2.a, st2.b) == (10**12 - 1, 0)
    assert time.perf_counter() - t < 0.1


def test_garvan_rank_counts_short_columns():
    # oracle: the columns of lambda^1 themselves, by conjugation
    for n in range(15):
        for lam in partitions_of(n):
            for k in (1, 2, 3):
                try:
                    d = decompose(lam, k, 0)
                except NoSuchDecomposition:
                    continue
                short = sum(1 for h in d.sides[0].conjugate().parts if h <= d.widths[-1])
                assert garvan_rank(lam, k).a == short, (lam, k)


def test_garvan_rank_k1_equals_km():
    # all columns of the first side partition fit under the first square,
    # so the two statistics coincide at k=1
    for n in range(1, 15):
        for lam in partitions_of(n):
            assert garvan_rank(lam, 1) == rank_km(lam, 1, 0)


def test_garvan_conjugate_example():
    lam = P([12, 10, 8, 7, 6, 5, 4, 3, 3, 3, 1, 1])
    mu = P([11, 9, 9, 7, 6, 5, 4, 3, 3, 2, 2, 1, 1])
    assert garvan_conjugate(lam, 2) == mu
    assert garvan_conjugate(mu, 2) == lam


def test_garvan_conjugate_fixed_point():
    # nothing below the square and no short columns: the map does nothing
    assert garvan_conjugate(P([2, 2]), 1) == P([2, 2])

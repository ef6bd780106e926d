import time

import pytest

from durfee import (
    DurfeeDecomposition,
    Partition,
    compose,
    decompose,
    durfee_square_widths,
    partitions_of,
    profile,
)
from durfee.errors import ImpracticalOrder, InvalidDecomposition, NoSuchDecomposition
from durfee.partition import MAX_PARTS

P = Partition
BIG = P([7, 7, 6, 6, 5, 4, 3, 3, 3, 2, 1, 1, 1, 1, 1])


def test_decompose_empty_positive_m():
    d = decompose(P([]), 3, 1)
    assert d.widths == (0, 0, 0)
    assert all(not s for s in d.sides)
    assert not d.below


def test_decompose_missing_rectangle():
    with pytest.raises(NoSuchDecomposition):
        decompose(P([1]), 2, 0)
    with pytest.raises(NoSuchDecomposition):
        decompose(P([]), 1, 0)
    with pytest.raises(NoSuchDecomposition):
        decompose(P([2, 2]), 1, -2)


def test_compose_round_trip_example():
    d = decompose(BIG, 3, 0)
    assert compose(d) == BIG


def test_compose_trivial_zero_width():
    d = DurfeeDecomposition(1, 1, (0,), (P([]),), P([]))
    assert compose(d) == P([])


def test_compose_rejects_bad_input():
    with pytest.raises(InvalidDecomposition):
        # widths must be weakly decreasing
        compose(DurfeeDecomposition(0, 2, (2, 3), (P([]), P([])), P([])))
    with pytest.raises(InvalidDecomposition):
        # below-partition wider than the last rectangle
        compose(DurfeeDecomposition(0, 1, (2,), (P([]),), P([3])))
    with pytest.raises(InvalidDecomposition):
        # side partition too wide for its gap
        compose(DurfeeDecomposition(0, 2, (3, 2), (P([]), P([2, 1])), P([])))
    with pytest.raises(InvalidDecomposition):
        # side partition has too many parts
        compose(DurfeeDecomposition(0, 1, (2,), (P([1, 1, 1]),), P([])))
    with pytest.raises(InvalidDecomposition):
        # zero-width rectangle of non-positive height
        compose(DurfeeDecomposition(0, 1, (0,), (P([]),), P([])))


def test_compose_rejects_non_maximal_widths():
    # (4,4) decomposes greedily with first square 2, not 1
    with pytest.raises(InvalidDecomposition):
        compose(DurfeeDecomposition(0, 2, (1, 1), (P([3]), P([3])), P([])))


def test_round_trip_cost_does_not_grow_with_m():
    # rows past the last part lie in width-0 rectangles and are not walked
    t = time.perf_counter()
    for m in (10**12, 4 * 10**6):
        for lam in (P([5, 4, 4, 1]), P([]), BIG):
            d = decompose(lam, 3, m)
            assert d.widths == (0, 0, 0)
            assert compose(d) == lam
    # a positive width at a huge m asks for m + 1 rows: counted and refused, not built
    with pytest.raises(ImpracticalOrder):
        compose(DurfeeDecomposition(10**12, 1, (1,), (P([]),), P([])))
    # for m >= 1 every partition has k rectangles, so k past the parts budget
    # is refused before the first; for m <= 0 the partition runs out first
    with pytest.raises(ImpracticalOrder):
        decompose(P([5, 4]), MAX_PARTS + 1, 1)
    with pytest.raises(NoSuchDecomposition):
        decompose(P([5, 4]), 10**12, 0)
    assert time.perf_counter() - t < 0.1


def test_profile_examples():
    assert profile(decompose(BIG, 3, 0)) == (2, 1)
    d = DurfeeDecomposition(0, 3, (4, 4, 4), (P([]), P([]), P([])), P([]))
    assert profile(d) == (0, 0)
    assert profile(decompose(P([9, 8, 8, 6, 5, 4, 3, 2, 2, 2, 1, 1, 1, 1, 1]), 2, 0)) == (3,)


def test_matches_classical_squares():
    for n in range(15):
        for lam in partitions_of(n):
            squares = durfee_square_widths(lam)
            for k in range(1, len(squares) + 1):
                assert decompose(lam, k, 0).widths == squares[:k]


def test_json_round_trip():
    d = decompose(BIG, 3, 0)
    doc = d.to_json_dict()
    assert doc["widths"] == [5, 3, 2]
    assert DurfeeDecomposition.from_json_dict(doc) == d

import pytest
from hypothesis import given
from hypothesis import strategies as st

from durfee import (
    Partition,
    PartitionSequence,
    decompose,
    gen_conjugate,
    insert,
    iterate_remove,
    profile,
    remove_selected,
    select,
)
from durfee.errors import InsertionUnderflow

P = Partition


def seq(parts_lists, bounds):
    return PartitionSequence(tuple(P(x) for x in parts_lists), tuple(bounds))


def test_select_two_partitions():
    tr = select(seq([[4, 3, 3, 1], [2, 1]], [3]))
    assert tr.rows == (2, 1)
    assert tr.parts == (3, 2)
    assert tr.total == 5


def test_select_empty_sequence():
    tr = select(seq([[], []], [0]))
    assert tr.rows == (1, 1)
    assert tr.parts == (0, 0)
    assert tr.total == 0


def test_remove_selected_steps():
    tr, rest = remove_selected(seq([[4, 3, 3, 1], [2, 1]], [3]))
    assert tr.total == 5
    assert [p.parts for p in rest.partitions] == [(4, 3, 1), (1,)]
    tr2, rest2 = remove_selected(rest)
    assert tr2.total == 2
    assert [p.parts for p in rest2.partitions] == [(4, 3), ()]


def test_remove_selected_trivial():
    tr, rest = remove_selected(seq([[], []], [0]))
    assert tr.total == 0
    assert [p.parts for p in rest.partitions] == [(), ()]


def test_insert_examples():
    out = insert(3, seq([[4, 3], []], [3]))
    assert [p.parts for p in out.partitions] == [(4, 3, 2), (1,)]
    out = insert(8, seq([[4, 3, 2], [1]], [3]))
    assert [p.parts for p in out.partitions] == [(5, 4, 3, 2), (3, 1)]


def test_insert_huge_total():
    # the sides of the README's three-square partition, far beyond A
    lam = P([7, 7, 6, 6, 5, 4, 3, 3, 3, 2, 1, 1, 1, 1, 1])
    d = decompose(lam, 3, 0)
    s = PartitionSequence(d.sides, profile(d))
    a = select(s).total + 10**12
    assert select(insert(a, s)).total == a


def test_insert_underflow():
    with pytest.raises(InsertionUnderflow):
        insert(4, seq([[4, 3, 3, 1], [2, 1]], [3]))


def test_insert_negative_rejected():
    with pytest.raises(ValueError):
        insert(-1, seq([[], []], [0]))


def test_sequence_validation():
    with pytest.raises(ValueError):
        seq([[3], [4]], [3])  # second partition exceeds its bound
    with pytest.raises(ValueError):
        seq([[1]], [2])  # bounds length mismatch
    with pytest.raises(ValueError):
        PartitionSequence((), ())


def test_iterate_remove_totals():
    totals, rest = iterate_remove(seq([[4, 3, 3, 1], [2, 1]], [3]), 2)
    assert totals == (5, 2)
    assert [p.parts for p in rest.partitions] == [(4, 3), ()]
    totals0, same = iterate_remove(seq([[2, 1], []], [1]), 0)
    assert totals0 == ()
    assert same.partitions == (P([2, 1]), P([]))


def test_iterate_remove_matches_conjugation_columns():
    # stripping the sides of the 4-square worked example records exactly
    # the columns that end up below the squares of its conjugated image
    lam = P([9, 8, 8, 7, 7, 6, 5, 4, 4, 3, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1])
    d = decompose(lam, 4, 0)
    totals, _ = iterate_remove(PartitionSequence(d.sides, profile(d)), d.widths[-1])
    assert all(a >= b for a, b in zip(totals, totals[1:]))
    image = gen_conjugate(lam, 4)
    beta = decompose(image, 4, 0).below
    assert tuple(t for t in totals if t) == beta.conjugate().parts


def test_selection_total_alone_does_not_determine_insertion():
    # inserting 1 into ((),(1)) with bound 2: both ((1),(1)) and ((),(1,1))
    # select total 1, but removing the selection of ((1),(1)) leaves
    # ((1),()) rather than the original; only ((),(1,1)) inverts
    s = seq([[], [1]], [2])
    assert select(seq([[1], [1]], [2])).total == 1
    assert select(seq([[], [1, 1]], [2])).total == 1
    _, back = remove_selected(seq([[1], [1]], [2]))
    assert [p.parts for p in back.partitions] == [(1,), ()]
    out = insert(1, s)
    assert [p.parts for p in out.partitions] == [(), (1, 1)]


small_partition = st.lists(st.integers(1, 5), max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@given(
    st.lists(small_partition, min_size=1, max_size=3),
    st.lists(st.integers(0, 5), min_size=2, max_size=2),
    # insertion cost must not grow with the slack a - A
    st.one_of(st.integers(0, 6), st.integers(10**6, 10**12)),
)
def test_round_trip_random(parts_lists, raw_bounds, slack):
    k = len(parts_lists)
    bounds = []
    fixed = []
    for i, t in enumerate(parts_lists):
        if i == 0:
            fixed.append(t)
        else:
            cap = max(raw_bounds[(i - 1) % 2], t[0] if t else 0)
            bounds.append(cap)
            fixed.append(t)
    s = PartitionSequence(tuple(P(t) for t in fixed), tuple(bounds))
    a = select(s).total + slack
    tr, back = remove_selected(insert(a, s))
    assert tr.total == a
    assert back.partitions == s.partitions

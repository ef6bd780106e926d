import time
from collections import Counter
from itertools import product

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
    partitions_of,
    profile,
    remove_selected,
    select,
)
from durfee.errors import InsertionUnderflow, NoSuchDecomposition
from durfee.select_insert import _insert_raw, _placement, _select_raw
from durfee.selftest import _base_insert, _bounded_sequences, _unit_insert

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


def test_insert_huge_bounds_answers_at_once():
    # each new part comes from one binary search, so bounds of 10^12 cost
    # no more than small ones
    s = seq([[], [], []], [10**12, 10**12])
    t = time.perf_counter()
    out = insert(10**13, s)
    assert time.perf_counter() - t < 0.1
    tr, back = remove_selected(out)
    assert tr.total == 10**13
    assert back == s


def test_insert_large_total_is_fast_with_large_bounds():
    s = seq([[], [], []], [10**6, 10**6])
    t = time.perf_counter()
    out = insert(10**7 + 5, s)
    assert time.perf_counter() - t < 0.01
    assert select(out).total == 10**7 + 5


def test_placement_matches_unit_insertion():
    # every sequence of at most 4 partitions with total size <= 5 and
    # bounds <= 3, at every total from A to A + 11 and at A + 1000: the
    # placed parts are the ones the paper's unit insertion grows, and the
    # walk selects them, at row j + 1
    n = 0
    for k in range(1, 5):
        for bounds in product(range(4), repeat=k - 1):
            for seqs in _bounded_sequences(k, bounds, 5):
                rows, parts = _select_raw(seqs, bounds)
                total = sum(parts)
                unit, grown = _base_insert(seqs, rows, parts), total
                for a in [*range(total, total + 12), total + 1000]:
                    _unit_insert(unit, bounds, a - grown)
                    grown = a
                    placed = _placement(a, seqs, bounds)
                    assert _insert_raw(a, seqs, bounds) == list(map(tuple, unit)), (seqs, bounds, a)
                    assert _select_raw(unit, bounds) == (
                        [j + 1 for j, _ in placed], [v for _, v in placed]
                    ), (seqs, bounds, a)
                    n += 1
    assert n > 150000


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
    two = (P([2]), P([1]))
    # a float or bool bound would give insert non-int parts (3.5 from 1.5)
    for bound in (1.5, 2.0, True):
        with pytest.raises(TypeError, match=f"bound p_2 must be an int, got {bound!r}"):
            PartitionSequence(two, (bound,))
    with pytest.raises(TypeError, match=r"partition 1 must be a Partition, got \(2,\)"):
        PartitionSequence(((2,), (1,)), (1,))
    # list arguments are stored as tuples, so the sequence hashes
    listed = PartitionSequence(list(two), [1])
    assert (listed.partitions, listed.bounds) == (two, (1,))
    assert hash(listed) == hash(PartitionSequence(two, (1,)))
    assert insert(5, listed).part_tuples() == ((4, 2), (1, 1))


def test_iterate_remove_totals():
    totals, rest = iterate_remove(seq([[4, 3, 3, 1], [2, 1]], [3]), 2)
    assert totals == (5, 2)
    assert [p.parts for p in rest.partitions] == [(4, 3), ()]
    totals0, same = iterate_remove(seq([[2, 1], []], [1]), 0)
    assert totals0 == ()
    assert same.partitions == (P([2, 1]), P([]))


def test_iterate_remove_stops_at_the_first_zero_total():
    # past the first zero total every selected row is virtual, so the walks stop
    # and nu holds the nonzero totals only: any t answers at once
    s = seq([[4, 3, 3, 1], [2, 1]], [3])
    for t in (10**6, 10**12, 10**18):
        t0 = time.perf_counter()
        nu, rest = iterate_remove(s, t)
        assert time.perf_counter() - t0 < 0.1
        assert nu == (5, 2)
        assert rest == seq([[4, 3], []], [3])


def test_iterate_remove_matches_unit_removals():
    # one remove_selected per step gives the same residue, and its nonzero
    # totals are nu, on the sides of every decomposition generalized conjugation strips
    for n in range(23):
        for lam in partitions_of(n):
            for k in range(1, 5):
                try:
                    d = decompose(lam, k, 0)
                except NoSuchDecomposition:
                    break
                start = PartitionSequence(d.sides, profile(d))
                totals, rest = [], start
                for _ in range(d.widths[-1] + 2):
                    trace, rest = remove_selected(rest)
                    totals.append(trace.total)
                nu = tuple(t for t in totals if t)
                assert iterate_remove(start, len(totals)) == (nu, rest)


def test_iterate_remove_matches_unit_removals_on_bounded_sequences():
    # the one-pass-per-level removal against one remove_selected per step,
    # on every sequence of at most 4 partitions with total size <= 5 and
    # bounds <= 3, for every t up to one past the number of parts
    for k in range(1, 5):
        for bounds in product(range(4), repeat=k - 1):
            for seqs in _bounded_sequences(k, bounds, 5):
                rest = seq(seqs, bounds)
                totals = []
                for t in range(sum(map(len, seqs)) + 2):
                    assert iterate_remove(seq(seqs, bounds), t) == (
                        tuple(x for x in totals if x), rest
                    ), (seqs, bounds, t)
                    trace, rest = remove_selected(rest)
                    totals.append(trace.total)


def test_iterate_remove_matches_conjugation_columns():
    # stripping the sides of the 4-square worked example records exactly
    # the columns that end up below the squares of its conjugated image
    lam = P([9, 8, 8, 7, 7, 6, 5, 4, 4, 3, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1])
    d = decompose(lam, 4, 0)
    nu, _ = iterate_remove(PartitionSequence(d.sides, profile(d)), d.widths[-1])
    assert all(a >= b for a, b in zip(nu, nu[1:]))
    image = gen_conjugate(lam, 4)
    beta = decompose(image, 4, 0).below
    assert nu == beta.conjugate().parts


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


@st.composite
def huge_bound_sequences(draw):
    k = draw(st.integers(1, 4))
    bounds = draw(st.lists(st.integers(10**6, 10**12), min_size=k - 1, max_size=k - 1))
    caps = [10**12, *bounds]
    parts = [
        tuple(sorted(draw(st.lists(st.integers(1, cap), max_size=5)), reverse=True))
        for cap in caps
    ]
    return PartitionSequence(tuple(P(t) for t in parts), tuple(bounds))


@given(huge_bound_sequences(), st.integers(0, 10**13))
def test_round_trip_huge_bounds(s, slack):
    # one part, possibly of size 0, added to each partition, with total a;
    # removing the selection gives the input back
    a = select(s).total + slack
    out = insert(a, s)
    added = 0
    for before, after in zip(s.partitions, out.partitions):
        new = Counter(after.parts) - Counter(before.parts)
        assert sum(new.values()) == len(after) - len(before) <= 1
        added += sum(new.elements())
    assert added == a
    tr, back = remove_selected(out)
    assert tr.total == a
    assert back == s

import re
import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from durfee import (
    Partition,
    PartitionSequence,
    durfee_square_widths,
    dyson_map,
    enumerate_partitions,
    garvan_conjugate,
    garvan_rank,
    gen_conjugate,
    gen_dyson,
    gen_dyson_inverse,
    insert,
    inv_euler,
    iterate_remove,
    p_table,
    partitions_of,
    q_table,
    rank_km,
)
from durfee.decomposition import decompose
from durfee.errors import EmptyPartition, ImpracticalOrder, NoSuchDecomposition
from durfee import partition
from durfee.partition import MAX_PARTS

partitions = st.lists(st.integers(1, 12), max_size=10).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def conjugate_by_cells(parts):
    """Oracle: reflect the set of diagram cells across the main diagonal."""
    cells = {(i, j) for i, row in enumerate(parts) for j in range(row)}
    flipped = {(j, i) for i, j in cells}
    rows = []
    i = 0
    while any(a == i for a, _ in flipped):
        rows.append(sum(1 for a, _ in flipped if a == i))
        i += 1
    return tuple(rows)


def test_size_examples():
    assert Partition([5, 5, 4, 1]).size == 15
    assert Partition([]).size == 0
    big = Partition([7, 7, 6, 6, 5, 4, 3, 3, 3, 2, 1, 1, 1, 1, 1])
    assert big.size == sum(big.parts) == 51


def test_constructor_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition([3, 4])
    with pytest.raises(ValueError):
        Partition([2, 0])
    with pytest.raises(ValueError):
        Partition([-1])
    # the first offending part is named, as it was by the part-by-part loop
    with pytest.raises(ValueError, match="positive, got 0"):
        Partition([3, 0, -1])
    with pytest.raises(ValueError, match="weakly decreasing"):
        Partition([1, 2, 0])


def test_constructor_rejects_non_integer_parts():
    # a float used to be truncated and a bool or digit string read as an int
    for bad in ([2.5, 1], [True], ["3"], [3, 2, 1.0], [2, False]):
        with pytest.raises(TypeError, match="exact integers"):
            Partition(bad)
    with pytest.raises(TypeError):
        Partition("321")
    assert Partition((4, 4, 2)).parts == (4, 4, 2)
    assert Partition(iter([3, 1])).parts == (3, 1)

    class Count(int):
        pass

    # an int subclass other than bool is accepted and stored as a plain int
    assert [type(x) for x in Partition([Count(2), 1]).parts] == [int, int]


def test_conjugate_examples():
    assert Partition([5, 5, 4, 1]).conjugate() == Partition([4, 3, 3, 3, 2])
    assert Partition([]).conjugate() == Partition([])
    assert Partition([3, 1]).conjugate() == Partition([2, 1, 1])
    # the conjugate has as many parts as the largest part: too many are refused at once
    t = time.perf_counter()
    for big in (MAX_PARTS + 1, 10**12):
        with pytest.raises(ImpracticalOrder):
            Partition([big]).conjugate()
    assert time.perf_counter() - t < 0.1


def test_conjugate_matches_cell_oracle():
    for n in range(11):
        for lam in partitions_of(n):
            assert lam.conjugate().parts == conjugate_by_cells(lam.parts)


@given(partitions)
def test_conjugate_involution(lam):
    assert lam.conjugate().conjugate() == lam


@given(partitions)
def test_conjugate_size_and_shape(lam):
    c = lam.conjugate()
    assert c.size == lam.size
    assert c.largest == len(lam)
    assert len(c) == lam.largest


def test_part_beyond_length_is_zero():
    lam = Partition([5, 5, 4, 1])
    assert lam.part(3) == 4
    assert lam.part(9) == 0
    assert Partition([]).part(1) == 0
    with pytest.raises(ValueError):
        lam.part(0)


def test_smallest_of_empty_raises():
    with pytest.raises(EmptyPartition):
        Partition([]).smallest


def test_enumerate_small_order():
    got = [p.parts for p in enumerate_partitions(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [p.parts for p in enumerate_partitions(0)] == [()]
    assert len(list(enumerate_partitions(5))) == 7


def test_enumerate_is_lazy():
    # the first partition comes at once
    t = time.perf_counter()
    assert next(enumerate_partitions(200)).parts == (200,)
    assert time.perf_counter() - t < 0.1


def test_partitions_of_refuses_past_the_parts_budget(monkeypatch):
    # priced by p(n) before any partition is built: p(60) = 966467 fits the
    # budget and p(61) = 1121505 does not, pinned here without building
    # partitions_of(60); a huge n is priced off a small table
    pt = p_table(61)
    assert pt[60] <= MAX_PARTS < pt[61]
    monkeypatch.setattr(partition, "_iter_partition_tuples", lambda n: iter(()))
    assert partitions_of(60) == ()
    with pytest.raises(ImpracticalOrder, match=r"^partitions_of\(61\) would have 1121505 partitions "):
        partitions_of(61)
    t = time.perf_counter()
    for n in (62, 10**12, 10**18):
        with pytest.raises(ImpracticalOrder, match=rf"^partitions_of\({n}\) would have"):
            partitions_of(n)
    assert time.perf_counter() - t < 0.1


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        partitions_of(-1)
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))


LAM = Partition([5, 5, 4, 1])
SEQ = PartitionSequence((Partition([3, 1]), Partition([2])), (2,))


@pytest.mark.parametrize("call, bad_calls", [
    (enumerate_partitions, [((3.0,), "n must be an int, got 3.0"),
                            ((True,), "n must be an int, got True")]),
    (partitions_of, [((True,), "n must be an int, got True"),
                     (("4",), "n must be an int, got '4'")]),
    (dyson_map, [((LAM, 1.0), "r must be an int, got 1.0"),
                 ((LAM, False), "r must be an int, got False")]),
    (decompose, [((LAM, True, 0), "k must be an int, got True"),
                 ((LAM, 1, 0.0), "m must be an int, got 0.0")]),
    (rank_km, [((LAM, True, 1), "k must be an int, got True"),
               ((LAM, 2, None), "m must be an int, got None")]),
    (garvan_rank, [((LAM, True), "k must be an int, got True"),
                   ((LAM, 1.0), "k must be an int, got 1.0")]),
    (garvan_conjugate, [((LAM, True), "k must be an int, got True")]),
    (gen_conjugate, [((LAM, 1.0), "k must be an int, got 1.0")]),
    (gen_dyson, [((LAM, 1, 0, 0.0), "r must be an int, got 0.0"),
                 ((LAM, True, 0, 0), "k must be an int, got True")]),
    (gen_dyson_inverse, [((LAM, 1, True, 0), "m must be an int, got True"),
                         ((LAM, 1, 0, 1.0), "r must be an int, got 1.0")]),
    (insert, [((7.0, SEQ), "a must be an int, got 7.0")]),
    (iterate_remove, [((SEQ, True), "t must be an int, got True")]),
], ids=lambda v: getattr(v, "__name__", ""))
def test_non_int_argument_is_type_error(call, bad_calls):
    # a bool or a float is named, not read as a number, so no Partition gets
    # a part that is not an int
    for args, message in bad_calls:
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call(*args)


def test_enumerate_is_reverse_lexicographic_and_complete():
    for n in range(11):
        seen = [p.parts for p in enumerate_partitions(n)]
        assert seen == sorted(seen, reverse=True)
        assert len(set(seen)) == len(seen)
        assert all(sum(t) == n for t in seen)
        for t in seen:
            assert all(a >= b for a, b in zip(t, t[1:]))


def test_p_table_examples():
    assert p_table(5) == [1, 1, 2, 3, 5, 7]
    assert p_table(0) == [1]
    assert p_table(10)[10] == 42


@pytest.fixture
def p_values():
    # the shared p table starts at p(0) alone, and a table near the cap (about 10 MB) is not kept
    del partition._p_values[1:]
    yield partition._p_values
    del partition._p_values[1:]


def coin_change_p(N):
    """Oracle: p(0..N) by counting partitions into parts 1..N, one part size at a time."""
    p = [1] + [0] * N
    for part in range(1, N + 1):
        for n in range(part, N + 1):
            p[n] += p[n - part]
    return p


def test_p_table_grows_from_its_end(p_values):
    # each call past the end divides only the missing tail, from a start off the 64-block edges
    want = coin_change_p(2000)
    for N, held in ((10, 11), (500, 501), (64, 501), (2000, 2001)):
        assert p_table(N) == want[: N + 1], N
        assert inv_euler(N).coeffs == tuple(want[: N + 1]), N
        assert p_values == want[:held], N


def test_p_table_grown_from_threads_at_once(p_values):
    # four threads grow the table past each other's ends; a lost or doubled tail would show
    want = coin_change_p(1500)
    orders = [range(t, 1501, 37) for t in (3, 11, 19, 29)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda ns=ns: [p_table(N) for N in ns]) for ns in orders]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert p_values == want[:1500]  # the highest order asked for is 1499


def test_p_table_returns_a_fresh_copy(p_values):
    pt = p_table(20)
    pt[5] = -1
    del pt[:3]
    pt.append(0)
    assert p_table(20) == coin_change_p(20)
    assert p_table(30) == coin_change_p(30)


def test_p_table_refusals_do_not_depend_on_the_table(p_values):
    # every call is priced as the full division, so a warm table at the cap changes no refusal
    def refusals():
        texts = []
        for call in (p_table, inv_euler):
            with pytest.raises(ImpracticalOrder) as e:
                call(69785)
            texts.append(str(e.value))
        return texts

    cold = refusals()
    assert cold == [f"{what} 69785 needs at least 20000160 coefficient additions (cap 20000000); refusing"
                    for what in ("p_table to", "inv_euler to order")]
    assert len(p_values) == 1
    assert len(p_table(69784)) == len(p_values) == 69785
    assert refusals() == cold
    assert len(p_values) == 69785


def test_q_table_small_values():
    # at most one Durfee square means nothing sits below the first square:
    # of the partitions of 4 only (4) and (2,2) qualify
    assert q_table(1, 4) == [1, 1, 1, 1, 2]
    assert q_table(1, 0) == [1]
    assert q_table(0, 3) == [1, 0, 0, 0]


def test_q_table_matches_rectangle_decomposition():
    # independent route: a partition has more than k squares exactly when
    # the general decomposition finds a (k+1)-th one
    for n in range(13):
        pt = len(partitions_of(n))
        for k in range(1, 4):
            count = 0
            for lam in partitions_of(n):
                try:
                    decompose(lam, k + 1, 0)
                except NoSuchDecomposition:
                    count += 1
            assert q_table(k, n)[n] == count
            assert q_table(k, n)[n] <= pt


def test_q_table_monotone_and_saturates():
    pt = p_table(12)
    for n in range(13):
        prev = 0
        for k in range(0, n + 2):
            qk = q_table(k, n)[n]
            assert qk >= prev
            prev = qk
        assert q_table(n, n)[n] == pt[n]


def test_durfee_square_widths_examples():
    widths = durfee_square_widths(Partition([7, 7, 6, 6, 5, 4, 3, 3, 3, 2, 1, 1, 1, 1, 1]))
    assert widths[:3] == (5, 3, 2)
    assert widths == (5, 3, 2) + (1,) * 5  # trailing unit rows give 1x1 squares
    assert durfee_square_widths(Partition([])) == ()
    assert durfee_square_widths(Partition([1, 1, 1])) == (1, 1, 1)


def test_text_form():
    assert Partition([5, 5, 4, 1]).text() == "5,5,4,1"
    assert Partition([]).text() == "-"
    assert Partition.from_text("5,5,4,1") == Partition([5, 5, 4, 1])
    assert Partition.from_text("-") == Partition([])
    assert Partition.from_text(" 3,1 ") == Partition([3, 1])
    with pytest.raises(ValueError):
        Partition.from_text("3,x")
    with pytest.raises(ValueError):
        Partition.from_text("1,3")


@given(partitions)
def test_text_round_trip(lam):
    assert Partition.from_text(lam.text()) == lam

import itertools
import sys
import threading
import time

import pytest

import durfee.qseries as qseries_module
from durfee import census, h_count, multisum_lhs, p_table, partition, q_table
from durfee.errors import ImpracticalOrder, InternalInvariantViolation
from durfee.qseries import MAX_SERIES_COST, _levels_plan, h_census_series, rank_census
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
    for n in (-1, 0, 3):  # and so is k, whatever n is
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be positive"):
                h_count(n, k, 0, 0, "le")


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


def test_census_matches_dyson_rank_counts():
    # Atkin and Swinnerton-Dyer: sum_n N(r, n) q^n = (1/(q)_inf) sum_{j >= 1}
    # (-1)^(j-1) q^(j(3j-1)/2 + |r| j) (1 - q^j), an oracle independent of
    # the engine.  At n = 600 the counts pass one 64-bit word.
    p = p_table(600)

    def dyson_count(r, n):
        total, j = 0, 1
        while (e := j * (3 * j - 1) // 2 + abs(r) * j) <= n:
            total += (-1) ** (j - 1) * (p[n - e] - (p[n - e - j] if e + j <= n else 0))
            j += 1
        return total

    for n in (1, 2, 5, 10, 50, 200, 300, 600):
        want = {r: c for r in range(-n, n + 1) if (c := dyson_count(r, n))}
        assert census(n, 1, 0).rows == want, n
        # k = 1: the (1,1)-rank is the Dyson rank plus one
        assert census(n, 1, 1).rows == {r + 1: c for r, c in want.items()}, n
    assert max(want.values()).bit_length() == 73


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
    # the exact count puts the caps here; pricing alone builds no series
    for k, m, order in ((1, 0, 644), (3, 0, 793)):
        assert max(qseries_module._series_plan(k, m, order)[0]) <= MAX_SERIES_COST
        assert max(qseries_module._series_plan(k, m, order + 1)[0]) > MAX_SERIES_COST


def test_census_cost_does_not_grow_with_k():
    # the levels stop once width 0 is the only one left
    t = time.perf_counter()
    assert census(200, 2000, 1).total == p_table(200)[200]
    assert time.perf_counter() - t < 1


@pytest.fixture
def tables():
    # the census tables start empty, and a near-cap table (about 24 MB) is not kept
    qseries_module._tables.clear()
    yield qseries_module._tables
    qseries_module._tables.clear()


@pytest.fixture
def builds(monkeypatch):
    # the order of every rank series built, by the run every build goes through
    orders = []
    real = qseries_module._rank_rows
    monkeypatch.setattr(qseries_module, "_rank_rows", lambda *a: orders.append(a[2]) or real(*a))
    return orders


@pytest.fixture
def estimates(monkeypatch):
    # the arguments of every cost estimate, from here on
    calls = []
    real = qseries_module._series_plan
    monkeypatch.setattr(qseries_module, "_series_plan", lambda *a: calls.append(a) or real(*a))
    return calls


def test_series_cache_hit_runs_no_cost_estimate(tables, estimates):
    for n in range(1, 33):
        census(n, 2, 3)
        rank_census(n, 2, 3)
        h_count(n, 2, 3, 0, "le")
    assert estimates == [(2, 3, 32)]


def test_near_cap_sweep_builds_one_series(tables, builds):
    # padded to 800 these orders pass the cap (793 at k = 3): each n reads the
    # widest order that fits, not a series of its own
    t = time.perf_counter()
    for n in range(769, 794):
        census(n, 3, 0)
    assert time.perf_counter() - t < 1
    assert builds == [793]
    assert len(tables) == 1
    # one past the cap, order n itself is refused
    with pytest.raises(ImpracticalOrder, match=(
            r"^rank series k=3 m=0 to order 794 needs at least 20022011"
            r" coefficient additions \(cap 20000000\); refusing$")):
        census(794, 3, 0)
    assert tables == {}  # the narrower table was dropped before the refused build


def test_census_tables_share_one_p_table(tables, monkeypatch):
    # 30 tables, at orders 32 and 64, grow the process's p table twice, not once per table
    del partition._p_values[1:]
    grown = []
    real = partition._divide_by_euler
    monkeypatch.setattr(partition, "_divide_by_euler",
                        lambda cs, start=0: grown.append(len(cs) - 1) or real(cs, start))
    for n in range(4, 41):
        for k in (1, 2, 3):
            for m in range(-2, 3):
                census(n, k, m)
    assert grown == [32, 64]
    assert len(tables) == 15


def test_census_readers_from_threads_at_once(tables):
    # 40 pairs cycle through the 32 kept tables, so nearly every call builds one and evicts
    # another while the other threads do the same; each reader must still read its own rows
    pairs = [(k, m) for k in range(1, 9) for m in range(-2, 3)]
    readers = (lambda k, m: census(3, k, m).rows, lambda k, m: rank_census(3, k, m),
               lambda k, m: h_count(3, k, m, 0, "le"))
    want = [{p: read(*p) for p in pairs} for read in readers]
    errors = []

    def run(t):
        try:
            for i in range(300):
                p = pairs[(i + 10 * t) % len(pairs)]
                assert readers[i % 3](*p) == want[i % 3][p], p
        except Exception as e:  # a thread's traceback would not fail the test
            errors.append(repr(e))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            tables.clear()
            threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert errors == []
    assert len(tables) <= 32


@pytest.mark.parametrize("order, width", [(10, 64), (500, 128)])
def test_packed_row_overflow_names_the_row(monkeypatch, order, width):
    # a bit at the bottom of the slot above row n's top slot is an overflow; one at the top of
    # its top slot is not, but it breaks the row's total.  From n = 417 on, p(n) passes 64 bits.
    assert (p_table(order)[order].bit_length() > 64) == (width == 128)
    n = order - 3
    real = qseries_module._shift_add_rows
    for bit, error in ((width * (2 * n + 1), rf"packed census row n={n} overflows its {2 * n + 1}"
                        rf" slots of {width} bits for k=1, m=1"),
                       (width * (2 * n + 1) - 1, rf"census total \d+ != expected \d+ for n={n}, k=1, m=1")):
        def shift_add_rows(rows, s, shift, bit=bit):
            real(rows, s, shift)
            rows[n] |= 1 << bit

        monkeypatch.setattr(qseries_module, "_shift_add_rows", shift_add_rows)
        with pytest.raises(InternalInvariantViolation, match=f"^{error}$"):
            qseries_module._rank_series(1, 1, order)


@pytest.mark.parametrize("k, cap", [(1, 644), (3, 793)])
def test_sweep_to_the_cap_keeps_one_table(tables, builds, k, cap):
    # one build per step of 32 and one at the cap, each replacing the last
    for n in range(cap + 1):
        census(n, k, 0)
    assert builds == [*range(32, cap, 32), cap]
    assert list(tables) == [(k, 0)]
    assert tables[k, 0] == qseries_module._rank_series(k, 0, cap)


def test_warm_near_cap_call_runs_no_plan(tables, estimates):
    for n in range(769, 794):
        census(n, 3, 0)
    assert estimates  # the cold pass prices the padded order and bisects
    estimates.clear()
    for n in range(769, 794):
        census(n, 3, 0)
    assert estimates == []


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

    def shift_add_rows(rows, s, shift):
        # one big-integer shift-add per row n >= s moves the 2(n - s) + 1
        # rank cells of packed row n - s
        count[0] += sum(2 * (n - s) + 1 for n in range(s, len(rows)))
        real_shift_add_rows(rows, s, shift)

    real_q_table = qseries_module.q_table
    real_shift_add_rows = qseries_module._shift_add_rows
    monkeypatch.setattr(qseries_module, "add", add)
    monkeypatch.setattr(qseries_module, "accumulate", accumulate)
    monkeypatch.setattr(qseries_module, "_shift_add_rows", shift_add_rows)
    monkeypatch.setattr(qseries_module, "q_table", q_table_uncounted)
    for order in (0, 1, 7, 40, 90):
        for a in range(1, k + 1):  # a = k is the unshifted multisum
            count[0] = 0
            multisum_lhs(k, a, order)

            def exponent(j, v):
                return v * v + (v if j >= a else 0)

            assert count[0] == _levels_plan(k, exponent, 0, 0, order)[1], (a, order)
        for m in range(-2, 3):
            count[0] = 0
            qseries_module._rank_series(k, m, order)
            # with no term, only the zero rows are built: cells, no additions
            assert count[0] == qseries_module._series_plan(k, m, order)[0][1], (m, order)

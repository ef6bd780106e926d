"""Every public callable at the extremes the CLI fuzz draws answers at once.

Each call must return, or raise DurfeeError, ValueError or TypeError, in
under 0.1 s: no input at the library boundary may hang or build an output
without bound.
"""

import signal
import time

import pytest

import durfee
from durfee import (
    IDENTITIES,
    CensusTable,
    DurfeeDecomposition,
    Partition,
    PartitionSequence,
    QSeries,
    RankStats,
    SelectionTrace,
    VerificationReport,
    census,
    compose,
    decompose,
    durfee_square_widths,
    dyson_map,
    dyson_rank,
    enumerate_partitions,
    garvan_conjugate,
    garvan_rank,
    gen_conjugate,
    gen_dyson,
    gen_dyson_inverse,
    h_census_series,
    h_count,
    insert,
    inv_euler,
    iterate_remove,
    jacobi_specialization,
    multisum_lhs,
    p_table,
    partitions_of,
    pochhammer,
    profile,
    q_table,
    rank_census,
    rank_km,
    remove_selected,
    rr_product,
    schur_rhs,
    select,
    verify_identity,
)
from durfee.errors import DurfeeError

# the CLI fuzz's extremes: k = 10^5 and 10^12, m, r and parts up to 10^12,
# census n up to 10^18, verify order 10^8.  At m >= 1 a k of 10^5 is an
# accepted output of 10^5 widths, under the parts budget: the decomposition
# stops at its last row and fills the empty rectangles in one step, so both
# sides of the budget are timed, k = 10^5 (the last cases) and k = 10^12
KMAX, BIG, HUGE = 10**5, 10**12, 10**18
LAM = Partition([5, 4])
WIDE = Partition([BIG, 1])
SEQ = PartitionSequence((Partition([3, 1]), Partition([2])), (2,))
WIDE_SEQ = PartitionSequence((WIDE, Partition([BIG])), (BIG,))
EMPTY = Partition([])


def case(call, *args, **kwargs):
    return call, args, kwargs


CALLS = [
    case(CensusTable, HUGE, BIG, -BIG, {}),
    case(DurfeeDecomposition, BIG, BIG, (BIG,), (WIDE,), WIDE),
    case(Partition, [BIG, BIG, 1]),
    case(PartitionSequence, (WIDE, Partition([BIG])), (BIG,)),
    case(QSeries, [1], BIG),
    case(QSeries, [1], HUGE),
    case(QSeries, [BIG]),
    case(RankStats, BIG, BIG, 0, (BIG,)),
    case(SelectionTrace, (1,), (BIG,), BIG),
    case(VerificationReport, "rr", {"k": BIG}, HUGE, True, None),
    case(census, HUGE, KMAX, BIG),
    case(census, HUGE, 1, -BIG),
    case(census, 40, KMAX, BIG),
    case(census, HUGE, 1, 0),
    case(compose, DurfeeDecomposition(BIG, 1, (1,), (EMPTY,), EMPTY)),
    case(compose, DurfeeDecomposition(1, 1, (BIG,), (EMPTY,), EMPTY)),
    case(compose, DurfeeDecomposition(-BIG, 1, (1,), (EMPTY,), EMPTY)),
    case(decompose, LAM, BIG, 1),
    case(decompose, LAM, BIG, BIG),
    case(decompose, LAM, KMAX, -BIG),
    case(decompose, LAM, BIG, 0),
    case(decompose, WIDE, 1, 0),
    case(decompose, WIDE, 1, BIG),
    case(durfee_square_widths, WIDE),
    case(dyson_map, LAM, BIG),
    case(dyson_map, LAM, -BIG),
    case(dyson_map, WIDE, BIG),
    case(dyson_rank, WIDE),
    case(enumerate_partitions, HUGE),
    case(garvan_conjugate, WIDE, 1),
    case(garvan_conjugate, LAM, KMAX),
    case(garvan_conjugate, LAM, BIG),
    case(garvan_rank, WIDE, 1),
    case(garvan_rank, LAM, KMAX),
    case(garvan_rank, LAM, BIG),
    case(gen_conjugate, WIDE, 1),
    case(gen_conjugate, LAM, KMAX),
    case(gen_conjugate, LAM, BIG),
    case(gen_dyson, LAM, BIG, 1, 0),
    case(gen_dyson, LAM, BIG, BIG, -BIG),
    case(gen_dyson, LAM, 1, 0, -BIG),
    case(gen_dyson, WIDE, 1, 0, -BIG),
    case(gen_dyson, LAM, 1, -BIG, -BIG),
    case(gen_dyson_inverse, LAM, BIG, 1, 0),
    case(gen_dyson_inverse, LAM, BIG, BIG, BIG),
    case(gen_dyson_inverse, LAM, 1, -BIG, -BIG),
    case(gen_dyson_inverse, LAM, 1, 0, BIG),
    case(gen_dyson_inverse, LAM, 1, BIG, 0),
    case(gen_dyson_inverse, WIDE, 1, 0, BIG),
    case(h_census_series, 1, 0, 1, "le", HUGE),
    case(h_census_series, KMAX, BIG, -BIG, "ge", HUGE),
    case(h_census_series, BIG, BIG, BIG, "le", 40),
    case(h_count, HUGE, 1, 0, 0, "le"),
    case(h_count, 40, KMAX, BIG, BIG, "ge"),
    case(h_count, HUGE, BIG, -BIG, -BIG, "eq"),
    case(h_count, -HUGE, BIG, BIG, BIG, "le"),
    case(insert, BIG, SEQ),
    case(insert, HUGE, WIDE_SEQ),
    case(inv_euler, BIG),
    case(inv_euler, HUGE),
    case(iterate_remove, SEQ, 10**6),
    case(iterate_remove, SEQ, BIG),
    case(iterate_remove, SEQ, HUGE),
    case(iterate_remove, WIDE_SEQ, BIG),
    case(jacobi_specialization, 1, HUGE),
    case(jacobi_specialization, BIG, HUGE),
    case(jacobi_specialization, BIG, 40),
    case(multisum_lhs, KMAX, None, 10**8),
    case(multisum_lhs, BIG, 8, HUGE),
    case(multisum_lhs, BIG, None, 40),
    case(p_table, BIG),
    case(p_table, HUGE),
    case(partitions_of, 61),
    case(partitions_of, BIG),
    case(partitions_of, HUGE),
    case(pochhammer, None, HUGE),
    case(pochhammer, BIG, HUGE),
    case(pochhammer, BIG, 40),
    case(profile, DurfeeDecomposition(0, 2, (BIG, 1), (EMPTY, WIDE), EMPTY)),
    case(q_table, BIG, HUGE),
    case(q_table, HUGE, 40),
    case(q_table, 0, HUGE),
    case(rank_census, HUGE, KMAX, BIG),
    case(rank_census, 40, KMAX, BIG),
    case(rank_km, LAM, BIG, 1),
    case(rank_km, LAM, BIG, BIG),
    case(rank_km, LAM, KMAX, -BIG),
    case(rank_km, WIDE, 1, 0),
    case(rank_km, WIDE, 1, BIG),
    case(remove_selected, WIDE_SEQ),
    case(rr_product, BIG, 1, HUGE),
    case(rr_product, BIG, BIG, 40),
    case(rr_product, 1, 1, HUGE),
    case(schur_rhs, BIG, HUGE),
    case(schur_rhs, BIG, 40),
    case(select, WIDE_SEQ),
    *(case(verify_identity, name, 10**8, k=KMAX, a=8, m=BIG, r=-BIG) for name in IDENTITIES),
    *(case(verify_identity, name, HUGE, k=BIG, a=1, m=1, r=1) for name in IDENTITIES),
    case(verify_identity, "h_closed_form", 40, k=KMAX, m=BIG, r=BIG),
    # the accepted side of the m >= 1 budget, after the rest so their ids stay put
    case(decompose, LAM, KMAX, 1),
    case(rank_km, LAM, KMAX, 1),
    # insertion into three partitions under bounds of 10^12, answered
    case(insert, 10 * BIG, PartitionSequence((EMPTY,) * 3, (BIG, BIG))),
    # sequences whose bounds or members are not ints or Partitions, and list arguments
    case(PartitionSequence, (WIDE, Partition([BIG])), (float(BIG),)),
    case(PartitionSequence, (WIDE, Partition([BIG])), (True,)),
    case(PartitionSequence, ((BIG, 1), (BIG,)), (BIG,)),
    case(PartitionSequence, [WIDE, Partition([BIG])], [BIG]),
]


def test_table_covers_every_public_callable():
    public = {name for name in durfee.__all__ if callable(getattr(durfee, name))}
    assert {call.__name__ for call, _, _ in CALLS} == public


def _expire(signum, frame):
    raise TimeoutError("still running after 1 s")


@pytest.mark.parametrize("call, args, kwargs", CALLS,
                         ids=[f"{call.__name__}-{i}" for i, (call, _, _) in enumerate(CALLS)])
def test_public_call_answers_at_once(call, args, kwargs):
    # an alarm cuts a hang after 1 s, so it fails here instead of stalling the suite
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    t = time.perf_counter()
    try:
        call(*args, **kwargs)
    except (DurfeeError, ValueError, TypeError, TimeoutError):
        pass  # a cut hang shows in the elapsed time
    finally:
        elapsed = time.perf_counter() - t
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 0.1, elapsed

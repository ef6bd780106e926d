import random
import time
from itertools import product
from operator import lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from durfee import (
    DurfeeDecomposition,
    Partition,
    compose,
    decompose,
    durfee_square_widths,
    partitions_of,
    profile,
)
from durfee.decomposition import _compose_raw, _decompose_raw, _validate
from durfee.errors import (
    DurfeeError,
    ImpracticalOrder,
    InvalidDecomposition,
    NoSuchDecomposition,
)
from durfee.partition import MAX_PARTS, _parts_text
from durfee.selftest import _widths_maximal

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
    # k, widths and sides of different lengths, or k = 0
    for k, widths, sides in ((2, (1,), (P([]),)), (2, (1, 1), (P([]),)), (0, (), ())):
        with pytest.raises(InvalidDecomposition, match="^k, widths and sides are inconsistent$"):
            compose(DurfeeDecomposition(0, k, widths, sides, P([])))


def test_compose_rejects_non_maximal_widths():
    # (4,4) decomposes greedily with first square 2, not 1; cut at widths
    # (1, 1), its second side is wider than the gap 0
    with pytest.raises(InvalidDecomposition, match="^side partition 2 is too wide$"):
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
    assert doc == {"m": 0, "k": 3, "widths": [5, 3, 2],
                   "sides": ["2,2,1,1", "1", "1"], "below": "1,1,1,1,1"}


# ---------------------------------------------------------------------------
# compose against the full re-decomposition, and the round trip of every
# tuple _validate accepts
# ---------------------------------------------------------------------------


def _compose_by_redecomposition(m, k, widths, sides, below):
    """``_compose_raw`` with maximality confirmed by decomposing the rows
    again, as before the O(k) check; the oracle of the tests below.  The
    inputs here stay far below the parts budget, so it is not priced."""
    _validate(m, k, widths, sides, below)
    rows = []
    for w, side in zip(widths, sides):
        rows += [w + x for x in side] + [w] * (w + m - len(side)) if w else list(side)
    rows += below
    if any(map(lt, rows, rows[1:])):
        raise InvalidDecomposition("assembled rows are not weakly decreasing")
    rows = tuple(rows)
    redo = _decompose_raw(rows, k, m)[0]
    if redo != widths:
        raise InvalidDecomposition(
            f"widths {widths} are not maximal for {_parts_text(rows)} (greedy gives {redo})"
        )
    return rows


def _outcome(f, *args):
    """(None, result), or (exception class, message)."""
    try:
        return None, f(*args)
    except DurfeeError as e:
        return type(e), str(e)


def _same_as_oracle(m, k, widths, sides, below):
    args = (m, k, widths, sides, below)
    return _outcome(_compose_raw, *args) == _outcome(_compose_by_redecomposition, *args)


def test_compose_matches_redecomposition_on_every_decomposition():
    checked = 0
    for n in range(17):
        for lam in partitions_of(n):
            for k in (1, 2, 3):
                for m in range(-2, 3):
                    try:
                        widths, sides, below = _decompose_raw(lam.parts, k, m)
                    except NoSuchDecomposition:
                        continue
                    assert _compose_raw(m, k, widths, sides, below) == lam.parts
                    assert _same_as_oracle(m, k, widths, sides, below)
                    # neighbours: one width or m off by one, the below-partition
                    # moved into the last side, the first side moved below
                    for i in range(k):
                        for dw in (-1, 1):
                            moved = widths[:i] + (widths[i] + dw,) + widths[i + 1:]
                            assert _same_as_oracle(m, k, moved, sides, below)
                    for dm in (-1, 1):
                        assert _same_as_oracle(m + dm, k, widths, sides, below)
                    assert _same_as_oracle(m, k, widths, sides[:-1] + (below,), ())
                    assert _same_as_oracle(m, k, widths, ((),) + sides[1:], sides[0])
                    checked += 1
    assert checked > 5000


def test_compose_matches_redecomposition_on_fuzzed_raw_input():
    rng = random.Random(20061)

    def parts(n_max, cap):
        return tuple(sorted((rng.randint(1, cap) for _ in range(rng.randint(0, n_max))), reverse=True))

    accepted = 0
    for _ in range(20000):
        k = rng.randint(1, 3)
        m = rng.randint(-2, 2)
        widths = tuple(sorted((rng.randint(0, 5) for _ in range(k)), reverse=rng.random() < 0.9))
        sides = tuple(parts(4, 6) for _ in range(k))
        below = parts(5, 6)
        got = _outcome(_compose_raw, m, k, widths, sides, below)
        assert got == _outcome(_compose_by_redecomposition, m, k, widths, sides, below)
        accepted += got[0] is None
    assert accepted > 500


def test_maximality_check_matches_greedy_walk():
    # every candidate width tuple whose positive-width rectangles fit inside
    # the rows, most of them not greedy: the O(k) verdict equals comparing
    # with the full decomposition, including where the greedy walk fails
    verdicts = {True: 0, False: 0}
    for n in range(17):
        for lam in partitions_of(n):
            rows = lam.parts
            for k in (1, 2, 3):
                for m in range(-2, 3):
                    for widths in _fitting_widths(rows, k, m):
                        try:
                            greedy = _decompose_raw(rows, k, m)[0] == widths
                        except NoSuchDecomposition:
                            greedy = False
                        assert _widths_maximal(rows, m, widths) == greedy, (rows, k, m, widths)
                        verdicts[greedy] += 1
    assert min(verdicts.values()) > 1000


def _cut(rows, m, widths):
    """(sides, below) of ``rows`` cut at ``widths``, greedy or not, as
    ``_decompose_raw`` cuts at its own: a positive width takes its w + m
    rows less w cells each, a zero width every row left."""
    sides = []
    off = 0
    for w in widths:
        if not w:
            sides += [rows[off:]] + [()] * (len(widths) - len(sides) - 1)
            return tuple(sides), ()
        sides.append(tuple(x - w for x in rows[off:off + w + m] if x > w))
        off += w + m
    return tuple(sides), rows[off:]


def test_non_greedy_widths_fail_validate():
    # the contrapositive of the round trip below: cut at any other fitting
    # widths, the row just past a rectangle lands in a side wider than its
    # gap or below a last rectangle narrower than it, or a zero-width
    # rectangle keeps more than m rows
    rejected = 0
    for n in range(15):
        for lam in partitions_of(n):
            rows = lam.parts
            for k in (1, 2, 3):
                for m in range(-2, 3):
                    try:
                        greedy = _decompose_raw(rows, k, m)[0]
                    except NoSuchDecomposition:
                        greedy = None
                    for widths in _fitting_widths(rows, k, m):
                        if widths != greedy:
                            sides, below = _cut(rows, m, widths)
                            with pytest.raises(InvalidDecomposition):
                                _validate(m, k, widths, sides, below)
                            rejected += 1
    assert rejected > 1000


def _accepts(m, k, widths, sides, below):
    return _outcome(_validate, m, k, widths, sides, below)[0] is None


def _accepted(k, m, width_range, parts):
    """Every (widths, sides, below) ``_validate`` accepts with widths from
    ``width_range`` and each side and below from ``parts``.  ``_validate``
    is a conjunction of conditions on the widths, on each side given the
    widths and on below given the widths, so the accepted tuples are the
    product of each component's accepted choices."""
    empty = ((),) * k
    for widths in product(width_range, repeat=k):
        if not _accepts(m, k, widths, empty, ()):
            continue
        choices = [
            [s for s in parts if _accepts(m, k, widths, empty[:i] + (s,) + empty[i + 1:], ())]
            for i in range(k)
        ]
        belows = [b for b in parts if _accepts(m, k, widths, empty, b)]
        for sides in product(*choices):
            for below in belows:
                yield widths, sides, below


def _round_trips(m, k, widths, sides, below):
    return _decompose_raw(_compose_raw(m, k, widths, sides, below), k, m) == (widths, sides, below)


def test_every_validated_tuple_round_trips():
    # k <= 3, m in -2..2, widths 0..3, sides and below every partition of
    # size <= 4: 6,776,640 tuples, of which _validate accepts 16,122
    parts = [lam.parts for n in range(5) for lam in partitions_of(n)]
    accepted = 0
    for k in (1, 2, 3):
        for m in range(-2, 3):
            for widths, sides, below in _accepted(k, m, range(4), parts):
                assert _round_trips(m, k, widths, sides, below), (m, k, widths, sides, below)
                accepted += 1
    assert accepted == 16122
    # the product rule of _accepted against _validate on whole tuples
    rng = random.Random(20062)
    for _ in range(20000):
        k = rng.randint(1, 3)
        m = rng.randint(-2, 2)
        widths = tuple(rng.randrange(4) for _ in range(k))
        sides = tuple(rng.choice(parts) for _ in range(k))
        below = rng.choice(parts)
        empty = ((),) * k
        alone = [_accepts(m, k, widths, empty, ()), _accepts(m, k, widths, empty, below)]
        alone += [_accepts(m, k, widths, empty[:i] + (s,) + empty[i + 1:], ()) for i, s in enumerate(sides)]
        assert _accepts(m, k, widths, sides, below) == all(alone)


@st.composite
def _validated(draw):
    # a tuple inside every bound _validate checks: k <= 4, m in -3..3, widths <= 6
    k = draw(st.integers(1, 4))
    m = draw(st.integers(-3, 3))
    widths = tuple(sorted(draw(st.lists(st.integers(max(0, 1 - m), 6), min_size=k, max_size=k)),
                          reverse=True))

    def part(max_len, max_part):
        if max_len < 1 or max_part < 1:
            return ()
        xs = draw(st.lists(st.integers(1, max_part), max_size=max_len))
        return tuple(sorted(xs, reverse=True))

    sides = tuple(part(w + m, widths[i - 1] - w if i else 6) for i, w in enumerate(widths))
    return m, k, widths, sides, part(6, widths[-1])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_validated())
def test_validated_tuples_round_trip_fuzzed(t):
    _validate(*t)
    assert _round_trips(*t)


def _fitting_widths(rows, k, m):
    """Weakly decreasing widths >= max(0, 1 - m) whose positive-width
    rectangles lie inside ``rows``, each row at least its width."""

    def rec(off, cap, acc):
        if len(acc) == k:
            yield acc
            return
        for w in range(max(0, 1 - m), cap + 1):
            end = off + w + m
            if w and (end > len(rows) or rows[end - 1] < w):
                continue
            yield from rec(end, w, acc + (w,))

    yield from rec(0, rows[0] if rows else 0, ())

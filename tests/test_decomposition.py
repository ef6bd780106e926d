import random
import time
from operator import lt

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
from durfee.decomposition import _compose_raw, _decompose_raw, _validate, _widths_maximal
from durfee.errors import (
    DurfeeError,
    ImpracticalOrder,
    InvalidDecomposition,
    NoSuchDecomposition,
)
from durfee.partition import MAX_PARTS, _parts_text

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
    assert doc == {"m": 0, "k": 3, "widths": [5, 3, 2],
                   "sides": ["2,2,1,1", "1", "1"], "below": "1,1,1,1,1"}


# ---------------------------------------------------------------------------
# compose's O(k) maximality check against the full re-decomposition
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

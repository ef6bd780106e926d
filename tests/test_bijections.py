from itertools import product

import pytest

import durfee.select_insert as si
from durfee import (
    DurfeeDecomposition,
    Partition,
    PartitionSequence,
    compose,
    decompose,
    dyson_map,
    dyson_rank,
    gen_conjugate,
    gen_dyson,
    gen_dyson_inverse,
    insert,
    iterate_remove,
    partitions_of,
    profile,
    remove_selected,
    select,
)
from durfee.decomposition import _decompose_raw, _gaps
from durfee.errors import (
    DurfeeError,
    InvalidDecomposition,
    NoSuchDecomposition,
    RankTooLarge,
    RankTooSmall,
    ZeroWidthRectangle,
)
from durfee.rank import _rank_raw
from durfee.select_insert import _remove_iterated, _remove_raw, _select_raw
from durfee.selftest import _bounded_sequences

P = Partition


def test_dyson_map_examples():
    assert dyson_map(P([1]), 0) == P([])


def test_dyson_map_size_and_rank_shift():
    for n in range(1, 14):
        for lam in partitions_of(n):
            r0 = dyson_rank(lam)
            for r in range(r0, r0 + 4):
                mu = dyson_map(lam, r)
                assert mu.size == n + r - 1
                if mu:
                    assert dyson_rank(mu) >= r - 2


def test_dyson_map_rank_guard():
    with pytest.raises(RankTooLarge):
        dyson_map(P([4, 1]), 1)


def test_gen_conjugate_fixed_point():
    # nothing beside or below the squares: applying the map changes nothing
    assert gen_conjugate(P([2, 2]), 1) == P([2, 2])
    assert gen_conjugate(P([3, 3, 3]), 1) == P([3, 3, 3])


def test_gen_conjugate_requires_squares():
    with pytest.raises(NoSuchDecomposition):
        gen_conjugate(P([2, 1]), 3)


def test_gen_dyson_guards():
    with pytest.raises(RankTooLarge):
        gen_dyson(P([4]), 1, 0, 0)  # rank 3 > 0
    with pytest.raises(ZeroWidthRectangle):
        gen_dyson(P([]), 1, 1, 0)
    with pytest.raises(RankTooSmall):
        gen_dyson_inverse(P([1, 1, 1, 1]), 1, 0, 0)  # (1,2)-rank is -2


def test_gen_dyson_inverse_rejects_unreachable_images():
    # (3) has a zero-width 1-rectangle; its preimage under the m=-1 map
    # would need a width-1 rectangle of height 0, which does not exist
    with pytest.raises(InvalidDecomposition):
        gen_dyson_inverse(P([3]), 1, -1, 0)


# ---------------------------------------------------------------------------
# Witnesses of the facts the maps rely on without checking them
# ---------------------------------------------------------------------------


def test_conjugate_residue_selects_nothing():
    # gen_conjugate places every column against the residue of its N_k
    # removals, so a >= A needs the residue's selection total to be 0: at
    # most P_i = N_i - N_k parts stay in side i, and the walk enters it at row 1 + P_i
    cases = 0
    for n in range(27):
        for lam in partitions_of(n):
            for k in range(1, 5):
                try:
                    widths, sides, _ = _decompose_raw(lam.parts, k, 0)
                except NoSuchDecomposition:
                    break
                bounds = _gaps(widths)
                work = list(map(list, sides))
                _remove_iterated(work, bounds, widths[-1])
                assert all(len(s) <= w - widths[-1] for s, w in zip(work, widths)), (lam, k)
                assert sum(_select_raw(work, bounds)[1]) == 0, (lam, k)
                cases += 1
    assert cases == 40534


def _weakly_falling(xs):
    return all(x >= y for x, y in zip(xs, xs[1:]))


def test_removal_rows_rise_and_totals_fall(monkeypatch):
    # per level, the totals entering a removal pass weakly fall, so the rows
    # j_t = P_i - s_i + t it looks at strictly rise and the parts it adds
    # weakly fall: every sequence of at most 4 partitions, total size <= 6,
    # bounds <= 3, each removed until nothing is left
    passes = []
    real = si._remove_pass

    def spy(s, rest, totals):
        before, entering = list(s), list(totals)
        real(s, rest, totals)
        passes.append((before, rest, entering, list(totals), list(s)))

    monkeypatch.setattr(si, "_remove_pass", spy)
    for k in range(1, 5):
        for bounds in product(range(4), repeat=k - 1):
            for seqs in _bounded_sequences(k, bounds, 6):
                passes.clear()
                _remove_iterated(list(map(list, seqs)), bounds, sum(map(len, seqs)))
                assert len(passes) == k
                for before, rest, entering, leaving, after in passes:
                    where = (seqs, bounds, before, rest, entering)
                    assert _weakly_falling(entering) and _weakly_falling(leaving), where
                    js = [rest - x + t for t, x in enumerate(entering)]
                    assert all(i < j for i, j in zip(js, js[1:])), where
                    rows = [j for j in js if j < len(before)]
                    added = [y - x for x, y in zip(entering, leaving)]
                    assert added == [before[j] for j in rows] + [0] * (len(js) - len(rows)), where
                    assert after == [v for j, v in enumerate(before) if j not in rows], where


def test_removal_takes_the_selected_total():
    # _remove_raw deletes a row exactly when _select_raw reads it, so
    # gen_dyson_inverse removes its selection total a: on every bounded
    # sequence, and on the walks _rank_raw pads past a zero-width rectangle
    def removed(seqs, rows):
        return sum(map(sum, seqs)) - sum(map(sum, _remove_raw(seqs, rows)))

    for k in range(1, 5):
        for bounds in product(range(4), repeat=k - 1):
            for seqs in _bounded_sequences(k, bounds, 6):
                rows, parts = _select_raw(seqs, bounds)
                assert removed(seqs, rows) == sum(parts), (seqs, bounds)
    for n in range(15):
        for lam in partitions_of(n):
            for k in (1, 2, 3):
                for m in range(-2, 3):
                    try:
                        _, sides, _, rows, parts = _rank_raw(lam.parts, k, m)
                    except NoSuchDecomposition:
                        continue
                    assert removed(sides, rows) == sum(parts), (lam, k, m)


# ---------------------------------------------------------------------------
# The in-place maps against references built from the public operations
# ---------------------------------------------------------------------------


def _sequence(d):
    return PartitionSequence(d.sides, profile(d))


def _conjugate_reference(lam, k):
    d = decompose(lam, k, 0)
    n_k = d.widths[-1]
    nu, seq = iterate_remove(_sequence(d), n_k)
    cols = d.below.conjugate().parts
    for j in range(n_k, 0, -1):
        seq = insert(cols[j - 1] if j <= len(cols) else 0, seq)
    new_below = P(nu).conjugate()
    return compose(DurfeeDecomposition(0, k, d.widths, seq.partitions, new_below))


def _dyson_references(lam, k, m, rs):
    """gen_dyson's image at each r in rs, or None where it must refuse."""
    d = decompose(lam, k, m)
    seq = _sequence(d)
    a, t = select(seq).total, len(d.below)
    beta = P([x - 1 for x in d.below if x > 1])
    widths = tuple(w - 1 for w in d.widths)
    return [
        None if min(d.widths) == 0 or a - t > -r
        else compose(DurfeeDecomposition(m + 2, k, widths, insert(t - r, seq).partitions, beta))
        for r in rs
    ]


def _dyson_inverse_references(mu, k, m, rs):
    """gen_dyson_inverse's preimage at each r in rs, or None where it must refuse."""
    d = decompose(mu, k, m + 2)
    trace, residue = remove_selected(_sequence(d))
    a, b = trace.total, len(d.below)
    widths = tuple(w + 1 for w in d.widths)
    return [
        None if a - b < -r or min(widths) + m < 1
        else compose(DurfeeDecomposition(
            m, k, widths, residue.partitions, P([x + 1 for x in d.below] + [1] * (a + r - b))
        ))
        for r in rs
    ]


REFUSALS = (RankTooLarge, RankTooSmall, ZeroWidthRectangle, InvalidDecomposition)


def _outcome(f, *args):
    """(None, result), or (exception class, message)."""
    try:
        return None, f(*args)
    except DurfeeError as e:
        return type(e), str(e)


def test_maps_match_public_operation_references():
    rs = range(-2, 3)
    images = 0
    for n in range(17):
        for lam in partitions_of(n):
            for k in (1, 2, 3):
                assert _outcome(gen_conjugate, lam, k) == _outcome(_conjugate_reference, lam, k)
                for m in range(-2, 3):
                    for f, refs in ((gen_dyson, _dyson_references),
                                    (gen_dyson_inverse, _dyson_inverse_references)):
                        try:
                            wants = refs(lam, k, m, rs)
                        except NoSuchDecomposition as e:
                            # no rectangles: the map raises the same, for every r
                            for r in rs:
                                assert _outcome(f, lam, k, m, r) == (NoSuchDecomposition, str(e))
                            continue
                        for r, want in zip(rs, wants):
                            got = _outcome(f, lam, k, m, r)
                            if want is None:
                                assert got[0] in REFUSALS, (f.__name__, lam, k, m, r, got)
                            else:
                                assert got == (None, want), (f.__name__, lam, k, m, r)
                                images += 1
    assert images > 30000

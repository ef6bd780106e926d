import pytest

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
from durfee.errors import (
    DurfeeError,
    InternalInvariantViolation,
    InvalidDecomposition,
    NoSuchDecomposition,
    RankTooLarge,
    RankTooSmall,
    ZeroWidthRectangle,
)

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


def test_internal_violation_names_input_and_parameters(monkeypatch):
    import durfee.select_insert as si

    lam = P([10, 8, 8, 6, 5, 3, 3, 2, 2, 2, 1, 1, 1])
    mu = gen_dyson(lam, 2, 0, 0)
    assert gen_dyson_inverse(mu, 2, 0, 0) == lam
    real = si._remove_rows

    def off_by_one(work, rows):
        real(work, [j + 1 for j in rows])

    # every removal, copying or in place, goes through the in-place helper
    monkeypatch.setattr(si, "_remove_rows", off_by_one)
    with pytest.raises(InternalInvariantViolation) as err:
        gen_dyson_inverse(mu, 2, 0, 0)
    assert f"{mu.text()}, k=2, m=0, r=0" in str(err.value)


def test_conjugate_violation_names_input_and_parameters(monkeypatch):
    import durfee.select_insert as si

    lam = P([9, 8, 8, 6, 5, 4, 3, 2, 2, 2, 1, 1, 1, 1, 1])
    assert gen_conjugate(gen_conjugate(lam, 2), 2) == lam
    real = si._remove_pass

    def remove_nothing(s, rest, totals, where):
        real(list(s), rest, totals, where)

    # the removal pass reports its parts but leaves them in the sides, so
    # the smallest column put back is below the selection total
    monkeypatch.setattr(si, "_remove_pass", remove_nothing)
    with pytest.raises(InternalInvariantViolation) as err:
        gen_conjugate(lam, 2)
    assert "column insertion order broke a >= A" in str(err.value)
    assert f"{lam.text()}, k=2, m=0" in str(err.value)


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

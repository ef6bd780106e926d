import pytest

from durfee import (
    Partition,
    dyson_map,
    dyson_rank,
    gen_conjugate,
    gen_dyson,
    gen_dyson_inverse,
    partitions_of,
)
from durfee.errors import (
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
    import durfee.bijections as bij

    lam = P([10, 8, 8, 6, 5, 3, 3, 2, 2, 2, 1, 1, 1])
    mu = gen_dyson(lam, 2, 0, 0)
    assert gen_dyson_inverse(mu, 2, 0, 0) == lam
    real = bij._remove_raw

    def off_by_one(seqs, rows):
        return real(seqs, [j + 1 for j in rows])

    monkeypatch.setattr(bij, "_remove_raw", off_by_one)
    with pytest.raises(InternalInvariantViolation) as err:
        gen_dyson_inverse(mu, 2, 0, 0)
    assert f"{mu.text()}, k=2, m=0, r=0" in str(err.value)


def test_conjugate_violation_names_input_and_parameters(monkeypatch):
    import durfee.select_insert as si

    lam = P([9, 8, 8, 6, 5, 4, 3, 2, 2, 2, 1, 1, 1, 1, 1])
    assert gen_conjugate(gen_conjugate(lam, 2), 2) == lam

    def remove_nothing(seqs, rows):
        return list(seqs)

    # the sides keep their selected parts, so the smallest column put back
    # is below the selection total
    monkeypatch.setattr(si, "_remove_raw", remove_nothing)
    with pytest.raises(InternalInvariantViolation) as err:
        gen_conjugate(lam, 2)
    assert "column insertion order broke a >= A" in str(err.value)
    assert f"{lam.text()}, k=2, m=0" in str(err.value)

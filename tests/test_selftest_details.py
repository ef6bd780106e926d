"""Failure details of the law suites, formatted only for a failing check.

Each suite runs here on the partitions of n <= 6 with one map broken at a
chosen input, so the first failure of a law must name that input.
"""

from durfee import selftest
from durfee.partition import Partition, partitions_of

P = Partition.from_text


def _small(monkeypatch):
    monkeypatch.setattr(selftest, "partitions_of", lambda n: partitions_of(n) if n <= 6 else ())


def _failures(results) -> dict[str, str]:
    return {r.name: r.detail for r in results if not r.ok}


def test_decomposition_details_name_the_failing_input(monkeypatch):
    _small(monkeypatch)
    real = selftest._maximality_ok
    monkeypatch.setattr(selftest, "_maximality_ok", lambda lam, d: real(lam, d) and (
        lam.text(), d.k, d.m) != ("3,2,1", 2, 1))
    assert _failures(selftest.decomposition_invariants()) == {
        "decomposition: maximality: wider rectangle does not fit": "3,2,1 k=2 m=1",
    }


def test_involution_details_name_the_failing_input(monkeypatch):
    _small(monkeypatch)
    real = selftest.gen_conjugate

    def broken(lam, k):
        return P("3,2,1,1") if (lam.text(), k) == ("3,2,1", 1) else real(lam, k)

    monkeypatch.setattr(selftest, "gen_conjugate", broken)
    assert _failures(selftest.involution_suite()) == {
        "involution: size preserved": "3,2,1 k=1",
        "involution: selection total and below-count swap": "3,2,1 k=1",
        "involution: involution": "3,2,1 k=1",
        "involution: k=1 equals classical conjugation": "3,2,1",
    }


def test_dyson_details_name_the_failing_input(monkeypatch):
    _small(monkeypatch)
    # images of n > 6 are cut off, so "image matches codomain" fails already
    cut_off = _failures(selftest.dyson_suite())
    real = selftest.gen_dyson_inverse
    broken_at = []

    def broken(mu, k, m, r):
        lam = real(mu, k, m, r)
        if (k, m, r) == (1, 0, 1) and not broken_at:
            broken_at.append(lam.text())
            return P("1")
        return lam

    monkeypatch.setattr(selftest, "gen_dyson_inverse", broken)
    assert _failures(selftest.dyson_suite()) == {
        **cut_off, "m-shift map: inverse returns the source": f"{broken_at[0]} k=1 m=0 r=1",
    }

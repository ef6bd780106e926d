"""Failure details of the law suites, formatted only for a failing check.

Each suite runs here on the partitions of n <= 6 with one map broken at a
chosen input, so the first failure of a law must name that input.
"""

from durfee import selftest
from durfee.bijections import gen_dyson_inverse
from durfee.partition import Partition, partitions_of

P = Partition.from_text


def _small(monkeypatch):
    monkeypatch.setattr(selftest, "partitions_of", lambda n: partitions_of(n) if n <= 6 else ())


def _failures(results) -> dict[str, str]:
    return {r.name: r.detail for r in results if not r.ok}


def test_decomposition_details_name_the_failing_input(monkeypatch):
    _small(monkeypatch)
    real = selftest._widths_maximal
    monkeypatch.setattr(selftest, "_widths_maximal", lambda rows, m, widths: real(
        rows, m, widths) and (rows, len(widths), m) != ((3, 2, 1), 2, 1))
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


def _inverse_broken_once(k, m, r, broken_at):
    """gen_dyson_inverse, wrong at its first input with parameters (k, m, r)."""

    def broken(mu, k_, m_, r_):
        lam = gen_dyson_inverse(mu, k_, m_, r_)
        if (k_, m_, r_) == (k, m, r) and not broken_at:
            broken_at.append(lam.text())
            return P("1")
        return lam

    return broken


def test_dyson_details_name_the_failing_input(monkeypatch):
    _small(monkeypatch)
    # images of n > 6 are cut off, so "image matches codomain" fails already
    cut_off = _failures(selftest.dyson_suite())
    broken_at = []
    monkeypatch.setattr(selftest, "gen_dyson_inverse", _inverse_broken_once(1, 0, 1, broken_at))
    assert _failures(selftest.dyson_suite()) == {
        **cut_off, "m-shift map: inverse returns the source": f"{broken_at[0]} k=1 m=0 r=1",
    }


def test_golden_and_dyson_share_the_image_contract(monkeypatch):
    # one contract backs golden's m-shift lines and the dyson laws, so an
    # inverse broken at one input fails both, and the dyson detail names it
    golden_at, dyson_at = [], []
    monkeypatch.setattr(selftest, "gen_dyson_inverse", _inverse_broken_once(2, 0, 0, golden_at))
    assert _failures(selftest.golden_examples()) == {"golden: m-shift map k=2 m=0 r=0": ""}
    assert golden_at == [selftest.EX_MSHIFT_K2.text()]
    _small(monkeypatch)
    monkeypatch.setattr(selftest, "gen_dyson_inverse", gen_dyson_inverse)
    cut_off = _failures(selftest.dyson_suite())
    monkeypatch.setattr(selftest, "gen_dyson_inverse", _inverse_broken_once(2, 0, 0, dyson_at))
    assert _failures(selftest.dyson_suite()) == {
        **cut_off, "m-shift map: inverse returns the source": f"{dyson_at[0]} k=2 m=0 r=0",
    }

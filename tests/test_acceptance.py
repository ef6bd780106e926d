"""Acceptance gate: every selftest suite, each printing a pass/fail line.

Every check is exact (integer equality); the printed timings document the
runtime targets.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-suite lines, or via the CLI as ``durfee selftest``.

Every result line, instance counts included, must equal the one pinned in
``golden/selftest_results.txt``, so a change to a suite cannot drop a
check unnoticed.  Re-record that file with
``PYTHONPATH=src python tests/test_acceptance.py`` only when a suite
changes on purpose.
"""

import time
from pathlib import Path

import pytest

from durfee import selftest

PINNED = Path(__file__).parent / "golden" / "selftest_results.txt"


def _results(name: str):
    if name == "selection":
        # the acceptance floor: size <= 14, bounds <= 4, k <= 3, a <= A+8
        return selftest.selection_invariants(max_total=14, extra=8)
    return selftest.SUITES[name]()


def _line(name: str, r) -> str:
    return f"{name}\t{'PASS' if r.ok else 'FAIL'}\t{r.name}\t{r.detail}"


@pytest.mark.parametrize("name", list(selftest.SUITES))
def test_suite(name):
    t0 = time.monotonic()
    results = _results(name)
    elapsed = time.monotonic() - t0
    bad = [r for r in results if not r.ok]
    print(f"{'PASS' if not bad else 'FAIL'} {name} ({len(results)} checks) [{elapsed:.2f}s]")
    for r in bad[:10]:
        print(f"  failed: {r.name}: {r.detail}")
    assert not bad, f"{name}: {len(bad)} failed, first: {bad[0].name} {bad[0].detail}"
    pinned = [line for line in PINNED.read_text().splitlines() if line.startswith(f"{name}\t")]
    assert [_line(name, r) for r in results] == pinned
    if name == "golden":
        assert elapsed < 1.0, f"golden examples took {elapsed:.2f}s, limit is 1s"


if __name__ == "__main__":
    PINNED.write_text("".join(_line(n, r) + "\n" for n in selftest.SUITES for r in _results(n)))

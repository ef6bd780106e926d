"""Self-verification: golden examples and exhaustive law suites.

Each suite returns a list of CheckResult; the CLI ``selftest`` subcommand
runs them all and exits non-zero on any failure.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .bijections import dyson_map, gen_conjugate, gen_dyson, gen_dyson_inverse
from .census import h_count, rank_census
from .decomposition import DurfeeDecomposition, _widths_maximal, compose, decompose, profile
from .errors import NoSuchDecomposition
from .partition import (
    Partition,
    durfee_square_widths,
    p_table,
    partitions_of,
)
from .qseries import (
    QSeries,
    inv_euler,
    jacobi_specialization,
    multisum_lhs,
    pochhammer,
    q_table,
    rr_product,
    schur_rhs,
    verify_identity,
)
from .rank import dyson_rank, garvan_conjugate, garvan_rank, rank_km
from .select_insert import (
    PartitionSequence,
    _base_insert_raw,
    _grow_raw,
    _insert_raw,
    _remove_raw,
    _remove_rows,
    _select_raw,
    insert,
    remove_selected,
    select,
)

P = Partition


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(ok), detail)


class _Tally:
    """Accumulates pass/fail counts per law and keeps the first failures."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.failures: dict[str, str] = {}

    def add(self, law: str, ok: bool, detail: str | Callable[[], str] = "") -> None:
        """Count one instance; a callable ``detail`` is called on failure only."""
        self.counts[law] += 1
        if not ok and law not in self.failures:
            self.failures[law] = detail() if callable(detail) else detail

    def results(self, prefix: str) -> list[CheckResult]:
        out = []
        for law in sorted(self.counts):
            bad = self.failures.get(law)
            out.append(
                _check(
                    f"{prefix}: {law}",
                    bad is None,
                    bad if bad is not None else f"{self.counts[law]} instances",
                )
            )
        return out


# ---------------------------------------------------------------------------
# Golden worked examples.
# ---------------------------------------------------------------------------

EX_SMALL = P([5, 5, 4, 1])
EX_THREE_SQUARES = P([7, 7, 6, 6, 5, 4, 3, 3, 3, 2, 1, 1, 1, 1, 1])
EX_CLASSIC_SHIFT = P([4, 3, 3, 2, 2, 1])
EX_CONJ2_IN = P([9, 8, 8, 6, 5, 4, 3, 2, 2, 2, 1, 1, 1, 1, 1])
EX_CONJ2_OUT = P([10, 9, 8, 7, 5, 5, 3, 2, 2, 1, 1, 1])
EX_CONJ4_IN = P([9, 8, 8, 7, 7, 6, 5, 4, 4, 3, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1])
EX_CONJ4_OUT = P([9, 9, 8, 7, 7, 6, 5, 4, 4, 3, 3, 3, 3, 2, 2, 2, 2, 1, 1])
EX_GARVAN = P([12, 10, 8, 7, 6, 5, 4, 3, 3, 3, 1, 1])
EX_GARVAN_CONJ = P([11, 9, 9, 7, 6, 5, 4, 3, 3, 2, 2, 1, 1])
EX_MSHIFT_K2 = P([10, 8, 8, 6, 5, 3, 3, 2, 2, 2, 1, 1, 1])
EX_MSHIFT_K3 = P([11, 10, 9, 8, 6, 6, 5, 4, 3, 3, 3, 2, 2, 1, 1])
EX_MSHIFT_K2M2 = P([8, 7, 7, 6, 6, 5, 5, 4, 4, 4, 4, 3, 3, 3, 2, 1, 1, 1, 1])


def golden_examples() -> list[CheckResult]:
    """Pinned worked examples; every value exact."""
    out = []
    out.append(_check("golden: size (5,5,4,1) = 15", EX_SMALL.size == 15))
    out.append(
        _check(
            "golden: conjugate (5,5,4,1) = (4,3,3,3,2)",
            EX_SMALL.conjugate() == P([4, 3, 3, 3, 2]),
        )
    )
    d = decompose(EX_THREE_SQUARES, 3, 0)
    out.append(_check("golden: Durfee squares (5,3,2)", d.widths == (5, 3, 2)))
    out.append(
        _check(
            "golden: width gaps of (5,3,2) are (2,1)",
            profile(d) == (2, 1),
        )
    )
    st = rank_km(EX_THREE_SQUARES, 3, 0)
    out.append(
        _check(
            "golden: a_{3,0}=4, b_{3,0}=5, r=-1",
            (st.a, st.b, st.r) == (4, 5, -1),
            f"got {(st.a, st.b, st.r)}",
        )
    )
    # the 1-rectangle widths of the same partition; the greedy rule gives
    # (4,3,1) because a width-3 rectangle fits on rows 6..9
    d1 = decompose(EX_THREE_SQUARES, 3, 1)
    out.append(_check("golden: 1-Durfee rectangles (4,3,1)", d1.widths == (4, 3, 1)))
    st1 = rank_km(EX_THREE_SQUARES, 3, 1)
    out.append(
        _check(
            "golden: a_{3,1}=3 with b=4, r=-1",
            (st1.a, st1.b, st1.r) == (3, 4, -1),
            f"got {(st1.a, st1.b, st1.r)}",
        )
    )
    out.append(
        _check(
            "golden: rank of (4,3,3,2,2,1) is 4-6 = -2",
            dyson_rank(EX_CLASSIC_SHIFT) == -2,
        )
    )
    out.append(
        _check(
            "golden: d_{-2}(4,3,3,2,2,1) = (3,3,2,2,1,1)",
            dyson_map(EX_CLASSIC_SHIFT, -2) == P([3, 3, 2, 2, 1, 1]),
        )
    )
    out.append(
        _check(
            "golden: d_1(4,3,3,2,2,1) = (6,3,2,2,1,1)",
            dyson_map(EX_CLASSIC_SHIFT, 1) == P([6, 3, 2, 2, 1, 1]),
        )
    )
    out.append(
        _check(
            "golden: generalized conjugation k=2",
            gen_conjugate(EX_CONJ2_IN, 2) == EX_CONJ2_OUT,
            f"got {gen_conjugate(EX_CONJ2_IN, 2).text()}",
        )
    )
    out.append(
        _check(
            "golden: generalized conjugation k=4",
            gen_conjugate(EX_CONJ4_IN, 4) == EX_CONJ4_OUT,
            f"got {gen_conjugate(EX_CONJ4_IN, 4).text()}",
        )
    )
    gst = garvan_rank(EX_GARVAN, 2)
    out.append(
        _check(
            "golden: ga_2=5, gb_2=4",
            (gst.a, gst.b, gst.r) == (5, 4, 1),
            f"got {(gst.a, gst.b, gst.r)}",
        )
    )
    out.append(
        _check(
            "golden: Garvan conjugate",
            garvan_conjugate(EX_GARVAN, 2) == EX_GARVAN_CONJ,
            f"got {garvan_conjugate(EX_GARVAN, 2).text()}",
        )
    )
    # the decomposition drawn alongside the k=2 conjugation example
    d2 = decompose(EX_CONJ2_IN, 2, 0)
    out.append(
        _check(
            "golden: decomposition of the k=2 example",
            d2.widths == (5, 2)
            and d2.sides == (P([4, 3, 3, 1]), P([2, 1]))
            and d2.below == P([2, 2, 2, 1, 1, 1, 1, 1]),
        )
    )
    out.append(
        _check(
            "golden: reassembly of the conjugated k=2 example",
            compose(
                DurfeeDecomposition(
                    0, 2, (5, 2), (P([5, 4, 3, 2]), P([3, 1])), P([2, 2, 1, 1, 1])
                )
            )
            == EX_CONJ2_OUT,
        )
    )
    # three m-shift map examples: image checked through the map contract
    for nm, lam, k, m, r in (
        ("golden: m-shift map k=2 m=0 r=0", EX_MSHIFT_K2, 2, 0, 0),
        ("golden: m-shift map k=3 m=-3 r=1", EX_MSHIFT_K3, 3, -3, 1),
        ("golden: m-shift map k=2 m=2 r=3", EX_MSHIFT_K2M2, 2, 2, 3),
    ):
        laws, _ = _dyson_image_laws(lam, rank_km(lam, k, m), k, m, r)
        out.append(_check(nm, all(ok for _, ok in laws)))
    out.append(
        _check(
            "golden: m-shift map k=2 m=0 r=0 image",
            gen_dyson(EX_MSHIFT_K2, 2, 0, 0) == P([9, 8, 7, 7, 5, 4, 3, 2, 2, 1, 1, 1]),
            f"got {gen_dyson(EX_MSHIFT_K2, 2, 0, 0).text()}",
        )
    )
    # selection example: bounds (4,2,3), selected parts 1+2+2+2 = 7
    fig_seq = PartitionSequence(
        (P([5, 3, 2, 1, 1]), P([4, 2, 2]), P([2, 2, 1]), P([2, 1])), (4, 2, 3)
    )
    tr = select(fig_seq)
    out.append(
        _check(
            "golden: selection total 7 over four partitions",
            tr.total == 7 and tr.parts == (1, 2, 2, 2) and tr.rows == (4, 2, 2, 1),
            f"got rows={tr.rows} parts={tr.parts}",
        )
    )
    # companion example with five partitions, bounds (2,0,2,6), total also 7
    fig_seq5 = PartitionSequence(
        (P([3, 2, 2, 1, 1]), P([2, 1]), P([]), P([]), P([6])), (2, 0, 2, 6)
    )
    tr5 = select(fig_seq5)
    out.append(
        _check(
            "golden: selection total 7 over five partitions",
            tr5.total == 7 and tr5.parts == (1, 0, 0, 0, 6) and tr5.rows == (5, 3, 3, 1, 1),
            f"got rows={tr5.rows} parts={tr5.parts}",
        )
    )
    # inserting exactly the selection total duplicates every selected part
    dup = insert(tr.total, fig_seq)
    expected = tuple(
        P(sorted(lam.parts + ((v,) if v else ()), reverse=True))
        for lam, v in zip(fig_seq.partitions, tr.parts)
    )
    out.append(_check("golden: inserting A duplicates the selected parts", dup.partitions == expected))
    return out


def _dyson_image_laws(lam: Partition, st, k: int, m: int, r: int):
    """The m-shift image contract: its five (law, ok) pairs and the image.

    ``st`` is ``rank_km(lam, k, m)``.  The image's rank t - r - b' is at
    least -r because b' <= t, so that bound needs no law of its own.
    """
    t = st.b
    mu = gen_dyson(lam, k, m, r)
    after = rank_km(mu, k, m + 2)
    return [
        ("size law", mu.size == lam.size - r - k * (m + 1)),
        ("width law", after.widths == tuple(w - 1 for w in st.widths)),
        ("image selection total is t - r", after.a == t - r),
        ("image below-count at most t", after.b <= t),
        ("inverse returns the source", gen_dyson_inverse(mu, k, m, r) == lam),
    ], mu


# ---------------------------------------------------------------------------
# Partition invariants.
# ---------------------------------------------------------------------------


def partition_invariants() -> list[CheckResult]:
    max_conj_n, max_count_n = 30, 20
    tally = _Tally()
    for n in range(max_conj_n + 1):
        for lam in partitions_of(n):
            c = lam.conjugate()
            tally.add("conjugate involution", c.conjugate() == lam, lam.text())
            tally.add("conjugate preserves size", c.size == lam.size, lam.text())
            tally.add(
                "conjugate swaps largest and length",
                c.largest == len(lam) and len(c) == lam.largest,
                lam.text(),
            )
    pt = p_table(max_count_n)
    for n in range(max_count_n + 1):
        tally.add(
            "enumeration count matches pentagonal recurrence",
            len(partitions_of(n)) == pt[n],
            f"n={n}",
        )
    kmax = 6
    tables = {k: q_table(k, max_count_n) for k in range(kmax + 1)}
    for n in range(max_count_n + 1):
        for k in range(1, kmax + 1):
            tally.add(
                "q_k weakly increasing in k",
                tables[k][n] >= tables[k - 1][n],
                f"n={n}, k={k}",
            )
            # the all-ones partition has n successive 1x1 squares, so the
            # table only saturates at k >= n
            if k >= n:
                tally.add("q_k = p for k >= n", tables[k][n] == pt[n], f"n={n}, k={k}")
            if k < n:
                # strict: the all-ones partition is always missed
                tally.add("q_k < p below saturation", tables[k][n] < pt[n], f"n={n}, k={k}")
    return tally.results("partition")


# ---------------------------------------------------------------------------
# Decomposition invariants.
# ---------------------------------------------------------------------------


def decomposition_invariants() -> list[CheckResult]:
    max_n, max_k, ms = 25, 4, (-1, 0, 1, 2, 3)
    tally = _Tally()
    for n in range(max_n + 1):
        for lam in partitions_of(n):
            squares = durfee_square_widths(lam)
            for m in ms:
                prev = None
                for k in range(1, max_k + 1):
                    try:
                        d = decompose(lam, k, m)
                    except NoSuchDecomposition:
                        tally.add(
                            "m<=0 decomposition exists iff enough rectangles",
                            m <= 0,
                            lambda: f"{lam.text()} k={k} m={m}",
                        )
                        break
                    tally.add(
                        "compose inverts decompose",
                        compose(d) == lam,
                        lambda: f"{lam.text()} k={k} m={m}",
                    )
                    tally.add(
                        "maximality: wider rectangle does not fit",
                        _widths_maximal(lam.parts, m, d.widths),
                        lambda: f"{lam.text()} k={k} m={m}",
                    )
                    if m == 0:
                        tally.add(
                            "m=0 matches classical Durfee squares",
                            d.widths == squares[:k],
                            lambda: f"{lam.text()} k={k}",
                        )
                    if prev is not None:
                        tally.add(
                            "nesting: first k rectangles stable",
                            d.widths[: k - 1] == prev,
                            lambda: f"{lam.text()} k={k} m={m}",
                        )
                    prev = d.widths
    return tally.results("decomposition")


# ---------------------------------------------------------------------------
# Selection / insertion laws (exhaustive).
# ---------------------------------------------------------------------------


def _merged_part(s, v: int, j: int) -> int:
    """Part at row j of the partition s with one extra part v (0 = none)."""
    if v == 0:
        return s[j - 1] if j <= len(s) else 0
    c = 0
    for x in s:
        if x > v:
            c += 1
        else:
            break
    if j <= c:
        return s[j - 1]
    if j == c + 1:
        return v
    return s[j - 2] if j - 1 <= len(s) else 0


def _valid_tails(seqs, bounds, candidates):
    """Insertion tails (v_2..v_k) whose merged selection re-selects them.

    A candidate insertion lands back on the original sequence under
    selection-plus-removal exactly when the selection walk picks the
    inserted value at every level; for levels 2..k that condition does not
    involve the amount inserted into the first partition, so it can be
    screened once per sequence against the (sum, tail) candidates.
    Returns (tail_sum, tail, row_in_first).
    """
    k = len(seqs)
    out = []
    for s_t, rest in candidates:
        j = 1
        ok = True
        for i in range(k - 1, 0, -1):
            v = rest[i - 1]
            if _merged_part(seqs[i], v, j) != v:
                ok = False
                break
            j += bounds[i - 1] - v
        if ok:
            out.append((s_t, rest, j))
    return out


def selection_invariants(max_total: int = 16, extra: int = 10) -> list[CheckResult]:
    """Exhaustive removal/insertion laws over all bounded sequences.

    Covers every sequence of at most three partitions with total size at
    most max_total and bounds up to 4, and every insertion total from the
    selection total A to A + extra.
    """
    max_bound, max_k, spot_every = 4, 3, 512
    tally = _Tally()
    seen = 0
    for k in range(1, max_k + 1):
        for bounds in product(range(max_bound + 1), repeat=k - 1):
            candidates = [(sum(t), t) for t in product(*[range(c + 1) for c in bounds])]
            # the screened tails depend on lambda^2..lambda^k only
            tails: dict = {}
            for seqs in _bounded_sequences(k, bounds, max_total):
                seen += 1
                if seqs[1:] not in tails:
                    tails[seqs[1:]] = _valid_tails(seqs, bounds, candidates)
                _check_sequence(tally, seqs, bounds, extra, tails[seqs[1:]])
                if seen % spot_every == 0:
                    _spot_check_public(tally, seqs, bounds, extra)
    return tally.results("selection")


def _bounded_sequences(k: int, bounds, max_total: int):
    # partitions come in reverse-lexicographic order, and filtering on the
    # largest part keeps that order for the capped lists
    free = [[p.parts for p in partitions_of(s)] for s in range(max_total + 1)]
    capped = {b: [[t for t in ts if not t or t[0] <= b] for ts in free] for b in set(bounds)}

    def rec(i: int, budget: int, acc: tuple):
        if i == k:
            yield acc
            return
        for s in range(budget + 1):
            choices = free[s] if i == 0 else capped[bounds[i - 1]][s]
            for t in choices:
                yield from rec(i + 1, budget - s, acc + (t,))

    yield from rec(0, max_total, ())


def _check_sequence(tally: _Tally, seqs, bounds, extra: int, tails) -> None:
    """Check the laws on one sequence."""
    lseqs = list(seqs)
    rows, parts = _select_raw(lseqs, bounds)
    A = sum(parts)

    def where(*more: str) -> str:
        # formatted only for a failing check: the passing ones are most of the run
        return " ".join((f"seq={seqs} p={bounds}",) + more)

    reduced = _remove_raw(lseqs, rows)
    rrows, rparts = _select_raw(reduced, bounds)
    tally.add("A non-increasing under removal", sum(rparts) <= A, where)
    tally.add(
        "post-removal rows sit strictly below",
        all(rj >= j for rj, j in zip(rrows, rows)),
        where,
    )
    back = _insert_raw(A, reduced, bounds)
    tally.add("insert undoes removal", back == lseqs, where)

    first = seqs[0]

    # incremental insertion: one cell at a time from a = A to A + extra
    # the input as part lists, to compare with removals done in place
    llists = list(map(list, seqs))
    work = list(map(list, seqs))
    _base_insert_raw(work, rows, parts)
    for a in range(A, A + extra + 1):
        if a > A:
            _grow_raw(work, bounds, 1, (mrows, mparts))
        mrows, mparts = _select_raw(work, bounds)
        tally.add("inserted sequence selects total a", sum(mparts) == a, lambda: where(f"a={a}"))
        back = list(map(list, work))
        _remove_rows(back, mrows)
        tally.add("removal undoes insertion", back == llists, lambda: where(f"a={a}"))
        # uniqueness: among all ways of inserting one part into each
        # partition within the bounds, exactly one candidate both selects
        # total a and gives back the original sequence when its selected
        # parts are removed, and it is the sequence insertion built.
        # (Selecting total a alone does not pin the candidate down: for
        # ((),(1)) with bound 2 and a=1, both ((1),(1)) and ((),(1,1))
        # select total 1, but only the latter removes back to the input.)
        # A candidate passes the removal test exactly when the walk
        # re-selects the inserted values, so only the screened tails plus
        # a first-partition check remain; the match then is the inserted
        # sequence iff its inserted values are that sequence's selected parts.
        matches = 0
        unique_ok = True
        for s_t, rest, j0 in tails:
            v1 = a - s_t
            if v1 >= 0 and _merged_part(first, v1, j0) == v1:
                matches += 1
                if (v1,) + rest != tuple(mparts):
                    unique_ok = False
        tally.add(
            "unique valid insertion",
            matches == 1 and unique_ok,
            lambda: where(f"a={a}", f"matches={matches}"),
        )

    jump = list(map(list, seqs))
    _base_insert_raw(jump, rows, parts)
    _grow_raw(jump, bounds, extra)
    tally.add("one jump equals unit steps", jump == work, lambda: where(f"a={A + extra}"))


def _spot_check_public(tally: _Tally, seqs, bounds, extra: int) -> None:
    """Tie the raw helpers to the public API on a sampled sequence."""
    seq = PartitionSequence(tuple(P._fromparts(t) for t in seqs), tuple(bounds))
    tr = select(seq)
    rows, parts = _select_raw(list(seqs), bounds)
    tally.add(
        "public select equals raw select",
        tr.rows == tuple(rows) and tr.parts == tuple(parts),
        f"{seqs} {bounds}",
    )
    # grown one cell at a time: after e steps, the insertion of total + e
    unit = list(map(list, seqs))
    _base_insert_raw(unit, rows, parts)
    for e in range(extra + 1):
        if e:
            _grow_raw(unit, bounds, 1)
        tally.add(
            "one jump equals unit steps",
            _insert_raw(tr.total + e, list(seqs), bounds) == list(map(tuple, unit)),
            f"{seqs} {bounds} a={tr.total + e}",
        )
    a = tr.total + extra
    via_public = insert(a, seq)
    via_raw = _insert_raw(a, list(seqs), bounds)
    tally.add(
        "public insert equals raw insert",
        tuple(p.parts for p in via_public.partitions) == tuple(via_raw),
        f"{seqs} {bounds}",
    )
    trace, reduced = remove_selected(seq)
    raw_reduced = _remove_raw(list(seqs), rows)
    tally.add(
        "public removal equals raw removal",
        [p.parts for p in reduced.partitions] == [tuple(t) for t in raw_reduced]
        and trace.total == tr.total,
        f"{seqs} {bounds}",
    )


# ---------------------------------------------------------------------------
# Rank invariants.
# ---------------------------------------------------------------------------


def _ranked(n: int, k: int, m: int) -> list:
    """(lam, rank_km(lam, k, m)) for every partition of n with k successive
    m-rectangles, in enumeration order."""
    out = []
    for lam in partitions_of(n):
        try:
            out.append((lam, rank_km(lam, k, m)))
        except NoSuchDecomposition:
            pass
    return out


def rank_invariants() -> list[CheckResult]:
    max_n, garvan_n = 25, 20
    tally = _Tally()
    for n in range(1, max_n + 1):
        for m in (-1, 0, 1, 2):
            for lam, st in _ranked(n, 1, m):
                # with fewer than m parts the first rectangle would extend
                # below the diagram and absorb the shift
                if len(lam) >= m:
                    dr = dyson_rank(lam)
                    tally.add(
                        "k=1 rank is Dyson rank plus m",
                        st.r == dr + m,
                        lambda: f"{lam.text()} m={m} got {st.r} want {dr + m}",
                    )
    for n in range(garvan_n + 1):
        for lam in partitions_of(n):
            squares = durfee_square_widths(lam)
            for k in range(1, min(3, len(squares)) + 1):
                st = garvan_rank(lam, k)
                mu = garvan_conjugate(lam, k)
                st2 = garvan_rank(mu, k)
                tally.add(
                    "Garvan conjugate negates the statistic",
                    st2.r == -st.r and st2.a == st.b and st2.b == st.a,
                    f"{lam.text()} k={k}",
                )
                tally.add(
                    "Garvan conjugate preserves size and widths",
                    mu.size == lam.size and st2.widths == st.widths,
                    f"{lam.text()} k={k}",
                )
                tally.add(
                    "Garvan conjugate is an involution",
                    garvan_conjugate(mu, k) == lam,
                    f"{lam.text()} k={k}",
                )
    return tally.results("rank")


# ---------------------------------------------------------------------------
# Bijection suites.
# ---------------------------------------------------------------------------


def involution_suite() -> list[CheckResult]:
    """Generalized conjugation: involution, statistic swap, width preservation."""
    max_n, max_k = 24, 4
    tally = _Tally()
    for n in range(max_n + 1):
        for k in range(1, max_k + 1):
            for lam, st in _ranked(n, k, 0):
                mu = gen_conjugate(lam, k)
                st2 = rank_km(mu, k, 0)

                def where():
                    return f"{lam.text()} k={k}"

                tally.add("size preserved", mu.size == lam.size, where)
                tally.add("widths preserved", st2.widths == st.widths, where)
                tally.add(
                    "selection total and below-count swap",
                    st2.a == st.b and st2.b == st.a,
                    where,
                )
                tally.add("involution", gen_conjugate(mu, k) == lam, where)
    for n in range(min(max_n, 15) + 1):
        for lam in partitions_of(n):
            if lam:
                tally.add(
                    "k=1 equals classical conjugation",
                    gen_conjugate(lam, 1) == lam.conjugate(),
                    lam.text,
                )
    return tally.results("involution")


def dyson_suite() -> list[CheckResult]:
    """The m-shift map: round trips, image contract, domain/codomain match."""
    max_n, max_k, ms, rs = 18, 3, (-2, -1, 0, 1), (-1, 0, 1, 2)
    tally = _Tally()
    # each (n, k, m) is read for several r; the memo goes with the suite
    ranked = lru_cache(maxsize=None)(_ranked)
    for k in range(1, max_k + 1):
        for m in ms:
            for r in rs:
                for n in range(max_n + 1):
                    n2 = n - r - k * (m + 1)
                    if n2 < 0:
                        continue
                    images = []
                    for lam, st in ranked(n, k, m):
                        if st.r > -r or 0 in st.widths:
                            continue
                        laws, mu = _dyson_image_laws(lam, st, k, m, r)

                        def where():
                            return f"{lam.text()} k={k} m={m} r={r}"

                        for law, ok in laws:
                            tally.add(law, ok, where)
                        images.append(mu)
                    tally.add(
                        "map is injective",
                        len(set(images)) == len(images),
                        lambda: f"k={k} m={m} r={r} n={n}",
                    )
                    codomain = []
                    for mu, st2 in ranked(n2, k, m + 2):
                        # widths below -m cannot come from positive-height
                        # m-rectangles, so they lie outside the image
                        if st2.r >= -r and all(w >= -m for w in st2.widths):
                            codomain.append(mu)
                    tally.add(
                        "image matches codomain",
                        sorted(p.parts for p in images) == sorted(p.parts for p in codomain),
                        lambda: f"k={k} m={m} r={r} n={n}: {len(images)} vs {len(codomain)}",
                    )
                    for mu in codomain:
                        lam = gen_dyson_inverse(mu, k, m, r)
                        tally.add(
                            "map undoes inverse",
                            gen_dyson(lam, k, m, r) == mu,
                            lambda: f"{mu.text()} k={k} m={m} r={r}",
                        )
    for n in range(1, min(max_n, 15) + 1):
        for m in ms:
            for lam, st in ranked(n, 1, m):
                if 0 in st.widths:
                    continue
                for r in rs:
                    if st.r > -r:
                        continue
                    tally.add(
                        "k=1 equals the classic map with shifted parameter",
                        gen_dyson(lam, 1, m, r) == dyson_map(lam, -r - m),
                        lambda: f"{lam.text()} m={m} r={r}",
                    )
    return tally.results("m-shift map")


# ---------------------------------------------------------------------------
# Census suites.
# ---------------------------------------------------------------------------


def _enumerated_census(n: int, k: int, m: int) -> Counter:
    """Rank census by ranking every partition of n: the oracle of the engine."""
    return Counter(st.r for _, st in _ranked(n, k, m))


def census_invariants() -> list[CheckResult]:
    max_n, max_k, max_r, oracle_ms = 22, 3, 8, (-2, -1, 0, 1, 2)
    tally = _Tally()
    for k in range(1, max_k + 1):
        for m in oracle_ms:
            for n in range(max_n + 1):
                tally.add(
                    "census engine equals enumeration",
                    rank_census(n, k, m) == _enumerated_census(n, k, m),
                    f"n={n} k={k} m={m}",
                )
    # the symmetry laws below read the engine the law above ties to partitions
    pt = p_table(max_n + max_r + max_k * 3 + 6)
    qt = {k: q_table(k, max_n) for k in range(max_k)}
    for k in range(1, max_k + 1):
        for n in range(max_n + 1):
            c0 = rank_census(n, k, 0)
            for r in range(-max_r, max_r + 1):
                tally.add(
                    "first observation (m=0 split)",
                    h_count(n, k, 0, r, "le") + h_count(n, k, 0, r + 1, "ge")
                    == pt[n] - qt[k - 1][n],
                    f"n={n} k={k} r={r}",
                )
                tally.add(
                    "first symmetry h(r) = h(-r)",
                    c0.get(r, 0) == c0.get(-r, 0),
                    f"n={n} k={k} r={r}",
                )
            for m in (1, 2):
                for r in range(-max_r, max_r + 1):
                    tally.add(
                        "second observation (m>0 split)",
                        h_count(n, k, m, r, "le") + h_count(n, k, m, r + 1, "ge") == pt[n],
                        f"n={n} k={k} m={m} r={r}",
                    )
    # second symmetry: the half-line census matches after the m -> m+2 shift.
    # Verified for m = 0 (any r) and m > 0 with r > 0, where every width
    # profile on the shifted side is reachable; for m < 0 the printed
    # collapsed form fails (see the m-shift map suite for the refined,
    # width-aware statement that does hold there).
    regions = [(0, range(-3, max_r + 1)), (1, range(1, max_r + 1)), (2, range(1, max_r + 1))]
    for k in range(1, max_k + 1):
        for m, r_range in regions:
            for r in r_range:
                for n in range(max_n + 1):
                    n2 = n - r - k * (m + 1)
                    lhs = h_count(n, k, m, -r, "le")
                    rhs = h_count(n2, k, m + 2, -r, "ge") if n2 >= 0 else 0
                    tally.add(
                        "second symmetry (m >= 0 region)",
                        lhs == rhs,
                        f"n={n} k={k} m={m} r={r}: {lhs} vs {rhs}",
                    )
    return tally.results("census")


def equidistribution_suite() -> list[CheckResult]:
    """Joint (widths, a, b) distribution: (k,0)-rank vs Garvan's statistic."""
    max_n, max_k = 22, 3
    tally = _Tally()
    for k in range(1, max_k + 1):
        for n in range(max_n + 1):
            ranked = _ranked(n, k, 0)
            # r = a - b on both sides, so whole records compare the triples
            ours = Counter(st for _, st in ranked)
            tally.add(
                "joint (widths, a, b) multisets agree",
                ours == Counter(garvan_rank(lam, k) for lam, _ in ranked),
                f"n={n} k={k}",
            )
    return tally.results("equidistribution")


# ---------------------------------------------------------------------------
# q-series suites.
# ---------------------------------------------------------------------------


def qseries_suite() -> list[CheckResult]:
    schur_order, andrews_order, jacobi_order = 60, 50, 100
    # order 22 is where the census suite ties the engine to enumeration
    census_order, lifted_order = 22, 200
    out = []
    rep = verify_identity("pentagonal", schur_order)
    out.append(_check("identity: pentagonal", rep.ok, str(rep.mismatch)))
    for k in range(1, 6):
        rep = verify_identity("schur", schur_order, k=k)
        out.append(_check(f"identity: schur k={k}", rep.ok, str(rep.mismatch)))
        rep = verify_identity("rr", schur_order, k=k)
        out.append(_check(f"identity: rr k={k}", rep.ok, str(rep.mismatch)))
    for k in range(1, 5):
        for a in range(1, k + 1):
            rep = verify_identity("andrews", andrews_order, k=k, a=a)
            out.append(_check(f"identity: andrews k={k} a={a}", rep.ok, str(rep.mismatch)))
    for k in range(1, 6):
        rep = verify_identity("jacobi", jacobi_order, k=k)
        out.append(_check(f"identity: jacobi k={k}", rep.ok, str(rep.mismatch)))
    for order, suffix in ((census_order, ""), (lifted_order, f" order={lifted_order}")):
        for k in range(1, 4):
            for m, r in [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]:
                rep = verify_identity("h_closed_form", order, k=k, m=m, r=r)
                out.append(
                    _check(
                        f"identity: h_closed_form k={k} m={m} r={r}{suffix}",
                        rep.ok,
                        str(rep.mismatch),
                    )
                )
    out.extend(_qseries_example_checks())
    return out


def _qseries_example_checks() -> list[CheckResult]:
    out = []
    T = 30
    euler = pochhammer(None, 7)
    out.append(
        _check(
            "series: euler product to order 7",
            euler.coeffs == (1, -1, -1, 0, 0, 1, 0, 1),
            str(euler.coeffs),
        )
    )
    by_size = [partitions_of(n) for n in range(T + 1)]
    pe = inv_euler(T)  # p_table's recurrence, so enumeration is the oracle
    out.append(
        _check(
            "series: 1/(q)_inf generates p(n)",
            list(pe.coeffs) == [len(lams) for lams in by_size],
        )
    )
    out.append(
        _check(
            "series: product with euler gives 1",
            pe * pochhammer(None, T) == QSeries.one(T),
        )
    )
    one_square = [
        sum(1 for lam in lams if len(durfee_square_widths(lam)) <= 1) for lams in by_size
    ]
    ms = multisum_lhs(2, None, T)
    out.append(
        _check("series: k=2 multisum counts one-square partitions", list(ms.coeffs) == one_square)
    )
    out.append(_check("series: k=1 multisum is 1", multisum_lhs(1, None, 10) == QSeries.one(10)))
    out.append(
        _check(
            "series: rr product k=2 a=1 has no q^1 term",
            rr_product(2, 1, 10).coeffs[1] == 0,
        )
    )
    out.append(
        _check(
            "series: rr product k=1 a=1 is empty",
            rr_product(1, 1, 20) == QSeries.one(20),
        )
    )
    theta, prod = jacobi_specialization(1, 12)
    want = [0] * 13
    for e, c in ((0, 1), (1, -1), (2, -1), (5, 1), (7, 1), (12, -1)):
        want[e] = c
    out.append(_check("series: pentagonal theta to order 12", list(theta.coeffs) == want))
    theta2, _ = jacobi_specialization(2, 11)
    want2 = [0] * 12
    for e, c in ((0, 1), (2, -1), (3, -1), (9, 1), (11, 1)):
        want2[e] = c
    out.append(_check("series: k=2 theta exponents", list(theta2.coeffs) == want2))
    out.append(
        _check(
            "series: schur rhs k=2 matches sum side",
            schur_rhs(2, 20) == multisum_lhs(2, None, 20),
        )
    )
    return out


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

SUITES = {
    "golden": golden_examples,
    "partition": partition_invariants,
    "decomposition": decomposition_invariants,
    "selection": selection_invariants,
    "rank": rank_invariants,
    "involution": involution_suite,
    "dyson": dyson_suite,
    "census": census_invariants,
    "equidistribution": equidistribution_suite,
    "qseries": qseries_suite,
}


def run_selftest(suites: tuple[str, ...] | None = None) -> list[CheckResult]:
    names = suites if suites is not None else tuple(SUITES)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    return [r for name in names for r in SUITES[name]()]

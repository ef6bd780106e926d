"""Selection of one part per partition in a bounded sequence, and insertion.

A sequence lambda^1..lambda^k comes with bounds p_2..p_k capping the largest
part of lambda^2..lambda^k.  Selection walks bottom-up: take the first part
of lambda^k, and from row j of lambda^i move to row j + p_i - lambda^i_j of
lambda^(i-1).  Selected rows may lie past the stored parts, in which case
they select a part of size 0 ("virtual" rows: no data is stored for them,
but the row arithmetic treats them like ordinary rows).

Insertion is the inverse: given a >= A (the current selection total), there
is exactly one way to add one part (possibly of size zero) to every
lambda^i so that the bounds still hold and the new selection total is a.
The inserted parts are precisely the parts selected afterwards, which is
why selection-plus-removal undoes insertion.  Counted in parts of lambda^i
above it, each new part's place depends only on the parts inserted below
it, so ``_placement`` fixes it level by level with one binary search: the
cost of an insertion depends neither on a nor on the bounds.

The helpers on raw part lists are the single implementation.
``_remove_rows`` deletes the selected rows in place and ``_remove_raw``
copies first; ``_remove_iterated`` repeats selection and removal in place,
one ``_remove_pass`` per level, as the rows a partition loses lie strictly
below each other; ``_insert_raw`` copies the parts once around the
placement.  The public operations on ``PartitionSequence`` wrap them; the
rank statistics and the bijections call them directly, so no sequence
object is built per step.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InsertionUnderflow, InternalInvariantViolation
from .partition import Partition, _check_ints


class PartitionSequence:
    """k partitions with bounds p_2..p_k; requires largest(lambda^i) <= p_i.

    Members must be Partitions and bounds ints (a bool is not), or TypeError.
    Both are stored as tuples: instances are immutable and hashable.
    """

    __slots__ = ("partitions", "bounds")

    partitions: tuple[Partition, ...]
    bounds: tuple[int, ...]

    def __init__(self, partitions: tuple[Partition, ...], bounds: tuple[int, ...]):
        partitions, bounds = tuple(partitions), tuple(bounds)
        k = len(partitions)
        if k < 1:
            raise ValueError("a sequence needs at least one partition")
        if len(bounds) != k - 1:
            raise ValueError(f"expected {k - 1} bounds for {k} partitions")
        for i, lam in enumerate(partitions, 1):
            if not isinstance(lam, Partition):
                raise TypeError(f"partition {i} must be a Partition, got {lam!r}")
        for i, p in enumerate(bounds):
            if type(p) is not int:  # the cheap test; the helper names the culprit
                _check_ints(**{f"bound p_{i + 2}": p})
            if p < 0:
                raise ValueError("bounds must be non-negative")
            if partitions[i + 1].largest > p:
                raise ValueError(
                    f"partition {i + 2} has largest part "
                    f"{partitions[i + 1].largest} > bound {p}"
                )
        object.__setattr__(self, "partitions", partitions)
        object.__setattr__(self, "bounds", bounds)

    def __setattr__(self, name, value):
        raise AttributeError("PartitionSequence is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, PartitionSequence):
            return self.partitions == other.partitions and self.bounds == other.bounds
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.partitions, self.bounds))

    def __repr__(self) -> str:
        return f"PartitionSequence(partitions={self.partitions!r}, bounds={self.bounds!r})"

    @property
    def k(self) -> int:
        return len(self.partitions)

    def part_tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p.parts for p in self.partitions)


class SelectionTrace(NamedTuple):
    """Selected row index and part size per partition, and their total."""

    rows: tuple[int, ...]
    parts: tuple[int, ...]
    total: int

    def to_json_dict(self) -> dict:
        return {"rows": list(self.rows), "parts": list(self.parts), "total": self.total}


# ---------------------------------------------------------------------------
# Internal helpers on raw part tuples/lists.  seqs[i] holds lambda^(i+1);
# bounds[i-1] is p_(i+1), the cap for seqs[i] when i >= 1.
# ---------------------------------------------------------------------------


def _select_raw(seqs, bounds):
    """Selected (rows, parts) for a sequence of part lists/tuples."""
    k = len(seqs)
    rows = [0] * k
    parts = [0] * k
    j = 1
    for i in range(k - 1, -1, -1):
        s = seqs[i]
        v = s[j - 1] if j <= len(s) else 0
        rows[i] = j
        parts[i] = v
        if i > 0:
            j += bounds[i - 1] - v
    return rows, parts


def _remove_rows(work, rows):
    """Delete the selected rows of the part lists in place (virtual rows are no-ops)."""
    for s, j in zip(work, rows):
        if j <= len(s):
            del s[j - 1]


def _remove_raw(seqs, rows):
    """Part tuples of ``seqs`` with the selected rows deleted."""
    work = list(map(list, seqs))
    _remove_rows(work, rows)
    return list(map(tuple, work))


def _placement(a, seqs, bounds):
    """Where ``insert`` puts its new parts: (j_i, v_i) for each partition.

    The new part v_i of lambda^i goes below its first j_i parts.  After the
    insertion the walk must select exactly the new parts, so, as row 1 of
    lambda^k is selected and each level adds p_i - v_i rows,
    j_i = P_i - s_i, where P_i = p_(i+1) + ... + p_k and
    s_i = v_(i+1) + ... + v_k.  The new part must also sit in its place:
    lambda^i_(j_i + 1) <= v_i <= lambda^i_(j_i), where lambda^i_0 is p_i,
    or unbounded for i = 1, and rows past the stored parts are 0.

    With s_0 = a and v_i = s_(i-1) - s_i, level i fixes s_i from s_(i-1):
    it is the largest s in [0, min(P_i, s_(i-1))] with
    s_(i-1) - s >= lambda^i_(P_i - s + 1).  Uniqueness: the gap
    f(s) = s_(i-1) - s - lambda^i_(P_i - s + 1) strictly falls as s grows,
    since the part read moves up a row and so does not shrink.  The lower
    condition is f(s) >= 0, and the upper one, v_i <= lambda^i_(P_i - s),
    is f(s + 1) < 0; so the only s that meets both is the last one with
    f >= 0.  The last level has P_k = 0 and takes v_k = s_(k-1).  In j
    (the parts of lambda^i above the new one) the condition reads
    lambda^i_(j+1) - j <= s_(i-1) - P_i, one binary search over the
    stored parts, so an insertion costs O(k log(parts)) whatever a and the
    bounds.  Rows past the stored parts always meet it.  An insertion
    exists for every a >= A (the paper's insertion theorem), so a bound
    that fails here is a bug and raises InternalInvariantViolation.
    """
    rest, left, out = sum(bounds), a, []  # P_i and s_(i-1)
    # lambda^1 is unbounded, and no new part exceeds a
    for s, cap, below in zip(seqs, (a, *bounds), (*bounds, 0)):
        n = len(s)
        d = left - rest
        j = -d if d < 0 else 0
        hi = rest if rest < n else n
        while j < hi:
            mid = (j + hi) // 2
            if s[mid] - mid <= d:
                hi = mid
            else:
                j = mid + 1
        v = d + j
        # past the stored parts v is 0, which fits any virtual row
        if j <= n and not (s[j] if j < n else 0) <= v <= (s[j - 1] if j else cap):
            raise InternalInvariantViolation(
                f"inserting {a}: part {v} does not fit below {j} parts of partition "
                f"{len(out) + 1}: parts {[tuple(t) for t in seqs]}, bounds {tuple(bounds)}"
            )
        out.append((j, v))
        left = rest - j
        rest -= below
    return out


def _insert_raw(a, seqs, bounds):
    """``insert`` on part tuples/lists, for a >= A; returns a list of part tuples."""
    return [
        (*s[:j], v, *s[j:]) if v else tuple(s)
        for s, (j, v) in zip(seqs, _placement(a, seqs, bounds))
    ]


def _remove_pass(s, rest, totals):
    """One level of ``_remove_iterated``, in place: adds each step's part to ``totals``.

    ``rest`` is P_i and ``totals[t]`` is s_i at step t, the parts it took
    from the levels below, so step t selects the row after P_i - s_i
    surviving parts.  The rows of the steps before it sat above that row,
    so it is row j_t = P_i - s_i + t of the input, 0-based; once a row lies
    past the stored parts every later one does, and the rest of the steps
    take 0.

    The rows strictly rise, by induction over the levels from lambda^k up.
    The totals entering a level weakly fall (at lambda^k they are all 0),
    so j_t rises by at least 1 per step.  The parts at strictly rising rows
    of a partition weakly fall, so the pass adds a weakly falling list
    followed by zeros, and the totals leaving it weakly fall too.
    """
    rows = []
    for t, x in enumerate(totals):
        j = rest - x + t
        if j >= len(s):
            break
        rows.append(j)
    for t, j in enumerate(rows):
        totals[t] += s[j]
    for j in reversed(rows):
        del s[j]


def _remove_iterated(work, bounds, t):
    """``iterate_remove`` on a list of part lists, in place: the nonzero removed totals.

    A removal only exposes rows below the ones it took, so in each partition
    the row removed at step t lies below those of the earlier steps, and
    every part above it survives all the steps: the walk selects the row
    after idx_t - 1 surviving parts, where idx_t is its selected row.  That
    count, P_i - s_i as in ``_placement``, depends only on the parts removed
    from the levels below, so the steps run as one ``_remove_pass`` per
    level, from lambda^k up; its docstring proves the rows it removes
    strictly rise.  Each nonzero total deletes a part, so there are at most
    as many nonzero totals as parts, whatever t; a total of 0 means every
    selected row was virtual, and so is every later one.
    """
    totals = [0] * min(t, sum(map(len, work)))
    rest = 0  # P_i
    for i in range(len(work) - 1, -1, -1):
        _remove_pass(work[i], rest, totals)
        if i:
            rest += bounds[i - 1]
    return totals[: totals.index(0)] if 0 in totals else totals


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def select(seq: PartitionSequence) -> SelectionTrace:
    """Run the selection walk and return its trace."""
    rows, parts = _select_raw(seq.part_tuples(), seq.bounds)
    return SelectionTrace(tuple(rows), tuple(parts), sum(parts))


def remove_selected(seq: PartitionSequence) -> tuple[SelectionTrace, PartitionSequence]:
    """Delete the selected part from each partition.

    Returns the trace (whose total is the removed amount) and the reduced
    sequence, which still satisfies the bounds.
    """
    tuples = seq.part_tuples()
    rows, parts = _select_raw(tuples, seq.bounds)
    reduced = _remove_raw(tuples, rows)
    new_seq = PartitionSequence(
        tuple(Partition._fromparts(tuple(s)) for s in reduced), seq.bounds
    )
    return SelectionTrace(tuple(rows), tuple(parts), sum(parts)), new_seq


def insert(a: int, seq: PartitionSequence) -> PartitionSequence:
    """Insert a total of ``a`` cells, one new part per partition.

    Requires a >= A = select(seq).total.  The result is the unique sequence
    with selection total ``a`` obtainable by inserting one part (possibly of
    size 0) into each partition within the bounds; selection-plus-removal
    gives ``seq`` back.  Each new part is found by one binary search over
    the parts of its partition (see ``_placement``), so an insertion costs
    one selection walk, O(k log(parts)) steps and one copy of the parts,
    whatever a and the bounds, and its output is the input plus k parts.
    """
    if type(a) is not int:  # the cheap test; the helper names the culprit
        _check_ints(a=a)
    if a < 0:
        raise ValueError("insertion total must be non-negative")
    tuples = seq.part_tuples()
    total = sum(_select_raw(tuples, seq.bounds)[1])
    if a < total:
        raise InsertionUnderflow(f"cannot insert {a} < selection total {total}")
    out = _insert_raw(a, tuples, seq.bounds)
    return PartitionSequence(
        tuple(Partition._fromparts(t) for t in out), seq.bounds
    )


def iterate_remove(
    seq: PartitionSequence, t: int
) -> tuple[tuple[int, ...], PartitionSequence]:
    """Apply remove_selected t times; returns nu and the residue.

    nu is the partition of the nonzero removed totals: they are weakly
    decreasing, since each removal only exposes rows at or below the
    previously selected ones, and once a total is 0 every later one is.
    Each nonzero total deletes a part, so nu and the walks are bounded by
    the input's parts for every t.
    """
    if type(t) is not int:  # as in insert
        _check_ints(t=t)
    if t < 0:
        raise ValueError("t must be non-negative")
    work = [list(p.parts) for p in seq.partitions]
    nu = _remove_iterated(work, seq.bounds, t)
    return tuple(nu), PartitionSequence(
        tuple(Partition._fromparts(tuple(s)) for s in work), seq.bounds
    )

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
why selection-plus-removal undoes insertion.  Insertion adds its cells in
jumps (see ``insert``), so its cost does not depend on a; the public
``insert`` prices it by its bounds and refuses past the series cap.

The helpers on raw part lists are the single implementation.  Removal and
insertion each have one in-place form on a working list per partition:
``_remove_rows`` deletes the selected rows (``del s[j - 1]``),
``_remove_iterated`` repeats selection and removal, and ``_insert_into``
runs ``_base_insert_raw`` in place, then ``_grow_raw``.  The copying forms
``_remove_raw`` and ``_insert_raw`` copy the parts once and call those same
helpers.  The public operations on ``PartitionSequence`` wrap them; the rank
statistics and the bijections call them directly, so no sequence object is
built per step, and a map that removes or inserts many times (generalized
conjugation) copies its sides once and edits them in place.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ImpracticalOrder, InsertionUnderflow, InternalInvariantViolation
from .partition import MAX_SERIES_COST, Partition, _check_ints


class PartitionSequence:
    """k partitions with bounds p_2..p_k; requires largest(lambda^i) <= p_i.

    Instances are immutable and hashable.
    """

    __slots__ = ("partitions", "bounds")

    partitions: tuple[Partition, ...]
    bounds: tuple[int, ...]

    def __init__(self, partitions: tuple[Partition, ...], bounds: tuple[int, ...]):
        k = len(partitions)
        if k < 1:
            raise ValueError("a sequence needs at least one partition")
        if len(bounds) != k - 1:
            raise ValueError(f"expected {k - 1} bounds for {k} partitions")
        for i, p in enumerate(bounds):
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


def _base_insert_raw(work, rows, parts):
    """Duplicate each selected part directly above its selected row, in place.

    Virtual (size-0) selections change nothing.
    """
    for s, j, v in zip(work, rows, parts):
        if v > 0:
            s.insert(j - 1, v)


def _grow_raw(work, bounds, cells, selected=None):
    """Add ``cells`` cells to the inserted parts in jumps (see ``insert``).

    ``selected`` is ``_select_raw(work, bounds)``, if the caller has it.
    """
    left = cells
    while left > 0:
        rows, parts = selected or _select_raw(work, bounds)
        selected = None
        if rows[0] == 1:
            i, j, step = 0, 1, left
        else:
            for i, (j, v) in enumerate(zip(rows, parts)):
                s = work[i]
                # i == 0 was handled above, so bounds[i - 1] is in range
                ceiling = bounds[i - 1] if j == 1 else s[j - 2] if j - 1 <= len(s) else 0
                if v < ceiling:
                    break
            else:
                raise InternalInvariantViolation(
                    f"no partition can absorb another cell: parts {work}, "
                    f"bounds {tuple(bounds)}, {left} of {cells} cells left"
                )
            step = min(left, ceiling - v) if i == 0 else 1
        s = work[i]
        if j <= len(s):
            s[j - 1] += step
        elif j == len(s) + 1:
            s.append(step)
        else:
            raise InternalInvariantViolation(
                f"virtual selection at row {j} of partition {i + 1} grew past the first "
                f"virtual row: parts {work}, bounds {tuple(bounds)}, {left} of {cells} cells left"
            )
        left -= step


def _insert_into(a, work, bounds, selected=None):
    """``insert`` on a list of part lists, in place.

    ``selected`` is ``_select_raw(work, bounds)``, if the caller has it;
    else one selection walk runs.  The walk also serves the a >= A check:
    the base insertion keeps every selected row and part, so the walk is
    still valid for the first jump.
    """
    rows, parts = selected or _select_raw(work, bounds)
    total = sum(parts)
    if a < total:
        raise InsertionUnderflow(f"cannot insert {a} < selection total {total}")
    _base_insert_raw(work, rows, parts)
    _grow_raw(work, bounds, a - total, (rows, parts))


def _insert_raw(a, seqs, bounds, selected=None):
    """``insert`` on part tuples/lists; returns a list of part tuples."""
    work = list(map(list, seqs))
    _insert_into(a, work, bounds, selected)
    return list(map(tuple, work))


def _remove_iterated(work, bounds, t, where):
    """``iterate_remove`` on a list of part lists, in place: the nonzero removed totals.

    After each removal the O(k) bound check runs; ``where()`` names the
    input in the InternalInvariantViolation it raises.  A total of 0 means
    every selected row was virtual, so nothing changes from there on: the
    walks stop.  Each nonzero total deletes at least one part, so there are
    at most as many walks and totals as parts, whatever t.
    """
    totals = []
    for _ in range(t):
        rows, parts = _select_raw(work, bounds)
        total = sum(parts)
        if not total:
            break
        _remove_rows(work, rows)
        _check_bounds(work, bounds, where)
        totals.append(total)
    return totals


def _check_bounds(seqs, bounds, where):
    """Raise InternalInvariantViolation unless largest(lambda^i) <= p_i."""
    for i, p in enumerate(bounds, 1):
        s = seqs[i]
        if s and s[0] > p:
            raise InternalInvariantViolation(
                f"partition {i + 1} has largest part {s[0]} > bound {p}: {where()}"
            )


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
    with selection total ``a`` obtainable by inserting one part into each
    partition within the bounds.  Each selected part is first duplicated
    above its row; each further cell goes to the first part of lambda^1 if
    its selection is at row 1, else to the first partition whose selected
    part is below its ceiling (the part above it, or p_i at row 1).  A walk
    places every cell that cannot change that choice.  It reads lambda^1
    last, so growing lambda^1 moves no selected row: all remaining cells go
    in at row 1, as many as fit under the ceiling at a lower row.  A cell at
    a level i >= 2 goes in alone.  It lowers by one the row index the walk
    moves to next, and parts at smaller indices are no smaller, so every
    selected row of lambda^(i-1) .. lambda^1 moves up: rows[0] strictly
    decreases.  As rows[0] <= 1 + sum(p_i), at most 2 * rows[0] + 2 walks of
    k steps run, after one copy of the parts: insertion costs
    O(k * (parts + sum(p_i))) for any a.  That bound is its price; past
    MAX_SERIES_COST it raises ImpracticalOrder before anything is built.
    """
    if type(a) is not int:  # the cheap test; the helper names the culprit
        _check_ints(a=a)
    if a < 0:
        raise ValueError("insertion total must be non-negative")
    cost = seq.k * (2 * sum(seq.bounds) + 4) + sum(map(len, seq.partitions))
    if cost > MAX_SERIES_COST:
        raise ImpracticalOrder(
            f"insert with bounds summing to {sum(seq.bounds)} may take {cost} walk steps "
            f"(cap {MAX_SERIES_COST}); refusing"
        )
    out = _insert_raw(a, seq.part_tuples(), seq.bounds)
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
    nu = _remove_iterated(work, seq.bounds, t, lambda: repr(seq))
    return tuple(nu), PartitionSequence(
        tuple(Partition._fromparts(tuple(s)) for s in work), seq.bounds
    )

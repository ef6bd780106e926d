"""One round of an in-process workload, in a fresh interpreter.

Reads the job set as JSON on stdin, runs every op once against durfee
(found through PYTHONPATH), checks each output with the benchmark's own
oracles and the recorded digests, and prints one JSON line: per-op
latencies, the speed reference taken between ops (see speed.py), failures,
peak RSS and, when traced, the spans.

Untraced ops call the library as a user would.  Traced ops replay the same
work layer by layer through public functions, one span around each call
(or batch of calls) into a module, so the per-layer numbers come from the
benchmark's own files and nothing inside the library is instrumented.
"""

from __future__ import annotations

import json
import resource
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter

import durfee
from durfee import (
    Partition,
    PartitionSequence,
    QSeries,
    census,
    compose,
    decompose,
    garvan_rank,
    gen_conjugate,
    gen_dyson,
    gen_dyson_inverse,
    h_count,
    insert,
    inv_euler,
    jacobi_specialization,
    multisum_lhs,
    partitions_of,
    profile,
    q_table,
    rank_census,
    rank_km,
    remove_selected,
    rr_product,
    schur_rhs,
    select,
    verify_identity,
)
from durfee.errors import NoSuchDecomposition

import oracle
import speed


class Tracer:
    """In-memory spans: [id, parent id, op index, name, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, **attrs):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, self.op, name, 0.0, 0.0, attrs]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[4] = perf_counter()
        try:
            yield attrs
        finally:
            rec[5] = perf_counter()
            self._stack.pop()


class Untraced:
    """Stands in for a Tracer when timing end-to-end: a span does nothing."""

    _none = nullcontext({})

    def span(self, name: str, **attrs):
        return self._none


# ---------------------------------------------------------------------------
# census_sweep
# ---------------------------------------------------------------------------


def census_prepare(op):
    return None


def census_run(op, pre, tr):
    n, k, m = op["n"], op["k"], op["m"]
    if isinstance(tr, Untraced):
        table = census(n, k, m)
        return table, rank_census(n, k, m), h_count(n, k, m, op["r"], op["mode"]), None
    with tr.span("partition.enumerate") as s:
        parts = partitions_of(n)
        s["partitions"] = len(parts)
    with tr.span("decomposition.decompose", calls=len(parts)):
        decs = []
        for lam in parts:
            try:
                decs.append((lam, decompose(lam, k, m)))
            except NoSuchDecomposition:
                pass
    with tr.span("select_insert.select", calls=len(decs)):
        for _, d in decs:
            select(PartitionSequence(d.sides, profile(d)))
    with tr.span("rank.rank_km", calls=len(decs)):
        replayed = Counter(rank_km(lam, k, m).r for lam, _ in decs)
    with tr.span("census.rank_census", ranked=len(decs), enumerated=len(parts)):
        rc = rank_census(n, k, m)
    with tr.span("census.census"):
        table = census(n, k, m)
    if m == 0:
        with tr.span("partition.q_table"):
            q_table(k - 1, n)
    with tr.span("census.h_count"):
        h = h_count(n, k, m, op["r"], op["mode"])
    return table, rc, h, replayed


def census_check(op, pre, out):
    table, rc, h, replayed = out
    rows = table.rows
    if oracle.digest(table.to_json_dict()) != op["expect"]:
        return "census table differs from the recorded one"
    if op["m"] > 0 and table.total != op["p"]:
        return f"census total {table.total} != p({op['n']}) = {op['p']}"
    if dict(rc) != rows or (replayed is not None and dict(replayed) != rows):
        return "rank_census disagrees with the census table"
    r, mode = op["r"], op["mode"]
    want = sum(c for v, c in rows.items()
               if (v <= r if mode == "le" else v >= r if mode == "ge" else v == r))
    if h != want:
        return f"h_count {mode} {r} = {h}, table gives {want}"
    return None


# ---------------------------------------------------------------------------
# bijection_stream
# ---------------------------------------------------------------------------


def stream_prepare(op):
    return Partition.from_text(op["lam"])


def stream_run(op, lam, tr):
    k, m, r, kc = op["k"], op["m"], op["r"], op["kc"]
    with tr.span("decomposition.decompose", calls=1):
        d = decompose(lam, k, m)
    with tr.span("select_insert.select", calls=1):
        seq = PartitionSequence(d.sides, profile(d))
        trace = select(seq)
    with tr.span("rank.rank_km", calls=1):
        st = rank_km(lam, k, m)
    with tr.span("rank.garvan"):
        g = garvan_rank(lam, kc)
    with tr.span("bijections.gen_conjugate"):
        mu = gen_conjugate(lam, kc)
        back = gen_conjugate(mu, kc)
    with tr.span("bijections.gen_dyson"):
        nu = gen_dyson(lam, k, m, r)
    with tr.span("bijections.gen_dyson_inverse"):
        back2 = gen_dyson_inverse(nu, k, m, r)
    a = trace.total + op["delta"]
    with tr.span("select_insert.insert", calls=1, cells=op["delta"]):
        big = insert(a, seq)
    with tr.span("select_insert.remove"):
        removed, residue = remove_selected(big)
    with tr.span("decomposition.compose"):
        again = compose(d)
    return {"st": st, "trace": trace, "seq": seq, "g": g, "mu": mu, "back": back,
            "nu": nu, "back2": back2, "a": a, "big": big, "removed": removed,
            "residue": residue, "again": again}


def stream_check(op, lam, o):
    k, m, kc = op["k"], op["m"], op["kc"]
    exp = op["expect"]
    got = {**o["st"].to_json_dict(k, m), **o["trace"].to_json_dict()}
    own = oracle.rank(lam.parts, k, m)
    if own is None or any(got[key] != own[key] for key in own):
        return "rank_km or its selection trace disagrees with the oracle"
    if oracle.digest(got) != exp["rank"]:
        return "rank_km differs from the recorded output"
    own_g = oracle.garvan(lam.parts, kc)
    got_g = o["g"].to_json_dict(kc, None)
    if own_g is None or any(got_g[key] != own_g[key] for key in own_g):
        return "garvan_rank disagrees with the oracle"
    if oracle.digest(got_g) != exp["garvan"]:
        return "garvan_rank differs from the recorded output"
    if o["back"] != lam:
        return "gen_conjugate is not an involution here"
    if oracle.digest(o["mu"].text()) != exp["conj"]:
        return "gen_conjugate differs from the recorded output"
    if o["back2"] != lam:
        return "gen_dyson_inverse does not undo gen_dyson"
    if oracle.digest(o["nu"].text()) != exp["dyson"]:
        return "gen_dyson differs from the recorded output"
    if o["again"] != lam:
        return "compose(decompose(lam)) != lam"
    seq, big, a = o["seq"], o["big"], o["a"]
    rows, chosen = oracle.select(big.part_tuples(), seq.bounds)
    if sum(chosen) != a or o["removed"].total != a:
        return f"insert({a}) does not give selection total {a}"
    if oracle.remove_rows(big.part_tuples(), rows) != seq.part_tuples() or o["residue"] != seq:
        return f"remove_selected after insert({a}) does not return the input"
    return None


# ---------------------------------------------------------------------------
# identity_verify
# ---------------------------------------------------------------------------


def identity_prepare(op):
    if op["kind"] == "mul":
        return QSeries(op["p"], op["order"]), QSeries(op["b"], op["order"])
    return None


def _replay_sides(op, tr):
    """Compute the two sides verify_identity compares, one span each."""
    name, T, k, a = op["name"], op["order"], op.get("k"), op.get("a")
    if name in ("schur", "rr", "andrews"):
        with tr.span("qseries.multisum_lhs"):
            multisum_lhs(k, a, T)
    with tr.span("qseries.product_side"):
        if name == "schur":
            schur_rhs(k, T)
        elif name in ("rr", "andrews"):
            rr_product(k, a or k, T)
        elif name == "jacobi":
            jacobi_specialization(k, T)
        else:
            schur_rhs(1, T)


def identity_run(op, pre, tr):
    kind = op["kind"]
    if kind == "mul":
        a, b = pre
        with tr.span("qseries.mul", calls=1, coeff_products=op["products"]):
            return a * b
    if kind == "inv_euler":
        with tr.span("qseries.inv_euler"):
            return inv_euler(op["order"])
    if isinstance(tr, Tracer):
        _replay_sides(op, tr)
    kw = {key: op[key] for key in ("k", "a") if key in op}
    with tr.span("qseries.verify_identity"):
        return verify_identity(op["name"], op["order"], **kw)


def identity_check(op, pre, out):
    kind, T = op["kind"], op["order"]
    if kind == "mul":
        if out.order != T or oracle.times_euler(list(out.coeffs)) != op["b"]:
            return f"QSeries product at order {T} is wrong"
        return None
    if kind == "inv_euler":
        if out.order != T or not oracle.is_inverse_euler(list(out.coeffs)):
            return f"inv_euler({T}) does not give p(0..{T})"
        return None
    if not (out.ok and out.mismatch is None and out.name == op["name"] and out.order == T):
        return f"verify_identity {op['name']} order {T}: {out.to_json_dict()}"
    return None


RUNNERS = {
    "census_sweep": (census_prepare, census_run, census_check),
    "bijection_stream": (stream_prepare, stream_run, stream_check),
    "identity_verify": (identity_prepare, identity_run, identity_check),
}


def main() -> None:
    spec = json.load(sys.stdin)
    prepare, run, check = RUNNERS[spec["workload"]]
    tr = Tracer() if spec["trace"] else Untraced()
    latencies, failures = [], []
    refs = [speed.reference()]
    for i, op in enumerate(spec["ops"]):
        pre = prepare(op)
        if isinstance(tr, Tracer):
            tr.op = i
        problem = None
        t0 = perf_counter()
        try:
            with tr.span("op", kind=op["kind"]):
                out = run(op, pre, tr)
        except Exception as e:  # an op that raises is a failed op, not a crash
            problem = f"{type(e).__name__}: {e}"
        latencies.append(perf_counter() - t0)
        refs.append(speed.reference())
        problem = problem or check(op, pre, out)
        if problem:
            failures.append(f"op {i} ({op['kind']}): {problem}")
    print(json.dumps({
        "durfee_version": durfee.__version__,
        "latencies": latencies,
        "refs": refs,
        "failures": failures,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tr.spans if isinstance(tr, Tracer) else None,
    }))


if __name__ == "__main__":
    main()

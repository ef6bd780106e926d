"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 verification mismatch or selftest
failure, 3 domain error.  Domain errors print ``error[<code>]: <message>``
to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bijections import gen_conjugate, gen_dyson, gen_dyson_inverse
from .census import census
from .decomposition import decompose
from .errors import DurfeeError
from .partition import Partition
from .qseries import IDENTITIES, verify_identity
from .rank import _rank_km_full, garvan_rank, rank_km

USAGE_EXIT = 1
MISMATCH_EXIT = 2
DOMAIN_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error[Usage]: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="durfee", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_partition_args(p):
        p.add_argument("partition", nargs="?", help="partition text, e.g. 5,5,4,1 (- for empty)")
        p.add_argument("--stdin", action="store_true", help="read one partition per line")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("decompose", help="successive m-Durfee-rectangle decomposition")
    add_partition_args(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--m", type=int, default=0)

    p = sub.add_parser("rank", help="(k,m)-rank or Garvan statistic of a partition")
    add_partition_args(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--garvan", action="store_true", help="use Garvan's column statistic")
    p.add_argument("--trace", action="store_true", help="include the selection trace")

    p = sub.add_parser("conjugate", help="classical or generalized conjugation")
    add_partition_args(p)
    p.add_argument("--k", type=int, default=None, help="use the k-square generalized map")

    p = sub.add_parser("dyson", help="the m-shift map (or its inverse)")
    add_partition_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--inverse", action="store_true")

    p = sub.add_parser("census", help="rank census over all partitions of n")
    p.add_argument("n", type=int)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="verify an identity coefficient by coefficient")
    p.add_argument("name", choices=IDENTITIES)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("selftest", help="golden examples and exhaustive law suites")
    p.add_argument(
        "--suite", action="append", help="run only the named suite (repeatable; default: all)"
    )
    p.add_argument("--json", action="store_true")
    return top


def _partitions_in(args) -> list[Partition]:
    if args.stdin:
        return [Partition.from_text(line) for line in sys.stdin.read().splitlines() if line.strip()]
    if args.partition is None:
        raise ValueError("a partition argument (or --stdin) is required")
    return [Partition.from_text(args.partition)]


def _emit(obj: dict, as_json: bool, plain: str) -> None:
    if as_json:
        print(json.dumps(obj, sort_keys=True))
    else:
        print(plain)


def _cmd_decompose(args) -> int:
    for lam in _partitions_in(args):
        d = decompose(lam, args.k, args.m)
        print(json.dumps(d.to_json_dict(), sort_keys=True))
    return 0


def _cmd_rank(args) -> int:
    for lam in _partitions_in(args):
        if args.garvan:
            st = garvan_rank(lam, args.k)
            doc = st.to_json_dict(args.k, None)
            doc["statistic"] = "garvan"
        else:
            st, _, trace = _rank_km_full(lam, args.k, args.m)
            doc = st.to_json_dict(args.k, args.m)
            doc["statistic"] = "km"
            if args.trace:
                doc["trace"] = trace.to_json_dict()
        print(json.dumps(doc, sort_keys=True))
    return 0


def _audit(lam: Partition, mu: Partition, before, after, **params) -> dict:
    """Image of a map plus the (k,m)-rank statistics on both sides of it."""
    doc = {"input": lam.text(), "image": mu.text(), **params}
    for side, st in (("before", before), ("after", after)):
        doc[f"widths_{side}"] = list(st.widths)
        doc[f"a_{side}"] = st.a
        doc[f"b_{side}"] = st.b
        doc[f"r_{side}"] = st.r
    return doc


def _cmd_conjugate(args) -> int:
    for lam in _partitions_in(args):
        if args.k is None:
            mu = lam.conjugate()
            audit = {"input": lam.text(), "image": mu.text(), "k": None}
        else:
            before = rank_km(lam, args.k, 0)
            mu = gen_conjugate(lam, args.k)
            audit = _audit(lam, mu, before, rank_km(mu, args.k, 0), k=args.k)
        _emit(audit, args.json, mu.text())
    return 0


def _cmd_dyson(args) -> int:
    for lam in _partitions_in(args):
        if args.inverse:
            before = rank_km(lam, args.k, args.m + 2)
            mu = gen_dyson_inverse(lam, args.k, args.m, args.r)
            after = rank_km(mu, args.k, args.m)
        else:
            before = rank_km(lam, args.k, args.m)
            mu = gen_dyson(lam, args.k, args.m, args.r)
            after = rank_km(mu, args.k, args.m + 2)
        audit = _audit(
            lam, mu, before, after, k=args.k, m=args.m, r=args.r, inverse=args.inverse
        )
        _emit(audit, args.json, mu.text())
    return 0


def _cmd_census(args) -> int:
    table = census(args.n, args.k, args.m)
    if args.json:
        print(json.dumps(table.to_json_dict(), sort_keys=True))
    else:
        print(f"n={table.n} k={table.k} m={table.m} total={table.total}")
        for r in sorted(table.rows):
            print(f"{r:>5} {table.rows[r]}")
    return 0


def _cmd_verify(args) -> int:
    rep = verify_identity(
        args.name, args.order, k=args.k, a=args.a, m=args.m, r=args.r
    )
    if args.json:
        print(json.dumps(rep.to_json_dict(), sort_keys=True))
    elif rep.ok:
        print(f"ok {rep.name} {rep.params} order={rep.order}")
    else:
        mm = rep.mismatch
        print(
            f"MISMATCH {rep.name} {rep.params} at q^{mm['n']}: "
            f"lhs={mm['lhs']} rhs={mm['rhs']}"
        )
    return 0 if rep.ok else MISMATCH_EXIT


def _cmd_selftest(args) -> int:
    # imported here so that other commands do not pay for loading the suites
    from .selftest import run_selftest

    suites = tuple(args.suite) if args.suite else None
    results = run_selftest(suites)
    bad = sum(1 for r in results if not r.ok)
    if args.json:
        print(
            json.dumps(
                [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]
            )
        )
    else:
        for r in results:
            if r.ok:
                print(f"PASS {r.name} ({r.detail})" if r.detail else f"PASS {r.name}")
            else:
                print(f"FAIL {r.name}: {r.detail}")
        print(f"{len(results) - bad}/{len(results)} checks passed")
    return 0 if bad == 0 else MISMATCH_EXIT


_COMMANDS = {
    "decompose": _cmd_decompose,
    "rank": _cmd_rank,
    "conjugate": _cmd_conjugate,
    "dyson": _cmd_dyson,
    "census": _cmd_census,
    "verify": _cmd_verify,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as e:
        print(f"error[Usage]: {e}", file=sys.stderr)
        return USAGE_EXIT
    except DurfeeError as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return DOMAIN_EXIT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

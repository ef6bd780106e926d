"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 verification mismatch or selftest
failure, 3 domain error, 141 stdout closed by its reader before all output
was written (as in ``durfee census 200 | head -1``; the status a shell gives
a process ended by SIGPIPE).  Domain errors print
``error[<code>]: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .bijections import gen_conjugate, gen_dyson, gen_dyson_inverse
from .decomposition import _decompose_raw, _decomposition_json
from .errors import DurfeeError
from .partition import Partition, _conjugate_parts, _parse_parts, _parts_text
from .qseries import IDENTITIES, census, verify_identity
from .rank import _rank_json, _rank_raw, garvan_rank, rank_km
from .select_insert import SelectionTrace

USAGE_EXIT = 1
MISMATCH_EXIT = 2
DOMAIN_EXIT = 3
PIPE_EXIT = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error[Usage]: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


# every JSON line: the bytes of json.dumps(obj, sort_keys=True), without
# building a new encoder for each
_encode = json.JSONEncoder(sort_keys=True).encode

# a batch's output lines are joined and written in blocks of this many
_LINES_PER_WRITE = 1024


def _batch(args) -> list[tuple[int, ...]]:
    """The input partitions as part tuples, every line parsed before any is used."""
    if args.stdin:
        return [_parse_parts(line) for line in sys.stdin.read().splitlines() if line.strip()]
    if args.partition is None:
        raise ValueError("a partition argument (or --stdin) is required")
    return [_parse_parts(args.partition)]


def _print_lines(line, args) -> int:
    """Print ``line(ps)`` for every input partition, _LINES_PER_WRITE lines a write.

    An error at input i propagates after lines 1..i-1 are printed.
    """
    out = []
    try:
        for ps in _batch(args):
            out.append(line(ps))
            if len(out) == _LINES_PER_WRITE:
                _write_lines(out)
    finally:
        if out:
            _write_lines(out)
    return 0


def _write_lines(lines: list[str]) -> None:
    # the last newline goes in a write of its own: under python -u a write
    # that the reader cuts short by closing the pipe returns without an
    # error, and only the next one raises BrokenPipeError
    text = "\n".join(lines)
    lines.clear()
    sys.stdout.write(text)
    sys.stdout.write("\n")


def _cmd_decompose(args) -> int:
    k, m = args.k, args.m

    def line(ps):
        return _encode(_decomposition_json(m, k, *_decompose_raw(ps, k, m)))

    return _print_lines(line, args)


def _cmd_rank(args) -> int:
    k, m = args.k, args.m
    if args.garvan and args.trace:
        raise ValueError("--trace shows a selection walk, and Garvan's statistic has none")

    def garvan(ps):
        doc = garvan_rank(Partition._fromparts(ps), k).to_json_dict(k, None)
        doc["statistic"] = "garvan"
        return _encode(doc)

    def km(ps):
        widths, _, below, rows, parts = _rank_raw(ps, k, m)
        a, b = sum(parts), len(below)
        doc = _rank_json(k, m, widths, a, b, a - b)
        doc["statistic"] = "km"
        if args.trace:
            doc["trace"] = SelectionTrace(rows, parts, a).to_json_dict()
        return _encode(doc)

    return _print_lines(garvan if args.garvan else km, args)


def _audit(lam: Partition, mu: Partition, before, after, **params) -> str:
    """Image of a map plus the (k,m)-rank statistics on both sides of it, as JSON."""
    doc = {"input": lam.text(), "image": mu.text(), **params}
    for side, st in (("before", before), ("after", after)):
        doc[f"widths_{side}"] = list(st.widths)
        doc[f"a_{side}"] = st.a
        doc[f"b_{side}"] = st.b
        doc[f"r_{side}"] = st.r
    return _encode(doc)


def _cmd_conjugate(args) -> int:
    k = args.k

    def classical(ps):
        image = _parts_text(_conjugate_parts(ps))
        if args.json:
            return _encode({"input": _parts_text(ps), "image": image, "k": None})
        return image

    def generalized(ps):
        lam = Partition._fromparts(ps)
        mu = gen_conjugate(lam, k)
        if not args.json:
            return mu.text()
        # gen_conjugate decomposes lam first, so it fails where rank_km(lam) would
        return _audit(lam, mu, rank_km(lam, k, 0), rank_km(mu, k, 0), k=k)

    return _print_lines(classical if k is None else generalized, args)


def _cmd_dyson(args) -> int:
    k, m, r = args.k, args.m, args.r
    # the map takes (k, m) to (k, m + 2), the inverse back
    m_in, m_out, shift = (m + 2, m, gen_dyson_inverse) if args.inverse else (m, m + 2, gen_dyson)

    def line(ps):
        lam = Partition._fromparts(ps)
        mu = shift(lam, k, m, r)
        if not args.json:
            return mu.text()
        # the map ranks lam first, so it fails where rank_km(lam) would
        before, after = rank_km(lam, k, m_in), rank_km(mu, k, m_out)
        return _audit(lam, mu, before, after, k=k, m=m, r=r, inverse=args.inverse)

    return _print_lines(line, args)


def _cmd_census(args) -> int:
    table = census(args.n, args.k, args.m)
    if args.json:
        print(_encode(table.to_json_dict()))
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
        print(_encode(rep.to_json_dict()))
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
        for r in results:
            print(_encode(r._asdict()))
    else:
        for r in results:
            if r.ok:
                print(f"PASS {r.name} ({r.detail})" if r.detail else f"PASS {r.name}")
            else:
                print(f"FAIL {r.name}: {r.detail}")
        print(f"{len(results) - bad}/{len(results)} checks passed")
    return 0 if bad == 0 else MISMATCH_EXIT


def _partition_args(p):
    p.add_argument("partition", nargs="?", help="partition text, e.g. 5,5,4,1 (- for empty)")
    p.add_argument("--stdin", action="store_true", help="read one partition per line")
    p.add_argument("--json", action="store_true", help="emit JSON")


def _decompose_args(p):
    _partition_args(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--m", type=int, default=0)


def _rank_args(p):
    _decompose_args(p)
    p.add_argument("--garvan", action="store_true", help="use Garvan's column statistic")
    p.add_argument("--trace", action="store_true", help="include the selection trace")


def _conjugate_args(p):
    _partition_args(p)
    p.add_argument("--k", type=int, default=None, help="use the k-square generalized map")


def _dyson_args(p):
    _partition_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--inverse", action="store_true")


def _census_args(p):
    p.add_argument("n", type=int)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--json", action="store_true")


def _verify_args(p):
    p.add_argument("name", choices=IDENTITIES)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--json", action="store_true")


def _selftest_args(p):
    p.add_argument(
        "--suite", action="append", help="run only the named suite (repeatable; default: all)"
    )
    p.add_argument("--json", action="store_true")


# name -> (help, arguments, command), in the order of the usage listing
_COMMANDS = {
    "decompose": ("successive m-Durfee-rectangle decomposition", _decompose_args,
                  _cmd_decompose),
    "rank": ("(k,m)-rank or Garvan statistic of a partition", _rank_args, _cmd_rank),
    "conjugate": ("classical or generalized conjugation", _conjugate_args, _cmd_conjugate),
    "dyson": ("the m-shift map (or its inverse)", _dyson_args, _cmd_dyson),
    "census": ("rank census over all partitions of n", _census_args, _cmd_census),
    "verify": ("verify an identity coefficient by coefficient", _verify_args, _cmd_verify),
    "selftest": ("golden examples and exhaustive law suites", _selftest_args, _cmd_selftest),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.

    A parser of one subcommand shows the full list of commands in its
    usage line, so its help and error texts are those of the full parser.
    """
    top = _Parser(prog="durfee", description=__doc__)
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = top.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_, add_args, _) in _COMMANDS.items():
        if command is None or name == command:
            add_args(sub.add_parser(name, help=help_))
    return top


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # -h, no command or an unknown one need the full parser for their texts
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command][2](args)
    except ValueError as e:
        print(f"error[Usage]: {e}", file=sys.stderr)
        return USAGE_EXIT
    except DurfeeError as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return DOMAIN_EXIT


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # that the flush at interpreter exit cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = PIPE_EXIT
    # every object alive now goes to the permanent generation, so that the
    # collections at interpreter exit have nothing to traverse or tear down;
    # atexit handlers and the flush of stdout and stderr still run
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()

"""Record the expected outputs under ``expected/`` from the library.

Run once, from the repository root, at the commit that defines the
benchmark:

    python3 perfbench/record.py

Later commits are checked against these files, so do not re-record them
to make a run pass.  The bijection pool is drawn here with a fixed seed;
its parameters are chosen in-domain with the benchmark's own oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import durfee  # noqa: E402
from durfee import cli  # noqa: E402

import jobs  # noqa: E402
import oracle  # noqa: E402

POOL_SEED = 20060718


class PartitionSampler:
    """Uniformly random partitions of n, from the counts p(n, parts <= j)."""

    def __init__(self, top: int):
        self.count = [[1] * (top + 1)] + [[0] * (top + 1) for _ in range(top)]
        for n in range(1, top + 1):
            for j in range(1, top + 1):
                self.count[n][j] = self.count[n][j - 1] + (self.count[n - j][j] if n >= j else 0)

    def sample(self, n: int, rng: random.Random) -> tuple[int, ...]:
        parts, cap = [], n
        while n > 0:
            x = rng.randrange(self.count[n][cap])
            # count[n - j][j] of the partitions of n have largest part j
            for j in range(min(cap, n), 0, -1):
                c = self.count[n - j][j]
                if x < c:
                    break
                x -= c
            parts.append(j)
            n -= j
            cap = j
        return tuple(parts)


def cli_lines(argv: list[str], stdin: str | None = None) -> list[str]:
    out = io.StringIO()
    saved = sys.stdin
    try:
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    if code != 0:
        raise SystemExit(f"recording failed: durfee {' '.join(argv)} exited {code}")
    return [oracle.text_digest(line) for line in out.getvalue().splitlines()]


def census_tables() -> dict:
    return {jobs.census_key(*c): oracle.digest(durfee.census(*c).to_json_dict())
            for c in jobs.census_cells()}


def stream_item(lam: tuple[int, ...], k: int, rng: random.Random) -> dict | None:
    """One in-domain pool item for class k, or None if lam does not fit."""
    ms = [-2, -1, 0, 1, 2]
    rng.shuffle(ms)
    for m in ms:
        dec = oracle.decompose(lam, k, m)
        if dec is not None and min(dec[0]) >= 1:
            break
    else:
        return None
    kc = next((c for c in (k, 3, 2, 1) if oracle.decompose(lam, c, 0) is not None), None)
    if kc is None:
        return None
    own = oracle.rank(lam, k, m)
    r = -own["r"] - rng.randint(0, 2)
    P = durfee.Partition(lam)
    st = durfee.rank_km(P, k, m)
    d = durfee.decompose(P, k, m)
    trace = durfee.select(durfee.PartitionSequence(d.sides, durfee.profile(d)))
    got = {**st.to_json_dict(k, m), **trace.to_json_dict()}
    if any(got[key] != own[key] for key in ("a", "b", "r", "widths", "rows", "parts")):
        raise SystemExit(f"oracle and library disagree on the rank of {P.text()}")
    text = P.text()
    item = {
        "lam": text, "k": k, "m": m, "r": r, "kc": kc,
        "expect": {
            "rank": oracle.digest(got),
            "garvan": oracle.digest(durfee.garvan_rank(P, kc).to_json_dict(kc, None)),
            "conj": oracle.digest(durfee.gen_conjugate(P, kc).text()),
            "dyson": oracle.digest(durfee.gen_dyson(P, k, m, r).text()),
        },
    }
    sk, sm = str(k), str(m)
    item["cli"] = {
        "decompose": cli_lines(["decompose", "--k", sk, "--m", sm, text])[0],
        "rank": cli_lines(["rank", "--k", sk, "--m", sm, "--trace", text])[0],
        "conjugate": cli_lines(["conjugate", "--k", str(kc), "--json", text])[0],
        "dyson": cli_lines(["dyson", "--k", sk, "--m", sm, "--r", str(r), "--json", text])[0],
    }
    bk, bm = str(jobs.CLI_STDIN_K), str(jobs.CLI_STDIN_M)
    item["cli"]["stdin_decompose"] = cli_lines(["decompose", "--k", bk, "--m", bm, text])[0]
    item["cli"]["stdin_rank"] = cli_lines(["rank", "--k", bk, "--m", bm, "--json", text])[0]
    return item


def stream_pool() -> list[dict]:
    rng = random.Random(POOL_SEED)
    lo, hi = jobs.STREAM_SIZES
    sampler = PartitionSampler(hi)
    items = []
    for k in jobs.STREAM_KS:
        while sum(1 for it in items if it["k"] == k) < jobs.STREAM_POOL_PER_K:
            item = stream_item(sampler.sample(rng.randint(lo, hi), rng), k, rng)
            if item is not None:
                items.append(item)
    return items


def cli_pools() -> dict:
    census = [["census", str(n), "--k", str(k), "--m", str(m), "--json"]
              for n in jobs.CLI_CENSUS_N for k, m in jobs.CENSUS_KM]
    verify = []
    for T in jobs.CLI_VERIFY_ORDERS:
        verify.append(["verify", "pentagonal", "--order", str(T)])
        for k in range(1, 7):
            for name in ("schur", "rr", "jacobi"):
                verify.append(["verify", name, "--order", str(T), "--k", str(k)])
            for a in range(1, k + 1):
                verify.append(["verify", "andrews", "--order", str(T), "--k", str(k), "--a", str(a)])
    selftest = [["selftest", "--suite", "golden"]]
    return {name: [{"argv": argv, "stdout": cli_lines(argv)} for argv in pool]
            for name, pool in (("census", census), ("verify", verify), ("selftest", selftest))}


def write(name: str, obj: dict) -> None:
    path = jobs.EXPECTED / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as f:
        json.dump({"durfee_version": durfee.__version__, **obj}, f, indent=0, sort_keys=True)
        f.write("\n")


def main() -> None:
    write("census", {"tables": census_tables()})
    write("stream", {"pool_seed": POOL_SEED, "items": stream_pool()})
    write("cli", cli_pools())


if __name__ == "__main__":
    main()

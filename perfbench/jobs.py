"""Job sets of the four workloads, made from the seed and the recorded pools.

Nothing here imports durfee.  Each workload fixes the cost skeleton of its
job set (which sizes, orders and insertion amounts appear, and how often),
so that run-to-run spread stays small; the seed chooses the concrete inputs
inside that skeleton (partitions, parameters, query ranks, batch lines).
Expected outputs come from the files under ``expected/``, recorded once
from the library by ``record.py``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from oracle import partition_counts

EXPECTED = Path(__file__).resolve().parent / "expected"

WORKLOADS = ("census_sweep", "bijection_stream", "identity_verify", "cli_calls")

# census_sweep: every small n with all 15 (k, m) pairs, then large anchors.
# The cells are fixed and the seed draws the h_count queries: a cell's cost
# depends on (n, k, m) by up to 2x, and drawing a subset of the pairs per n
# moved the median op time by 10% between seeds.
CENSUS_SMALL_N = range(4, 22)
CENSUS_KM = tuple((k, m) for k in (1, 2, 3) for m in (-2, -1, 0, 1, 2))
CENSUS_ANCHORS = ((28, 3, 2), (31, 2, 0), (34, 1, 1), (37, 3, -1), (40, 2, 0))

# bijection_stream: per k, STREAM_LADDER gives (a - A, ops per round); a - A
# spans 10^2 .. 10^5.  The counts put the median and the 90th percentile
# near the middle of the 3000 and the 10^5 class, so neither sits on the
# edge between two classes of very different cost.
STREAM_KS = (1, 2, 3)
STREAM_LADDER = ((100, 5), (300, 5), (1000, 5), (3000, 9), (10_000, 5), (30_000, 4), (100_000, 9))
STREAM_POOL_PER_K = 100
STREAM_SIZES = (40, 200)

# identity_verify: multisum identities at orders that fall with k, so every
# k costs a comparable share; the seed adds a small offset to each order
# (andrews cycles its a, which moves the cost more than the offset does).
# The 20 products at order 500 hold the median and the 12 at order 1000
# the 90th percentile, so each percentile falls inside a block of like ops.
VERIFY_ORDERS = {1: (500, 700, 850, 1000), 2: (400, 550, 700, 850), 3: (250, 330, 410, 500),
                 4: (180, 230, 280, 340), 5: (150, 180, 210, 250), 6: (130, 150, 170, 190)}
VERIFY_ORDER_JITTER = 3
JACOBI_ORDERS = (250, 500, 750, 1000)
PENTAGONAL_ORDERS = (200, 300, 400, 700, 1000)
MUL_ORDERS = (500,) * 20 + (1000,) * 12 + (2000,)
INV_EULER_ORDERS = (500, 1000, 2000)

# cli_calls: subcommand -> calls per round.  Batches are a fifth of the calls
# so the 90th percentile falls among them, not on their edge.
CLI_MIX = (
    ("decompose", 12),
    ("rank", 12),
    ("conjugate", 12),
    ("dyson", 12),
    ("census", 14),
    ("verify", 14),
    ("selftest", 4),
    ("stdin_decompose", 10),
    ("stdin_rank", 10),
)
CLI_BATCH_LINES = 1000
CLI_CENSUS_N = range(5, 16)
CLI_VERIFY_ORDERS = (60, 80, 100)
CLI_STDIN_K, CLI_STDIN_M = 2, 1


def load(name: str) -> dict:
    with open(EXPECTED / f"{name}.json") as f:
        return json.load(f)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(seed * len(WORKLOADS) + WORKLOADS.index(workload))


def census_key(n: int, k: int, m: int) -> str:
    return f"{n},{k},{m}"


def census_cells() -> list[tuple[int, int, int]]:
    return [(n, k, m) for n in CENSUS_SMALL_N for k, m in CENSUS_KM] + list(CENSUS_ANCHORS)


def census_jobs(rng: random.Random) -> tuple[dict, list[dict]]:
    tables = load("census")["tables"]
    p = partition_counts(max(a[0] for a in CENSUS_ANCHORS))
    ops = []
    for n, k, m in census_cells():
        ops.append({
            "kind": "census", "n": n, "k": k, "m": m,
            "r": rng.randint(-n // 2, n // 2), "mode": rng.choice(("le", "ge", "eq")),
            "expect": tables[census_key(n, k, m)],
            "p": p[n],
        })
    params = {"small_n": [CENSUS_SMALL_N.start, CENSUS_SMALL_N.stop - 1],
              "km": CENSUS_KM, "anchors": CENSUS_ANCHORS}
    return params, ops


def stream_jobs(rng: random.Random) -> tuple[dict, list[dict]]:
    items = load("stream")["items"]
    by_k = {k: [it for it in items if it["k"] == k] for k in STREAM_KS}
    ops = []
    for k in STREAM_KS:
        for delta, count in STREAM_LADDER:
            for it in rng.sample(by_k[k], count):
                ops.append({"kind": "stream", "delta": delta,
                            **{key: it[key] for key in ("lam", "k", "m", "r", "kc", "expect")}})
    rng.shuffle(ops)
    params = {"ks": STREAM_KS, "ladder": STREAM_LADDER, "sizes": STREAM_SIZES, "pool": len(items)}
    return params, ops


def identity_jobs(rng: random.Random) -> tuple[dict, list[dict]]:
    ops = []
    for name in ("schur", "rr", "andrews"):
        for k, orders in VERIFY_ORDERS.items():
            for i, base in enumerate(orders):
                op = {"kind": "verify", "name": name, "k": k,
                      "order": base + rng.randrange(VERIFY_ORDER_JITTER + 1)}
                if name == "andrews":
                    op["a"] = 1 + i % k
                ops.append(op)
    for k in VERIFY_ORDERS:
        for T in JACOBI_ORDERS:
            ops.append({"kind": "verify", "name": "jacobi", "k": k, "order": T})
    for T in PENTAGONAL_ORDERS:
        ops.append({"kind": "verify", "name": "pentagonal", "order": T})
    p = partition_counts(max(MUL_ORDERS))
    for T in MUL_ORDERS:
        # the left operand is 1/(q)_inf, dense; the right one is seeded noise
        b = [rng.randint(-9, 9) for _ in range(T + 1)]
        ops.append({"kind": "mul", "order": T, "p": p[: T + 1], "b": b,
                    "products": sum(T - j + 1 for j, c in enumerate(b) if c)})
    for T in INV_EULER_ORDERS:
        ops.append({"kind": "inv_euler", "order": T})
    rng.shuffle(ops)
    params = {"verify_orders": VERIFY_ORDERS, "jitter": VERIFY_ORDER_JITTER,
              "jacobi_orders": JACOBI_ORDERS, "pentagonal_orders": PENTAGONAL_ORDERS,
              "mul_orders": MUL_ORDERS, "inv_euler_orders": INV_EULER_ORDERS}
    return params, ops


def cli_jobs(rng: random.Random) -> tuple[dict, list[dict]]:
    items = load("stream")["items"]
    cli = load("cli")
    ops = []
    for kind, count in CLI_MIX:
        for _ in range(count):
            if kind in ("decompose", "rank", "conjugate", "dyson"):
                it = rng.choice(items)
                lam, k, m = it["lam"], str(it["k"]), str(it["m"])
                argv = {
                    "decompose": ["decompose", "--k", k, "--m", m, lam],
                    "rank": ["rank", "--k", k, "--m", m, "--trace", lam],
                    "conjugate": ["conjugate", "--k", str(it["kc"]), "--json", lam],
                    "dyson": ["dyson", "--k", k, "--m", m, "--r", str(it["r"]), "--json", lam],
                }[kind]
                ops.append({"kind": kind, "argv": argv, "stdin": None,
                            "expect": [it["cli"][kind]]})
            elif kind in ("census", "verify", "selftest"):
                call = rng.choice(cli[kind])
                ops.append({"kind": kind, "argv": call["argv"], "stdin": None,
                            "expect": call["stdout"]})
            else:
                sub = kind.split("_")[1]
                picks = [rng.randrange(len(items)) for _ in range(CLI_BATCH_LINES)]
                argv = [sub, "--k", str(CLI_STDIN_K), "--m", str(CLI_STDIN_M), "--stdin"]
                if sub == "rank":
                    argv.append("--json")
                ops.append({"kind": kind, "argv": argv,
                            "stdin": "".join(items[i]["lam"] + "\n" for i in picks),
                            "expect": [items[i]["cli"][kind] for i in picks]})
    rng.shuffle(ops)
    params = {"mix": dict(CLI_MIX), "batch_lines": CLI_BATCH_LINES,
              "census_n": [CLI_CENSUS_N.start, CLI_CENSUS_N.stop - 1],
              "verify_orders": CLI_VERIFY_ORDERS}
    return params, ops


def make_jobs(workload: str, seed: int) -> tuple[dict, list[dict]]:
    """(workload parameters, ops) for one seed; the same seed gives the same ops."""
    make = {"census_sweep": census_jobs, "bijection_stream": stream_jobs,
            "identity_verify": identity_jobs, "cli_calls": cli_jobs}[workload]
    return make(_rng(workload, seed))

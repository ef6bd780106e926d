"""Layered benchmark of durfee: four workloads, one command.

    python3 perfbench/run.py --workload census_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; durfee is imported from ``src/``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones (see perfbench/README.md).  A result file
with the machine and run context is written under ``perfbench_out/``.

Every round of a workload starts a fresh interpreter, so the library's
caches begin cold, and rounds repeat the seed's job set until the time is
spent.  At most two processes are alive at once, pinned to one core: this
one and the round (or the one ``durfee`` call) it waits for.  Times are
corrected for the machine's speed at the moment (see speed.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from itertools import repeat
from pathlib import Path

import jobs
import oracle
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"

MIN_ROUNDS = 3
MIN_OPS = 100
SETUP_PROBES_PER_ROUND = 5
CLI_PROBES = 11
ROUND_TIMEOUT_S = 170
CALL_TIMEOUT_S = 60

PROBE = "import time, {module}; t = time.monotonic(); import durfee; print(repr(t), durfee.__version__)"
IMPORT_PROBE = "import time; t = time.perf_counter(); import durfee.cli; print(repr(time.perf_counter() - t))"
CLI_ENTRY = "import sys; from durfee.cli import console_main; sys.argv[0] = 'durfee'; console_main()"

PER_LAYER = (
    "partition.enumerate_s", "partition.partitions", "partition.us_per_partition",
    "partition.q_table_s",
    "decomposition.decompose_calls", "decomposition.decompose_s", "decomposition.compose_s",
    "select_insert.select_s", "select_insert.insert_calls", "select_insert.insert_cells",
    "select_insert.insert_s", "select_insert.ns_per_cell", "select_insert.remove_s",
    "rank.rank_km_calls", "rank.rank_km_s", "rank.garvan_s",
    "bijections.gen_conjugate_s", "bijections.gen_dyson_s", "bijections.gen_dyson_inverse_s",
    "census.rank_census_s", "census.self_s", "census.ranked_frac",
    "qseries.mul_calls", "qseries.mul_s", "qseries.coeff_products", "qseries.multisum_lhs_s",
    "qseries.product_side_s", "qseries.verify_self_s",
    "cli.interp_s", "cli.import_s", "cli.startup_frac", "cli.stdin_us_per_line",
    "trace.overhead_frac",
)
UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "_frac": "ratio", "_us_per_line": "us",
         "us_per_partition": "us", "ns_per_cell": "ns"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict:
    """The environment every child sees: durfee from src/, nothing stray."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("DURFEE_WORKERS", "PYTHONPATH", "PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], env: dict, stdin: str | None = None, timeout: float = CALL_TIMEOUT_S):
    return subprocess.run(argv, input=stdin, capture_output=True, text=True, env=env,
                          timeout=timeout, cwd=ROOT)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one core.

    The speed reference for a child's timing is taken here, so it must run
    on the core the child runs on; it also keeps the benchmark to one busy
    process at a time.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup_probe(env: dict, module: str) -> tuple[float, float, str]:
    """(raw, corrected) seconds from spawning a fresh interpreter to ``module`` imported."""
    before = speed.reference()
    t0 = time.monotonic()
    p = spawn([sys.executable, "-c", PROBE.format(module=module)], env)
    after = speed.reference()
    if p.returncode != 0:
        raise RuntimeError(f"cannot import {module}: {p.stderr.strip()}")
    ready, version = p.stdout.split()
    raw = float(ready) - t0
    return raw, speed.corrected(raw, before, after), version


def worker_round(env: dict, spec: str) -> dict:
    p = spawn([sys.executable, str(HERE / "worker.py")], env, stdin=spec, timeout=ROUND_TIMEOUT_S)
    if p.returncode != 0 or not p.stdout.strip():
        raise RuntimeError(f"worker failed ({p.returncode}): {p.stderr.strip()[-2000:]}")
    return json.loads(p.stdout.splitlines()[-1])


def cli_round(env: dict, ops: list[dict], traced: bool) -> dict:
    latencies, failures, spans = [], [], []
    refs = [speed.reference()]
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        p = spawn([sys.executable, "-c", CLI_ENTRY, *op["argv"]], env, stdin=op["stdin"])
        t1 = time.perf_counter()
        refs.append(speed.reference())
        latencies.append(t1 - t0)
        if traced:
            spans.append([i, None, i, "cli.call", t0, t1, {"kind": op["kind"]}])
        got = [oracle.text_digest(line) for line in p.stdout.splitlines()]
        if p.returncode != 0 or p.stderr.strip():
            failures.append(f"op {i} durfee {' '.join(op['argv'][:6])}: exit {p.returncode}, "
                            f"stderr {p.stderr.strip()[-300:]!r}")
        elif got != op["expect"]:
            failures.append(f"op {i} durfee {' '.join(op['argv'][:6])}: stdout differs from the recorded one")
    return {"latencies": latencies, "refs": refs, "failures": failures,
            "spans": spans if traced else None,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def scales(res: dict) -> list[float]:
    """Per op of a round: the factor that turns its raw times into corrected ones."""
    refs = res["refs"]
    return [speed.corrected(1.0, refs[i], refs[i + 1]) for i in range(len(res["latencies"]))]


def per_op_median(rounds: list[dict], corrected: bool = True) -> list[float]:
    """Each op's median time over the rounds."""
    times = [[x * f for x, f in zip(r["latencies"], scales(r) if corrected else repeat(1.0))]
             for r in rounds]
    return [statistics.median(t[i] for t in times) for i in range(len(times[0]))]


# ---------------------------------------------------------------------------
# Per-layer numbers from the spans of one traced round.
# ---------------------------------------------------------------------------


def layer_metrics(spans: list[list], scale: list[float]) -> dict[str, float]:
    dur = {s[0]: (s[5] - s[4]) * scale[s[2]] for s in spans}
    child = dict.fromkeys(dur, 0.0)
    for s in spans:
        if s[1] is not None:
            child[s[1]] += dur[s[0]]
    self_s: dict[str, float] = {}
    attrs: dict[str, float] = {}
    per_op: dict[int, dict[str, float]] = {}
    for s in spans:
        name = s[3]
        self_s[name] = self_s.get(name, 0.0) + dur[s[0]] - child[s[0]]
        per_op.setdefault(s[2], {})[name] = dur[s[0]]
        for key, value in s[6].items():
            if isinstance(value, (int, float)):
                attrs[f"{name}.{key}"] = attrs.get(f"{name}.{key}", 0) + value
    t = lambda name: self_s.get(name, 0.0)  # noqa: E731
    a = lambda key: attrs.get(key, 0)  # noqa: E731
    ratio = lambda x, y, unit=1.0: x / y * unit if y else 0.0  # noqa: E731
    verify_self = sum(
        max(0.0, d["qseries.verify_identity"] - d.get("qseries.multisum_lhs", 0.0)
            - d.get("qseries.product_side", 0.0))
        for d in per_op.values() if "qseries.verify_identity" in d)
    return {
        "partition.enumerate_s": t("partition.enumerate"),
        "partition.partitions": a("partition.enumerate.partitions"),
        "partition.us_per_partition": ratio(t("partition.enumerate"), a("partition.enumerate.partitions"), 1e6),
        "partition.q_table_s": t("partition.q_table"),
        "decomposition.decompose_calls": a("decomposition.decompose.calls"),
        "decomposition.decompose_s": t("decomposition.decompose"),
        "decomposition.compose_s": t("decomposition.compose"),
        "select_insert.select_s": t("select_insert.select"),
        "select_insert.insert_calls": a("select_insert.insert.calls"),
        "select_insert.insert_cells": a("select_insert.insert.cells"),
        "select_insert.insert_s": t("select_insert.insert"),
        "select_insert.ns_per_cell": ratio(t("select_insert.insert"), a("select_insert.insert.cells"), 1e9),
        "select_insert.remove_s": t("select_insert.remove"),
        "rank.rank_km_calls": a("rank.rank_km.calls"),
        "rank.rank_km_s": t("rank.rank_km"),
        "rank.garvan_s": t("rank.garvan"),
        "bijections.gen_conjugate_s": t("bijections.gen_conjugate"),
        "bijections.gen_dyson_s": t("bijections.gen_dyson"),
        "bijections.gen_dyson_inverse_s": t("bijections.gen_dyson_inverse"),
        "census.rank_census_s": t("census.rank_census"),
        "census.self_s": t("census.census") + t("census.h_count"),
        "census.ranked_frac": ratio(a("census.rank_census.ranked"), a("census.rank_census.enumerated")),
        "qseries.mul_calls": a("qseries.mul.calls"),
        "qseries.mul_s": t("qseries.mul"),
        "qseries.coeff_products": a("qseries.mul.coeff_products"),
        "qseries.multisum_lhs_s": t("qseries.multisum_lhs"),
        "qseries.product_side_s": t("qseries.product_side") + t("qseries.inv_euler"),
        "qseries.verify_self_s": verify_self,
    }


def cli_layer_metrics(env: dict, ops: list[dict], traced_rounds: list[dict]) -> dict[str, float]:
    interp, imports = [], []
    for _ in range(CLI_PROBES):
        before = speed.reference()
        t0 = time.perf_counter()
        spawn([sys.executable, "-c", "pass"], env)
        raw = time.perf_counter() - t0
        inside = float(spawn([sys.executable, "-c", IMPORT_PROBE], env).stdout)
        after = speed.reference()
        interp.append(speed.corrected(raw, before, after))
        imports.append(speed.corrected(inside, before, after))
    interp_s, import_s = statistics.median(interp), statistics.median(imports)
    times = per_op_median(traced_rounds)
    single = [t for t, op in zip(times, ops) if op["stdin"] is None]
    batch = [(t - interp_s - import_s) / len(op["expect"])
             for t, op in zip(times, ops) if op["stdin"] is not None]
    return {
        "cli.interp_s": interp_s,
        "cli.import_s": import_s,
        "cli.startup_frac": (interp_s + import_s) / statistics.median(single),
        "cli.stdin_us_per_line": statistics.median(batch) * 1e6,
    }


# ---------------------------------------------------------------------------
# One run: rounds, metrics, result file.
# ---------------------------------------------------------------------------


def percentile_summary(latencies: list[float]) -> dict:
    deciles = statistics.quantiles(latencies, n=10)
    return {"samples": len(latencies), "p50_s": statistics.median(latencies), "p90_s": deciles[8],
            "beyond_p90": sum(1 for x in latencies if x > deciles[8])}


def context(workload: str, seed: int, seconds: int, trace: int, params: dict, version: str) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=ROOT, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "machine": platform.machine(), "git_commit": commit,
        "src_sha256": src_hash.hexdigest(), "durfee_version": version,
        "workload_params": params,
    }


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    pin_to_one_cpu()
    env = child_env()
    params, ops = jobs.make_jobs(workload, seed)
    if len(ops) < MIN_OPS:
        raise RuntimeError(f"{workload} has {len(ops)} ops per round; percentiles need {MIN_OPS}")
    spec = json.dumps({"workload": workload, "trace": 0, "ops": ops})
    traced_spec = json.dumps({"workload": workload, "trace": 1, "ops": ops})
    module = "durfee.cli" if workload == "cli_calls" else "durfee"
    version = setup_probe(env, module)[2]  # also fills the bytecode cache
    setups = []

    plain, traced = [], []
    start = time.monotonic()
    while True:
        want_traced = trace and len(traced) < len(plain)
        if not trace:
            setups += [setup_probe(env, module)[:2] for _ in range(SETUP_PROBES_PER_ROUND)]
        if workload == "cli_calls":
            res = cli_round(env, ops, bool(want_traced))
        else:
            res = worker_round(env, traced_spec if want_traced else spec)
        (traced if want_traced else plain).append(res)
        if (time.monotonic() - start >= seconds and len(plain) >= MIN_ROUNDS - trace
                and len(traced) >= trace * (MIN_ROUNDS - 1)):
            break

    everything = plain + traced
    attempted = sum(len(r["latencies"]) for r in everything)
    failures = [f for r in everything for f in r["failures"]]
    times = per_op_median(plain)
    raw_times = per_op_median(plain, corrected=False)
    summary, raw_summary = percentile_summary(times), percentile_summary(raw_times)
    refs = [x for r in plain for x in r["refs"]]
    ctx = context(workload, seed, seconds, trace, params, version)
    ctx.update({
        "rounds": len(plain), "traced_rounds": len(traced), "ops_per_round": len(ops),
        "ops_attempted": attempted, "ops_failed": len(failures), "failures": failures[:20],
        "op_latency": summary, "raw_op_latency": raw_summary, "raw_wall_s": sum(raw_times),
        "setup_samples": len(setups), "raw_setup_s": statistics.median(s[0] for s in setups) if setups else None,
        "speed_reference": {"nominal_s": speed.NOMINAL_S, "median_s": statistics.median(refs),
                            "min_s": min(refs), "samples": len(refs)},
    })
    if not trace:
        plain_failed = sum(len(r["failures"]) for r in plain)
        plain_ops = sum(len(r["latencies"]) for r in plain)
        metrics = {
            "wall_s": sum(times),
            "op_p50_ms": summary["p50_s"] * 1e3,
            "op_p90_ms": summary["p90_s"] * 1e3,
            "ok_frac": (plain_ops - plain_failed) / plain_ops,
            "setup_s": statistics.median(s[1] for s in setups),
            "peak_rss_mb": max(r["maxrss_kb"] for r in plain) / 1024,
        }
    else:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        if workload == "cli_calls":
            metrics.update(cli_layer_metrics(env, ops, traced))
        else:
            per_round = [layer_metrics(r["spans"], scales(r)) for r in traced]
            for name in per_round[0]:
                metrics[name] = statistics.median(m[name] for m in per_round)
        metrics["trace.overhead_frac"] = sum(per_op_median(traced)) / sum(times)
        ctx["spans_file"] = str(write_spans(workload, seed, traced).relative_to(ROOT))
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}}
    return ctx, result


def write_spans(workload: str, seed: int, traced: list[dict]) -> Path:
    path = OUT / f"{workload}-seed{seed}-spans.json"
    OUT.mkdir(exist_ok=True)
    with open(path, "w") as f:
        json.dump({"fields": ["id", "parent", "op", "name", "start", "end", "attrs"],
                   "rounds": [r["spans"] for r in traced]}, f)
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "durfee" / "__init__.py").is_file():
        print(f"error: no durfee package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        ctx, result = run(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as f:
        json.dump({"context": ctx, **result}, f, indent=1)
    print(f"# result file: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

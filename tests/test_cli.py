import ast
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from durfee import cli
from durfee.qseries import IDENTITIES, VerificationReport, _tables
from durfee.selftest import CheckResult, golden_examples

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_conjugate_round_trip_bytes(capsys):
    code, out, _ = run(capsys, "conjugate", "5,5,4,1")
    assert code == 0 and out == "4,3,3,3,2\n"
    code, out2, _ = run(capsys, "conjugate", out.strip())
    assert code == 0 and out2 == "5,5,4,1\n"
    code, out3, _ = run(capsys, "conjugate", "-")
    assert code == 0 and out3 == "-\n"


def test_conjugate_generalized_audit(capsys):
    code, out, _ = run(capsys, "conjugate", "--k", "2", "--json",
                       "9,8,8,6,5,4,3,2,2,2,1,1,1,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["image"] == "10,9,8,7,5,5,3,2,2,1,1,1"
    assert doc["widths_before"] == doc["widths_after"] == [5, 2]
    assert (doc["a_before"], doc["b_before"]) == (doc["b_after"], doc["a_after"])


def test_decompose_matches_golden(capsys):
    code, out, _ = run(capsys, "decompose", "--k", "2", "9,8,8,6,5,4,3,2,2,2,1,1,1,1,1")
    assert code == 0
    assert json.loads(out) == json.loads((GOLDEN / "decompose_k2.json").read_text())


def test_rank_matches_golden(capsys):
    code, out, _ = run(capsys, "rank", "--k", "3", "--m", "0",
                       "7,7,6,6,5,4,3,3,3,2,1,1,1,1,1")
    assert code == 0
    assert json.loads(out) == json.loads((GOLDEN / "rank_squares.json").read_text())


def test_rank_trace_and_garvan(capsys):
    code, out, _ = run(capsys, "rank", "--k", "3", "--trace",
                       "7,7,6,6,5,4,3,3,3,2,1,1,1,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["trace"]["total"] == doc["a"] == 4
    assert doc["trace"]["parts"] == [2, 1, 1]
    code, out, _ = run(capsys, "rank", "--k", "2", "--garvan",
                       "12,10,8,7,6,5,4,3,3,3,1,1")
    doc = json.loads(out)
    assert (doc["a"], doc["b"], doc["statistic"]) == (5, 4, "garvan")


def test_census_matches_golden(capsys):
    code, out, _ = run(capsys, "census", "4", "--k", "1", "--m", "0", "--json")
    assert code == 0
    assert json.loads(out) == json.loads((GOLDEN / "census_n4_k1_m0.json").read_text())


def test_census_text_and_json_agree(capsys):
    code, plain, _ = run(capsys, "census", "6", "--k", "1")
    assert code == 0
    code, as_json, _ = run(capsys, "census", "6", "--k", "1", "--json")
    doc = json.loads(as_json)
    lines = plain.strip().splitlines()
    assert lines[0].endswith(f"total={doc['total']}")
    parsed = {row.split()[0]: int(row.split()[1]) for row in lines[1:]}
    assert parsed == doc["rows"]


def test_dyson_round_trip_via_cli(capsys):
    code, image, _ = run(capsys, "dyson", "--k", "2", "--m", "0", "--r", "0",
                         "10,8,8,6,5,3,3,2,2,2,1,1,1")
    assert code == 0
    code, back, _ = run(capsys, "dyson", "--k", "2", "--m", "0", "--r", "0",
                        "--inverse", image.strip())
    assert code == 0
    assert back == "10,8,8,6,5,3,3,2,2,2,1,1,1\n"


def test_stdin_batch(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("5,5,4,1\n3,1\n"))
    code, out, _ = run(capsys, "conjugate", "--stdin")
    assert code == 0
    assert out == "4,3,3,3,2\n2,1,1\n"


def test_verify_success(capsys):
    code, out, _ = run(capsys, "verify", "schur", "--k", "2", "--order", "30")
    assert code == 0
    assert out.startswith("ok schur")
    code, out, _ = run(capsys, "verify", "pentagonal", "--order", "25", "--json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    fake = VerificationReport(
        "schur", {"k": 2}, 9, False, {"n": 5, "lhs": 7, "rhs": 8}
    )
    monkeypatch.setattr(cli, "verify_identity", lambda *a, **kw: fake)
    code, out, _ = run(capsys, "verify", "schur", "--k", "2", "--order", "9")
    assert code == 2
    assert "MISMATCH" in out and "q^5" in out


def test_usage_errors_exit_1(capsys):
    code, _, err = run(capsys, "decompose", "1,x")
    assert code == 1 and "error[Usage]" in err
    code, _, err = run(capsys, "verify", "schur", "--order", "10")  # k missing
    assert code == 1
    code, _, err = run(capsys, "nonsense")
    assert code == 1
    code, _, err = run(capsys, "verify", "pentagonal", "--order", "-1")
    assert code == 1 and "error[Usage]" in err


def test_domain_errors_exit_3(capsys):
    code, _, err = run(capsys, "decompose", "--k", "3", "1")
    assert code == 3 and "error[NoSuchDecomposition]" in err
    code, _, err = run(capsys, "dyson", "--k", "1", "--r", "0", "4")
    assert code == 3 and "error[RankTooLarge]" in err
    code, _, err = run(capsys, "verify", "h_closed_form", "--k", "1", "--m", "-1",
                       "--r", "1", "--order", "10")
    assert code == 3 and "error[UnsupportedRegion]" in err
    # an image of about 10^12 parts is refused before any part is built, as
    # are 10^12 rectangles at m = 1, and a census one past the engine's cap
    # (644 at k = 1) before any series, and a verify one past the product
    # kernel's (6324 for pentagonal)
    for argv in (
        ("rank", "--k", "1000000000000", "--m", "1", "5,4"),
        ("decompose", "--k", "1000000000000", "--m", "1", "5,4"),
        ("dyson", "--k", "1000000000000", "--m", "1", "--r", "0", "5,4"),
        ("dyson", "--inverse", "--k", "1000000000000", "--m", "1", "--r", "0", "5,4"),
        ("dyson", "--inverse", "--k", "1", "--m", "1000000000000", "--r", "0", "5"),
        ("dyson", "--inverse", "--k", "1", "--m", "0", "--r", "1000000000000", "5"),
        ("conjugate", "1000000000000"),
        ("conjugate", "--k", "1", "1000000000000"),
        ("census", "645", "--k", "1"),
        ("verify", "pentagonal", "--order", "6325"),
    ):
        t = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "error[ImpracticalOrder]" in err, argv
        assert time.perf_counter() - t < 0.1, argv


def test_selftest_golden_suite(capsys):
    code, out, _ = run(capsys, "selftest", "--suite", "golden")
    assert code == 0
    assert out == (GOLDEN / "selftest_golden.txt").read_text()


def test_selftest_json(capsys):
    # one object per check and line, with sorted keys
    code, out, _ = run(capsys, "selftest", "--suite", "golden", "--json")
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert out == "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs)
    assert all(list(doc) == ["detail", "name", "ok"] for doc in docs)
    assert [CheckResult(**doc) for doc in docs] == golden_examples()


def test_rank_garvan_trace_refused_before_input(capsys, monkeypatch):
    # Garvan's statistic has no selection walk to trace
    class Unread:
        def read(self):
            raise AssertionError("stdin was read")

    monkeypatch.setattr("sys.stdin", Unread())
    for source in ("12,10,8,7,6,5,4,3,3,3,1,1", "--stdin"):
        code, out, err = run(capsys, "rank", "--garvan", "--trace", "--k", "2", source)
        assert code == 1 and out == "" and err.startswith("error[Usage]: "), (source, err)


def test_selftest_unknown_suite_exit_1(capsys):
    code, out, err = run(capsys, "selftest", "--suite", "golden", "--suite", "bogus")
    assert code == 1 and "error[Usage]" in err
    assert out == ""  # names are checked before any suite runs


def test_cli_import_leaves_selftest_unloaded():
    # every durfee call pays for what importing the CLI loads: not the
    # suites, and not dataclasses with the inspect machinery it pulls in
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    heavy = ["durfee.selftest", "dataclasses", "inspect"]
    probe = f"import sys, durfee.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_console_exit_freezes_what_is_alive(capsys):
    # a durfee process freezes every live object before it exits, so the
    # collections at interpreter exit have nothing to tear down; atexit
    # handlers still run, and the output and exit code are those of main
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import atexit, gc, sys; from durfee.cli import console_main; "
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr)); "
        "sys.argv[0] = 'durfee'; console_main()"
    )
    for argv, want_code in ((["decompose", "5,4"], 0), (["decompose", "1,x"], cli.USAGE_EXIT),
                            (["decompose", "--k", "3", "1"], cli.DOMAIN_EXIT)):
        frozen = gc.get_freeze_count()
        code, out, err = run(capsys, *argv)
        assert gc.get_freeze_count() == frozen, argv  # main itself freezes nothing
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == code == want_code, (argv, proc.stderr)
        assert proc.stdout == out, argv
        *lines, last = proc.stderr.splitlines(keepends=True)
        assert "".join(lines) == err, argv
        word, count = last.split()
        assert word == "frozen" and int(count) > 0, (argv, last)


def test_import_graph_is_acyclic():
    # the modules import each other one way only, and qseries, which holds
    # the census engine and its readers, imports nothing at call time
    graph, late = {}, {}
    for path in Path(cli.__file__).resolve().parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        graph[path.stem] = {
            node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
        }
        late[path.stem] = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
        ]
    assert late["qseries"] == []
    while graph:
        leaves = [name for name, deps in graph.items() if not deps & graph.keys()]
        assert leaves, f"import cycle among {sorted(graph)}"
        for name in leaves:
            del graph[name]
    # durfee.census is the census function, never a module that shadows it
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import sys, durfee, durfee.qseries;"
        " print('durfee.census' in sys.modules, durfee.census is durfee.qseries.census)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == ["False", "True"]


def test_every_imported_name_is_used():
    # an import no code reads is left over from deleted code; the package
    # re-exports its names through __all__, which counts as a read
    unused = {}
    for path in Path(cli.__file__).resolve().parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        nodes = list(ast.walk(tree))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in nodes
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        read = {node.id for node in nodes if isinstance(node, ast.Name)}
        for node in nodes:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read |= set(ast.literal_eval(node.value))
        if imported - read:
            unused[path.stem] = sorted(imported - read)
    assert unused == {}


def test_closed_pipe_exits_without_traceback(tmp_path):
    # the reader takes one line and goes; with far more output than a pipe
    # buffers, the next write fails, and the CLI must exit without a traceback
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    batch = tmp_path / "batch.txt"
    batch.write_text("5,5,4,1\n" * 150_000)
    calls = (
        (["conjugate", "--stdin"], batch, {cli.PIPE_EXIT}),
        # little output: the pipe may close before or after the last write
        (["census", "200", "--k", "2000", "--m", "1"], None, {0, cli.PIPE_EXIT}),
    )
    for argv, stdin, codes in calls:
        with open(stdin or os.devnull) as feed:
            proc = subprocess.Popen(
                [sys.executable, "-m", "durfee.cli", *argv], env=env,
                stdin=feed, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            assert proc.stdout.readline(), argv
            proc.stdout.close()
            err = proc.stderr.read().decode()
            proc.stderr.close()
            code = proc.wait(timeout=60)
        assert "Traceback" not in err and "Exception" not in err, (argv, err)
        assert code in codes, (argv, code, err)


def _small_or(big):
    return st.one_of(st.integers(-3, 40), big)


_PARTS = st.lists(st.integers(1, 12), max_size=12)
# up to 10^12, with every number of digits about as likely
_BIG_PART = st.integers(1, 12).flatmap(lambda e: st.integers(10 ** (e - 1), 10**e))
# one partition text in ten is malformed, and one in ten also has a big part
_PARTITION = st.integers(0, 9).flatmap(
    lambda i: st.sampled_from(["1,x", "0", "3,5", ""]) if i == 0 else
    (_PARTS if i > 1 else st.builds(lambda ps, big: [*ps, big], _PARTS, _BIG_PART))
    .map(lambda ps: ",".join(map(str, sorted(ps, reverse=True))) or "-")
)
_K = _small_or(st.integers(-2, 10**12))
_M = _small_or(st.integers(-(10**12), 10**12))
_R = _small_or(st.integers(-(10**12), 10**12))


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["decompose", "rank", "conjugate", "dyson", "census",
                                "verify", "selftest"]))
    json_flag = draw(st.sampled_from([[], ["--json"]]))
    if cmd == "selftest":
        # at least one --suite: without one every suite runs, about a minute
        suites = draw(st.lists(st.sampled_from(["golden", "bogus"]), min_size=1, max_size=2))
        return [cmd, *[a for name in suites for a in ("--suite", name)], *json_flag]
    if cmd == "census":
        n = draw(_small_or(st.integers(-2, 10**18)))
        return [cmd, str(n), "--k", str(draw(_K)), "--m", str(draw(_M)), *json_flag]
    if cmd == "verify":
        argv = [cmd, draw(st.sampled_from(IDENTITIES)),
                "--order", str(draw(_small_or(st.integers(-2, 10**8))))]
        for flag, value in (("--k", _K), ("--a", st.integers(-1, 8)), ("--m", _M), ("--r", _R)):
            if draw(st.booleans()):
                argv += [flag, str(draw(value))]
        return argv + json_flag
    argv = [cmd, draw(_PARTITION), *json_flag]
    if cmd == "conjugate":
        return argv + (["--k", str(draw(_K))] if draw(st.booleans()) else [])
    argv += ["--k", str(draw(_K))]
    if cmd == "dyson":
        inverse = draw(st.booleans())
        argv += ["--m", str(draw(_M)), "--r", str(draw(_R))]
        return argv + (["--inverse"] if inverse else [])
    argv += ["--m", str(draw(_M))]
    if cmd == "rank":
        argv += draw(st.lists(st.sampled_from(["--garvan", "--trace"]), unique=True))
    return argv


_KMAX, _BIG, _NMAX = "100000", "1000000000000", "1000000000000000000"
# the draws rarely reach the ends of their ranges, so each command's
# extremes are pinned: a part of 10^12, k = 10^5 and 10^12, m and r =
# +-10^12, census n = 10^18 and verify order 10^8
_EXTREMES = [
    ["rank", "5,4", "--k", _BIG, "--m", "1", "--trace"],
    ["decompose", "5,4", "--k", _BIG, "--m", "1"],
    ["dyson", "5,4", "--k", _BIG, "--m", "1", "--r", "0"],
    ["dyson", "5,4", "--k", _BIG, "--m", "1", "--r", "0", "--inverse"],
    ["conjugate", _BIG],
    ["conjugate", "5,4", "--k", _KMAX],
    ["rank", _BIG, "--k", "1", "--m", "0", "--garvan", "--trace"],
    ["rank", "5,4", "--k", _KMAX, "--m", _BIG, "--trace"],
    ["rank", "5,4", "--k", _KMAX, "--m", "0", "--garvan"],
    ["decompose", "5,4", "--k", _KMAX, "--m", _BIG],
    ["decompose", "5,4", "--k", _KMAX, "--m", "-" + _BIG],
    ["dyson", "5,4", "--k", _KMAX, "--m", _BIG, "--r", "-" + _BIG],
    ["dyson", "5,4", "--k", "1", "--m", "0", "--r", "-" + _BIG],
    ["dyson", "5,4", "--k", _KMAX, "--m", _BIG, "--r", _BIG, "--inverse"],
    ["dyson", "5,4", "--k", "1", "--m", "-" + _BIG, "--r", "-" + _BIG, "--inverse"],
    ["dyson", "5,4", "--k", "1", "--m", "0", "--r", _BIG, "--inverse"],
    ["census", _NMAX, "--k", _KMAX, "--m", _BIG],
    ["census", _NMAX, "--k", "1", "--m", "-" + _BIG],
    ["census", "40", "--k", _KMAX, "--m", _BIG],
    *(["verify", name, "--order", "100000000", "--k", _KMAX, "--a", "8",
       "--m", _BIG, "--r", "-" + _BIG] for name in IDENTITIES),
    ["verify", "h_closed_form", "--order", "40", "--k", _KMAX, "--m", _BIG, "--r", _BIG],
]


@settings(max_examples=300, deadline=timedelta(seconds=10), derandomize=True)
@given(_argv())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        # a near-cap census table holds up to about 25 MB; keep none across examples
        _tables.clear()
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code in (1, 3):
        assert "error[" in err.getvalue(), argv


for _extreme in _EXTREMES:
    test_cli_fuzz_exits_cleanly = example(_extreme)(test_cli_fuzz_exits_cleanly)

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from durfee import cli
from durfee.qseries import IDENTITIES, VerificationReport

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


def test_selftest_golden_suite(capsys):
    code, out, _ = run(capsys, "selftest", "--suite", "golden")
    assert code == 0
    assert out == (GOLDEN / "selftest_golden.txt").read_text()


def test_selftest_json(capsys):
    code, out, _ = run(capsys, "selftest", "--suite", "golden", "--json")
    assert code == 0
    doc = json.loads(out)
    assert all(entry["ok"] for entry in doc)


def test_selftest_unknown_suite_exit_1(capsys):
    code, out, err = run(capsys, "selftest", "--suite", "golden", "--suite", "bogus")
    assert code == 1 and "error[Usage]" in err
    assert out == ""  # names are checked before any suite runs


def test_cli_import_leaves_selftest_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, durfee.cli; print('durfee.selftest' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def _small_or(big):
    return st.one_of(st.integers(-3, 40), big)


# one partition text in ten is malformed
_PARTITION = st.integers(0, 9).flatmap(
    lambda i: st.sampled_from(["1,x", "0", "3,5", ""]) if i == 0 else
    st.lists(st.integers(1, 12), max_size=12).map(
        lambda ps: ",".join(map(str, sorted(ps, reverse=True))) or "-"
    )
)
_K = _small_or(st.integers(-2, 10**5))
_M = _small_or(st.integers(-(10**12), 10**12))
# a huge r asks dyson --inverse for a partition with that many parts, and so
# does a huge positive m (each rectangle gets w + 1 + m rows): real output
# sizes, out of scope here
_R = st.integers(-6, 6)
_M_INVERSE = st.integers(-(10**12), 6)


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
        argv += ["--m", str(draw(_M_INVERSE if inverse else _M)), "--r", str(draw(_R))]
        return argv + (["--inverse"] if inverse else [])
    argv += ["--m", str(draw(_M))]
    if cmd == "rank":
        argv += draw(st.lists(st.sampled_from(["--garvan", "--trace"]), unique=True))
    return argv


@settings(max_examples=300, deadline=timedelta(seconds=10), derandomize=True)
@given(_argv())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        # a near-cap rank series holds up to about 25 MB; keep at most one
        importlib.import_module("durfee.census")._rank_series.cache_clear()
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code in (1, 3):
        assert "error[" in err.getvalue(), argv

"""The CLI against the public library, line by line and byte for byte.

Every ``decompose`` and ``rank`` output line must be
``json.dumps(obj.to_json_dict(...), sort_keys=True)`` of an object built
through the public API, as a single call and inside ``--stdin`` batches;
every error must keep its class, its message and its exit code.  A call
builds only its own subcommand's parser, so its texts are checked against
those of the full parser.
"""

import io
import json
import random

import pytest

from durfee import cli
from durfee.decomposition import decompose, profile
from durfee.errors import DurfeeError
from durfee.partition import Partition, partitions_of
from durfee.rank import garvan_rank, rank_km
from durfee.select_insert import PartitionSequence, select

GOLDEN = [
    "5,5,4,1",
    "7,7,6,6,5,4,3,3,3,2,1,1,1,1,1",
    "9,8,8,6,5,4,3,2,2,2,1,1,1,1,1",
    "12,10,8,7,6,5,4,3,3,3,1,1",
    "10,8,8,6,5,3,3,2,2,2,1,1,1",
    "8,7,7,6,6,5,5,4,4,4,4,3,3,3,2,1,1,1,1",
]
KM = [(k, m) for k in (1, 2, 3) for m in (-2, -1, 0, 1, 2)]


def _sample(count: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    drawn = [rng.choice(partitions_of(rng.randint(0, 30))).text() for _ in range(count)]
    return drawn + GOLDEN


BATCH = _sample(80, 2024)
SINGLE = _sample(10, 7)


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _line(flavor: str, text: str, k: int, m: int) -> str:
    """The output line the library gives for one partition; raises its error."""
    lam = Partition.from_text(text)
    if flavor == "decompose":
        doc = decompose(lam, k, m).to_json_dict()
    elif flavor == "garvan":
        doc = garvan_rank(lam, k).to_json_dict(k, None)
        doc["statistic"] = "garvan"
    else:
        doc = rank_km(lam, k, m).to_json_dict(k, m)
        doc["statistic"] = "km"
        if flavor == "trace":
            d = decompose(lam, k, m)
            doc["trace"] = select(PartitionSequence(d.sides, profile(d))).to_json_dict()
    return json.dumps(doc, sort_keys=True)


def _argv(flavor: str, k: int, m: int) -> list[str]:
    argv = {"decompose": ["decompose"], "km": ["rank", "--json"], "trace": ["rank", "--trace"],
            "garvan": ["rank", "--garvan"]}[flavor]
    return [*argv, "--k", str(k), "--m", str(m)]


def _expected(flavor: str, texts: list[str], k: int, m: int) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of a batch: the lines up to the first error."""
    lines = []
    for text in texts:
        try:
            lines.append(_line(flavor, text, k, m) + "\n")
        except DurfeeError as e:
            return 3, "".join(lines), f"error[{e.code}]: {e}\n"
    return 0, "".join(lines), ""


FLAVORS = ["decompose", "km", "trace", "garvan"]


@pytest.mark.parametrize("flavor", FLAVORS)
def test_single_calls_match_the_library(capsys, flavor):
    for k, m in KM:
        if flavor == "garvan" and m:
            continue  # Garvan's statistic has no m
        for i, text in enumerate(SINGLE):
            json_flag = ["--json"] if i % 2 else []
            got = run(capsys, [*_argv(flavor, k, m), *json_flag, text])
            assert got == _expected(flavor, [text], k, m), (flavor, k, m, text)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_stdin_batches_match_the_library(capsys, monkeypatch, flavor):
    for k, m in KM:
        if flavor == "garvan" and m:
            continue
        good = [t for t in BATCH if _expected(flavor, [t], k, m)[0] == 0]
        # blank lines are skipped and each line is stripped
        stdin = "\n".join(f" {t} " if i % 7 == 0 else t for i, t in enumerate(good)) + "\n\n"
        got = run(capsys, [*_argv(flavor, k, m), "--stdin"], stdin, monkeypatch)
        assert got == _expected(flavor, good, k, m), (flavor, k, m)
        assert got[1].count("\n") == len(good)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_domain_error_at_line_i_prints_lines_before_it(capsys, monkeypatch, flavor):
    # "1" has no second Durfee square: lines 1..i-1 are printed, then exit 3
    head, tail = BATCH[:30], BATCH[30:]
    good = [t for t in head if _expected(flavor, [t], 2, 0)[0] == 0]
    batch = good + ["1"] + tail
    got = run(capsys, [*_argv(flavor, 2, 0), "--stdin"], "\n".join(batch) + "\n", monkeypatch)
    code, out, err = _expected(flavor, batch, 2, 0)
    assert code == 3 and out.count("\n") == len(good)
    assert err == "error[NoSuchDecomposition]: 1 has no 2nd 0-Durfee rectangle\n"
    assert got == (code, out, err)


@pytest.mark.parametrize("bad", ["1,x", "0", "3,5", "2,-1", "1,,2"])
@pytest.mark.parametrize("argv", [["decompose", "--k", "2", "--m", "1"],
                                  ["rank", "--k", "2", "--m", "1", "--json"],
                                  ["rank", "--garvan"], ["conjugate", "--k", "1"],
                                  ["dyson", "--k", "1", "--r", "-3"]])
def test_malformed_last_line_exits_1_with_empty_stdout(capsys, monkeypatch, argv, bad):
    with pytest.raises(ValueError) as e:
        Partition.from_text(bad)
    batch = "\n".join(BATCH) + "\n" + bad + "\n"
    got = run(capsys, [*argv, "--stdin"], batch, monkeypatch)
    assert got == (1, "", f"error[Usage]: {e.value}\n")


# --- conjugate and dyson: the audit is computed only under --json ---------

# stdout, stderr and exit code of the text mode, as recorded before the
# audit became --json only
TEXT_MODE = [
    (["conjugate", "5,5,4,1"], 0, "4,3,3,3,2\n", ""),
    (["conjugate", "--k", "2", "9,8,8,6,5,4,3,2,2,2,1,1,1,1,1"], 0,
     "10,9,8,7,5,5,3,2,2,1,1,1\n", ""),
    (["conjugate", "--k", "4", "9,8,8,7,7,6,5,4,4,3,3,3,3,3,2,2,1,1,1,1"], 0,
     "9,9,8,7,7,6,5,4,4,3,3,3,3,2,2,2,2,1,1\n", ""),
    (["dyson", "--k", "2", "--m", "0", "--r", "0", "10,8,8,6,5,3,3,2,2,2,1,1,1"], 0,
     "9,8,7,7,5,4,3,2,2,1,1,1\n", ""),
    (["dyson", "--k", "3", "--m", "-3", "--r", "1", "11,10,9,8,6,6,5,4,3,3,3,2,2,1,1"], 0,
     "10,10,9,8,7,6,5,5,4,4,3,2,2,2,1,1\n", ""),
    (["dyson", "--k", "2", "--m", "2", "--r", "3", "8,7,7,6,6,5,5,4,4,4,4,3,3,3,2,1,1,1,1"], 0,
     "7,7,6,6,5,5,4,4,3,3,3,3,3,2,2,2,1\n", ""),
    (["dyson", "--inverse", "--k", "2", "--m", "0", "--r", "0", "9,8,7,7,5,4,3,2,2,1,1,1"], 0,
     "10,8,8,6,5,3,3,2,2,2,1,1,1\n", ""),
    (["conjugate", "--k", "3", "2,1"], 3, "",
     "error[NoSuchDecomposition]: 2,1 has no 3rd 0-Durfee rectangle\n"),
    (["dyson", "--k", "3", "--m", "0", "--r", "0", "2,1"], 3, "",
     "error[NoSuchDecomposition]: 2,1 has no 3rd 0-Durfee rectangle\n"),
    (["dyson", "--inverse", "--k", "3", "--m", "-3", "--r", "0", "2,1"], 3, "",
     "error[NoSuchDecomposition]: 2,1 has no 2nd -1-Durfee rectangle\n"),
    (["dyson", "--k", "2", "--m", "1", "--r", "0", "1"], 3, "",
     "error[ZeroWidthRectangle]: 1 has a zero-width 1-Durfee rectangle\n"),
    (["dyson", "--k", "1", "--m", "1", "--r", "0", "3"], 3, "",
     "error[ZeroWidthRectangle]: 3 has a zero-width 1-Durfee rectangle\n"),
    (["dyson", "--k", "1", "--r", "0", "4"], 3, "", "error[RankTooLarge]: (k,m)-rank 3 > 0\n"),
    (["dyson", "--inverse", "--k", "1", "--m", "0", "--r", "-5", "4"], 3, "",
     "error[RankTooSmall]: (k,m+2)-rank 4 < 5\n"),
]


@pytest.mark.parametrize("argv, code, out, err", TEXT_MODE)
def test_text_mode_keeps_its_output_without_the_audit(capsys, monkeypatch, argv, code, out, err):
    def no_audit(*args):
        raise AssertionError("text mode computed the audit")

    monkeypatch.setattr(cli, "rank_km", no_audit)
    assert run(capsys, argv) == (code, out, err)


@pytest.mark.parametrize("argv, code, out, err", TEXT_MODE)
def test_json_audit_names_the_text_mode_image(capsys, argv, code, out, err):
    got = run(capsys, [*argv, "--json"])
    assert got[0] == code and got[2] == err
    if code == 0:
        doc = json.loads(got[1])
        lam, mu = Partition.from_text(doc["input"]), Partition.from_text(doc["image"])
        assert doc["input"] == argv[-1] and doc["image"] + "\n" == out
        if doc["k"] is None:
            return  # classical conjugation has no audit
        if argv[0] == "conjugate":
            m_in = m_out = 0
        else:
            m = doc["m"]
            m_in, m_out = (m + 2, m) if doc["inverse"] else (m, m + 2)
        for side, p, mm in (("before", lam, m_in), ("after", mu, m_out)):
            st = rank_km(p, doc["k"], mm)
            assert [doc[f"{x}_{side}"] for x in ("a", "b", "r")] == [st.a, st.b, st.r]
            assert doc[f"widths_{side}"] == list(st.widths)


# --- one subcommand's parser reads as the full parser ----------------------

PARSER_CASES = [
    [], ["-h"], ["--help"], ["nonsense"], ["--bogus"], ["-h", "rank"], ["dec", "3,1"],
    *([cmd, "-h"] for cmd in cli._COMMANDS),
    *([cmd, "--bogus"] for cmd in cli._COMMANDS),
    ["decompose", "--k", "x", "3,1"], ["rank", "--m", "1.5", "3,1"], ["conjugate", "--k", ""],
    ["dyson", "3,1"], ["census", "x"], ["verify", "nope", "--order", "3"], ["verify", "rr"],
    ["selftest", "--suite"], ["decompose", "3,1", "2,1"], ["rank", "--k"],
    ["decompose", "3,1"], ["rank", "--trace", "--k", "2", "3,1,1"], ["conjugate", "3,1"],
    ["dyson", "--k", "1", "--r", "-1", "3,1"], ["census", "4", "--json"],
    ["verify", "pentagonal", "--order", "5"], ["selftest", "--suite", "bogus"],
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_texts_match_the_full_parser(capsys, monkeypatch, argv):
    built = []
    full = cli.build_parser

    def spy(command=None):
        built.append(command)
        return full(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    got = run(capsys, argv)
    assert built == [argv[0] if argv and argv[0] in cli._COMMANDS else None]
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert got == run(capsys, argv)

"""CLI front end: output formats, exit codes, environment overrides."""

import csv
import io
import json

import pytest

from cuntzlab import parse_element
from cuntzlab.checks import all_rank2_specs
from cuntzlab.cli import CSV_COLUMNS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_apply_examples(capsys):
    code, out, _ = run(capsys, "apply", "--perm", "(1 2)", "--element", "s[1]")
    assert code == 0
    assert parse_element(out.strip(), 2) == parse_element("s[11] t[2] + s[12] t[1]", 2)
    code, out, _ = run(capsys, "apply", "--perm", "id",
                       "--element", "s[2] t[2]")
    assert code == 0 and out.strip() == "s[2] t[2]"
    code, out, _ = run(capsys, "apply", "--perm", "(1 3)",
                       "--element", "s[1] t[1]")
    assert code == 0
    assert parse_element(out.strip(), 2) == parse_element(
        "s[12] t[12] + s[21] t[21]", 2)


def test_apply_deterministic(capsys):
    outs = {run(capsys, "apply", "--perm", "(1 2 3)",
                "--element", "s[1] t[2]")[1] for _ in range(3)}
    assert len(outs) == 1


def test_apply_perm_word(capsys):
    code, out, _ = run(capsys, "apply", "--perm-word", "2134",
                       "--element", "s[1]")
    assert code == 0
    assert parse_element(out.strip(), 2) == parse_element("s[11] t[2] + s[12] t[1]", 2)


def test_entropy_json_schema(capsys):
    code, out, _ = run(capsys, "entropy", "--perm", "(2 3)", "--json",
                       "--depth", "2", "--steps", "8")
    assert code == 0
    payload = json.loads(out)
    summary = payload["summary"]
    assert summary["verdict"] == "log2"
    for report in payload["reports"]:
        assert set(report) == {"perm", "masa", "p", "counts",
                               "refined_steps", "tail", "increments",
                               "verdict", "estimate_nats"}
        assert (report["refined_steps"], report["tail"]) == (1, "discrete")
        assert report["masa"] == "standard"
        for n, c in report["counts"]:
            assert isinstance(n, int) and isinstance(c, str)


def test_entropy_text_provenance_and_summary(capsys):
    code, out, _ = run(capsys, "entropy", "--perm", "(2 3 5)(4 7 6)",
                       "--rank", "3", "--depth", "3", "--steps", "9")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("p=2 verdict=inconclusive estimate=1.386294 "
                               "refined_steps=9 tail=none counts 1:4 2:16 ")
    assert lines[-1].endswith("verdict=inconclusive estimate=1.386294")
    code, out, _ = run(capsys, "entropy", "--perm", "id",
                       "--depth", "1", "--steps", "4")
    assert out.splitlines()[0] == ("p=1 verdict=zero estimate=0.000000 "
                                   "refined_steps=2 tail=stable "
                                   "counts 1:2 2:2 3:2 4:2")


def test_entropy_ef(capsys):
    code, out, _ = run(capsys, "entropy", "--perm", "(1 2)", "--masa", "ef",
                       "--depth", "2", "--steps", "8", "--json")
    assert code == 0
    assert json.loads(out)["summary"]["verdict"] == "log2"
    # C_{E,F} is invariant under every rank-2 permutation
    for spec in all_rank2_specs():
        argv = ("entropy", "--perm", spec.label(), "--masa", "ef",
                "--depth", "2", "--steps", "6")
        assert run(capsys, *argv)[0] == 0, argv


def test_entropy_zero(capsys):
    code, out, _ = run(capsys, "entropy", "--perm", "id", "--json",
                       "--depth", "2", "--steps", "8")
    assert code == 0
    assert json.loads(out)["summary"]["verdict"] == "zero"


def test_exit_codes(capsys):
    assert run(capsys, "apply", "--perm", "(1 2", "--element", "s[1]")[0] == 2
    assert run(capsys, "apply", "--perm", "id", "--element", "s[1] ++")[0] == 2
    assert run(capsys, "apply", "--element", "s[1]")[0] == 2
    # a cycle entry used twice is refused, not composed or overwritten
    for perm in ("(1 2)(1 2)", "(1 2)(2 1)", "(1 1)", "(1 2)(1 3)"):
        code, _, err = run(capsys, "apply", "--perm", perm,
                           "--element", "s[1]")
        assert code == 2 and "appears twice" in err, perm
    # one-line entries past N^k = 4 are not read modulo 4
    for word in ("5234", "5634"):
        code, _, err = run(capsys, "apply", "--perm-word", word,
                           "--element", "s[1]")
        assert code == 2 and "outside 1..4" in err, word
    # one digit per entry cannot write N^k > 9 entries, nor a non-digit
    code, _, err = run(capsys, "apply", "--perm-word", "12345678910111213141516",
                       "--rank", "4", "--element", "s[1]")
    assert code == 2 and "N^k <= 9" in err and "2^4 = 16" in err, err
    assert "use --perm" in err
    code, _, err = run(capsys, "apply", "--perm-word", "21x4", "--element", "s[1]")
    assert code == 2 and "'x' is not a digit (at position 2)" in err, err
    for rank in ("0", "-1"):
        assert run(capsys, "apply", "--rank", rank, "--perm", "(1 2)",
                   "--element", "s[1]")[0] == 2, rank
    # N^k words past the budget are refused before any is listed
    code, _, err = run(capsys, "apply", "--rank", "30", "--perm", "id",
                       "--element", "s[1]")
    assert code == 4 and "2^30" in err
    assert run(capsys, "entropy", "--rank", "6", "--perm", "id",
               "--budget", "32")[0] == 4
    code, _, err = run(capsys, "entropy", "--rank", "7", "--perm", "(1 2)",
                       "--budget", "64")
    assert code == 4 and "needs 2^7 words, budget 64" in err
    assert run(capsys, "entropy", "--perm", "(1 3)", "--masa", "ef")[0] == 0
    code, _, err = run(capsys, "entropy", "--rank", "3",
                       "--perm", "(1 7 2 8 6 4 5)", "--masa", "ef")
    assert code == 3 and "witness E/F cylinder" in err
    # the budget is checked per refined step: (1 2) closes stable at step
    # 2 under a small budget, and a rank-3 sigma refining past it exits 4
    assert run(capsys, "entropy", "--perm", "(1 2)", "--budget", "32")[0] == 0
    code, out, _ = run(capsys, "entropy", "--perm", "(1 2)", "--steps", "40")
    assert code == 0 and out.count("tail=stable") == 4
    code, _, err = run(capsys, "entropy", "--rank", "3",
                       "--perm", "(3 4 7 8)(5 6)", "--budget", "1024")
    assert code == 4 and "word length 11" in err
    # a series closed by the discrete tail reads no table and is not budgeted
    assert run(capsys, "entropy", "--perm", "(2 3)", "--budget", "32")[0] == 0
    code, out, _ = run(capsys, "entropy", "--perm", "(1 2 3)", "--steps", "40")
    assert code == 0 and "40:1099511627776" in out
    # a budget below one word is a usage error, not an exceeded budget
    for argv in (("entropy", "--perm", "(1 2)", "--budget", "-1"),
                 ("table1", "--budget", "0")):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "--budget" in err, argv
    # the join over fewer than one step or depth is not a count
    for argv in (("entropy", "--perm", "(2 3)", "--steps", "0"),
                 ("entropy", "--perm", "(2 3)", "--steps", "-3"),
                 ("entropy", "--perm", "(2 3)", "--depth", "0"),
                 ("table1", "--depth", "0"),
                 ("table1", "--steps", "0")):
        assert run(capsys, *argv)[0] == 2, argv
    assert run(capsys, "norm", "--element", "s[1] + s[1] t[1]")[0] == 3
    code, _, err = run(capsys, "apply", "--perm", "(1 3)",
                       "--element", "1+1/0i * s[1]")
    assert code == 2 and "zero denominator" in err
    # Psi_k needs k >= 0, and N^k within the matrix cap before any leveling
    code, _, err = run(capsys, "psi", "--depth", "-1", "--element", "s[1]")
    assert code == 2 and "--depth" in err
    code, _, err = run(capsys, "psi", "--depth", "11", "--element", "s[1]")
    assert code == 3 and "2^11" in err
    # the text grammar has single-digit letters: N >= 10 is a usage error
    assert run(capsys, "norm", "--n-gens", "12", "--element", "s[11] t[11]")[0] == 2
    assert run(capsys, "apply", "--perm", "id", "--n-gens", "12",
               "--element", "s[1]")[0] == 2
    # each subcommand takes only the flags it reads
    for argv in (("table1", "--n-gens", "3"), ("table1", "--rank", "3"),
                 ("verify", "relations", "--n-gens", "3"),
                 ("verify", "relations", "--rank", "3"),
                 ("verify", "relations", "--budget", "32"),
                 ("norm", "--rank", "3", "--element", "s[1]"),
                 ("norm", "--budget", "32", "--element", "s[1]"),
                 ("psi", "--rank", "3", "--element", "s[1]"),
                 ("psi", "--budget", "32", "--element", "s[1]"),
                 ("apply", "--budget", "32", "--perm", "id",
                  "--element", "s[1]")):
        assert run(capsys, *argv)[0] == 2, argv


def test_apply_past_the_level_budget_exits_4(capsys):
    # printing rho(1 + s_w s_w^*) for |w| = 30 levels 1 to the 31 letters
    # of the image, 2^31 terms: refused before any is made
    ones = "1" * 30
    code, out, err = run(capsys, "apply", "--perm", "(1 2)",
                         "--element", f"1 + s[{ones}] t[{ones}]")
    assert code == 4 and "budget" in err and out == ""


def test_norm(capsys):
    code, out, _ = run(capsys, "norm", "--element", "s[1] t[2] + s[2] t[1]")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-9)


def test_psi_json(capsys):
    code, out, _ = run(capsys, "psi", "--element", "s[1]", "--depth", "1",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["direction"] == "creation"
    # each T_J lists its nonzero entries [K, M, exact coefficient]
    assert payload["parts"] == {"1": [["1", "1", "1"]],
                                "2": [["1", "2", "1"]]}
    code, out, _ = run(capsys, "psi", "--element",
                       "(1/2+1/3i) * s[1] t[2] - 3/4 * s[2] t[1]", "--depth",
                       "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["degree"], payload["direction"]) == (0, "scalar")
    assert payload["parts"] == {"": [["1", "2", "1/2+1/3i"],
                                     ["2", "1", "-3/4"]]}


def test_psi_text(capsys):
    code, out, _ = run(capsys, "psi", "--element", "s[1]", "--depth", "2")
    assert code == 0
    assert out == (
        "degree 1 (creation), k=2\n"
        'T_1 = [["11", "11", "1"], ["12", "21", "1"]]\n'
        'T_2 = [["11", "12", "1"], ["12", "22", "1"]]\n')


def test_psi_prints_only_nonzero_entries(capsys):
    # s_1 at k = 10 has 1,024 nonzero entries in two 1024 x 1024 parts
    code, out, _ = run(capsys, "psi", "--element", "s[1]", "--depth", "10",
                       "--json")
    assert code == 0
    parts = json.loads(out)["parts"]
    assert sorted(parts) == ["1", "2"]
    assert sum(len(entries) for entries in parts.values()) == 1024
    assert len(out) < 1_000_000


def test_entropy_proved_tail_verdicts(capsys):
    for perm, verdict in (("(2 3)", "log2"), ("(1 2)", "zero")):
        code, out, _ = run(capsys, "entropy", "--perm", perm, "--depth", "2",
                           "--steps", "3", "--json")
        assert code == 0
        assert json.loads(out)["summary"]["verdict"] == verdict, perm


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "relations")
    assert code == 0
    assert "relations: pass" in out


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("CUNTZLAB_DEPTH", "2")
    monkeypatch.setenv("CUNTZLAB_STEPS", "6")
    monkeypatch.setenv("CUNTZLAB_PERM", "(2 3)")
    code, out, _ = run(capsys, "entropy", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 2
    assert len(payload["reports"][0]["counts"]) == 6


def test_malformed_env_integer(capsys, monkeypatch):
    monkeypatch.setenv("CUNTZLAB_DEPTH", "x")
    # read only by the subcommands with --depth, and an explicit flag wins
    assert run(capsys, "apply", "--perm", "(1 3)", "--element", "s[1]")[0] == 0
    code, _, err = run(capsys, "psi", "--element", "s[1]")
    assert code == 2 and "invalid int value: 'x'" in err
    assert run(capsys, "psi", "--element", "s[1]", "--depth", "1")[0] == 0
    assert run(capsys, "--help")[0] == 0


def test_table1_csv(capsys):
    code, out, _ = run(capsys, "table1", "--format", "csv",
                       "--depth", "2", "--steps", "8")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 25
    assert all(row[-1] == "match" for row in rows[1:])
    perms = [row[0] for row in rows[1:]]
    assert perms[0] == "id" and perms[-1] == "(1 4)(2 3)"

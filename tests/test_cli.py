"""CLI contract: flags, exit codes, JSON reports, reproducibility."""

import argparse
import codecs
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from niceset import Instance, build_instance, features, goodness, harness, solvers
from niceset.cli import build_parser, main

from .conftest import child_env, planted_block_matrix


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(tmp_path, name, header, rows):
    path = tmp_path / name
    lines = [",".join(header)] + [",".join(str(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_bounds_prints_reference_values(capsys, tmp_path):
    out_path = tmp_path / "bounds.json"
    code, out, _ = run_cli(capsys, ["bounds", "--m", "100", "--p", "0.5",
                                    "--gamma", "1", "--json", str(out_path)])
    assert code == 0
    assert "19.9316" in out
    assert "0.01" in out
    payload = json.loads(out_path.read_text())
    assert payload["schema"] == 1
    assert payload["upper"]["value"] == pytest.approx(19.931568569324174, rel=1e-9)
    assert payload["upper"]["failure_prob"] == pytest.approx(0.01)
    assert payload["lower"]["threshold"] >= 1


def test_json_goes_to_stdout_without_flag(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--m", "100", "--p", "0.5"])
    assert code == 0
    start = out.index("{")
    payload = json.loads(out[start:])
    assert payload["kind"] == "bounds"


def test_simulate_upper_reports(capsys, tmp_path):
    out_path = tmp_path / "up.json"
    code, out, _ = run_cli(capsys, [
        "simulate-upper", "--m", "12", "--p", "0.5", "--gamma", "1",
        "--conflict", "uniform-k", "--k", "2", "--trials", "10",
        "--seed", "5", "--json", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["schema"] == 1 and payload["kind"] == "simulate-upper"
    assert len(payload["empirical"]) == 10
    assert payload["threshold_upper"] >= 1


def test_simulate_lower_reports(capsys, tmp_path):
    out_path = tmp_path / "lo.json"
    code, _, _ = run_cli(capsys, [
        "simulate-lower", "--m", "12", "--p", "0.5", "--delta", "0.25",
        "--trials", "10", "--seed", "5", "--json", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["kind"] == "simulate-lower"
    assert payload["frac_below_lower"] == 0.0


def test_bounds_and_simulate_report_the_same_thresholds(capsys, tmp_path):
    # both read each bound's threshold and failure probability from one
    # BoundValue; with no conflicts simulate's tau is 1, the bounds default
    model = ["--m", "400", "--p", "0.5"]
    bounds_path, simulate_path = tmp_path / "bounds.json", tmp_path / "simulate.json"
    assert run_cli(capsys, ["bounds", *model, "--json", str(bounds_path)])[0] == 0
    assert run_cli(capsys, ["simulate-lower", *model, "--solver", "greedy", "--trials", "2",
                            "--seed", "1", "--json", str(simulate_path)])[0] == 0
    b, s = json.loads(bounds_path.read_text()), json.loads(simulate_path.read_text())
    assert (b["upper"]["threshold"], b["lower"]["threshold"],
            b["upper"]["failure_prob"], b["lower"]["failure_prob"]) == \
        (s["threshold_upper"], s["threshold_lower"],
         s["claimed_upper_failure"], s["claimed_lower_failure"])


def test_verify_lemma_exit_zero(capsys, tmp_path):
    out_path = tmp_path / "lem.json"
    code, out, _ = run_cli(capsys, ["verify-lemma", "--count", "15",
                                    "--n-max", "5", "--seed", "3",
                                    "--json", str(out_path)])
    assert code == 0
    assert "0 counterexamples" in out
    payload = json.loads(out_path.read_text())
    assert payload["counterexamples"] == []


def test_verify_lemma_above_ten_elements_exits_zero(capsys):
    # seed 0 draws a 35-element system, too big to enumerate in full, whose
    # sweep stops after size 3
    for argv in (["--count", "20", "--n-max", "12", "--seed", "1"],
                 ["--count", "1", "--n-max", "40", "--seed", "0"]):
        code, out, _ = run_cli(capsys, ["verify-lemma", *argv])
        assert code == 0
        assert "0 counterexamples" in out


def test_verify_lemma_lists_counterexamples_and_exits_zero(capsys, monkeypatch):
    monkeypatch.setattr(goodness, "is_mutually_good", lambda *args, **kwargs: False)
    code, out, _ = run_cli(capsys, ["verify-lemma", "--count", "3", "--n-max", "6",
                                    "--seed", "3"])
    # the report lists what was found; the exit code does not judge it
    assert code == 0
    assert "3 counterexamples" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["counterexamples"][0] == {"L": 2, "N": 3, "p": "1", "q": "1/3",
                                             "system_index": 0}
    assert len(payload["counterexamples"]) == 3


def test_verify_lemma_over_budget_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(goodness, "SUBSET_BUDGET", 1000)  # size 3 of 35 elements is over
    code, out, err = run_cli(capsys, ["verify-lemma", "--count", "1", "--n-max", "40",
                                      "--seed", "0"])
    assert code == 2 and out == ""
    assert err.startswith("error: system 0: enumerating the subsets of size 3 over 35 elements")


def test_chernoff_subcommand(capsys, tmp_path):
    out_path = tmp_path / "ch.json"
    code, _, _ = run_cli(capsys, ["chernoff", "--r", "40", "--p", "0.5",
                                  "--gamma", "0.5", "--trials", "2000",
                                  "--seed", "1", "--json", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["within_bound"] is True
    assert payload["consistent_with_exact"] is True


def test_select_subcommand(capsys, tmp_path):
    rng = np.random.default_rng(8)
    a = rng.normal(size=40)
    c = rng.normal(size=40)
    csv_path = write_csv(tmp_path, "features.csv", ["a", "b", "c"],
                         np.column_stack([a, a + 0.01 * rng.normal(size=40), c]))
    out_path = tmp_path / "sel.json"
    inst_path = tmp_path / "inst.json"
    code, out, _ = run_cli(capsys, [
        "select", "--input", csv_path, "--lambda-c", "0.8", "--lambda-mc", "5",
        "--method", "exact", "--json", str(out_path),
        "--instance-json", str(inst_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["witness_checked"] is True
    assert len({"a", "b"} & set(payload["selected"])) == 1
    assert "c" in payload["selected"]
    inst = Instance.from_json(inst_path.read_text())
    assert inst.m == 3 and (1, 2) in inst.edges


def planted_csv(fm) -> str:
    return "\n".join([",".join(fm.names)] + [
        ",".join(repr(float(x)) for x in row) for row in fm.data]) + "\n"


def _planted_select(capsys, tmp_path, fm=None, method="greedy"):
    if fm is None:
        fm = planted_block_matrix(n=300, n_blocks=3, block_size=4, n_indep=5, noise=0.1,
                                  seed=2026)
    csv_path = tmp_path / "planted.csv"
    csv_path.write_text(planted_csv(fm))
    out_path, inst_path = tmp_path / "sel.json", tmp_path / "inst.json"
    code, _, err = run_cli(capsys, [
        "select", "--input", str(csv_path), "--lambda-c", "0.8", "--lambda-mc", "5",
        "--method", method, "--seed", "7", "--json", str(out_path),
        "--instance-json", str(inst_path)])
    assert code == 0, err
    return fm, out_path.read_bytes(), inst_path.read_bytes()


def test_select_golden_digests(capsys, tmp_path):
    # digests recorded before VIF screening moved to a single matrix inverse
    _, report, instance = _planted_select(capsys, tmp_path)
    assert hashlib.sha256(report).hexdigest() == \
        "4346a8b37d856bcc6d3b925fab1c22e5e3dc803e7e0cdc43b4358983a6b5476a"
    assert hashlib.sha256(instance).hexdigest() == \
        "267f6d964da797dd7eb0e00432cf69daec14773cb4951b60463d1bd4f7bf9127"


# SHA-256 of the report and of the instance that select writes for each
# method, on a planted CSV with four blocks of three and eight independents
SELECT_GOLDEN = {
    "exact": "ce7a6f3c578989d4c3d2bf6cf52b8369dba210c7b50ca420949cc43a17ff06bc",
    "greedy": "58121abd5c698d87e92da6a2bfb3c1b4b3d8ea503268ec1246c17b6e0578950f",
    "randomized": "3784054bb77d7aace9d7a00f03358e1646c0a662e406e5dd65f17f77b513f7f3",
}
SELECT_GOLDEN_INSTANCE = "d78fc9c61f68a3bda2f86fcbcaa69410fded3e9f9b14fa8d6f296ada7a21ed22"


@pytest.mark.parametrize("method", sorted(SELECT_GOLDEN))
def test_select_report_golden_digests(capsys, tmp_path, method):
    fm = planted_block_matrix(n=250, n_blocks=4, block_size=3, n_indep=8, noise=0.1, seed=24)
    _, report, instance = _planted_select(capsys, tmp_path, fm, method)
    assert (hashlib.sha256(report).hexdigest(), hashlib.sha256(instance).hexdigest()) == \
        (SELECT_GOLDEN[method], SELECT_GOLDEN_INSTANCE)


def quote_all(text: str) -> str:
    quoted = io.StringIO()
    csv.writer(quoted, quoting=csv.QUOTE_ALL).writerows(csv.reader(io.StringIO(text)))
    return quoted.getvalue()


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("piped", [
    lambda text: quote_all(text).encode(),
    lambda text: codecs.BOM_UTF8 + text.encode(),
], ids=["quoted", "byte-order-mark"])
def test_select_reads_a_pipe_as_the_file(capsys, tmp_path, piped):
    # load_csv reads its input once, so a pipe through /dev/stdin gives the
    # regular file's output byte for byte; here fully quoted, which the csv
    # module reads, or led by a byte-order mark, which is dropped
    text = planted_csv(planted_block_matrix())
    csv_path = tmp_path / "planted.csv"
    csv_path.write_text(text)
    flags = ["--lambda-c", "0.8", "--lambda-mc", "5", "--method", "greedy", "--seed", "3"]
    code, expected, err = run_cli(capsys, ["select", "--input", str(csv_path), *flags])
    assert code == 0, err
    done = subprocess.run([sys.executable, "-m", "niceset.cli", "select", "--input",
                           "/dev/stdin", *flags], input=piped(text), env=child_env(),
                          capture_output=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode() == expected


def test_select_derives_the_instance_once(capsys, tmp_path, monkeypatch):
    # one job standardizes the data once and forms one correlation matrix,
    # which both the edges and the VIF screen read
    calls = Counter()
    for name in ("pearson_matrix", "_standardized_columns"):
        def counted(*args, _name=name, _original=getattr(features, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(features, name, counted)
    fm, _, instance = _planted_select(capsys, tmp_path)
    assert calls == {"pearson_matrix": 1, "_standardized_columns": 1}
    assert instance.decode() == build_instance(fm, 0.8, 5.0).to_json() + "\n"


def test_select_underdetermined_exits_one(capsys, tmp_path):
    rng = np.random.default_rng(4)
    csv_path = write_csv(tmp_path, "wide.csv", [f"c{i}" for i in range(30)],
                         rng.normal(size=(10, 30)))
    code, _, err = run_cli(capsys, ["select", "--input", csv_path, "--lambda-c", "0.9",
                                    "--lambda-mc", "5", "--method", "greedy"])
    assert code == 1
    assert "need n > 30 observations, got 10" in err


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run_cli(capsys, ["frobnicate"])
    assert code == 1
    assert "usage" in err.lower()


def test_missing_subcommand_exits_one(capsys):
    code, _, err = run_cli(capsys, [])
    assert code == 1
    assert "usage" in err.lower()
    assert err.endswith("error: the following arguments are required: COMMAND\n")


def test_bounds_takes_no_seed(capsys):
    # the bounds are closed forms: a seed would be read by nothing
    code, out, err = run_cli(capsys, ["bounds", "--m", "10", "--p", "0.5", "--seed", "5"])
    assert (code, out) == (1, "")
    assert "usage" in err.lower()
    assert "error: unrecognized arguments: --seed 5" in err


def test_domain_error_exits_one(capsys):
    code, _, err = run_cli(capsys, ["simulate-upper", "--m", "10", "--p", "1.5",
                                    "--trials", "2"])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--m", "10", "--p", "0.5", "--gamma", "inf"], "gamma must be positive and finite"),
    (["bounds", "--m", "10", "--p", "0.5", "--gamma", "nan"], "gamma must be positive and finite"),
    (["bounds", "--m", "10", "--p", "0.5", "--tau", "inf"], "tau must be at least 1 and finite"),
    (["bounds", "--m", "10", "--p", "0.5", "--tau", "nan"], "tau must be at least 1 and finite"),
    (["simulate-upper", "--m", "10", "--p", "0.5", "--gamma", "inf", "--trials", "2"],
     "gamma must be positive and finite"),
    (["chernoff", "--r", "10", "--p", "1.5"], "p must lie strictly between 0 and 1"),
    (["chernoff", "--r", "10", "--p", "nan"], "p must lie strictly between 0 and 1"),
    (["chernoff", "--r", "0", "--p", "0.5"], "r must be at least 1"),
    (["chernoff", "--r", "-3", "--p", "0.5"], "r must be at least 1"),
    (["chernoff", "--r", "10", "--p", "0.5", "--seed", "-1"],
     "seeds and derivation indices must be non-negative"),
    # --k is read only with --conflict uniform-k, so it is rejected without it
    (["simulate-lower", "--m", "12", "--p", "0.3", "--trials", "3", "--seed", "1", "--k", "2"],
     "--k 2 needs --conflict uniform-k"),
    (["simulate-lower", "--m", "12", "--p", "0.3", "--trials", "3", "--seed", "1",
      "--conflict", "none", "--k", "2"], "--k 2 needs --conflict uniform-k"),
    (["simulate-lower", "--m", "10", "--p", "0.5", "--conflict", "uniform-k", "--k", "10"],
     "uniform-k spec needs k <= m-1, got k=10, m=10"),
    (["simulate-upper", "--m", "10", "--p", "0.5", "--trials", "0"], "trials must be at least 1"),
])
def test_non_finite_bound_parameters_exit_one(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["bounds", "--m", "1" + "0" * 400, "--p", "0.5"],
    ["bounds", "--m", "10", "--p", "5e-324"],
    ["bounds", "--m", "100", "--p", "0.5", "--gamma", "1e308"],
    ["simulate-upper", "--m", "10", "--p", "5e-324", "--trials", "1"],
], ids=["huge-m", "tiny-p", "huge-gamma", "simulate-tiny-p"])
def test_overflowing_bound_parameters_exit_one(capsys, argv):
    # the bound formulas overflow a float here; the CLI must still print one
    # error line, not a traceback
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_select_nan_vif_threshold_exits_one(capsys, tmp_path):
    rng = np.random.default_rng(4)
    csv_path = write_csv(tmp_path, "data.csv", ["a", "b", "c"], rng.normal(size=(20, 3)))
    code, out, err = run_cli(capsys, ["select", "--input", csv_path, "--lambda-c", "0.9",
                                      "--lambda-mc", "nan", "--method", "greedy"])
    assert (code, out, err) == (1, "", "error: lambda_mc must exceed 1\n")


def test_budget_error_exits_two(capsys, tmp_path, monkeypatch):
    # three 5-cycles of correlated columns: x_i = z_i + z_{i+1} around each
    # cycle, so neighbours correlate near 0.5 and the rest near 0.  The
    # maximum nice set, 6, equals the greedy start, but the clique-cover
    # bound is 9, so the search does not end at the root
    z = np.random.default_rng(0).normal(size=(400, 3, 5))
    data = (z + np.roll(z, -1, axis=2)).reshape(400, 15)
    csv_path = write_csv(tmp_path, "cycles.csv", [f"c{i}" for i in range(15)], data)
    argv = ["select", "--input", csv_path, "--lambda-c", "0.3", "--lambda-mc", "100",
            "--method", "exact"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and "selected 6 of 15 features" in out
    exact = solvers.max_nice_exact
    monkeypatch.setattr(solvers, "max_nice_exact", lambda inst: exact(inst, node_budget=1))
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: exact search exceeded node budget 1\n"


@pytest.mark.parametrize("body, message", [
    (b"a,b\n1,2\n" + b"1" * 200_000 + b",2\n3,4\n", "line 3: field larger than field limit"),
    (b"a,b\n1,2\n3,\xe94\n5,6\n", "not UTF-8 text"),
], ids=["field-over-limit", "not-utf8"])
def test_unreadable_csv_exits_one(capsys, tmp_path, body, message):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_bytes(body)
    code, _, err = run_cli(capsys, ["select", "--input", str(csv_path),
                                    "--lambda-c", "0.8", "--lambda-mc", "5"])
    assert code == 1
    assert err.startswith(f"error: {csv_path}: ")
    assert message in err


@pytest.mark.parametrize("delimiter", ["ab", ""])
def test_bad_delimiter_exits_one(capsys, tmp_path, delimiter):
    csv_path = write_csv(tmp_path, "ok.csv", ["a", "b"], [[1, 2], [2, 1], [3, 5], [4, 4]])
    code, out, err = run_cli(capsys, ["select", "--input", csv_path, "--lambda-c", "0.8",
                                      "--lambda-mc", "5", "--delimiter", delimiter])
    assert code == 1 and out == ""
    assert err == f"error: delimiter must be a single character, got {delimiter!r}\n"


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, ["select", "--input", "/nonexistent.csv",
                                    "--lambda-c", "0.8", "--lambda-mc", "5"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["simulate-upper", "--m", "10", "--p", "0.5", "--trials", "2"],
    ["simulate-lower", "--m", "10", "--p", "0.5", "--trials", "2"],
    ["verify-lemma", "--count", "2", "--n-max", "4"],
    ["chernoff", "--r", "20", "--p", "0.5", "--trials", "100"],
    ["bounds", "--m", "10", "--p", "0.5"],
    ["select", "--lambda-c", "0.8", "--lambda-mc", "5"],
    pytest.param(["select", "--lambda-c", "0.8", "--lambda-mc", "5",
                  "--instance-json", "instance.json"], id="select-instance-json"),
], ids=lambda argv: argv[0])
def test_failed_json_write_prints_no_summary(capsys, tmp_path, monkeypatch, argv):
    # --json names a directory, so the report cannot be written; the run must
    # fail before it prints a summary that reads like a success, and before
    # it writes the instance file
    monkeypatch.chdir(tmp_path)
    if argv[0] == "select":
        argv = argv + ["--input", write_csv(tmp_path, "f.csv", ["a", "b"],
                                            [[1, 2], [2, 1], [3, 5], [4, 3]])]
    code, out, err = run_cli(capsys, argv + ["--json", str(tmp_path)])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not os.path.exists("instance.json")


# SHA-256 of each report written with --json, recorded before the randomized
# solver moved from the goodness-system sampler to union-graph bitmasks
GOLDEN_REPORTS = {
    "upper-exact": (
        ["simulate-upper", "--m", "30", "--p", "0.2", "--solver", "exact",
         "--trials", "6", "--seed", "11"],
        "1392e989587fcfdbcd4c5492f525488b6b0d2cd2ae8400ebea8e71ba2a24eebc"),
    "upper-greedy": (
        ["simulate-upper", "--m", "40", "--p", "0.3", "--solver", "greedy",
         "--trials", "6", "--seed", "11"],
        "25cd1b1612e859e469f0beaa89100fc5f247d8dbeaa246b29dbb12ccfda60e3a"),
    "upper-randomized-uniform-k": (
        ["simulate-upper", "--m", "40", "--p", "0.1", "--solver", "randomized",
         "--conflict", "uniform-k", "--k", "1", "--trials", "6", "--seed", "11"],
        "eddddb7b4cf2595c1719f6b3a595544cac0c0020ffb3157987195d2815ece727"),
    "lower-exact-uniform-k": (
        ["simulate-lower", "--m", "30", "--p", "0.2", "--solver", "exact",
         "--conflict", "uniform-k", "--k", "2", "--trials", "6", "--seed", "12"],
        "87a3207b166d628ec86d5efa0e9e8d94e050b048dfb446561337f1e9194e705d"),
    "lower-greedy": (
        ["simulate-lower", "--m", "40", "--p", "0.3", "--solver", "greedy",
         "--trials", "6", "--seed", "12"],
        "ec1bec89d910bf4bef608226e52eae0460e120bb46a4649f726ab433d107bdf6"),
    "lower-randomized": (
        ["simulate-lower", "--m", "30", "--p", "0.2", "--solver", "randomized",
         "--trials", "6", "--seed", "12"],
        "4c0368aed916e832c0b8b422e5411b8892b58174b38e636f0fd80f14393d2498"),
    "verify-lemma": (
        ["verify-lemma", "--count", "25", "--n-max", "6", "--seed", "3"],
        "fe9432119f4a6dcebd2165ff27bca7bfa3bed486dbcb00a11ed66643675bbf64"),
    "verify-lemma-n13": (
        ["verify-lemma", "--count", "40", "--n-max", "13", "--seed", "5"],
        "84f23f3d73bff4819c478b087f6b13f5223175d8c379d4816c90e32c86b376ac"),
    "verify-lemma-n18": (
        ["verify-lemma", "--count", "20", "--n-max", "18", "--seed", "1"],
        "5611ef4b8ddbeb3fdd162fb125cbd597688f9a1849fcaff7d3a1466efa3f089b"),
    "chernoff": (
        ["chernoff", "--r", "40", "--p", "0.3", "--trials", "2000", "--seed", "4"],
        "3325a2bc356d20acef227b8210eae0c66a5c264045f5d88f21577be291425289"),
    "bounds": (
        ["bounds", "--m", "100", "--p", "0.5", "--gamma", "1", "--tau", "1.5"],
        "b5e192ae123d966450869a3d0b49a14b69a2612c19bc1574d54389c712cc75b6"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_report_golden_digests(capsys, tmp_path, name):
    argv, digest = GOLDEN_REPORTS[name]
    out_path = tmp_path / "report.json"
    code, _, err = run_cli(capsys, argv + ["--json", str(out_path)])
    assert code == 0, err
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_shared_parser_survives_failed_runs(capsys, tmp_path, monkeypatch):
    # main parses with one parser per process: a usage error and a budget
    # error must leave nothing in it that changes the next run's report
    code, _, err = run_cli(capsys, ["simulate-upper", "--m", "10", "--p", "0.5",
                                    "--solver", "bogus"])
    assert code == 1 and "usage" in err.lower()
    monkeypatch.setattr(goodness, "SUBSET_BUDGET", 1000)
    code, _, _ = run_cli(capsys, ["verify-lemma", "--count", "1", "--n-max", "40",
                                  "--seed", "0"])
    assert code == 2
    argv, digest = GOLDEN_REPORTS["upper-randomized-uniform-k"]
    for _ in range(2):
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, argv + ["--json", str(out_path)])
        assert code == 0, err
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["bounds", "--m", "100", "--p", "0.5", "--gamma", "1"],
    ["simulate-upper", "--m", "10", "--p", "0.5", "--trials", "5", "--seed", "2"],
    ["simulate-lower", "--m", "10", "--p", "0.5", "--trials", "5", "--seed", "2"],
    ["verify-lemma", "--count", "10", "--n-max", "5", "--seed", "3"],
    ["chernoff", "--r", "20", "--p", "0.5", "--trials", "500", "--seed", "4"],
    # from r = 1030 on, binomial coefficients overflow a float
    ["chernoff", "--r", "2000", "--p", "0.5", "--trials", "1000", "--seed", "1"],
])
def test_repeat_runs_are_byte_identical(capsys, tmp_path, argv):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    code1, out1, _ = run_cli(capsys, argv + ["--json", str(first)])
    code2, out2, _ = run_cli(capsys, argv + ["--json", str(second)])
    assert code1 == code2 == 0
    assert first.read_bytes() == second.read_bytes()
    assert out1 == out2


def test_importing_the_cli_loads_no_process_pool():
    # the trial workers are forked directly; multiprocessing and
    # concurrent.futures would add their import time to every CLI process
    script = ("import sys, niceset.cli; print(sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    done = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# Every subcommand's options as (default, required, type, choices, nargs):
# the flags a user can pass, which a change to how the parser is built must keep
CLI_SURFACE = {
    "simulate-upper": {
        "--m": (None, True, int, None, None),
        "--p": (None, True, float, None, None),
        "--gamma": (1.0, False, float, None, None),
        "--delta": (0.25, False, float, None, None),
        "--solver": ("exact", False, None, ("exact", "greedy", "randomized"), None),
        "--conflict": ("none", False, None, ("none", "uniform-k"), None),
        "--k": (0, False, int, None, None),
        "--seed": (0, False, int, None, None),
        "--json": (None, False, None, None, None),
        "--trials": (100, False, int, None, None),
    },
    "verify-lemma": {
        "--count": (500, False, int, None, None),
        "--n-max": (8, False, int, None, None),
        "--seed": (0, False, int, None, None),
        "--json": (None, False, None, None, None),
    },
    "chernoff": {
        "--r": (None, True, int, None, None),
        "--p": (None, True, float, None, None),
        "--gamma": (0.5, False, float, None, None),
        "--seed": (0, False, int, None, None),
        "--json": (None, False, None, None, None),
        "--trials": (100000, False, int, None, None),
    },
    "bounds": {
        "--m": (None, True, int, None, None),
        "--p": (None, True, float, None, None),
        "--gamma": (1.0, False, float, None, None),
        "--delta": (0.25, False, float, None, None),
        "--tau": (1.0, False, float, None, None),
        "--json": (None, False, None, None, None),
    },
    "select": {
        "--input": (None, True, None, None, None),
        "--lambda-c": (None, True, float, None, None),
        "--lambda-mc": (None, True, float, None, None),
        "--k-top": (3, False, int, None, None),
        "--method": ("exact", False, None, ("exact", "greedy", "randomized"), None),
        "--delimiter": (",", False, None, None, None),
        "--no-header": (False, False, None, None, 0),
        "--instance-json": (None, False, None, None, None),
        "--seed": (0, False, int, None, None),
        "--json": (None, False, None, None, None),
    },
}
CLI_SURFACE["simulate-lower"] = CLI_SURFACE["simulate-upper"]


def test_every_subcommand_keeps_its_options():
    commands, = (action.choices for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert sorted(commands) == sorted(CLI_SURFACE)
    for name, command in commands.items():
        actions = [a for a in command._actions if not isinstance(a, argparse._HelpAction)]
        assert all(len(a.option_strings) == 1 for a in actions), name
        options = {a.option_strings[0]: (a.default, a.required, a.type,
                                         a.choices and tuple(a.choices), a.nargs)
                   for a in actions}
        assert options == CLI_SURFACE[name], name


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["bounds", "--m", "10", "--p", "0.5"],
    ["simulate-upper", "--m", "10", "--p", "0.5", "--trials", "2"],
    ["select", "--lambda-c", "0.8", "--lambda-mc", "5"],
], ids=lambda argv: argv[0])
def test_closed_stdout_exits_141_quietly(tmp_path, argv, buffered):
    # as under `niceset ... | head -c 5`: the reader is gone before the child
    # has imported niceset, so its first write to stdout fails
    if argv[0] == "select":
        argv = argv + ["--input", write_csv(tmp_path, "f.csv", ["a", "b"],
                                            [[1, 2], [2, 1], [3, 5], [4, 3]])]
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen([sys.executable, "-m", "niceset.cli", *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()
    _, err = child.communicate(timeout=120)
    assert (child.returncode, err) == (141, b"")


@pytest.mark.parametrize("cpus", [1, 2])
def test_out_of_memory_exits_two(capsys, monkeypatch, cpus):
    # an instance too large to allocate (m = 100000 asks numpy for 9.31 GiB)
    # is input too big for the method; at 2 CPUs only the worker's trial
    # fails, so the error crosses the worker pipe
    here, sample = os.getpid(), harness.sample_instance

    def sample_or_fail(*args, **kwargs):
        if cpus == 1 or os.getpid() != here:
            raise MemoryError(f"Unable to allocate in {os.getpid()}")
        return sample(*args, **kwargs)

    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    monkeypatch.setattr(harness, "sample_instance", sample_or_fail)
    code, out, err = run_cli(capsys, ["simulate-upper", "--m", "20", "--p", "0.5",
                                      "--trials", "2", "--solver", "greedy"])
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory: Unable to allocate in ")
    assert err.count("\n") == 1
    assert (int(err.split()[-1]) == here) == (cpus == 1)

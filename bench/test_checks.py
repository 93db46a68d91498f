"""The benchmark's correctness checks reject wrong sizes and sets.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import niceset.cli  # noqa: E402
from run import END_TO_END, WORKLOAD_NAMES, tail  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, nice_errors, union_masks  # noqa: E402

SEED = 5


def run_checked(name: str, workdir: Path):
    """Job 0 of workload ``name``, its parsed report, and a checker of
    (possibly altered) reports that returns the errors."""
    workload = WORKLOADS[name]
    workload.prepare(SEED, workdir)
    job = workload.job(SEED, 0, workdir)
    with contextlib.redirect_stdout(io.StringIO()):
        assert niceset.cli.main(list(job.argv)) == 0
    report = json.loads(job.report.read_text(encoding="utf-8"))
    instance = None if job.instance is None else json.loads(job.instance.read_text(encoding="utf-8"))
    return report, lambda r: workload.check(job, r, instance).errors


def altered(report: dict, **changes) -> dict:
    return {**json.loads(json.dumps(report)), **changes}


def test_exact_check_rejects_any_other_size(tmp_path):
    report, check = run_checked("mc-exact-sparse", tmp_path)
    assert check(report) == []
    for delta in (1, -1):
        sizes = list(report["empirical"])
        sizes[3] += delta
        assert check(altered(report, empirical=sizes))


def test_randomized_check_rejects_sizes_outside_one_to_maximum(tmp_path):
    report, check = run_checked("mc-randomized-sparse", tmp_path)
    assert check(report) == []
    exact, _ = run_checked("mc-exact-sparse", tmp_path)
    for bad in (0, exact["empirical"][2] + 1):
        sizes = list(report["empirical"])
        sizes[2] = bad
        assert check(altered(report, empirical=sizes))


def test_greedy_check_rejects_another_size(tmp_path):
    report, check = run_checked("mc-greedy-large", tmp_path)
    assert check(report) == []
    assert check(altered(report, empirical=[report["empirical"][0] - 1]))


def test_mc_checks_reject_foreign_seeds(tmp_path):
    report, check = run_checked("mc-exact-sparse", tmp_path)
    assert check(altered(report, seeds=report["seeds"][::-1]))


def test_nice_check_rejects_adjacent_and_non_maximal_sets():
    path = {"m": 4, "edges": [[1, 2], [2, 3]], "conflicts": {"3": [4], "4": [3]}}
    masks = union_masks(path)
    assert nice_errors(masks, {1, 3}, maximal=True) == []
    assert nice_errors(masks, {1, 2})
    assert nice_errors(masks, {3, 4})
    assert nice_errors(masks, {1}, maximal=True)
    assert nice_errors(masks, {5})


def test_select_check_rejects_wrong_sets(tmp_path):
    report, check = run_checked("select-vif", tmp_path)
    assert check(report) == []
    selected = report["selected"]
    first_block = [s for s in selected if s.startswith("b00_")]
    assert len(first_block) == 1
    other = "b00_1" if first_block[0] != "b00_1" else "b00_2"
    assert check(altered(report, selected=selected + [other]))
    assert check(altered(report, selected=[s for s in selected if s != first_block[0]]))
    assert check(altered(report, selected=[s for s in selected if s != "x07"]))
    assert check(altered(report, selected=selected + ["nonesuch"]))


def test_benchmark_json_declares_what_the_benchmark_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOAD_NAMES)
    assert set(WORKLOAD_NAMES) == set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("n, percentile", [(19, None), (20, 50), (100, 90), (1000, 99)])
def test_tail_leaves_ten_executions_beyond_it(n, percentile):
    latencies = [float(i) for i in range(n)]
    result = tail(latencies)
    if percentile is None:
        assert result is None
        return
    assert result["percentile"] == percentile
    assert sum(x > result["value"] for x in latencies) >= 10

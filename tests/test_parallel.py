"""Work on several CPUs: bound experiments give the same report as one
trial after another, budget errors cross the pipe, ``load_csv`` parses a
large body in parts with the same result and errors, and the workers'
lifetime."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
import warnings

import numpy as np
import pytest

from niceset import (BudgetError, ConflictSpec, CsvError, ExperimentConfig, features, harness,
                     load_csv, run_bound_experiment, sample_instance, solve)
from niceset.rng import derive_seed

from .conftest import child_env, planted_block_matrix
from .test_features import outcome, reference_load_csv


@pytest.fixture(autouse=True)
def _affinity_mask_kept():
    """No run leaves the test process on fewer CPUs than it started on."""
    before = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    yield
    assert before is None or os.sched_getaffinity(0) == before


def trial_by_trial(cfg, monkeypatch):
    """Oracle: the report built from the trials run one after another here."""
    rows = []
    for t in range(cfg.trials):
        seed = derive_seed(cfg.seed, t)
        inst = sample_instance(cfg.m, cfg.p, cfg.conflicts, seed=seed)
        rows.append((seed, solve(inst, cfg.solver, seed=seed).size,
                     max(len(ts) for ts in inst.conflicts.values())))
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_run_trials", lambda _: rows)
        return run_bound_experiment(cfg)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("trials", [1, 2, 3, 7])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("solver", ["exact", "greedy", "randomized"])
def test_parallel_report_equals_the_trial_by_trial_loop(monkeypatch, solver, k, trials, cpus):
    cfg = ExperimentConfig(m=30, p=0.2, conflicts=ConflictSpec.uniform(k), trials=trials,
                           seed=5, solver=solver)
    expected = trial_by_trial(cfg, monkeypatch)
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    report = run_bound_experiment(cfg)
    assert report == expected
    assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict())
    assert len(harness._workers) == min(cpus, trials) - 1
    assert run_bound_experiment(cfg) == expected  # the same workers, run again


def test_ranges_are_contiguous_and_cover_every_trial():
    for trials in range(1, 12):
        for parts in range(1, trials + 1):
            ranges = harness._ranges(trials, parts)
            assert [t for r in ranges for t in r] == list(range(trials))
            assert len(ranges) == parts
            assert max(map(len, ranges)) - min(map(len, ranges)) <= 1


def failing_solve(monkeypatch, cfg, failing):
    """Make ``solve`` raise a BudgetError at the trials in ``failing`` of
    ``cfg``'s seed; the message names the process that raised it."""
    seeds = {derive_seed(cfg.seed, t) for t in failing}
    real = harness.solve

    def solve_or_fail(inst, method, seed):
        if seed in seeds:
            raise BudgetError(f"over in {os.getpid()}", best_vertices=frozenset({1, 3}))
        return real(inst, method, seed=seed)

    monkeypatch.setattr(harness, "solve", solve_or_fail)


def test_budget_error_in_a_worker_names_its_trial_and_keeps_the_best_set(monkeypatch):
    cfg = ExperimentConfig(m=20, p=0.3, trials=7, seed=1, solver="greedy")
    monkeypatch.setattr(harness, "_cpus", lambda: 2)  # ranges 0..3 and 4..6
    failing_solve(monkeypatch, cfg, {5})
    with pytest.raises(BudgetError, match=r"^trial 5: over in \d+$") as info:
        run_bound_experiment(cfg)
    assert int(str(info.value).rsplit(" ", 1)[1]) != os.getpid()  # it crossed the pipe
    assert info.value.best_vertices == frozenset({1, 3}) and info.value.best_size == 2
    assert harness._workers == []  # stopped after the failure


@pytest.mark.parametrize("cpus, failing, reported", [
    (2, {2, 5}, 2),       # this process's range and the worker's
    (3, {4, 6}, 4),       # two workers' ranges: 3..4 and 5..6
    (3, {1, 3, 5}, 1),
])
def test_the_lowest_failing_trial_is_reported(monkeypatch, cpus, failing, reported):
    cfg = ExperimentConfig(m=20, p=0.3, trials=7, seed=1, solver="greedy")
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    failing_solve(monkeypatch, cfg, failing)
    with pytest.raises(BudgetError, match=rf"^trial {reported}: "):
        run_bound_experiment(cfg)


@pytest.mark.parametrize("failing", [{0}, {5}], ids=["this-process", "worker"])
def test_a_run_after_a_failed_run_is_still_correct(monkeypatch, failing):
    # the failed run's other range may still be running or its reply unread;
    # the next run must not read it
    failed = ExperimentConfig(m=20, p=0.3, trials=7, seed=1, solver="exact")
    after = ExperimentConfig(m=20, p=0.3, trials=7, seed=2, solver="exact")
    expected = trial_by_trial(after, monkeypatch)
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    failing_solve(monkeypatch, failed, failing)
    with pytest.raises(BudgetError):
        run_bound_experiment(failed)
    assert run_bound_experiment(after) == expected
    assert run_bound_experiment(after) == expected


def test_a_worker_killed_between_runs_is_replaced(monkeypatch):
    cfg = ExperimentConfig(m=20, p=0.3, trials=4, seed=3, solver="greedy")
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    expected = run_bound_experiment(cfg)
    (worker,) = harness._workers
    os.kill(worker.pid, signal.SIGKILL)
    wait_until_gone(worker.pid, 10)
    assert run_bound_experiment(cfg) == expected
    assert [w.pid for w in harness._workers] != [worker.pid]


def test_an_idle_worker_ignores_sigint(monkeypatch):
    cfg = ExperimentConfig(m=20, p=0.3, trials=4, seed=3, solver="greedy")
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    expected = run_bound_experiment(cfg)
    (worker,) = harness._workers
    os.kill(worker.pid, signal.SIGINT)
    time.sleep(0.2)
    assert worker.alive()
    assert run_bound_experiment(cfg) == expected
    assert harness._workers == [worker]


def test_trials_run_here_while_another_thread_drives_the_workers(monkeypatch):
    cfg = ExperimentConfig(m=20, p=0.3, trials=4, seed=3, solver="greedy")
    expected = trial_by_trial(cfg, monkeypatch)
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    with harness._workers_lock:
        assert run_bound_experiment(cfg) == expected
    assert harness._workers == []


def test_a_failed_fork_leaves_the_trials_to_the_workers_there_are(monkeypatch):
    cfg = ExperimentConfig(m=20, p=0.3, trials=7, seed=3, solver="exact")
    expected = trial_by_trial(cfg, monkeypatch)
    monkeypatch.setattr(harness, "_cpus", lambda: 4)
    forks, fork = [], os.fork

    def fork_once():
        if forks:
            raise BlockingIOError("no process to spare")
        forks.append(fork())
        return forks[-1]

    monkeypatch.setattr(os, "fork", fork_once)
    assert run_bound_experiment(cfg) == expected
    assert [w.pid for w in harness._workers] == forks and len(forks) == 1


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="needs os.sched_setaffinity")


def placements(monkeypatch):
    """Record each request as it is sent to a worker, as ``(trials, cpu)``,
    and the calling process's affinity mask in each of its own trials."""
    requests, here = [], []
    start, solve, caller = harness._Worker.start, harness.solve, os.getpid()

    def recording_start(worker, function, args, cpu):
        assert function is harness._trials
        requests.append((args[0], cpu))
        start(worker, function, args, cpu)

    def recording_solve(inst, method, seed):
        if os.getpid() == caller:
            here.append(os.sched_getaffinity(0))
        return solve(inst, method, seed=seed)

    monkeypatch.setattr(harness._Worker, "start", recording_start)
    monkeypatch.setattr(harness, "solve", recording_solve)
    return requests, here


@needs_affinity
@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_each_range_is_sent_the_next_allowed_cpu_in_turn(monkeypatch, cpus):
    cfg = ExperimentConfig(m=20, p=0.3, trials=7, seed=6, solver="randomized")
    expected = trial_by_trial(cfg, monkeypatch)
    allowed = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    requests, here = placements(monkeypatch)
    assert run_bound_experiment(cfg) == expected
    ranges = harness._ranges(cfg.trials, cpus)
    sent = [allowed[0]] + [cpu for _, cpu in requests]
    assert requests == [(r, allowed[i % len(allowed)]) for i, r in enumerate(ranges) if i]
    assert len(set(sent[:len(allowed)])) == min(cpus, len(allowed))  # distinct, then in turn
    assert here == [{allowed[0]}] * len(ranges[0])
    assert os.sched_getaffinity(0) == set(allowed)
    for worker in harness._workers:  # idle again, with the mask it was forked with
        assert os.sched_getaffinity(worker.pid) == set(allowed)


@needs_affinity
@pytest.mark.parametrize("cpus", [2, 3])
def test_a_worker_runs_its_range_on_the_cpu_it_was_sent(monkeypatch, cpus):
    cfg = ExperimentConfig(m=20, p=0.3, trials=6, seed=1, solver="greedy")
    allowed = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    last = harness._ranges(cfg.trials, cpus)[-1][-1]  # in the last worker's range
    real, failing = harness.solve, derive_seed(cfg.seed, last)

    def solve_or_name_the_mask(inst, method, seed):
        if seed == failing:
            raise BudgetError(f"on {sorted(os.sched_getaffinity(0))}")
        return real(inst, method, seed=seed)

    monkeypatch.setattr(harness, "solve", solve_or_name_the_mask)
    with pytest.raises(BudgetError) as info:
        run_bound_experiment(cfg)
    assert str(info.value) == f"trial {last}: on {[allowed[(cpus - 1) % len(allowed)]]}"


@needs_affinity
@pytest.mark.parametrize("outcome, trial, error", [
    ("budget error", 2, BudgetError),       # in this process's range 0..3
    ("budget error", 5, BudgetError),       # in the worker's range 4..6
    ("exit", 5, ChildProcessError),         # the worker dies mid-run
])
def test_the_callers_affinity_mask_is_the_same_after_a_failed_run(monkeypatch, outcome,
                                                                   trial, error):
    cfg = ExperimentConfig(m=20, p=0.3, trials=7, seed=1, solver="greedy")
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    before, real, failing = os.sched_getaffinity(0), harness.solve, derive_seed(cfg.seed, trial)

    def solve_or_fail(inst, method, seed):
        if seed == failing:
            if outcome == "exit":
                os._exit(1)
            raise BudgetError("over")
        return real(inst, method, seed=seed)

    monkeypatch.setattr(harness, "solve", solve_or_fail)
    with pytest.raises(error):
        run_bound_experiment(cfg)
    assert os.sched_getaffinity(0) == before


@needs_affinity
def test_without_sched_setaffinity_no_range_is_placed(monkeypatch):
    cfg = ExperimentConfig(m=30, p=0.2, conflicts=ConflictSpec.uniform(1), trials=7, seed=5,
                           solver="randomized")
    expected = trial_by_trial(cfg, monkeypatch)
    before = os.sched_getaffinity(0)
    monkeypatch.setattr(harness, "_cpus", lambda: 3)
    monkeypatch.delattr(os, "sched_setaffinity")  # the workers are forked without it too
    requests, here = placements(monkeypatch)
    report = run_bound_experiment(cfg)
    assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict())
    assert [cpu for _, cpu in requests] == [None, None]
    assert here == [before] * 3 and os.sched_getaffinity(0) == before


@needs_affinity
def test_a_refused_move_runs_the_range_where_it_is(monkeypatch):
    cfg = ExperimentConfig(m=30, p=0.2, trials=7, seed=5, solver="exact")
    expected = trial_by_trial(cfg, monkeypatch)
    before = os.sched_getaffinity(0)
    monkeypatch.setattr(harness, "_cpus", lambda: 2)

    def refuse(pid, mask):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)  # in the workers too
    _, here = placements(monkeypatch)
    assert run_bound_experiment(cfg) == expected
    assert here == [before] * 4 and os.sched_getaffinity(0) == before


ROWS, WIDTH = 400, 30  # a body of about 230 KiB: three parts' worth


def large_csv(tmp_path, edit=None):
    """A headed CSV of ROWS records of WIDTH numbers; ``edit(body)`` may
    change the list of body lines (without line ends) first."""
    rng = np.random.default_rng(8)
    body = [",".join(map(repr, row)) for row in rng.standard_normal((ROWS, WIDTH)).tolist()]
    if edit is not None:
        edit(body)
    assert len("\n".join(body)) > 3 * features._PART_CHARS
    path = tmp_path / "large.csv"
    path.write_text(",".join(f"c{j}" for j in range(WIDTH)) + "\n" + "\n".join(body) + "\n",
                    encoding="utf-8", newline="")
    return path


def no_csv_reader(*args):
    raise AssertionError("the csv reader ran on a body numpy reads")


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_large_body_loads_as_the_reference_on_any_cpu_count(monkeypatch, tmp_path, cpus):
    path = large_csv(tmp_path)
    expected = outcome(reference_load_csv, path)
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    monkeypatch.setattr(features, "_csv_body", no_csv_reader)
    assert outcome(load_csv, path) == expected
    assert len(harness._workers) == cpus - 1
    assert outcome(load_csv, path) == expected  # the same workers, run again


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_line_ends_inside_cells_stay_inside_their_line(monkeypatch, tmp_path, cpus):
    # float and numpy read these cells as numbers; str.splitlines would end
    # a line at each of them
    def pad(body):
        for i in range(0, ROWS, 7):
            cells = body[i].split(",")
            cells[i % WIDTH] = "\f" + cells[i % WIDTH] + "\x85"
            cells[(i + 1) % WIDTH] += "\u2028\f"
            body[i] = ",".join(cells)

    path = large_csv(tmp_path, pad)
    expected = outcome(reference_load_csv, path)
    assert expected[1] == (ROWS, WIDTH)
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    monkeypatch.setattr(features, "_csv_body", no_csv_reader)
    assert outcome(load_csv, path) == expected


BAD = ROWS - 10  # the body line of the bad record: in the last part for 1 to 3 CPUs


def replace_cell(cell):
    def edit(body):
        cells = body[BAD].split(",")
        cells[3] = cell
        body[BAD] = ",".join(cells)
    return edit


def drop_cell(body):
    body[BAD] = body[BAD].rsplit(",", 1)[0]


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("edit, column", [
    (replace_cell("x"), "c3"),
    (replace_cell('"1,5"'), "c3"),   # quoted: one cell to csv, two to numpy
    (replace_cell("inf"), "c3"),
    (drop_cell, None),
], ids=["non-number", "quoted", "inf", "ragged"])
def test_a_bad_record_in_a_workers_part_is_reported_as_the_reference_does(
        monkeypatch, tmp_path, cpus, edit, column):
    path = large_csv(tmp_path, edit)
    assert BAD in harness._ranges(ROWS, cpus)[-1]
    expected = outcome(reference_load_csv, path)
    assert expected[0] is CsvError and expected[2:] == (BAD + 2, column)
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    assert outcome(load_csv, path) == expected
    assert len(harness._workers) == cpus - 1  # a rejected part stops no worker


@pytest.mark.parametrize("cpus", [2, 3])
def test_parts_of_different_widths_go_to_the_csv_reader(monkeypatch, tmp_path, cpus):
    # each part alone is rectangular: only their widths differ
    last = harness._ranges(ROWS, cpus)[-1]

    def narrow(body):
        for i in last:
            body[i] = body[i].rsplit(",", 1)[0]

    path = large_csv(tmp_path, narrow)
    expected = outcome(reference_load_csv, path)
    assert expected[:3] == (CsvError, f"{path}: record {last[0] + 2} has {WIDTH - 1} fields, "
                                      f"expected {WIDTH}", last[0] + 2)
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    assert outcome(load_csv, path) == expected
    assert outcome(load_csv, path, has_header=False) \
        == outcome(reference_load_csv, path, has_header=False)


@pytest.mark.parametrize("cpus, size, workers", [
    (2, (2, -1), 0),     # under two parts' worth: no worker
    (2, (2, 0), 1),
    (3, (3, -1), 1),     # under three parts' worth: two parts on three CPUs
    (3, (3, 0), 2),
    (8, (3, 0), 2),      # no more parts than parts' worth
])
def test_each_part_holds_the_part_size_at_least(monkeypatch, tmp_path, cpus, size, workers):
    parts, extra = size
    size = parts * features._PART_CHARS + extra  # characters of body, line ends included
    lines = size // 4 - 1
    body = ["1,2\n", "3,5\n"] * (lines // 2) + ["4,4\n"] * (lines % 2)
    body.append("0" * (size - 4 * len(body) - 4) + "1,3\n")
    assert sum(map(len, body)) == size
    path = tmp_path / "data.csv"
    path.write_text("a,b\n" + "".join(body), newline="")
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    assert outcome(load_csv, path) == outcome(reference_load_csv, path)
    assert len(harness._workers) == workers


def test_no_part_is_empty_when_lines_are_long(monkeypatch, tmp_path):
    # three lines of about 100,000 characters: four parts' worth, three lines
    rng = np.random.default_rng(9)
    rows = rng.standard_normal((3, 5000)).tolist()
    path = tmp_path / "wide.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    assert path.stat().st_size // features._PART_CHARS > 3
    monkeypatch.setattr(harness, "_cpus", lambda: 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on an empty part
        assert outcome(load_csv, path, has_header=False) \
            == outcome(reference_load_csv, path, has_header=False)
    assert len(harness._workers) == 2


def test_a_parse_worker_killed_between_loads_is_replaced(monkeypatch, tmp_path):
    path = large_csv(tmp_path)
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    expected = outcome(load_csv, path)
    (worker,) = harness._workers
    os.kill(worker.pid, signal.SIGKILL)
    wait_until_gone(worker.pid, 10)
    assert outcome(load_csv, path) == expected
    assert len(harness._workers) == 1 and harness._workers[0].pid != worker.pid


TEST_PROCESS = os.getpid()
_parse_lines = features._parse_lines


def parse_or_exit(lines, delimiter):
    """``features._parse_lines``, except that a worker exits instead."""
    if os.getpid() != TEST_PROCESS:
        os._exit(1)
    return _parse_lines(lines, delimiter)


def test_a_parse_worker_that_dies_mid_run_raises_naming_it(monkeypatch, tmp_path):
    path = large_csv(tmp_path)
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    monkeypatch.setattr(features, "_parse_lines", parse_or_exit)
    with pytest.raises(ChildProcessError, match=r"^worker \d+ exited mid-run$"):
        load_csv(path)
    assert harness._workers == []


def test_a_worker_dead_before_its_request_raises_naming_it(monkeypatch):
    # not BrokenPipeError, which the CLI reads as its own stdout closed
    cfg = ExperimentConfig(m=20, p=0.3, trials=4, seed=3, solver="greedy")
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    expected = run_bound_experiment(cfg)
    (worker,) = harness._workers
    os.kill(worker.pid, signal.SIGKILL)
    wait_until_gone(worker.pid, 10)
    with monkeypatch.context() as patch:
        patch.setattr(harness._Worker, "alive", lambda self: True)  # missed by the sweep
        with pytest.raises(ChildProcessError, match=rf"^worker {worker.pid} exited mid-run$"):
            run_bound_experiment(cfg)
    assert harness._workers == []
    assert run_bound_experiment(cfg) == expected


def running(pid: int) -> bool:
    """Whether ``pid`` is a live process; a zombie (exited, not yet reaped by
    whichever process adopted it) is not."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no /proc: fall back on signal 0, which sees zombies as live
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


# Forces one worker whatever the machine, makes every trial take TRIAL_S,
# prints the worker's pid once it exists, then runs 40 slow trials (about
# 20 trials per range), with "cli" through the console script's entry point,
# or with "idle" sleeps while the worker waits.
SLOW_RUN = textwrap.dedent("""
    import sys, time
    from niceset import ExperimentConfig, harness, run_bound_experiment

    TRIAL_S, mode = float(sys.argv[1]), sys.argv[2]
    real = harness.solve

    def slow(inst, method, seed):
        time.sleep(TRIAL_S)
        return real(inst, method, seed=seed)

    harness.solve = slow
    harness._cpus = lambda: 2
    run_bound_experiment(ExperimentConfig(m=10, p=0.3, trials=2, solver="greedy"))
    print(harness._workers[0].pid, flush=True)
    if mode == "idle":
        time.sleep(60)
    if mode == "cli":
        from niceset.cli import main
        sys.exit(main(["simulate-lower", "--m", "10", "--p", "0.3", "--solver", "greedy",
                       "--trials", "40", "--json", "/dev/null"]))
    run_bound_experiment(ExperimentConfig(m=10, p=0.3, trials=40, solver="greedy"))
""")
TRIAL_S = 0.5


def python(*args, **kwargs) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, *args], env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, **kwargs)


def wait_until_gone(pid: int, seconds: float) -> float:
    start = time.monotonic()
    while running(pid):
        if time.monotonic() - start > seconds:
            pytest.fail(f"worker {pid} still running {seconds} s later")
        time.sleep(0.02)
    return time.monotonic() - start


def test_the_worker_is_gone_once_its_process_exits():
    script = textwrap.dedent("""
        from niceset import harness
        from niceset.cli import main

        harness._cpus = lambda: 2
        assert main(["simulate-lower", "--m", "20", "--p", "0.2", "--trials", "4",
                     "--json", "/dev/null"]) == 0
        print(*(w.pid for w in harness._workers))
    """)
    child = python("-c", script)
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    lines = out.splitlines()
    (pid,) = map(int, lines[-1].split())
    with pytest.raises(ProcessLookupError):  # reaped too, not left a zombie
        os.kill(pid, 0)


@pytest.mark.parametrize("mode", ["busy", "idle"])
@pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
def test_the_worker_exits_within_a_trial_of_its_parent_dying(signum, mode):
    child = python("-c", SLOW_RUN, str(TRIAL_S), mode)
    try:
        worker = int(child.stdout.readline())
        time.sleep(TRIAL_S / 2)  # the long run has started, or the worker waits
        assert running(worker)
        child.send_signal(signum)
        child.wait(timeout=60)
        # a busy worker's range has about 20 trials left and it stops at the
        # next one; an idle worker reads end of file at once
        wait_until_gone(worker, TRIAL_S + 1.5)
    finally:
        child.kill()
        child.communicate(timeout=60)


def test_sigint_prints_one_traceback_and_leaves_no_worker():
    # Ctrl-C in a terminal signals the whole process group, worker included
    child = python("-c", SLOW_RUN, str(TRIAL_S), "busy", start_new_session=True)
    try:
        worker = int(child.stdout.readline())
        time.sleep(TRIAL_S / 2)
        os.killpg(child.pid, signal.SIGINT)
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
    assert child.returncode != 0
    assert err.count("Traceback") == 1, err  # the parent's own KeyboardInterrupt
    assert err.rstrip().endswith("KeyboardInterrupt")
    with pytest.raises(ProcessLookupError):
        os.kill(worker, 0)


def test_sigint_to_the_cli_exits_130_without_a_traceback_or_a_worker():
    child = python("-c", SLOW_RUN, str(TRIAL_S), "cli", start_new_session=True)
    try:
        worker = int(child.stdout.readline())
        time.sleep(TRIAL_S / 2)
        os.killpg(child.pid, signal.SIGINT)
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
    assert child.returncode == 130, err
    assert "Traceback" not in err, err
    with pytest.raises(ProcessLookupError):
        os.kill(worker, 0)


def test_a_forked_child_starts_its_own_worker():
    script = textwrap.dedent("""
        import json, os, sys
        from niceset import ExperimentConfig, harness, run_bound_experiment

        harness._cpus = lambda: 2
        cfg = ExperimentConfig(m=20, p=0.2, trials=6, seed=4, solver="randomized")
        report = run_bound_experiment(cfg)
        before = [w.pid for w in harness._workers]
        read, write = os.pipe()
        child = os.fork()
        if child == 0:
            inherited = [w.pid for w in harness._workers]
            same = run_bound_experiment(cfg) == report
            own = [w.pid for w in harness._workers]
            # waitpid succeeds only on one's own child
            mine = all(os.waitpid(pid, os.WNOHANG) == (0, 0) for pid in own)
            os.write(write, json.dumps([inherited, own, same, mine]).encode())
            sys.exit(0)
        os.close(write)
        with os.fdopen(read) as handle:
            inherited, own, same, mine = json.loads(handle.read())
        _, status = os.waitpid(child, 0)
        again = run_bound_experiment(cfg) == report
        print(json.dumps({"before": before, "inherited": inherited, "own": own,
                          "same": same, "mine": mine, "child_status": status,
                          "after": [w.pid for w in harness._workers], "again": again}))
    """)
    child = python("-c", script)
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    result = json.loads(out)
    assert len(result["before"]) == 1 and result["inherited"] == []
    assert len(result["own"]) == 1 and result["own"] != result["before"]
    assert result["same"] and result["mine"] and result["child_status"] == 0
    assert result["after"] == result["before"] and result["again"]
    assert not running(result["own"][0])  # the child's exit stopped its worker


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_a_process_pinned_to_one_cpu_runs_serially_with_the_same_report(tmp_path):
    # the other tests patch harness._cpus; here the real affinity mask sets it
    script = textwrap.dedent("""
        import os, sys
        from niceset import harness
        from niceset.cli import main

        out, mode = sys.argv[1:]
        if mode == "pinned":
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        for solver in ("randomized", "exact"):
            assert main(["simulate-lower", "--m", "60", "--p", "0.1", "--conflict", "uniform-k",
                         "--k", "1", "--solver", solver, "--trials", "10", "--seed", "1",
                         "--json", os.path.join(out, f"{mode}-{solver}.json")]) == 0
        assert main(["select", "--input", os.path.join(out, "planted.csv"), "--lambda-c", "0.8",
                     "--lambda-mc", "5", "--method", "greedy", "--seed", "1",
                     "--json", os.path.join(out, f"{mode}-select.json"),
                     "--instance-json", os.path.join(out, f"{mode}-instance.json")]) == 0
        print(harness._cpus(), len(harness._workers))
    """)
    fm = planted_block_matrix(n=800)  # a body over the size load_csv parses in parts
    body = "".join(",".join(map(repr, row)) + "\n" for row in fm.data.tolist())
    assert len(body) > 2 * features._PART_CHARS
    (tmp_path / "planted.csv").write_text(",".join(fm.names) + "\n" + body)
    children = {mode: python("-c", script, str(tmp_path), mode) for mode in ("pinned", "free")}
    outs = {mode: child.communicate(timeout=120) for mode, child in children.items()}
    for mode, child in children.items():
        assert child.returncode == 0, outs[mode][1]
    assert outs["pinned"][0].splitlines()[-1] == "1 0"  # one CPU, so no worker
    for name in ("randomized", "exact", "select", "instance"):
        assert (tmp_path / f"pinned-{name}.json").read_bytes() == \
            (tmp_path / f"free-{name}.json").read_bytes()

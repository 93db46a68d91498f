"""Bound experiments on several CPUs: the same report as one trial after
another, budget errors across the pipe, and the workers' lifetime."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from niceset import (BudgetError, ConflictSpec, ExperimentConfig, harness,
                     run_bound_experiment, sample_instance, solve)
from niceset.rng import derive_seed

from .conftest import child_env


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

    def recording_start(worker, cfg, trials, cpu):
        requests.append((trials, cpu))
        start(worker, cfg, trials, cpu)

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
        print(harness._cpus(), len(harness._workers))
    """)
    children = {mode: python("-c", script, str(tmp_path), mode) for mode in ("pinned", "free")}
    outs = {mode: child.communicate(timeout=120) for mode, child in children.items()}
    for mode, child in children.items():
        assert child.returncode == 0, outs[mode][1]
    assert outs["pinned"][0].splitlines()[-1] == "1 0"  # one CPU, so no worker
    for solver in ("randomized", "exact"):
        assert (tmp_path / f"pinned-{solver}.json").read_bytes() == \
            (tmp_path / f"free-{solver}.json").read_bytes()

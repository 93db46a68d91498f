"""niceset benchmark: closed-loop CLI job streams, one client, in-process.

    python3 bench/run.py --workload mc-exact-sparse --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45 --trace 1

Each workload has a fixed pool of jobs.  The client runs whole passes over
the pool, calling ``niceset.cli.main(argv)`` one job after another, until
``--seconds`` have passed; each job writes its JSON report to a file and its
stdout is discarded.  Every job's ``--seed`` and every generated CSV derive
from ``--seed``.  Outputs are checked for correctness after the timed loop.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` replays the
untraced passes traced, and reports the per-layer metrics of
``spans.PER_LAYER``.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, latencies, same-work digests, failures) is written to
``.bench_out/`` at the repository root, and traced runs also write their
spans there.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("mc-exact-sparse", "mc-greedy-large", "select-vif", "mc-randomized-sparse")
END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_BEFORE = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs in a fresh interpreter: the time from a bare interpreter to a
# CLI that can take its first job.
IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import niceset.cli
print(repr(time.perf_counter() - start))
"""


def pin_blas_threads() -> None:
    """One BLAS thread on every commit, never more than ``nproc``, so BLAS
    threads do not compete with the single client.  Must run before numpy
    is imported; child interpreters inherit it."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "niceset").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": commit, "source_sha256": source.hexdigest(), "workload_seed": seed,
    }


def measure_setup(repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip()))
    return times


Execution = namedtuple("Execution", "job latency code error digest")


def run_job(cli, job) -> tuple[float, int, str]:
    """Latency, exit code and stderr of one job."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except Exception:  # a crashing job is a failed job; the stream goes on
        code = -1
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, err.getvalue()


def read_outputs(job) -> tuple[str, str | None] | None:
    """The job's report text and, where it writes one, its instance JSON."""
    try:
        report = job.report.read_text(encoding="utf-8")
        return report, None if job.instance is None else job.instance.read_text(encoding="utf-8")
    except OSError:
        return None


def run_passes(cli, jobs, outputs: dict, seconds=None, passes=None, after_pass=None):
    """Whole passes over ``jobs`` until ``seconds`` have passed, or until
    ``passes`` passes ran, calling ``after_pass`` after each.  The first
    outputs of each job are kept in ``outputs``.  Returns the executions,
    the passes run and the wall time."""
    from workloads import sha256

    executions, done = [], 0
    start = time.perf_counter()
    while done < passes if passes is not None else time.perf_counter() - start < seconds:
        for job in jobs:
            for stale in (job.report, job.instance):
                if stale is not None:
                    stale.unlink(missing_ok=True)
            latency, code, error = run_job(cli, job)
            texts = read_outputs(job)
            digest = None if texts is None else sha256("".join(t or "" for t in texts))
            if texts is not None and code == 0:
                outputs.setdefault(job.index, (texts, digest))
            executions.append(Execution(job.index, latency, code, error, digest))
        done += 1
        if after_pass is not None:
            after_pass()
    return executions, done, time.perf_counter() - start


def check_executions(workload, jobs, executions, outputs) -> tuple[dict, list[float]]:
    """Errors per failed execution index, and the solver/oracle size ratios.

    Every execution of a job must exit 0 and write the job's first outputs
    byte for byte, and those outputs must pass the workload's check."""
    failures, ratios, job_errors = {}, [], {}
    for job in jobs:
        if job.index in outputs:
            (report, instance), _ = outputs[job.index]
            result = workload.check(job, json.loads(report),
                                    None if instance is None else json.loads(instance))
            ratios += result.size_ratios
            job_errors[job.index] = result.errors[:10]
    for i, e in enumerate(executions):
        if e.code != 0 or e.digest is None:
            failures[i] = [f"job {e.job}: exit code {e.code}: {e.error.strip()[-500:]}"]
        elif e.digest != outputs[e.job][1]:
            failures[i] = [f"job {e.job}: outputs differ from its first execution"]
        elif job_errors[e.job]:
            failures[i] = [f"job {e.job}: {error}" for error in job_errors[e.job]]
    return failures, ratios


def tail(latencies: list[float]) -> dict | None:
    """Latency at the highest whole percentile that leaves at least ten
    samples beyond it (nearest rank), or None when that is below p50."""
    n = len(latencies)
    q = (100 * (n - 10)) // n if n > 10 else 0
    if q < 50:
        return None
    rank = math.ceil(q * n / 100)
    return {"percentile": q, "value": sorted(latencies)[rank - 1], "samples": n}


def layer_table(stats: dict, wall: float) -> list[str]:
    lines = [f"{'span':40s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'share':>7s}"]
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:40s} {s['calls']:8d} {s['total_s']:10.4f} {s['self_s']:10.4f} "
                     f"{s['self_s'] / wall:7.1%}")
    return lines


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import niceset.cli as cli
    from spans import PER_LAYER, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "environment": environment(seed)}
    # setup_s samples are spread over the run: a few before the loop, then
    # one after each pass (outside every job's latency).
    setup = [] if traced else measure_setup(SETUP_BEFORE)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    outputs: dict = {}
    try:
        record["inputs"] = workload.prepare(seed, workdir)
        jobs = [workload.job(seed, j, workdir) for j in range(workload.pool)]
        run_job(cli, jobs[0])  # warm-up: lazy imports and the file cache
        executions, passes, wall = run_passes(
            cli, jobs, outputs, seconds=seconds,
            after_pass=None if traced else lambda: setup.extend(measure_setup(1)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        untraced = len(executions)
        if traced:
            tracer = Tracer()
            with tracer.installed():
                traced_executions, _, traced_wall = run_passes(cli, jobs, outputs, passes=passes)
            executions += traced_executions  # checked alike, against the untraced outputs
        failures, ratios = check_executions(workload, jobs, executions, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(failures)
    latencies = [e.latency for e in executions]
    record.update({
        "pool": workload.pool, "passes": passes, "wall_s": wall,
        "executions": [{"job": e.job, "latency_s": e.latency, "code": e.code,
                        "sha256": e.digest} for e in executions],
        "job_outputs_sha256": [outputs[j.index][1] if j.index in outputs else None
                               for j in jobs],
        "failures": {str(i): errors for i, errors in failures.items()},
        "fail_frac": failed / len(executions),
    })
    lines = [f"workload {name}: {passes} passes over {workload.pool} jobs in {wall:.3f} s"
             f"{', then as many traced' if traced else ''}, seed {seed}",
             f"fail_frac: {failed}/{len(executions)} = {failed / len(executions):.4f}"]
    lines += [f"  execution {i}: {'; '.join(errors)}" for i, errors in list(failures.items())[:10]]
    correct = failed == 0

    if traced:
        record["traced_wall_s"] = traced_wall
        overhead = sum(latencies[untraced:]) / sum(latencies[:untraced])
        values = tracer.metrics(statistics.fmean(ratios) if ratios else 0.0, overhead)
        units = dict(PER_LAYER)
        stats = tracer.span_stats()
        self_sum = sum(s["self_s"] for s in stats.values())
        root = stats.get("cli.main", {}).get("total_s", 0.0)
        nested = self_sum <= root * (1 + 1e-9)
        correct = correct and nested
        lines += layer_table(stats, traced_wall)
        lines.append(f"traced wall {traced_wall:.4f} s, untraced {wall:.4f} s; overhead ratio "
                     f"{overhead:.4f} (summed job latencies, traced / untraced)")
        lines.append(f"self-time check: sum of self_s {self_sum:.6f} <= cli.main total_s "
                     f"{root:.6f}: {'ok' if nested else 'FAILED'}")
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = spans_path.name
    else:
        record["setup_samples_s"] = setup
        job_tail = tail(latencies)
        record["job_tail_s"] = job_tail
        values = {
            "setup_s": statistics.median(setup),
            "jobs_per_s": len(latencies) / sum(latencies),
            "job_p50_s": statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        lines.append(f"jobs_per_s and job_p50_s over {len(latencies)} jobs; setup_s median of "
                     f"{len(setup)} fresh imports")
        lines.append("job_tail_s: " + (
            f"p{job_tail['percentile']} = {job_tail['value']:.6f} s over "
            f"{job_tail['samples']} executions" if job_tail else
            f"not reported: {len(executions)} executions leave no percentile >= p50 "
            f"with ten beyond it"))
    metrics = {key: {"value": value, "unit": units[key]} for key, value in values.items()}
    record["metrics"] = metrics
    record_path = OUT / f"{name}-seed{seed}-trace{int(traced)}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    lines += [f"{key}: {m['value']:.6g} {m['unit']}" for key, m in metrics.items()]
    lines.append(f"record: {record_path.relative_to(ROOT)}")
    print("\n".join(lines))
    return {"correct": correct, "attempted": len(executions), "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own interpreter, so peak RSS is per workload."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"workload {name} exited with code {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        totals["metrics"].update({f"{name}.{key}": m for key, m in result["metrics"].items()})
    print("\nsummary")
    for key, m in totals["metrics"].items():
        print(f"  {key}: {m['value']:.6g} {m['unit']}")
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "niceset" / "cli.py").is_file():
        print(f"error: no niceset sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path.insert(0, str(SRC))
        import niceset

        if Path(niceset.__file__).resolve().parent != SRC / "niceset":
            print(f"error: imported niceset from {niceset.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

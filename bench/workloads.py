"""The benchmark's job streams: the inputs each workload generates from its
seed, the argv of each job, and the correctness check of each job's report.

The checks never trust the program's own witness: exact sizes are compared
with networkx's maximum clique on the union graph's complement, and nice,
maximal and planted-block properties are checked with the bitmasks below.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# select-vif input: BLOCKS planted blocks of BLOCK_SIZE near-copies of one
# latent column (noise sd NOISE, |corr| about 0.92) plus INDEPENDENT columns.
ROWS, BLOCKS, BLOCK_SIZE, NOISE, INDEPENDENT = 1000, 20, 4, 0.3, 40


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def job_seed(seed: int, j: int) -> int:
    """The ``--seed`` of job ``j``.  Shared by all MC workloads, so
    mc-exact-sparse and mc-randomized-sparse run the same trial seeds."""
    return int(np.random.SeedSequence([seed % 2**64, j]).generate_state(1)[0])


def trial_seed(master: int, t: int) -> int:
    """Seed of trial ``t`` under master ``master``, as the CLI reports it:
    SeedSequence hashing of ``(master, t)`` into 64 bits."""
    words = np.random.SeedSequence(entropy=(master, t)).generate_state(2, dtype=np.uint32)
    return (int(words[0]) << 32) | int(words[1])


def union_masks(inst: dict) -> list[int]:
    """Union-graph adjacency of a serialized instance (``Instance.to_dict``
    layout): ``masks[v]`` has bit ``u`` set iff ``u ~ v``; index 0 unused."""
    masks = [0] * (inst["m"] + 1)
    pairs = [tuple(e) for e in inst["edges"]]
    pairs += [(int(v), u) for v, partners in inst["conflicts"].items() for u in partners]
    for u, v in pairs:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def nice_errors(masks: list[int], chosen, maximal: bool = False) -> list[str]:
    """Why ``chosen`` is not a nice (and, if asked, maximal) vertex set."""
    chosen = sorted(chosen)
    m = len(masks) - 1
    if any(not 1 <= v <= m for v in chosen):
        return [f"vertex out of range 1..{m}"]
    mask = 0
    for v in chosen:
        mask |= 1 << v
    errors = [f"{v} is adjacent to the set" for v in chosen if masks[v] & mask]
    if maximal and not errors:
        covered = mask
        for v in chosen:
            covered |= masks[v]
        missing = [v for v in range(1, m + 1) if not covered >> v & 1]
        if missing:
            errors.append(f"not maximal: {missing[:5]} can be added")
    return errors


def max_nice_size(inst: dict) -> int:
    """Maximum nice-set size: the clique number of the union graph's complement."""
    import networkx as nx  # installed, but not a dependency of niceset

    union = nx.Graph()
    union.add_nodes_from(range(1, inst["m"] + 1))
    masks = union_masks(inst)
    union.add_edges_from((u, v) for u in range(1, inst["m"] + 1)
                         for v in range(u + 1, inst["m"] + 1) if masks[u] >> v & 1)
    _, size = nx.max_weight_clique(nx.complement(union), weight=None)
    return size


@dataclass(frozen=True)
class Job:
    index: int
    seed: int
    argv: tuple[str, ...]
    report: Path
    instance: Path | None = None


@dataclass
class CheckResult:
    errors: list[str]
    size_ratios: tuple[float, ...] = ()


@dataclass(frozen=True)
class McWorkload:
    """``simulate-*`` jobs on uniform-k instances, one job after another."""

    name: str
    pool: int
    command: str
    m: int
    p: float
    k: int
    solver: str
    trials: int

    def prepare(self, seed: int, workdir: Path) -> dict:
        """Nothing to generate: the inputs are the job seeds.  Returns the
        same-work digest of the instance at job 0's first trial seed."""
        first = trial_seed(job_seed(seed, 0), 0)
        inst = self._sample(first)
        return {"first_trial_seed": first, "first_instance_sha256": sha256(inst.to_json())}

    def job(self, seed: int, j: int, workdir: Path) -> Job:
        s = job_seed(seed, j)
        report = workdir / f"job{j}.json"
        argv = (self.command, "--m", str(self.m), "--p", repr(self.p),
                "--conflict", "uniform-k", "--k", str(self.k), "--solver", self.solver,
                "--trials", str(self.trials), "--seed", str(s), "--json", str(report))
        return Job(j, s, argv, report)

    def _sample(self, trial: int):
        import niceset

        spec = niceset.ConflictSpec.uniform(self.k)
        return niceset.sample_instance(self.m, self.p, spec, seed=trial)

    def check(self, job: Job, report: dict, instance: dict | None) -> CheckResult:
        expected = [trial_seed(job.seed, t) for t in range(self.trials)]
        errors = []
        if report.get("solver") != self.solver or report.get("trials") != self.trials:
            errors.append("report names another solver or trial count")
        if report.get("seeds") != expected:
            return CheckResult(errors + ["trial seeds differ from the job seed's derivation"])
        sizes = report.get("empirical", [])
        if len(sizes) != self.trials:
            return CheckResult(errors + [f"{len(sizes)} sizes for {self.trials} trials"])
        ratios = []
        for t, (trial, size) in enumerate(zip(expected, sizes)):
            if self.solver == "greedy":
                errors += [f"trial {t}: {e}" for e in self._greedy_errors(trial, size)]
                continue
            best = max_nice_size(self._sample(trial).to_dict())
            if self.solver == "exact":
                if size != best:
                    errors.append(f"trial {t}: exact size {size}, oracle {best}")
                continue
            ratios.append(size / best)
            if not 1 <= size <= best:
                errors.append(f"trial {t}: randomized size {size} outside 1..{best}")
        return CheckResult(errors, tuple(ratios))

    def _greedy_errors(self, trial: int, size: int) -> list[str]:
        import niceset

        inst = self._sample(trial)
        chosen = niceset.greedy_nice(inst).vertices
        errors = nice_errors(union_masks(inst.to_dict()), chosen, maximal=True)
        if len(chosen) != size:
            errors.append(f"reported size {size}, greedy set has {len(chosen)}")
        return errors


def planted_names() -> list[str]:
    blocks = [f"b{b:02d}_{i}" for b in range(BLOCKS) for i in range(BLOCK_SIZE)]
    return blocks + [f"x{i:02d}" for i in range(INDEPENDENT)]


def planted_csv(seed: int) -> str:
    """The select-vif CSV for ``seed``: planted blocks, then independents."""
    rng = np.random.default_rng(np.random.SeedSequence([seed % 2**64, 1]))
    latent = rng.standard_normal((ROWS, BLOCKS))
    blocks = np.repeat(latent, BLOCK_SIZE, axis=1)
    blocks += NOISE * rng.standard_normal(blocks.shape)
    data = np.hstack([blocks, rng.standard_normal((ROWS, INDEPENDENT))])
    lines = [",".join(planted_names())]
    lines += [",".join(repr(float(x)) for x in row) for row in data]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SelectWorkload:
    """``select --instance-json`` jobs on one planted-block CSV."""

    name: str
    pool: int

    def prepare(self, seed: int, workdir: Path) -> dict:
        text = planted_csv(seed)
        (workdir / "planted.csv").write_text(text, encoding="utf-8")
        return {"csv_sha256": sha256(text), "csv_bytes": len(text)}

    def job(self, seed: int, j: int, workdir: Path) -> Job:
        s = job_seed(seed, j)
        report = workdir / f"job{j}.json"
        instance = workdir / f"instance{j}.json"
        argv = ("select", "--input", str(workdir / "planted.csv"), "--lambda-c", "0.8",
                "--lambda-mc", "5", "--method", "greedy", "--instance-json", str(instance),
                "--seed", str(s), "--json", str(report))
        return Job(j, s, argv, report, instance)

    def check(self, job: Job, report: dict, instance: dict | None) -> CheckResult:
        names = planted_names()
        selected = report.get("selected", [])
        unknown = sorted(set(selected) - set(names))
        if unknown:
            return CheckResult([f"unknown features {unknown[:5]}"])
        errors = nice_errors(union_masks(instance), [names.index(s) + 1 for s in selected])
        for b in range(BLOCKS):
            kept = [s for s in selected if s.startswith(f"b{b:02d}_")]
            if len(kept) != 1:
                errors.append(f"block {b}: kept {kept}, want exactly one")
        dropped = [x for x in names[BLOCKS * BLOCK_SIZE:] if x not in selected]
        if dropped:
            errors.append(f"independent features dropped: {dropped[:5]}")
        return CheckResult(errors)


# ``pool`` distinct jobs run round-robin, so each job runs many times in a
# run and its outputs are checked once; a pass over the pool takes 1.5 to
# 3.5 s on a 2-core 2.1 GHz Xeon.  The exact pool is larger because its job
# cost varies most with the instances.  Why each workload exists is recorded
# in README.md.
WORKLOADS = {w.name: w for w in (
    McWorkload("mc-exact-sparse", pool=16, command="simulate-lower",
               m=60, p=0.1, k=1, solver="exact", trials=10),
    McWorkload("mc-greedy-large", pool=4, command="simulate-upper",
               m=800, p=0.5, k=3, solver="greedy", trials=1),
    SelectWorkload("select-vif", pool=2),
    McWorkload("mc-randomized-sparse", pool=4, command="simulate-lower",
               m=60, p=0.1, k=1, solver="randomized", trials=10),
)}

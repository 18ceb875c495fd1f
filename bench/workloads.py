"""The benchmark's workloads: the CLI jobs each one runs, generated from a seed.

A job is one ``blochvar`` invocation, given as the argv that
``blochvar.cli.run`` receives.  The workload seed only chooses inputs
(the CLI ``--seed`` of each job and the axis angles); the amount of work
per job is fixed, so runs on different seeds measure the same load.
Jobs are listed round by round: one round holds one job of each kind,
each sized to cost about the same.  The runner cycles through the list,
stopping only at a round boundary after at least one whole pass, so
every run covers every job and keeps the same mix of kinds.

This module imports nothing from ``blochvar`` or numpy: the worker loads
it before it starts the set-up clock.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

# Samples per job for each relation of the qubit catalogue of
# ``blochvar verify``; the counts make every job cost about the same, so
# that the job-time percentiles are not set by which kind is slowest.
QUBIT_SAMPLES = {
    "theorem1": 100,
    "triangle": 100,
    "mixed-limit": 125,
    "pure-limit": 100,
    "unit-vector": 100,
    "three-obs-equality": 225,
    "appendix-b": 250,
    "robertson": 100,
    "state-dependent": 75,
}

# Samples per job of the N-level trade-off, by relation and dimension,
# sized the same way.
QUDIT_SAMPLES = {
    "appendix-c": {3: 110, 6: 45, 10: 16},
    "robertson": {3: 150, 6: 95, 10: 45},
}
QUDIT_DIMS = (3, 6, 10)

# Samples per job of the region scans, by (mode, ensemble).
REGION_SAMPLES = {("pair", "pure"): 300, ("pair", "mixed"): 450, ("triple", "pure"): 250}

# 108 distinct jobs per workload; a run repeats them, and a repeat must
# reproduce the first run's digest.
ROUNDS = {"qubit-fuzz": 12, "qudit-tradeoff": 18, "region-scan": 36}

# Files a region job writes, relative to the job's work directory.
REGION_ARTIFACTS = ("samples.csv", "occupancy.json")
REGION_REPORT = "report.json"


@dataclass(frozen=True)
class Job:
    """One CLI invocation of a workload."""

    kind: str
    argv: tuple[str, ...]
    samples: int
    artifacts: tuple[str, ...] = ()
    report: str | None = None


def dims(workload: str) -> tuple[int, ...]:
    """The dimensions whose bases the workload's set-up builds."""
    if workload == "qudit-tradeoff":
        return QUDIT_DIMS
    if workload in ("qubit-fuzz", "region-scan"):
        return (2,)
    raise ValueError(f"unknown workload {workload!r}")


def jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    """All jobs of the workload for ``seed``; consecutive jobs take
    consecutive CLI seeds.  Region jobs write their files under
    ``workdir``."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rng = random.Random(seed)
    base = seed * 10_000
    out: list[Job] = []
    for _ in range(ROUNDS[workload]):
        for job in _round(workload, rng, workdir):
            out.append(replace(job, argv=job.argv + ("--seed", str(base + len(out)))))
    return out


def _angle(rng: random.Random) -> str:
    return f"{rng.uniform(0.05, math.pi - 0.05):.6f}"


def _round(workload: str, rng: random.Random, workdir: str) -> list[Job]:
    if workload == "qubit-fuzz":
        out = []
        for rel, samples in QUBIT_SAMPLES.items():
            argv = ("verify", rel, "--dim", "2", "--samples", str(samples))
            if rel == "three-obs-equality":
                argv += ("--theta-ab", _angle(rng))
            out.append(Job(f"verify {rel} N=2", argv, samples))
        return out
    if workload == "qudit-tradeoff":
        return [
            Job(f"verify {rel} N={n}",
                ("verify", rel, "--dim", str(n), "--samples", str(by_dim[n])), by_dim[n])
            for n in QUDIT_DIMS
            for rel, by_dim in QUDIT_SAMPLES.items()
        ]
    if workload == "region-scan":
        out = []
        files = tuple(f"{workdir}/{name}" for name in REGION_ARTIFACTS)
        report = f"{workdir}/{REGION_REPORT}"
        for (mode, ensemble), samples in REGION_SAMPLES.items():
            argv = ("region", mode, "--theta-ab", _angle(rng), "--ensemble", ensemble,
                    "--samples", str(samples), "--csv", files[0], "--json", files[1],
                    "--out", report)
            if mode == "pair":
                argv += ("--slice-da2", f"{rng.uniform(0.1, 0.9):.3f}")
            out.append(Job(f"region {mode} {ensemble}", argv, samples, files, report))
        return out
    raise ValueError(f"unknown workload {workload!r}")

"""Self-test of the benchmark; run from the repository root with

    python3 -m pytest bench/test_bench.py

Each workload runs for one round of jobs, untraced and traced, on the
seeds that ``reference.json`` covers, so every job is checked against a
recorded digest.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_and_digests_pass(workload, trace):
    result = bench(workload, 0, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert result["correct"] is True


def test_held_out_seed_digests_pass():
    result = bench("region-scan", 1729, 0)
    assert result["failed"] == 0 and result["correct"] is True


def test_tracer_spans_fit_jobs_and_originals_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import worker
    import workloads
    from tracer import METHODS, MODULES, Tracer

    cli, _ = worker.setup("qudit-tradeoff")
    owners = [sys.modules["blochvar"]] + [sys.modules[f"blochvar.{m}"] for m in MODULES]
    owners += [getattr(sys.modules[f"blochvar.{m}"], cls) for m, cls, _ in METHODS]
    before = [dict(vars(owner)) for owner in owners]

    jobs = workloads.jobs("qudit-tradeoff", 0, str(ROOT / ".bench_out"))
    per_round = len(jobs) // workloads.ROUNDS["qudit-tradeoff"]
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.run is not before[owners.index(cli)]["run"]
        records = worker.run_jobs(cli, jobs, None, per_round, count=per_round, tracer=tracer)
    finally:
        tracer.uninstall()

    after = [dict(vars(owner)) for owner in owners]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[k] is old[k] for k in old)
    assert all(r["error"] is None for r in records)

    spans = tracer.table()
    assert spans["sid"].size > 0
    for record in records:
        in_job = spans["job"] == record["job"]
        assert in_job.any()
        assert (spans["self_s"][in_job] >= -1e-12).all()
        assert spans["self_s"][in_job].sum() <= record["wall_s"]

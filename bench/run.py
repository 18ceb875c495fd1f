"""Benchmark of the ``blochvar`` command line, end to end and per layer.

Run from the root of a checkout (the program is ``src/blochvar``)::

    python3 bench/run.py                    # every workload, metric table
    python3 bench/run.py --workload qubit-fuzz --seed 3 --seconds 20 --trace 0

With ``--workload`` the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The lines before it are a table
of every metric with its unit, then the environment fingerprint.

Each run starts fresh interpreters for the program (``worker.py``): a
few that only time the set-up, whose median is ``setup_s``, then one
that runs the jobs, one at a time, with ``UR_THREADS`` unset and one
BLAS thread.  The ``ref_`` timings scale each job's wall time by the
calibration kernel timed around it (see ``worker.py``) to the speed at
which that kernel takes ``CAL_REF_S``: the machine's own drift cancels,
and a change to the program moves them as much as the wall time.  The
plain wall-clock timings are printed beside them.

``--trace 1`` runs half the time untraced, then one traced pass over the
workload's job list: its per-layer metrics sum calls and self times over
that pass, and ``trace_overhead_frac`` compares its ``ref_`` samples per
second with the untraced part's.

Exit code 0 when a result was printed, 1 when the program could not be
run (for instance when ``src/blochvar`` is missing), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_PROBES = 6  # set-up only interpreters; the job interpreter adds one more sample
IMPORTTIME_PROBES = 3
DEADLINE_S = 170.0
TAIL = 0.90  # job_s_p90: of the 108 distinct jobs of a workload, 10 lie beyond it
CAL_REF_S = 2e-3  # reference calibration time, near its median on a 2 vCPU Xeon

class BenchError(RuntimeError):
    """The program could not be run or did not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("UR_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting the next interpreter")
    try:
        return subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} did not finish in time") from exc


def worker(args: list[str], deadline: float) -> dict:
    proc = spawn([sys.executable, str(BENCH / "worker.py"), *args], deadline)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(deadline: float) -> dict:
    """Median cumulative import time of ``blochvar.cli`` and of
    ``blochvar.regions`` under ``python -X importtime``."""
    samples: dict[str, list[float]] = {"cli.import_s": [], "regions.import_s": []}
    for _ in range(IMPORTTIME_PROBES):
        proc = spawn([sys.executable, "-X", "importtime", "-c", "import blochvar.cli"], deadline)
        if proc.returncode != 0:
            raise BenchError(f"importing blochvar.cli failed:\n{proc.stderr[-2000:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        samples["cli.import_s"].append(cumulative["blochvar.cli"])
        samples["regions.import_s"].append(cumulative["blochvar.regions"])
    return {name: statistics.median(v) for name, v in samples.items()}


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ref_walls(records: list[dict]) -> list[float]:
    """Each job's wall time at the reference speed."""
    return [r["wall_s"] * CAL_REF_S / r["cal_s"] for r in records]


def throughput(records: list[dict], walls: list[float]) -> float:
    done = sum(r["samples"] for r in records if r["error"] is None)
    return done / sum(walls)


def timings(records: list[dict], walls: list[float], prefix: str) -> dict:
    repeats: dict[int, list[float]] = {}
    for r, wall in zip(records, walls):
        repeats.setdefault(r["index"], []).append(wall)
    # Percentiles over the distinct jobs of each one's mean over its
    # repeats: a repeat does the same work, so what varies between
    # repeats is the machine, not the job.
    means = [statistics.fmean(w) for w in repeats.values()]
    return {
        f"{prefix}samples_per_s": throughput(records, walls),
        f"{prefix}job_s_p50": statistics.median(means),
        f"{prefix}job_s_p90": nearest_rank(means, TAIL),
    }


def end_to_end(setups: list[float], result: dict) -> dict:
    records = result["records"]
    return {
        "setup_s": statistics.median(setups),
        **timings(records, ref_walls(records), "ref_"),
        **timings(records, [r["wall_s"] for r in records], ""),
        "peak_rss_mb": result["peak_rss_kb"] * 1024 / 1e6,
    }


def per_layer(result: dict, imports: dict) -> dict:
    """Every per-layer figure of a traced run; BENCHMARK.json picks the
    ones it reports."""
    trace = result["trace"]
    out = {}
    for name, calls in trace["calls"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = trace["self_s"][name]
        module = name.split(".")[0]
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + trace["self_s"][name]
    out["bloch.state_to_matrix.rejected"] = trace["raised"]["bloch.state_to_matrix"]
    draws = trace["appendix_c_draws"]
    out["appendix_c.accept_ratio"] = trace["appendix_c_accepted"] / draws if draws else 0.0
    for n, seconds in trace["build_basis_s"].items():
        out[f"sun_basis.build_basis.n{n}_s"] = seconds
    out.update(imports)
    plain = throughput(result["records"], ref_walls(result["records"]))
    traced = throughput(result["traced_records"], ref_walls(result["traced_records"]))
    out["trace_overhead_frac"] = 1.0 - traced / plain
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of ``workload``; returns the metrics and the raw results."""
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "blochvar" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'blochvar'} is missing")
    setups = [worker(["--workload", workload, "--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    result = worker(args + (["--trace"] if trace else []), deadline)
    setups.append(result["setup_s"])
    records = result["records"] + result.get("traced_records", [])
    failures = [r for r in records if r["error"] is not None]
    metrics = end_to_end(setups, result)
    checks_ok = True
    if trace:
        metrics.update(per_layer(result, import_times(deadline)))
        # Each job's summed self times must fit inside its wall time.
        checks_ok = result["trace"]["self_minus_wall_max_s"] <= 1e-9
    return {
        "metrics": metrics,
        "result": result,
        "attempted": len(records),
        "failures": failures,
        "correct": not failures and checks_ok,
    }


def report(workload: str, run: dict, spec: dict, trace: bool) -> dict:
    """Print the metric table; return the metrics BENCHMARK.json names."""
    metrics = run["metrics"]
    result = run["result"]
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    chosen = {}
    print(f"== {workload}: {run['attempted']} jobs, checked against "
          f"{result['checked_against']}")
    for entry in listed:
        value = metrics[entry["name"]]
        chosen[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<48} {value:>14.6g} {entry['unit']}")
    if not trace:
        for name, unit in (("samples_per_s", "1/s"), ("job_s_p50", "s"), ("job_s_p90", "s")):
            print(f"  {name:<48} {metrics[name]:>14.6g} {unit} (wall clock)")
    n = len({r["index"] for r in result["records"]})
    beyond = n - math.ceil(TAIL * n)
    print(f"  {'failed_frac':<48} {len(run['failures']) / run['attempted']:>14.6g} "
          f"1 ({len(run['failures'])} of {run['attempted']} jobs)")
    print(f"  job_s_p50 and job_s_p90 (nearest rank) are taken over the {n} distinct jobs "
          f"of each one's mean over its {len(result['records'])} untraced executions; "
          f"{beyond} jobs lie beyond p90; ref_ timings are at the speed where "
          f"the calibration kernel takes {CAL_REF_S * 1e3:g} ms (median here "
          f"{statistics.median(r['cal_s'] for r in result['records']) * 1e3:.3f} ms)")
    if trace:
        t = result["trace"]
        print(f"  {t['spans']} spans written to {t['spans_file']}; self time by function:")
        for name, s in sorted(t["self_s"].items(), key=lambda kv: -kv[1]):
            if t["calls"][name]:
                print(f"    {name:<46} {t['calls'][name]:>9} calls {s:>12.6f} s")
    for failure in run["failures"][:5]:
        print(f"  FAILED job {failure['job']} ({failure['kind']}): {failure['error']}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    return chosen


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.ROUNDS),
                        help="one workload, ending with the JSON result line (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    correct = True
    for workload in names:
        try:
            run = measure(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        chosen = report(workload, run, spec, bool(args.trace))
        correct = correct and run["correct"]
        if args.workload:
            print(json.dumps({
                "correct": run["correct"],
                "attempted": run["attempted"],
                "failed": len(run["failures"]),
                "metrics": chosen,
            }))
    return 0 if args.workload or correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark run of one workload, inside a fresh interpreter.

``run.py`` starts this script; it prints one JSON object as the last
line of its standard output.  The program is the ``blochvar`` package
under ``src/`` of this checkout, imported in this process; each job is
one ``blochvar.cli.run(argv)`` call, sent only after the previous one
returned (a closed loop with one client).  The CLI's own printing goes
to the null device.

Modes:

* ``--setup-only``: time the set-up and exit.
* default: set up, then cycle through the job list, in whole rounds
  and at least one whole pass, until ``--seconds`` have passed.
* ``--trace``: run untraced for half of ``--seconds``, then install the
  tracer and run one pass over the job list, so that traced sums cover
  the same work on every run; then time ``build_basis`` at N = 2..10
  outside the cache.
* ``--record``: run every job of the list once, to record its digest.

Before each job, and once after the last, the worker times a fixed
calibration kernel of its own (``calibrate``: small numpy eigensolves
and products in a Python loop, none of it from ``blochvar``).  The
machine's speed drifts by up to 2x over tens of seconds, and the kernel
drifts with it, so a job's wall time divided by the mean of the two
calibrations around it is steady where the wall time is not.

Every job is checked: it must return exit code 0, its ``--out`` report
must equal the returned report, and its digest must equal the
recorded reference when ``reference.json`` has this seed, and else
the digest of the first run of the same job in this process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Schema-1 result fields the digest covers; config and wall_time_s are
# left out because they echo the run rather than its results.
RESULT_KEYS = ("checks", "holds", "worst_margin", "max_abs_margin", "saturated",
               "occupied_cells", "slice")
PROBE_DIMS = range(2, 11)
CAL_DIMS = (2, 3, 6, 10)  # the dimensions the workloads run at
CAL_ROUNDS = 60  # about 2 ms a calibration on a 2 vCPU Xeon


def calibration_inputs() -> list:
    """Fixed Hermitian matrices for ``calibrate``."""
    import numpy as np

    rng = np.random.default_rng(20150223)
    mats = []
    for n in CAL_DIMS:
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(m + m.conj().T)
    return mats


def calibrate(mats: list) -> float:
    """Seconds taken by a fixed kernel shaped like the program's work: a
    Python loop around small eigensolves and matrix products."""
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for k in range(CAL_ROUNDS):
        m = mats[k % len(mats)]
        acc += float(np.linalg.eigvalsh(m)[0]) + float(np.trace(m @ m).real)
        for i in range(150):
            acc += i * i
    return time.perf_counter() - start


def setup(workload: str):
    """Import the CLI and build every basis the workload uses; returns
    (cli module, seconds)."""
    start = time.perf_counter()
    cli = importlib.import_module("blochvar.cli")
    basis_for = importlib.import_module("blochvar.sun_basis").basis_for
    for n in workloads.dims(workload):
        basis_for(n)
    elapsed = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"blochvar was imported from {cli.__file__}, not from {SRC}")
    return cli, elapsed


def _exact(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_exact(v) for v in value]
    return value


def digest(report: dict, job: workloads.Job) -> str:
    """SHA-256 of the job's result fields and of the files it wrote."""
    fields = {
        "results": [{k: _exact(r[k]) for k in RESULT_KEYS if k in r} for r in report["results"]],
        "worst_margin": _exact(report["worst_margin"]),
    }
    h = hashlib.sha256(json.dumps(fields, sort_keys=True).encode())
    for path in job.artifacts:
        h.update(hashlib.sha256(Path(path).read_bytes()).digest())
    return h.hexdigest()


def run_job(cli, job: workloads.Job):
    """Run one job; returns (wall seconds, digest, error message)."""
    start = time.perf_counter()
    try:
        code, report = cli.run(list(job.argv))
    except SystemExit as exc:
        return time.perf_counter() - start, None, f"SystemExit({exc.code})"
    except Exception as exc:  # a failed job is counted, and the run goes on
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if code != 0:
        return wall, None, f"exit code {code}"
    if job.report is not None:
        with open(job.report, encoding="utf-8") as fh:
            if json.load(fh) != json.loads(json.dumps(report)):
                return wall, None, "the --out report differs from the returned report"
    return wall, digest(report, job), None


def run_jobs(cli, jobs, expected, per_round, *, seconds=None, count=None, tracer=None):
    """Closed loop over ``jobs``, cycling: for ``seconds`` in whole
    rounds and at least one whole pass, or for exactly ``count`` jobs."""
    records = []
    first: dict[int, str] = {}
    mats = calibration_inputs()
    cal = calibrate(mats)
    start = time.perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for k in range(sys.maxsize):
            if count is not None and k >= count:
                break
            if (count is None and k >= len(jobs) and k % per_round == 0
                    and time.perf_counter() - start >= seconds):
                break
            index = k % len(jobs)
            job = jobs[index]
            if tracer is not None:
                tracer.job = k
            wall, dig, error = run_job(cli, job)
            if error is None:
                want = expected[index] if expected else first.setdefault(index, dig)
                if dig != want:
                    error = f"digest {dig[:16]} differs from {want[:16]}"
            cal_after = calibrate(mats)
            records.append({"job": k, "index": index, "kind": job.kind, "wall_s": wall,
                            "cal_s": (cal + cal_after) / 2,
                            "end_s": time.perf_counter() - start,
                            "samples": job.samples, "digest": dig, "error": error})
            cal = cal_after
    return records


def trace_summary(tracer: Tracer, records: list[dict]) -> dict:
    """Per-function calls and self time, and the checks on the spans."""
    import numpy as np

    t = tracer.table()
    n = len(tracer.names)
    calls = np.bincount(t["fid"], minlength=n)
    self_s = np.bincount(t["fid"], weights=t["self_s"], minlength=n)
    per_job = np.bincount(t["job"], weights=t["self_s"], minlength=len(records))
    walls = np.array([r["wall_s"] for r in records])
    excess = float((per_job - walls).max(initial=-np.inf))
    fid = {name: i for i, name in enumerate(tracer.names)}
    appendix_c = [r["job"] for r in records if r["kind"].startswith("verify appendix-c")]
    in_appendix_c = np.isin(t["job"], appendix_c)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / "spans.npz"
    np.savez(spans_file, names=np.array(tracer.names), **t)
    return {
        "calls": {name: int(calls[i]) for name, i in fid.items()},
        "self_s": {name: float(self_s[i]) for name, i in fid.items()},
        "raised": {name: tracer.raised[i] for name, i in fid.items()},
        "appendix_c_draws": int((in_appendix_c & (t["fid"] == fid["sampling.draw_mixed"])).sum()),
        "appendix_c_accepted": int(calls[fid["relations.check_appendix_c"]]),
        "spans": int(t["sid"].size),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "self_minus_wall_max_s": excess,
    }


def build_basis_probe() -> dict:
    """Uncached ``build_basis`` time at each probe dimension."""
    build_basis = sys.modules["blochvar.sun_basis"].build_basis
    out = {}
    for n in PROBE_DIMS:
        start = time.perf_counter()
        build_basis(n)
        out[str(n)] = time.perf_counter() - start
    return out


def fingerprint() -> dict:
    """The machine and library versions the numbers depend on."""
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "platform": platform.platform(),
        "UR_THREADS": os.environ.get("UR_THREADS"),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def load_reference(workload: str, seed: int, n_jobs: int):
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        expected = json.load(fh)["digests"].get(workload, {}).get(str(seed))
    if expected is not None and len(expected) != n_jobs:
        raise ValueError(f"reference.json holds {len(expected)} digests, the job list {n_jobs}")
    return expected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    cli, setup_s = setup(args.workload)
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0
    result["env"] = fingerprint()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        jobs = workloads.jobs(args.workload, args.seed, workdir)
        per_round = len(jobs) // workloads.ROUNDS[args.workload]
        if args.record:
            result["records"] = run_jobs(cli, jobs, None, per_round, count=len(jobs))
        else:
            expected = load_reference(args.workload, args.seed, len(jobs))
            result["checked_against"] = "reference" if expected else "first run of each job"
            seconds = args.seconds / 2 if args.trace else args.seconds
            result["records"] = run_jobs(cli, jobs, expected, per_round, seconds=seconds)
            result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if args.trace:
                tracer = Tracer()
                tracer.install()
                try:
                    traced = run_jobs(cli, jobs, expected, per_round, count=len(jobs),
                                      tracer=tracer)
                finally:
                    tracer.uninstall()
                result["traced_records"] = traced
                result["trace"] = trace_summary(tracer, traced)
                result["trace"]["build_basis_s"] = build_basis_probe()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference digests that ``worker.py`` checks jobs against.

Run from the repository root, on a commit whose outputs are trusted::

    python3 bench/record_reference.py

For every workload and for the default seed (0) and one held-out seed,
it runs each job of the list once in a fresh interpreter and writes the
digests to ``bench/reference.json``, with the environment they were
recorded in (bit-identity depends on the libm and numpy build).
"""

from __future__ import annotations

import json
import sys
import time

from run import BENCH, worker
import workloads

SEEDS = (0, 1729)  # the default seed and the held-out one


def main() -> int:
    digests: dict[str, dict[str, list[str]]] = {}
    env = None
    for workload in sorted(workloads.ROUNDS):
        for seed in SEEDS:
            result = worker(["--workload", workload, "--seed", str(seed), "--record"],
                            time.monotonic() + 600)
            failed = [r for r in result["records"] if r["error"] is not None]
            if failed:
                print(f"{workload} seed {seed}: job {failed[0]['job']} failed: "
                      f"{failed[0]['error']}", file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = [r["digest"] for r in result["records"]]
            env = result["env"]
            print(f"{workload} seed {seed}: {len(result['records'])} jobs")
    with open(BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "digests": digests}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

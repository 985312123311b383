"""Record the per-seed workload digests that ``run.py`` checks against.

Run from the root of a checkout whose results are known to be right::

    python3 perfbench/record_digests.py --seeds 0-31

Each workload runs one pass per seed not yet in ``digests.json``, in a
fresh worker; a seed is only recorded when every cell passes the oracle
checks.  The file is rewritten after every seed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default=str(workloads.DEFAULT_SEED))
    args = parser.parse_args()
    try:
        with open(run.DIGESTS) as fh:
            digests = json.load(fh)
    except FileNotFoundError:
        digests = {}
    env = run.child_env()
    for workload in workloads.WORKLOADS:
        table = digests.setdefault(workload, {})
        for seed in parse_seeds(args.seeds):
            if str(seed) in table:
                continue
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", "0", "--min-passes", "1"]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if out["failed"] or out["error"]:
                sys.exit(f"{workload} seed {seed}: {out['failed']} failed cells, "
                         f"{out['error'] or out['problems']}")
            table[str(seed)] = out["digest"]
            print(f"{workload} seed {seed}: {out['digest']}", flush=True)
            with open(run.DIGESTS, "w") as fh:
                json.dump(digests, fh, indent=1, sort_keys=True)
                fh.write("\n")


if __name__ == "__main__":
    main()

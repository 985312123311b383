"""Benchmark entry point: one workload, end-to-end or per-layer metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload field_cell --seed 1 --seconds 20 --trace 0

Workloads: ``field_cell``, ``seed_sweep``, ``mega_grid``, ``lb_recursive``
(see ``workloads.py`` and ``README.md``).  The program under test is
``repro.experiments`` from ``src/``; nothing is installed.  Each run

1. samples ``setup_s`` (untraced runs only): fresh interpreters that
   import ``repro.experiments`` and generate the specs, one discarded
   warm sample, then the median of :data:`SETUP_SAMPLES`;
2. runs the workload in a fresh worker process (``worker.py``) for
   ``--seconds`` and checks every cell;
3. prints the environment stamp, then as its last line one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of ``BENCHMARK.json``.  Without the program's sources
in the working directory it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 30
WORKER_GRACE_S = 100
DIGESTS = os.path.join(HERE, "digests.json")
BENCHMARK = "BENCHMARK.json"
#: Attribution checks of the traced run.  In at least one traced pass the
#: top-level spans must cover the pass time measured outside the tracer
#: up to this share (a covered pass misses about 5e-6) ...
COVERAGE_TOLERANCE = 1e-4
#: ... no span may have a negative self time beyond this (mis-nesting) ...
NESTING_TOLERANCE_S = 1e-6
#: ... and the time no layer below ``experiments`` takes (its self time
#: over the traced pass time) must stay under this share, so that an
#: entry point that stops being wrapped shows.
UNATTRIBUTED_BOUND = 0.5


def child_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker_cmd(args, *extra):
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), *extra]


def setup_sample(args, env):
    start = time.monotonic()
    proc = subprocess.run(worker_cmd(args, "--probe"), env=env, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["handoff"] - start


def measure_setup(args, env):
    setup_sample(args, env)  # warm: bytecode compilation, cold page cache
    return statistics.median(setup_sample(args, env) for _ in range(SETUP_SAMPLES))


def run_worker(args, env):
    cmd = worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=args.seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def recorded_digest(workload, seed):
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def metric_units():
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "repro", "experiments", "__init__.py")):
        print("perfbench: no program sources (src/repro) in the working directory; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    end_to_end, layered = metric_units()
    env = child_env()
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        setup_s = None if args.trace else measure_setup(args, env)
        out = run_worker(args, env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failed = out["failed"]
    expected = recorded_digest(args.workload, args.seed)
    digest_state = "not recorded for this seed"
    if expected is not None:
        digest_state = "match" if expected == out["digest"] else "MISMATCH"
        if expected != out["digest"]:
            failed = out["attempted"]
    correct = failed == 0 and out["error"] is None

    print(f"env: {json.dumps(out['env'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {out['cells']} cells x "
          f"{out['passes']} passes, attempted {out['attempted']}, failed {failed}; "
          f"digest {out['digest'][:16]} ({digest_state}); "
          f"host.calib_s start/end {out['calib'][0]:.4f}/{out['calib'][1]:.4f}")
    if out["error"]:
        print(f"error: {out['error']}")
    for problem in out["problems"]:
        print(f"failed cell: {problem}")

    if args.trace and "per_layer" not in out:
        # A pass raised before both halves ran: nothing to attribute.
        correct = False
        values = {"host.calib_s": statistics.fmean(out["calib"])}
        units = layered
    elif args.trace:
        values = dict(out["per_layer"])
        values["host.calib_s"] = statistics.fmean(out["calib"])
        attribution = out["attribution"]
        print(f"attribution: spans miss {attribution['uncovered_share']:.2e} of the pass "
              f"time; smallest span self time {attribution['min_self_s']:.2e} s; "
              f"unattributed share {values['trace.unattributed_share']:.3f}")
        if attribution["uncovered_share"] > COVERAGE_TOLERANCE:
            correct = False
            print("attribution check failed: spans do not cover the pass time")
        if attribution["min_self_s"] < -NESTING_TOLERANCE_S:
            correct = False
            print("attribution check failed: a span's children outlast it")
        if values["trace.unattributed_share"] > UNATTRIBUTED_BOUND:
            correct = False
            print("attribution check failed: too much time outside every layer "
                  "below experiments")
        layers = sorted(out["layers"].items(), key=lambda kv: -kv[1])
        print("layer self time (share of traced wall): " + ", ".join(
            f"{name} {value / values['trace.traced_wall_s']:.1%}" for name, value in layers))
        print(f"dominant layer: {layers[0][0]}")
        print(f"spans of the last traced pass: {out['spans_file']}")
        units = layered
    else:
        values = {
            "wall_s": out["wall_s"],
            "setup_s": setup_s,
            "peak_rss_mb": out["peak_rss_mb"],
            "node_energy_max": out["node_energy_max"],
            "sim_time": out["sim_time"],
        }
        print("passes wall_s: " + ", ".join(f"{w:.4f}" for w in out["walls"]))
        units = end_to_end
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

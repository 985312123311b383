"""One workload in one fresh process: timed passes, checks, metrics.

Started by ``run.py``; not meant to be run by hand.  ``--probe`` only
imports ``repro.experiments``, generates the workload's specs and prints
the monotonic hand-off time, which ``run.py`` turns into a ``setup_s``
sample.  Otherwise the worker repeats the workload for ``--seconds``,
each pass into a fresh ``SweepStore``, checks every cell and prints one
JSON line with the measured values.  With ``--trace 1`` the first half
of the time runs untraced and the second half under the span tracer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_PASSES = 3
#: Store directories and span files, inside the checkout.
TMP_DIR = ".bench_tmp"
TRACED_MIN_PASSES = 2
CALIBRATION_REPEATS = 5


def calibrate():
    """Median time of a fixed pure-Python loop (host-speed probe)."""
    samples = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def tree_bytes(path):
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(path) for name in names)


def filesystem_type(path):
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                point = fields[1]
                if (path == point or path.startswith(point.rstrip("/") + "/")) \
                        and len(point) > len(best):
                    best, fstype = point, fields[2]
    except OSError:
        pass
    return fstype


def environment(tmp_root):
    import networkx
    import numpy
    import scipy
    from repro.radio.kernels import default_kernel
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "numba": has_numba,
        "kernel": default_kernel().name,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "store_fs": filesystem_type(tmp_root),
    }


class Passes:
    """The timed passes of one run and their per-cell verdicts."""

    def __init__(self, specs, policy, api, tmp_root):
        self.specs = specs
        self.policy = policy
        self.api = api
        self.tmp_root = tmp_root
        self.walls = []
        self.cpu = []
        self.traced = []
        self.first_docs = None
        self.first_store = None
        self.attempted = 0
        self.mismatched = 0
        self.bad_passes = 0
        self.error = None

    def run(self, seconds, min_passes, tracer=None):
        deadline = time.perf_counter() + seconds
        walls = []
        while self.error is None:
            if len(walls) >= min_passes and \
                    time.perf_counter() + statistics.median(walls) > deadline:
                break
            walls.append(self._one(tracer))

    def _one(self, tracer):
        store_dir = tempfile.mkdtemp(dir=self.tmp_root)
        cpu0 = time.process_time()
        if tracer is not None:
            tracer.begin()
        start = time.perf_counter()
        try:
            sweep = self.api.run_specs(self.specs, parallel=False,
                                       store=store_dir, policy=self.policy)
        except Exception:  # reported as failed cells, not a crash
            self.error = traceback.format_exc(limit=-3)
            sweep = None
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        self.attempted += len(self.specs)
        if tracer is not None:
            spans = tracer.end()
            self.traced.append((spans, wall, tree_bytes(store_dir)))
        else:
            self.walls.append(wall)
            self.cpu.append(cpu)
        if sweep is None:
            self.bad_passes += 1
            shutil.rmtree(store_dir, ignore_errors=True)
            return wall
        docs = [canonical(r.to_dict()) for r in sweep.results]
        if self.first_docs is None:
            self.first_docs, self.first_store = docs, store_dir
        else:
            self.mismatched += sum(a != b for a, b in zip(docs, self.first_docs))
            shutil.rmtree(store_dir, ignore_errors=True)
        return wall


def check_first_pass(passes, api):
    """Check the first pass's stored documents; returns the failing cells."""
    import checks

    if passes.first_docs is None:
        return len(passes.specs), ["no pass completed"]
    stored = {}
    for doc in api.SweepStore(passes.first_store, read_only=True).result_dicts():
        stored[canonical(doc["spec"])] = doc
    graphs = checks.GraphCache()
    failed, problems = 0, []
    for returned in passes.first_docs:
        doc = json.loads(returned)
        kept = stored.get(canonical(doc["spec"]))
        if kept is None or canonical(kept) != returned:
            problem = "stored document differs from the returned one"
        else:
            problem = checks.check_cell(kept, graphs)
        if problem is not None:
            failed += 1
            problems.append(f"{doc['spec']['topology']}/{doc['spec']['algorithm']}"
                            f"/seed={doc['spec']['seed']}: {problem}")
    return failed, problems


def workload_digest(passes):
    blob = "\n".join(passes.first_docs or []).encode()
    return hashlib.sha256(blob).hexdigest()


def simulated(passes):
    energy = sim_time = 0
    delivered = lost = stages = 0
    for text in passes.first_docs or []:
        doc = json.loads(text)
        m = doc["metrics"]
        if m["time_slots"] > 0:
            energy += m["max_slot_energy"]
            sim_time += m["time_slots"]
        else:
            energy += m["max_lb_energy"]
            sim_time += m["lb_rounds"]
        faults = doc["faults"]
        delivered += faults["delivered"]
        lost += faults["dropped"] + faults["jammed"]
        stages += doc["output"].get("stage_count", 0)
    ratio = delivered / (delivered + lost) if delivered + lost else 1.0
    return energy, sim_time, ratio, stages


def per_layer(passes, cells, delivered_ratio, stages):
    import tracer as tracing

    sums, counts, uncovered, min_self, walls = {}, {}, [], [], []
    for spans, wall, store_bytes in passes.traced:
        self_times, counters, gap, lowest = tracing.layer_times(spans, wall)
        counters["store_bytes"] = store_bytes
        for key, value in self_times.items():
            sums[key] = sums.get(key, 0.0) + value
        for key, value in counters.items():
            counts[key] = counts.get(key, 0.0) + value
        uncovered.append(gap / wall)
        min_self.append(lowest)
        walls.append(wall)
    k = len(passes.traced)
    mean = {key: value / k for key, value in sums.items()}
    c = {key: value / k for key, value in counts.items()}

    def ratio(a, b):
        return c.get(a, 0.0) / c[b] if c.get(b) else 0.0

    traced_wall = statistics.fmean(walls)
    untraced_wall = statistics.fmean(passes.walls)
    metrics = dict(mean)
    metrics.update({
        "experiments.units": c.get("units", 0.0),
        "experiments.lanes_per_unit": cells / c["units"] if c.get("units") else 0.0,
        "experiments.store_bytes": c.get("store_bytes", 0.0),
        "radio.topology.builds": c.get("topology.calls", 0.0),
        "radio.topology.edges": c.get("topology.info", 0.0),
        "radio.engine.spawns": c.get("spawn.calls", 0.0),
        "radio.engine.lane_slots": c.get("slot.info", 0.0),
        "radio.kernels.products": c.get("product.calls", 0.0),
        "radio.kernels.lanes_per_product": ratio("product.info", "product.calls"),
        "radio.energy.charges": c.get("charge.calls", 0.0),
        "radio.faults.plans": c.get("fault_plan.calls", 0.0),
        "radio.faults.delivered_ratio": delivered_ratio,
        "primitives.decay.phases": c.get("decay.calls", 0.0),
        "primitives.decay.reach_ratio": ratio("decay.heard", "decay.listeners"),
        "primitives.lb_graph.broadcasts": c.get("lb_broadcast.calls", 0.0),
        "clustering.mpx_calls": c.get("mpx.calls", 0.0),
        "core.recursive_bfs.stages": stages,
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_share": mean["experiments.self_s"] / traced_wall,
        "process.cpu_s": statistics.fmean(passes.cpu),
    })
    layers = {}
    for key, value in mean.items():
        layer = tracing.LAYER_OF[key]
        layers[layer] = layers.get(layer, 0.0) + value
    # A wrapper that stops matching leaves the same gap in every pass; a
    # preemption between the outer clock and the wrapper hits only one.
    attribution = {"uncovered_share": min(uncovered),
                   "min_self_s": min(min_self)}
    return metrics, layers, attribution


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-passes", type=int, default=MIN_PASSES)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    if args.probe:
        import repro.experiments as api
        workloads.WORKLOADS[args.workload](args.seed, api)
        print(json.dumps({"handoff": time.monotonic()}))
        return 0

    calib_start = calibrate()
    import repro.experiments as api
    specs, policy = workloads.WORKLOADS[args.workload](args.seed, api)
    os.makedirs(TMP_DIR, exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=TMP_DIR)
    try:
        env = environment(tmp_root)
        passes = Passes(specs, policy, api, tmp_root)
        if args.trace:
            passes.run(args.seconds / 2, args.min_passes)
            import tracer as tracing
            tr = tracing.install()
            passes.run(args.seconds / 2, TRACED_MIN_PASSES, tracer=tr)
        else:
            passes.run(args.seconds, args.min_passes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        n_passes = len(passes.walls) + len(passes.traced)
        first_failed, problems = check_first_pass(passes, api)
        failed = min(passes.attempted,
                     first_failed * n_passes + passes.mismatched
                     + passes.bad_passes * len(specs))
        digest = workload_digest(passes)
        energy, sim_time, delivered_ratio, stages = simulated(passes)
        out = {
            "env": env,
            "cells": len(specs),
            "passes": n_passes,
            "attempted": passes.attempted,
            "failed": failed,
            "problems": problems[:10],
            "error": passes.error,
            "digest": digest,
            # Mean, not median: host speed drifts over several seconds,
            # and the mean uses every pass of the window (IQR/median over
            # ten seeds 0.08-0.18 against 0.10-0.21 for the median).
            "wall_s": statistics.fmean(passes.walls) if passes.walls else None,
            "walls": passes.walls,
            "peak_rss_mb": peak_rss_mb,
            "node_energy_max": energy,
            "sim_time": sim_time,
        }
        if args.trace and passes.traced and passes.walls:
            spans_path = os.path.join(TMP_DIR, f"spans-{args.workload}-{args.seed}.json")
            with open(spans_path, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["kind", "start", "end", "parent", "info"],
                           "spans": passes.traced[-1][0]}, fh)
            out["spans_file"] = spans_path
            metrics, layers, attribution = per_layer(passes, len(specs),
                                                     delivered_ratio, stages)
            out["per_layer"] = metrics
            out["layers"] = layers
            out["attribution"] = attribution
        out["calib"] = [calib_start, calibrate()]
        print(json.dumps(out))
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

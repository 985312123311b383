"""Command-line entry point: ``python -m repro.experiments``.

Subcommands:

- ``run`` — expand and execute a scenario grid, print the sweep table,
  optionally write the schema-versioned JSON document;
- ``sweep`` — like ``run``, but resumable: execute the grid through an
  on-disk store (``--out``), checkpointing after every chunk; re-invoke
  with ``--resume`` to skip already-completed cells after a crash;
- ``worker`` — one member of a distributed sweep: run only the grid
  cells this worker owns on the spec-hash ring (worker ``I`` of ``W``,
  no coordination needed) into a local shard store; re-invoke with
  ``--exclude`` naming dead workers to rebalance, re-running only
  orphaned cells;
- ``merge`` — union worker shard stores into one store, byte-identical
  (per sorted shard) to a single-host run of the same grid; identical
  replays dedupe, conflicting results raise;
- ``report`` — aggregate a store into summary tables (completion rate,
  energy, wall time by topology/algorithm/fault);
- ``validate`` — check JSON files (sweep outputs, ``BENCH_*.json``)
  against the ``RunResult`` schema;
- ``list`` — show everything registered on the CLI surface: topology
  families (annotated with batch eligibility), algorithms (annotated
  with replica-batch support), engines, collision models, the fault
  presets with their layer stacks, the dynamic-membership presets, and
  the online safety invariants.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from ..analysis.aggregate import DEFAULT_GROUP_BY, GROUP_FIELDS, report_table
from ..errors import ConfigurationError, ReproError
from ..radio.dynamic import named_dynamic_schedules
from ..radio.engine import available_engines
from ..radio.faults import named_fault_models
from ..radio.invariants import invariant_names
from ..radio.sinr import named_sinr_params
from ..radio.topology import scenario_is_deterministic, scenario_names
from .fabric import HashRing, member_name, owned_specs
from .registry import algorithm_names, check_invariant_sample
from .results import spec_hash
from .runner import (
    DEFAULT_BATCH_REPLICAS,
    iter_grid,
    run_specs,
    validate_file,
)
from .spec import COLLISION_MODELS, ExecutionPolicy
from .store import DEFAULT_SHARDS, SweepStore


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """The grid axes + execution knobs shared by ``run`` and ``sweep``."""
    parser.add_argument("--topologies", nargs="+", required=True,
                        metavar="NAME", help="scenario family names")
    parser.add_argument("--algorithms", nargs="+", required=True,
                        metavar="NAME", help="registered algorithm names")
    parser.add_argument("--sizes", nargs="+", type=int, default=[64],
                        help="size knob(s) per family (default: 64)")
    parser.add_argument("--seeds", type=int, default=2,
                        help="seeds per cell, derived from --base-seed "
                             "(default: 2)")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--engine", choices=available_engines(),
                        default="reference")
    parser.add_argument("--collision-model", choices=COLLISION_MODELS,
                        default="no_cd")
    parser.add_argument("--fault-model", metavar="NAME_OR_JSON", default=None,
                        help="fault stack for every cell: a preset name "
                             "(see `list`) or an inline FaultModel JSON object")
    parser.add_argument("--dynamic", metavar="NAME_OR_JSON", default=None,
                        help="membership schedule for every cell: a preset "
                             "name (see `list`) or an inline DynamicSchedule "
                             "JSON object (joins/leaves/mobility over slots)")
    parser.add_argument("--sinr", metavar="NAME_OR_JSON", default=None,
                        help="physical-layer knobs for the 'sinr' collision "
                             "model: a preset name (see `list`) or an inline "
                             "SinrParams JSON object (threshold, power "
                             "ladder, pathloss exponent, noise floor); "
                             "requires --collision-model sinr")
    parser.add_argument("--invariant-sample", type=int, default=None,
                        metavar="N",
                        help="check the online safety invariants every N "
                             "slots (1 = every slot; default: off; checked "
                             "cells run serially and their results carry "
                             "the schema-v3 invariants block)")
    parser.add_argument("--serial", action="store_true",
                        help="skip the process pool; run cells in-process")
    parser.add_argument("--max-workers", type=int, default=None)
    parser.add_argument("--batch-replicas", type=int, default=None,
                        metavar="R",
                        help="pack batch-capable cells into fused "
                             "engine runs of up to R lanes (1 runs every "
                             "cell alone; default: "
                             f"{DEFAULT_BATCH_REPLICAS}, fewer on a pool "
                             "so every worker gets a share; results are "
                             "byte-identical either way)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="expand and execute a scenario grid")
    _add_grid_arguments(run)
    run.add_argument("--json", metavar="PATH", default=None,
                     help="write the sweep document (RunResult schema) here")
    run.add_argument("--timing", action="store_true",
                     help="include wall-clock timing in the JSON document")

    sweep = sub.add_parser(
        "sweep",
        help="resumable sweep: execute a grid through an on-disk store",
    )
    _add_grid_arguments(sweep)
    sweep.add_argument("--out", metavar="DIR", required=True,
                       help="sweep store directory (created if missing)")
    sweep.add_argument("--resume", action="store_true",
                       help="continue a store that already holds results, "
                            "skipping completed cells")
    sweep.add_argument("--chunk-size", type=int, default=None,
                       help="cells per durable checkpoint (default: 16)")
    sweep.add_argument("--timing", action="store_true",
                       help="record wall-clock timing in store records "
                            "(trades byte-identical store contents for "
                            "wall-time columns in `report`)")

    worker = sub.add_parser(
        "worker",
        help="distributed sweep: run only the grid cells this worker "
             "owns on the spec-hash ring",
    )
    _add_grid_arguments(worker)
    worker.add_argument("--out", metavar="DIR", required=True,
                        help="this worker's local shard store (created if "
                             "missing; re-invoking resumes it)")
    worker.add_argument("--worker-id", type=int, required=True, metavar="I",
                        help="this worker's index on the ring (0-based)")
    worker.add_argument("--num-workers", type=int, required=True, metavar="W",
                        help="total ring membership the fleet was launched "
                             "with (every worker must agree)")
    worker.add_argument("--exclude", type=int, nargs="+", default=[],
                        metavar="ID",
                        help="rebalance pass: treat these worker ids as "
                             "departed — their cells re-assign to the "
                             "survivors, and only orphans not already in "
                             "--out are re-run")
    worker.add_argument("--chunk-size", type=int, default=None,
                        help="cells per durable checkpoint (default: 16)")
    worker.add_argument("--timing", action="store_true",
                        help="record wall-clock timing in store records "
                             "(all stores of one fleet must agree)")

    merge = sub.add_parser(
        "merge",
        help="union worker shard stores into one store (byte-identical "
             "per sorted shard to a single-host run)",
    )
    merge.add_argument("--into", metavar="DIR", required=True,
                       help="destination store (created if missing; may "
                            "already hold results — identical replays "
                            "dedupe, conflicts raise)")
    merge.add_argument("sources", nargs="+", metavar="STORE",
                       help="source store directories (opened read-only; "
                            "a dead worker's torn trailing record is "
                            "dropped from the merged view)")
    merge.add_argument("--num-shards", type=int, default=DEFAULT_SHARDS,
                       help="shard count if the destination is created "
                            f"(default: {DEFAULT_SHARDS}; an existing "
                            "store keeps its geometry)")

    report = sub.add_parser(
        "report", help="aggregate a sweep store into summary tables"
    )
    report.add_argument("store", metavar="DIR", help="sweep store directory")
    report.add_argument("--by", default=",".join(DEFAULT_GROUP_BY),
                        metavar="FIELDS",
                        help="comma-separated grouping axes "
                             f"({', '.join(GROUP_FIELDS)}); "
                             f"default: {','.join(DEFAULT_GROUP_BY)}")

    validate = sub.add_parser(
        "validate", help="validate JSON files against the RunResult schema"
    )
    validate.add_argument("paths", nargs="+", metavar="FILE")

    sub.add_parser(
        "list",
        help="show registered topologies/algorithms/engines/collision "
             "models/fault presets",
    )
    return parser


def _parse_designation(flag: str, text: Optional[str]):
    """A preset-or-JSON option (``--fault-model``, ``--dynamic``,
    ``--sinr``): a preset name passes through, an inline JSON object is
    decoded; :func:`~repro.experiments.runner.iter_grid` coerces either."""
    if text is None or not text.lstrip().startswith("{"):
        return text
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{flag} is neither a preset nor valid JSON: {exc}"
        ) from None


def _grid_from_args(args: argparse.Namespace):
    """The scenario grid a ``run``/``sweep``/``worker`` invocation names."""
    return iter_grid(
        args.topologies,
        args.algorithms,
        sizes=args.sizes,
        seeds=args.seeds,
        base_seed=args.base_seed,
        engine=args.engine,
        collision_model=args.collision_model,
        fault_model=_parse_designation("--fault-model", args.fault_model),
        dynamic=_parse_designation("--dynamic", args.dynamic),
        sinr=_parse_designation("--sinr", args.sinr),
    )


def _policy_from_args(args: argparse.Namespace) -> ExecutionPolicy:
    """The sweep-wide :class:`ExecutionPolicy` a CLI invocation implies.

    ``run``, ``sweep``, and ``worker`` share the exact same semantics:
    ``--batch-replicas`` and ``--invariant-sample`` become the policy's
    knobs; unset flags leave the runner defaults.
    """
    return ExecutionPolicy(
        batch_replicas=args.batch_replicas,
        invariant_sample=args.invariant_sample,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    sweep = run_specs(
        _grid_from_args(args),
        parallel=not args.serial,
        max_workers=args.max_workers,
        policy=_policy_from_args(args),
    )
    print(sweep.table(
        title=f"sweep: {len(sweep)} cells ({sweep.execution})"
    ))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(sweep.to_dict(include_timing=args.timing), handle,
                      indent=2, sort_keys=True, allow_nan=False)
            handle.write("\n")
        print(f"wrote {len(sweep)} results to {args.json}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    policy = _policy_from_args(args)  # validate before touching the store
    specs = list(_grid_from_args(args))
    check_invariant_sample(specs, policy.invariant_sample)
    # An explicit include_timing makes the store constructor reject a
    # reopen whose record shape disagrees with the index.
    store = SweepStore(args.out, include_timing=args.timing)
    if len(store) and not args.resume:
        raise ConfigurationError(
            f"store at {args.out} already holds {len(store)} result(s); "
            f"pass --resume to continue it"
        )
    if store.torn_records_dropped:
        print(f"recovered store: dropped {store.torn_records_dropped} torn "
              f"trailing record(s) from an interrupted writer")
    done = store.completed_hashes()
    complete = sum(spec_hash(spec) in done for spec in specs)
    print(f"grid: {len(specs)} cell(s); {complete} already complete; "
          f"executing {len(specs) - complete}")
    sweep = run_specs(
        specs,
        parallel=not args.serial,
        max_workers=args.max_workers,
        store=store,
        chunk_size=args.chunk_size,
        policy=policy,
    )
    print(sweep.table(
        title=f"sweep: {len(sweep)} cells ({sweep.execution})"
    ))
    print(f"store {args.out} now holds {len(store)} result(s)")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    policy = _policy_from_args(args)  # validate before touching the store
    specs = list(_grid_from_args(args))
    check_invariant_sample(specs, policy.invariant_sample)
    ring = HashRing.from_count(args.num_workers)
    if args.exclude:
        ring = ring.without(*{member_name(i) for i in args.exclude})
    member = member_name(args.worker_id)
    if member not in ring:
        raise ConfigurationError(
            f"worker {args.worker_id} is not on the ring: it must be "
            f"< --num-workers ({args.num_workers}) and not in --exclude"
        )
    # Workers are inherently resumable: a relaunch (or a rebalance
    # pass) continues the local store, skipping completed cells.
    store = SweepStore(args.out, include_timing=args.timing)
    if store.torn_records_dropped:
        print(f"recovered store: dropped {store.torn_records_dropped} torn "
              f"trailing record(s) from an interrupted writer")
    mine = owned_specs(specs, ring, member)
    done = store.completed_hashes()
    complete = sum(spec_hash(spec) in done for spec in mine)
    print(f"ring: {len(ring.members)} live member(s) of {args.num_workers}; "
          f"{member} owns {len(mine)}/{len(specs)} cell(s); "
          f"{complete} already complete; executing {len(mine) - complete}")
    sweep = run_specs(
        mine,
        parallel=not args.serial,
        max_workers=args.max_workers,
        store=store,
        chunk_size=args.chunk_size,
        policy=policy,
    )
    print(sweep.table(
        title=f"{member}: {len(sweep)} cell(s) ({sweep.execution})"
    ))
    print(f"store {args.out} now holds {len(store)} result(s)")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    sources = []
    for path in args.sources:
        src = SweepStore(path, read_only=True)
        if src.torn_records_dropped:
            print(f"{path}: dropped {src.torn_records_dropped} torn trailing "
                  f"record(s) from an interrupted writer")
        sources.append(src)
    timings = {src.include_timing for src in sources}
    if len(timings) > 1:
        raise ConfigurationError(
            "cannot merge stores with mixed include_timing record shapes; "
            "a fleet must agree on --timing"
        )
    dest = SweepStore(args.into, num_shards=args.num_shards,
                      include_timing=timings.pop())
    for src in sources:
        counts = dest.merge(src)
        print(f"{src.path}: merged {counts['merged']} record(s), "
              f"{counts['deduplicated']} identical replay(s) deduplicated")
    print(f"store {args.into} now holds {len(dest)} result(s) "
          f"in {dest.num_shards} shard(s)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    by = tuple(field.strip() for field in args.by.split(",") if field.strip())
    store = SweepStore(args.store, read_only=True)
    print(report_table(store.results(), by=by))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    status = 0
    for path in args.paths:
        try:
            results = validate_file(path)
        except ReproError as exc:
            print(f"{path}: INVALID — {exc}")
            status = 1
        except Exception as exc:  # malformed beyond the schema layer
            print(f"{path}: INVALID — unexpected {type(exc).__name__}: {exc}")
            status = 1
        else:
            statuses = sorted({r.status for r in results})
            print(f"{path}: ok ({len(results)} result(s), "
                  f"status {'/'.join(statuses)})")
    return status


def _cmd_list() -> int:
    """Print every registered name on the CLI surface.

    Topologies are annotated with ``*`` when seed-deterministic (the
    precondition for replica batching), algorithms with ``*`` when
    their lanes fuse in batched runs (``decay_bfs`` only); fault presets
    are expanded to their layer stacks so ``--fault-model`` values are
    discoverable without reading source.
    """
    def starred(name: str, mark: bool) -> str:
        return f"{name}*" if mark else name

    print("topologies:      ", ", ".join(
        starred(name, scenario_is_deterministic(name))
        for name in scenario_names()
    ))
    print("                  (* = seed-deterministic: batch-eligible)")
    print("algorithms:      ", ", ".join(
        starred(name, name == "decay_bfs") for name in algorithm_names()
    ))
    print("                  (* = lanes fuse in batched runs)")
    print("engines:         ", ", ".join(available_engines()))
    print("collision models:", ", ".join(COLLISION_MODELS))
    print("sinr presets:")
    for name, params in sorted(named_sinr_params().items()):
        ladder = "/".join(
            f"{p}:{c}" for p, c in zip(params.power_levels, params.power_costs)
        )
        print(f"  {name:<12} threshold {params.threshold_milli / 1000:g}, "
              f"alpha {params.pathloss_exponent}, "
              f"power ladder (signal:cost) {ladder}")
    print("fault models:")
    for name, model in sorted(named_fault_models().items()):
        layers = ", ".join(layer.KIND for layer in model.layers) or "clean channel"
        print(f"  {name:<12} {layers}")
    print("dynamic schedules:")
    for name, schedule in sorted(named_dynamic_schedules().items()):
        parts = []
        if schedule.join_fraction > 0:
            parts.append(f"join {schedule.join_fraction:g} "
                         f"from slot {schedule.join_start}")
        if schedule.leave_fraction > 0:
            parts.append(f"leave {schedule.leave_fraction:g} "
                         f"from slot {schedule.leave_start}")
        if schedule.rewire_period > 0:
            parts.append(f"rewire {schedule.rewire_fraction:g} "
                         f"every {schedule.rewire_period} slots")
        print(f"  {name:<12} {'; '.join(parts) or 'static membership'}")
    print("invariants:      ", ", ".join(invariant_names()))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: parse ``argv`` and dispatch the subcommand.

    Returns the process exit status (0 success, 1 validation failure,
    2 configuration error) instead of raising, so configuration
    mistakes print one readable line rather than a traceback.  A reader
    that closes the pipe early (``list | head -1``) already has what it
    wanted: the command then ends quietly with status 0.
    """
    args = _build_parser().parse_args(argv)
    try:
        status = _dispatch(args)
        sys.stdout.flush()
        return status
    except ReproError as exc:
        # Configuration mistakes (bad names, bad --fault-model JSON, …)
        # are user errors: report them readably, not as tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at the null device so that the interpreter's own
        # flush at exit does not hit the closed pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    """Run the parsed subcommand; returns its exit status."""
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "merge":
        return _cmd_merge(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_list()


if __name__ == "__main__":
    sys.exit(main())

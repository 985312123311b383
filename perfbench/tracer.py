"""In-memory span tracer over the program's public entry points.

:func:`install` wraps every entry point listed in :data:`TARGETS` and
returns a :class:`Tracer`.  While a pass is active each wrapped call
records one span ``[kind, start, end, parent, info]``; :func:`layer_times`
turns the spans of one pass into per-layer self times (a span's duration
minus the time its child spans cover) and counters, and measures how
well the spans cover the pass time taken outside the tracer.

Class methods are wrapped on the class that defines them.  Module-level
functions are imported by name elsewhere (``simple_bfs`` binds the
``run_decay_local_broadcast*`` functions, ``registry`` binds
``two_approx_diameter``), so a function is replaced in every loaded
``repro`` module that holds a reference to it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _len_arg(index):
    def info(args, kwargs, out):
        return len(args[index])
    return info


def _edges(args, kwargs, out):
    return out.number_of_edges()


def _lockstep_lanes(args, kwargs, out):
    return sum(out.values())


def _one(args, kwargs, out):
    return 1


def _reach_single(args, kwargs, out):
    receivers = args[2] if len(args) > 2 else kwargs["receivers"]
    return (len(out), len(receivers))


def _reach_rounds(args, kwargs, out):
    rounds = args[1] if len(args) > 1 else kwargs["rounds"]
    heard = sum(len(h) for h in out.values())
    listeners = sum(len(receivers) for _, receivers in rounds.values())
    return (heard, listeners)


#: ``(kind, module, attribute path, info)``: what to wrap and how the
#: span is classified.  ``info(args, kwargs, result)`` extracts the
#: span's counter payload (``None``: none).
TARGETS = (
    ("unit", "repro.experiments.runner", "run_experiment", None),
    ("unit", "repro.experiments.runner", "run_experiment_batch", None),
    ("unit", "repro.experiments.runner", "run_experiment_mega", None),
    ("experiments", "repro.experiments.runner", "run_specs", None),
    ("serialize", "repro.experiments.results", "RunResult.to_dict", None),
    ("store", "repro.experiments.store", "SweepStore.add_many", None),
    ("topology", "repro.experiments.spec", "ExperimentSpec.build_graph", _edges),
    ("compile", "repro.radio.fast_engine", "FastRadioNetwork.__init__", None),
    ("compile", "repro.radio.batch_engine", "ReplicaBatchedNetwork.__init__", None),
    ("compile", "repro.radio.batch_engine", "MegaBatchedNetwork.__init__", None),
    ("spawn", "repro.radio.network", "SlotEngineBase.spawn_devices", None),
    ("spawn", "repro.radio.batch_engine", "ReplicaBatchedNetwork.spawn_devices", None),
    ("slot", "repro.radio.fast_engine", "FastRadioNetwork.step", _one),
    ("slot", "repro.radio.batch_engine", "ReplicaBatchedNetwork.run_lockstep", _lockstep_lanes),
    ("slot", "repro.radio.batch_engine", "MegaBatchedNetwork.run_lockstep", _lockstep_lanes),
    ("product", "repro.radio.fast_engine", "CompiledTopology.counts_codes", _one),
    ("product", "repro.radio.fast_engine", "CompiledTopology.counts_codes_many", _len_arg(1)),
    ("product", "repro.radio.kernels.megabatch", "MegaBatchPlan.counts_codes_many", _len_arg(1)),
    ("product", "repro.radio.kernels.sinr_csr", "sinr_arbitrate_many", _len_arg(0)),
    ("charge", "repro.radio.energy", "EnergyLedger.charge_slot_batch", None),
    ("charge", "repro.radio.energy", "EnergyLedger.charge_slot_counts", None),
    ("charge", "repro.radio.energy", "EnergyLedger.charge_lb", None),
    ("fault_plan", "repro.radio.faults", "FaultRuntime.plan", None),
    ("fault_plan", "repro.radio.faults", "ReplicaFaultRuntimes.plan", None),
    ("decay", "repro.primitives.decay", "run_decay_local_broadcast", _reach_single),
    ("decay", "repro.primitives.decay", "run_decay_local_broadcast_batch", _reach_rounds),
    ("decay", "repro.primitives.decay", "run_decay_local_broadcast_mega", _reach_rounds),
    ("lb_broadcast", "repro.primitives.lb_graph", "PhysicalLBGraph.local_broadcast", None),
    ("mpx", "repro.clustering.mpx", "mpx_clustering", None),
    ("recursive_bfs", "repro.core.recursive_bfs", "RecursiveBFS.compute", None),
    ("diameter", "repro.diameter.two_approx", "two_approx_diameter", None),
)

#: Span kind -> the per-layer self-time metric it is charged to.  The
#: ``experiments`` layer also takes the part of the pass that no span
#: covers (the call into and out of the ``run_specs`` wrapper).
SELF_TIME_METRICS = {
    "experiments": "experiments.self_s",
    "unit": "experiments.self_s",
    "serialize": "experiments.serialize_s",
    "store": "experiments.store_s",
    "topology": "radio.topology.build_s",
    "compile": "radio.engine.compile_s",
    "spawn": "radio.engine.spawn_s",
    "slot": "radio.engine.slot_s",
    "product": "radio.kernels.product_s",
    "charge": "radio.energy.charge_s",
    "fault_plan": "radio.faults.plan_s",
    "decay": "primitives.decay.self_s",
    "lb_broadcast": "primitives.lb_graph.broadcast_s",
    "mpx": "clustering.mpx_s",
    "recursive_bfs": "core.recursive_bfs.self_s",
    "diameter": "diameter.self_s",
}

#: The layer (module) each self-time metric belongs to, for the
#: dominant-layer report.
LAYER_OF = {metric: metric.rsplit(".", 1)[0] for metric in SELF_TIME_METRICS.values()}
LAYER_OF["core.recursive_bfs.self_s"] = "core"


class Tracer:
    """Span recorder; records only between :meth:`begin` and :meth:`end`."""

    def __init__(self):
        self.active = False
        self.spans = []
        self._stack = []

    def begin(self):
        self.spans = []
        self._stack = [-1]
        self.active = True

    def end(self):
        self.active = False
        return self.spans

    def wrap(self, kind, fn, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer._stack
            record = [kind, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                record[4] = info(args, kwargs, out)
            return out

        return traced


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def install():
    """Wrap every target; returns the (inactive) :class:`Tracer`."""
    tracer = Tracer()
    resolved = [(kind, *_resolve(module_name, path), info)
                for kind, module_name, path, info in TARGETS]
    loaded = [m for name, m in list(sys.modules.items())
              if name == "repro" or name.startswith("repro.")]
    for kind, owner, attr, info in resolved:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapped = tracer.wrap(kind, original, info)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for module in loaded:
            if module.__dict__.get(attr) is original:
                setattr(module, attr, wrapped)
    return tracer


def layer_times(spans, wall):
    """Per-layer self times and counters of one traced pass.

    ``wall`` is the pass time measured outside the tracer.  Returns
    ``(self_times, counters, uncovered, min_self)``: ``self_times`` maps
    each metric of :data:`SELF_TIME_METRICS` to seconds and sums to
    ``wall``; ``counters`` holds the span-derived counts; ``uncovered``
    is the part of ``wall`` outside every top-level span (charged to
    ``experiments.self_s``; large when an entry point is no longer
    wrapped); ``min_self`` is the smallest self time of any span
    (negative when spans mis-nest).
    """
    child_time = [0.0] * len(spans)
    for kind, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_times = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    counters = defaultdict(float)
    min_self = float("inf")
    for i, (kind, start, end, parent, info) in enumerate(spans):
        own = (end - start) - child_time[i]
        min_self = min(min_self, own)
        self_times[SELF_TIME_METRICS[kind]] += own
        counters[kind + ".calls"] += 1
        if info is None:
            continue
        if kind == "decay":
            counters["decay.heard"] += info[0]
            counters["decay.listeners"] += info[1]
        else:
            counters[kind + ".info"] += info
    uncovered = wall - sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    self_times["experiments.self_s"] += uncovered
    is_unit = [s[0] == "unit" for s in spans]
    units = 0
    for i, span in enumerate(spans):
        if not is_unit[i]:
            continue
        parent = span[3]
        while parent >= 0 and not is_unit[parent]:
            parent = spans[parent][3]
        units += parent < 0
    counters["units"] = units
    return self_times, dict(counters), uncovered, min_self

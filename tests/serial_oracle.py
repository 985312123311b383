"""The serial oracle for result documents.

Every static fast ``decay_bfs`` spec runs on the array lanes in
production, alone or fused.  The byte-identity tests need an expected
document that no lane produced: :func:`serial_result` runs a spec's
registered adapter on ``ctx.network()`` — the serial device engine of
the spec's tier — through ``runner._run_adapter``, the step
``run_experiment`` takes for the specs lanes cannot run.

Test modules import it by name (``from serial_oracle import ...``);
``tests/`` is on ``sys.path`` because ``tests/conftest.py`` lives there.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Sequence

from repro.experiments.__main__ import _build_parser, _grid_from_args
from repro.experiments.results import RunResult
from repro.experiments.runner import SweepResult, _run_adapter
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import SweepStore


def serial_result(spec: ExperimentSpec) -> RunResult:
    """``spec`` run by its registered adapter on the serial device
    engine, never on the array lanes."""
    result, ctx = _run_adapter(spec)
    if spec.algorithm == "decay_bfs":
        assert ctx._network is not None, "decay_bfs must build ctx.network()"
    return result


def canonical(result: RunResult) -> str:
    """A result's canonical document text (timing excluded)."""
    return json.dumps(result.to_dict(), sort_keys=True, allow_nan=False)


def serial_documents(specs: Iterable[ExperimentSpec]) -> List[str]:
    """The serial oracle's canonical document for each spec, in order."""
    return [canonical(serial_result(spec)) for spec in specs]


def serial_store(specs: Iterable[ExperimentSpec], path: str) -> None:
    """A sweep store at ``path`` holding the oracle's results, appended
    in spec order as a sweep appends them."""
    SweepStore(path).add_many([serial_result(spec) for spec in specs])


def serial_cli_json(run_args: Sequence[str]) -> bytes:
    """The bytes ``python -m repro.experiments run <run_args> --json``
    writes, with every spec of its grid run by the oracle."""
    specs = _grid_from_args(_build_parser().parse_args(["run", *run_args]))
    doc = SweepResult(results=tuple(serial_result(s) for s in specs)).to_dict()
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    return (text + "\n").encode("utf-8")

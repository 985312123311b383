"""The CLI's documents, byte for byte, against the serial device engine.

``python -m repro.experiments run`` runs every spec of this grid on the
array lanes, whether the planner fuses the grid (the default packing)
or gives each spec its own one-lane unit (``--batch-replicas 1``).
Under crash/drop/jam faults (``lossy_mixed``) and under SINR, both
documents must equal the one the serial device engine gives for the
same grid (:func:`serial_oracle.serial_cli_json`), and both must pass
``validate``.
"""

from __future__ import annotations

import pytest

from repro.experiments.__main__ import main
from serial_oracle import serial_cli_json

GRID = ["--topologies", "grid", "star", "cycle", "--algorithms", "decay_bfs",
        "--sizes", "16", "24", "--seeds", "2", "--engine", "fast"]
AXES = {
    "lossy_mixed": ["--fault-model", "lossy_mixed"],
    "sinr": ["--collision-model", "sinr"],
}


@pytest.mark.parametrize("packing", [[], ["--batch-replicas", "1"]],
                         ids=["default", "one_lane"])
@pytest.mark.parametrize("axis", sorted(AXES))
def test_cli_documents_equal_the_serial_device_engine(tmp_path, capsys,
                                                      axis, packing):
    run_args = [*GRID, *AXES[axis]]
    lanes, oracle = tmp_path / "lanes.json", tmp_path / "oracle.json"
    assert main(["run", *run_args, *packing, "--serial",
                 "--json", str(lanes)]) == 0
    oracle.write_bytes(serial_cli_json(run_args))
    assert lanes.read_bytes() == oracle.read_bytes()
    assert main(["validate", str(lanes), str(oracle)]) == 0
    capsys.readouterr()

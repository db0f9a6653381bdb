"""The benchmark's harness (perfbench/) calls the package's public API.  Its
gradient gate is run here, unedited, so that a change to what `gradients`,
`forward_batch` or `param_items` return fails locally, not first in a
benchmark run."""

import importlib.util
from pathlib import Path

GATES = Path(__file__).resolve().parent.parent / "perfbench" / "gates.py"


def test_gradient_gate_passes_every_shape():
    spec = importlib.util.spec_from_file_location("perfbench_gates", GATES)
    gates = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gates)
    verdicts = gates.gradient_gate()
    assert len(verdicts) == 12
    assert {name: why for name, why in verdicts.items() if why is not None} == {}

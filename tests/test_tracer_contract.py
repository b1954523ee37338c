"""The names ``perfbench/tracer.py`` patches must exist in ``meshpool``.

The tracer subclasses ``Tape`` by op name and wraps public functions by
module and name, so a rename in ``src/`` would otherwise surface only when
the benchmark runs with ``--trace 1``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from meshpool.autodiff import Tape

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_tape_op_exists(tracer):
    missing = [op for op in tracer.TAPE_OPS if not callable(getattr(Tape, op, None))]
    assert missing == []


def test_every_traced_function_exists(tracer):
    missing = [f"{layer}.{name}" for layer, names in tracer.TRACED_FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"meshpool.{layer}"),
                                       name, None))]
    assert missing == []


def test_matmul_takes_exactly_two_tensors():
    # the tracer's matmul override is ``matmul(self, a, b)``
    assert list(inspect.signature(Tape.matmul).parameters) == ["self", "a", "b"]

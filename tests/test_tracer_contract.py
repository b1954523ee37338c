"""The names ``perfbench/tracer.py`` patches must exist in ``meshpool``.

The tracer subclasses ``Tape`` by op name and wraps public functions by
module and name, so a rename in ``src/`` would otherwise surface only when
the benchmark runs with ``--trace 1``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from meshpool.autodiff import Tape
from meshpool.model import ModelConfig

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


def test_cluster_op_signatures():
    # pooling is traced by op name; a model subclass and the tests call
    # these positionally
    assert list(inspect.signature(Tape.cluster_max_pool).parameters) == ["self", "x", "mask", "p"]
    assert list(inspect.signature(Tape.cluster_scatter).parameters) == ["self", "cx", "mask"]


def test_predict_goes_through_forward_logits(monkeypatch):
    # the tracer wraps ``training.forward_logits`` at module level, so its
    # ``training.forward_logits.s`` measures inference only if predict looks
    # it up there
    from meshpool import training

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return np.zeros((3, 2))

    monkeypatch.setattr(training, "forward_logits", spy)
    record = training.SampleRecord("r", np.zeros((3, 4)), [], 0,
                                   labels=np.zeros(3, dtype=np.int64))
    assert list(training.predict(None, None, record)) == [0, 0, 0] and len(calls) == 1
    config = ModelConfig(task="segmentation", num_labels=2, num_categories=1)
    assert training.evaluate_segmentation(None, config, [record, record]).accuracy == 1.0
    assert len(calls) == 3  # one forward per evaluated record

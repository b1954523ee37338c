"""The names ``perfbench/tracer.py`` patches must exist in ``meshpool``.

The tracer subclasses ``Tape`` by op name and wraps public functions by
module and name, so a rename in ``src/`` would otherwise surface only when
the benchmark runs with ``--trace 1``.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from meshpool.autodiff import Tape
from meshpool.model import ModelConfig

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS_PATH = TRACER_PATH.with_name("workloads.py")
# names the workloads import from meshpool and call directly
CALLED_MODULES = ("cache", "training", "synth", "mesh", "spectral")

# a one-block classifier on 4-vertex records, small enough to train in a test
TINY_CLS = ModelConfig(in_dim=4, cluster_counts=(2,), update_widths=(4,), corr_width=3,
                       head_hidden=(4,), head_final=4, task="classification",
                       num_categories=2)


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


def test_parameter_containers_keep_the_attributes_the_benchmark_reads(tmp_path):
    # ``tracer._after_params`` maps ``p.value`` of every named parameter
    # to its block, and the workloads hash ``params[name].data``
    from meshpool import training
    from meshpool.autodiff import Tensor
    from meshpool.model import init_params

    record = training.SampleRecord("r", np.ones((4, 4)), [np.array([0, 0, 1, 1])], 1)
    trained, _ = training.train([record], TINY_CLS, training.TrainConfig(epochs=1))
    path = tmp_path / "model.ckpt"
    training.save_checkpoint(path, trained, TINY_CLS, epoch=0, train_seed=0)
    loaded = training.load_checkpoint(path)[0]
    for params in (init_params(TINY_CLS, 0), trained, loaded):
        names = list(params)
        assert names and all(isinstance(name, str) for name in names)
        for name in names:
            p = params[name]
            assert isinstance(p.value, Tensor) and p.data is p.value.data
        assert [name for name, _ in params.items()] == names


def test_train_builds_its_epoch_stats_and_tapes_through_the_module(monkeypatch):
    # the tracer marks each epoch's end by replacing ``training.EpochStats``
    # (``training.train.epoch_s``) and times every op through a subclass put
    # at ``training.Tape`` (every ``autodiff.*`` metric), so ``train`` must
    # look both up there: one EpochStats per epoch, one Tape per mesh-step
    from meshpool import training

    built = {"stats": 0, "tapes": 0}
    stats_cls = training.EpochStats

    def counting_stats(*args, **kwargs):
        built["stats"] += 1
        return stats_cls(*args, **kwargs)

    class CountingTape(training.Tape):
        def __init__(self, *args, **kwargs):
            built["tapes"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(training, "EpochStats", counting_stats)
    monkeypatch.setattr(training, "Tape", CountingTape)
    records = [training.SampleRecord(f"r{i}", np.full((4, 4), i + 1.0),
                                     [np.array([0, 0, 1, 1])], i % 2) for i in range(3)]
    _, history = training.train(records, TINY_CLS, training.TrainConfig(epochs=2, batch_size=2))
    assert len(history) == 2
    assert built == {"stats": 2, "tapes": 6}


def _workload_calls():
    """(line, name, callable, positional count, keyword names) of every
    call in ``perfbench/workloads.py`` on a ``CALLED_MODULES`` module or on
    ``ModelConfig``; a call that unpacks ``*args`` or ``**kwargs`` is left
    out, since its arguments are not known before it runs."""
    calls = []
    for node in ast.walk(ast.parse(WORKLOADS_PATH.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in CALLED_MODULES):
            name = f"{func.value.id}.{func.attr}"
            target = getattr(importlib.import_module(f"meshpool.{func.value.id}"), func.attr, None)
        elif isinstance(func, ast.Name) and func.id == "ModelConfig":
            name, target = "ModelConfig", ModelConfig
        else:
            continue
        keywords = [kw.arg for kw in node.keywords]
        if None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
            continue
        calls.append((node.lineno, name, target, len(node.args), keywords))
    return calls


def test_every_workload_call_binds_to_the_signature_it_calls():
    # the benchmark calls meshpool positionally and by keyword; a call that
    # no longer binds would otherwise fail only when the benchmark runs
    calls = _workload_calls()
    assert {"cache.get_features", "training.train", "ModelConfig"} <= {c[1] for c in calls}
    broken = []
    for line, name, target, n_positional, keywords in calls:
        if not callable(target):
            broken.append(f"workloads.py:{line}: {name} is not a meshpool callable")
            continue
        try:
            inspect.signature(target).bind(*[None] * n_positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            broken.append(f"workloads.py:{line}: {name}: {exc}")
    assert broken == []

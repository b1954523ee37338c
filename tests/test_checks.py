"""Every integer and number that comes from outside goes through one rule,
``meshpool.checks``, and raises the caller's error class with one line."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from meshpool import checks
from meshpool.autodiff import Tape
from meshpool.binio import read_container, write_container
from meshpool.cache import PreprocessParams
from meshpool.cli import build_parser, load_manifest
from meshpool.mesh import assemble_laplacian, write_obj
from meshpool.model import MAX_CLASSES, ModelConfig, init_params, model_forward
from meshpool.spectral import build_hierarchy, solve_eigs
from meshpool.synth import decimate, icosphere, lathe
from meshpool.training import (CheckpointError, TrainConfig, TrainingError, load_checkpoint,
                               save_checkpoint, split_dataset)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "meshpool"

TINY_CLS = ModelConfig(in_dim=4, cluster_counts=(2,), update_widths=(4,), corr_width=3,
                       head_hidden=(4,), head_final=4, task="classification", num_categories=2)
TINY_SEG = ModelConfig(in_dim=4, cluster_counts=(2,), update_widths=(4,), corr_width=3,
                       head_hidden=(4,), head_final=4, num_labels=2, num_categories=3)


# Each site feeds ``value`` to ``field`` the way a caller outside the package would.

def _model(tmp_path, field, value):
    ModelConfig(**{field: value})


def _params(tmp_path, field, value):
    PreprocessParams(**{field: value})


def _train(tmp_path, field, value):
    TrainConfig(**{field: value})


def _manifest(tmp_path, field, value):
    sample = {"name": "ball", "obj": "ball.obj", "category": 0, "split": "train"}
    manifest = {"task": "classification", "num_categories": 4, "samples": [sample]}
    (sample if field == "category" else manifest)[field] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    load_manifest(tmp_path)


def _checkpoint(tmp_path, field, value):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(TINY_CLS, seed=0), TINY_CLS, epoch=0, train_seed=0)
    arrays = read_container(path)
    arrays[field] = np.array([value], dtype=np.int64)
    write_container(path, arrays)
    load_checkpoint(path)


def _synth(tmp_path, field, value):
    args = build_parser().parse_args(["synth", "--output", str(tmp_path / "data"),
                                      "--task", "segmentation", "--count", "2"])
    setattr(args, field, value)
    args.func(args)


def _export(tmp_path, field, value):
    write_obj(tmp_path / "ball.obj", icosphere(1))
    args = build_parser().parse_args([
        "export", "--input", str(tmp_path / "ball.obj"), "--output", str(tmp_path / "ball.ply"),
        "--what", "clusters", "--eigs", "4", "--clusters", "4,2"])
    setattr(args, field, value)
    args.func(args)


def _forward(tmp_path, field, value):
    rng = np.random.default_rng(0)
    masks = [np.arange(6) % 2]
    model_forward(Tape(), init_params(TINY_SEG, seed=0), TINY_SEG,
                  rng.standard_normal((6, 4)), masks, category=value)


def _solve_eigs(tmp_path, field, value):
    solve_eigs(assemble_laplacian(icosphere(1)), value)


def _build_hierarchy(tmp_path, field, value):
    build_hierarchy(np.random.default_rng(6).standard_normal((10, 3)), value, np.ones(10))


def _lathe(tmp_path, field, value):
    lathe([0.0, 1.0, 0.0], [1.0, 0.0, -1.0], value)


def _decimate(tmp_path, field, value):
    decimate(icosphere(1), value, seed=0)


def _split(tmp_path, field, value):
    split_dataset([], test_fraction=value)


def _cases(site, field, error, shown, bad):
    """(site, field, value, error, message) for each (value, rule) in ``bad``."""
    shown = shown or field
    return [pytest.param(site, field, value, error, f"{shown} must be {rule}, got {value!r}",
                         id=f"{site.__name__[1:]}-{field}-{value!r:.24}")  # 10**400 is long
            for value, rule in bad]


def _integer(site, field, error, least, most=None, shown=None, types=True):
    """A bool, a float and a str (unless ``types`` is False), then every
    value just outside [least, most]."""
    rule = f"at least {least}" if most is None else f"in [{least}, {most}]"
    bad = [(value, "an integer") for value in (True, 2.5, "3") if types] + [(least - 1, rule)]
    return _cases(site, field, error, shown, bad + ([(most + 1, rule)] if most is not None else []))


def _integers(site, field, error, least):
    rule = f"a non-empty list of integers of at least {least}"
    return _cases(site, field, error, None,
                  [(value, rule) for value in ([least, True], [2.5], "3", [least - 1], [])])


def _real(site, field, error, rule, outside, shown=None):
    return _cases(site, field, error, shown, [(True, "a number"), ("0.5", "a number"),
                                              (outside, rule), (10**400, rule)])


SITES = [
    *_integer(_model, "in_dim", ValueError, 1),
    *_integers(_model, "cluster_counts", ValueError, 1),
    *_integers(_model, "update_widths", ValueError, 1),
    *_integer(_model, "corr_width", ValueError, 1),
    *_integers(_model, "head_hidden", ValueError, 1),
    *_integer(_model, "head_final", ValueError, 1),
    *_integer(_model, "num_labels", ValueError, 0, MAX_CLASSES),
    *_integer(_model, "num_categories", ValueError, 0, MAX_CLASSES),
    *_integer(_params, "n_eigenvectors", ValueError, 0),
    *_integers(_params, "cluster_counts", ValueError, 1),
    *_integer(_train, "epochs", TrainingError, 0),
    *_integer(_train, "batch_size", TrainingError, 1),
    *_integer(_train, "checkpoint_every", TrainingError, 0),
    *_integer(_train, "seed", TrainingError, 0),
    *_real(_train, "lr", TrainingError, "finite and above 0", 0.0),
    *_real(_train, "early_stop_train_accuracy", TrainingError, "None or in [0, 1]", 1.5),
    *_integer(_manifest, "num_labels", ValueError, 0, shown="'num_labels'"),
    *_integer(_manifest, "num_categories", ValueError, 0, shown="'num_categories'"),
    *_integer(_manifest, "category", ValueError, 0, shown="sample 0 'category'"),
    # an int64 section holds no bool, float or str: that is a dtype error
    *_integer(_checkpoint, "adam_t", CheckpointError, 0, shown="section adam_t", types=False),
    *_integer(_checkpoint, "epoch", CheckpointError, -1, shown="section epoch", types=False),
    *_integer(_checkpoint, "train_seed", CheckpointError, 0, shown="section train_seed",
              types=False),
    *_integer(_synth, "count", ValueError, 1, shown="--count"),
    *_integer(_synth, "seed", ValueError, 0, shown="--seed"),
    *_real(_synth, "test_fraction", ValueError, "in [0, 1)", 1.0),
    *_integer(_export, "level", ValueError, 0, 1, shown="--level"),
    *_integer(_forward, "category", ValueError, 0, 2),
    *_integer(_solve_eigs, "k", ValueError, 0),
    *_integers(_build_hierarchy, "cluster_counts", ValueError, 1),
    *_integer(_lathe, "n_segments", ValueError, 3),
    *_integer(_decimate, "target_vertices", ValueError, 4),
    *_real(_split, "test_fraction", ValueError, "in [0, 1)", 1.0),
]


@pytest.mark.parametrize("site,field,value,error,message", SITES)
def test_every_guarded_field_rejects_a_bad_value_in_one_form(tmp_path, site, field, value,
                                                             error, message):
    with pytest.raises(Exception) as info:
        site(tmp_path, field, value)
    assert type(info.value) is error
    text = str(info.value)
    # a manifest or checkpoint message starts with the file's path
    assert text == message or text.startswith(str(tmp_path)) and text.endswith(f": {message}")
    assert "\n" not in text


def test_rules_store_numpy_values_as_python_ones():
    assert type(checks.integer("n", np.int64(3), ValueError, 0)) is int
    assert checks.integers("c", np.array([4, 2]), ValueError, 1) == (4, 2)
    assert type(checks.integers("c", np.array([4, 2]), ValueError, 1)[0]) is int
    assert type(checks.real("x", np.float32(0.5), ValueError, "", lambda x: True)) is float
    assert checks.real("x", 3, ValueError, "", lambda x: True) == 3.0
    with pytest.raises(ValueError, match=r"^n must be an integer, got np.True_$"):
        checks.integer("n", np.True_, ValueError, 0)


def _bool_checks(tree):
    """Line of every ``isinstance(..., bool)`` or ``isinstance(..., (..., bool))``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and any(isinstance(n, ast.Name) and n.id == "bool"
                        for n in ast.walk(node.args[1]))):
            yield node.lineno


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_rules_module_tells_a_bool_from_an_integer(path):
    """A copy of the integer rule outside ``checks`` would drift from it."""
    lines = list(_bool_checks(ast.parse(path.read_text(), filename=str(path))))
    assert path.name == "checks.py" or not lines, [f"{path.name}:{line}" for line in lines]


def test_the_bool_guard_sees_every_form():
    tree = ast.parse("isinstance(v, bool)\nisinstance(v, (int, bool))\n"
                     "def f(v):\n    return not isinstance(v, bool)\nisinstance(v, int)\n")
    assert list(_bool_checks(tree)) == [1, 2, 4]

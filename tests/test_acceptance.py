"""Acceptance gates for the full pipeline.

Each test evaluates one end-to-end property and registers a single
pass/fail line (echoed in the terminal summary) before asserting. The two
training runs are module-scoped fixtures shared by the criteria that need
a fitted model, so the whole module trains each model exactly once.
"""

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.spatial import cKDTree

from meshpool.autodiff import Tape, Tensor
from meshpool.cache import PreprocessParams, preprocess_mesh
from meshpool.mesh import assemble_laplacian
from meshpool.model import ModelConfig, correlation_matrix, init_params, model_forward
from meshpool.spectral import DENSE_CUTOFF, solve_eigs
from meshpool.synth import (
    DUMBBELL_RESOLUTIONS,
    cylinder,
    deform,
    dumbbell,
    icosahedron,
    icosphere,
    make_classification_dataset,
    make_segmentation_dataset,
    remesh,
    torus,
)
from meshpool.training import (
    TrainConfig,
    evaluate_accuracy,
    evaluate_segmentation,
    load_checkpoint,
    record_from_cache,
    save_checkpoint,
    split_dataset,
    train,
)

from conftest import central_diff, cluster_agreement, fd_op_check, max_rel_err

PP_DEFAULT = PreprocessParams()  # 16 eigenvectors, clusters (16, 8)


def build_records(samples, params=PP_DEFAULT):
    records, caches = [], {}
    for s in samples:
        cache = preprocess_mesh(s.mesh, params)
        caches[s.name] = cache
        records.append(record_from_cache(s.name, cache, s.category, labels=s.labels))
    return records, caches


def params_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[n].data, b[n].data) for n in a)


@pytest.fixture(scope="module")
def cls_run():
    """Criterion 6 training run, reused by criterion 10."""
    samples = make_classification_dataset(n_per_class=20, seed=0)
    records, _ = build_records(samples)
    train_recs, test_recs = split_dataset(records, test_fraction=0.25, seed=0)
    config = ModelConfig(task="classification", num_categories=4)
    tcfg = TrainConfig(epochs=200, lr=7e-4, batch_size=8, seed=0,
                       early_stop_train_accuracy=1.0)
    params, history = train(train_recs, config, tcfg)
    return dict(train=train_recs, test=test_recs, config=config, tcfg=tcfg,
                params=params, history=history)


@pytest.fixture(scope="module")
def seg_run():
    """Criterion 7 training run, reused by criteria 8 and 9."""
    samples = make_segmentation_dataset(n_meshes=40, seed=0)
    records, caches = build_records(samples)
    groups = [r.name.rsplit("_", 1)[0] for r in records]  # stratify by resolution
    train_recs, test_recs = split_dataset(records, test_fraction=0.25, seed=0,
                                          groups=groups)
    config = ModelConfig(task="segmentation", num_labels=3, num_categories=1)
    tcfg = TrainConfig(epochs=200, lr=7e-4, batch_size=8, seed=0,
                       early_stop_train_accuracy=0.99)
    params, history = train(train_recs, config, tcfg)
    return dict(samples={s.name: s for s in samples}, caches=caches,
                train=train_recs, test=test_recs, config=config,
                params=params, history=history)


def test_criterion_1_laplacian_identities(criterion_report, equilateral):
    meshes = [icosahedron(), icosphere(2), torus(), cylinder(), dumbbell()[0],
              deform(icosphere(2), seed=11), deform(dumbbell()[0], seed=12)]
    worst_row = worst_asym = 0.0
    for mesh in meshes:
        op = assemble_laplacian(mesh)
        ones = np.ones(op.n_vertices)
        worst_row = max(worst_row, np.abs(op.degrees - op.weights @ ones).max())
        worst_asym = max(worst_asym, np.abs((op.weights - op.weights.T).toarray()).max())
    w = assemble_laplacian(equilateral).weights
    eq_err = abs(w[0, 1] - 1.0 / (2.0 * np.sqrt(3.0)))  # cot(60 deg) / 2
    ok = worst_row < 1e-9 and worst_asym == 0.0 and eq_err < 1e-12
    criterion_report(1, ok, f"row-sum {worst_row:.1e}, asymmetry {worst_asym:.1e}, "
                            f"equilateral weight err {eq_err:.1e} ({len(meshes)} meshes)")
    assert ok


def test_criterion_2_eigensolver_vs_dense_oracle(criterion_report):
    meshes = [icosphere(2), icosphere(3), torus(16, 16),
              dumbbell(14, 20)[0], deform(icosphere(2), seed=21)]
    worst_rel = worst_ortho = 0.0
    for mesh in meshes:
        assert DENSE_CUTOFF <= mesh.n_vertices <= 2000  # so the solve is iterative
        op = assemble_laplacian(mesh)
        basis = solve_eigs(op, 16)
        dv, _ = eigh(op.stiffness().toarray(), np.diag(op.areas))
        dv = dv[:17]
        rel = np.abs(basis.eigenvalues - dv) / np.maximum(np.abs(dv), 1e-3)
        worst_rel = max(worst_rel, rel.max())
        phi = basis.eigenvectors
        gram = phi.T @ (op.areas[:, None] * phi)
        worst_ortho = max(worst_ortho, np.abs(gram - np.eye(17)).max())
    ok = worst_rel < 1e-8 and worst_ortho < 1e-6
    criterion_report(2, ok, f"eigenvalue rel err {worst_rel:.1e}, "
                            f"A-orthonormality {worst_ortho:.1e} ({len(meshes)} meshes)")
    assert ok


def test_criterion_3_sphere_spectrum(criterion_report):
    # Laplace-Beltrami on the unit sphere: lambda = l(l+1), multiplicity 2l+1
    basis = solve_eigs(assemble_laplacian(icosphere(3)), 8)
    lam = basis.eigenvalues
    band1, band2 = lam[1:4], lam[4:9]
    ok = (np.abs(band1 - 2.0) <= 0.2).all() and (np.abs(band2 - 6.0) <= 0.6).all()
    criterion_report(3, ok, f"modes 1-3 in [{band1.min():.3f}, {band1.max():.3f}] "
                            f"(want 2.0 +-10%), 4-8 in [{band2.min():.3f}, "
                            f"{band2.max():.3f}] (want 6.0 +-10%)")
    assert ok


def test_criterion_4_gradient_suite(criterion_report):
    rng = np.random.default_rng(40)

    def spaced(shape, gap=0.1):
        vals = gap * (1.0 + np.arange(np.prod(shape), dtype=float))
        return rng.permutation(vals).reshape(shape) - vals.mean()

    def mask_of(n, p):
        m = np.concatenate([np.arange(p), rng.integers(0, p, n - p)])
        return rng.permutation(m).astype(np.int64)

    x_off = rng.standard_normal((6, 5))
    x_off += 0.3 * np.sign(x_off)
    mask9 = mask_of(9, 3)
    mask10 = mask_of(10, 4)
    mask8 = mask_of(8, 3)
    op_checks = [
        ("matmul", False, lambda: fd_op_check(
            lambda t, a, b: t.matmul(a, b),
            [rng.standard_normal((5, 4)), rng.standard_normal((4, 3))])),
        ("transpose", True, lambda: fd_op_check(
            lambda t, x: t.transpose(x), [rng.standard_normal((4, 6))])),
        ("add", True, lambda: fd_op_check(
            lambda t, a, b: t.add(a, b),
            [rng.standard_normal((5, 3)), rng.standard_normal((5, 3))])),
        ("scale", True, lambda: fd_op_check(
            lambda t, x: t.scale(x, 1.3), [rng.standard_normal((5, 3))])),
        ("bias_add", True, lambda: fd_op_check(
            lambda t, x, b: t.bias_add(x, b),
            [rng.standard_normal((5, 4)), rng.standard_normal(4)])),
        ("relu", True, lambda: fd_op_check(lambda t, x: t.relu(x), [x_off])),
        ("concat", True, lambda: fd_op_check(
            lambda t, a, b: t.concat([a, b]),
            [rng.standard_normal((4, 2)), rng.standard_normal((4, 3))])),
        ("cluster_max_pool", False, lambda: fd_op_check(
            lambda t, x: t.cluster_max_pool(x, mask9, 3), [spaced((9, 4))])),
        ("cluster_mean_pool", False, lambda: fd_op_check(
            lambda t, x: t.cluster_mean_pool(x, mask10, 4),
            [rng.standard_normal((10, 3))])),
        ("cluster_scatter", False, lambda: fd_op_check(
            lambda t, c: t.cluster_scatter(c, mask8), [rng.standard_normal((3, 4))])),
        ("global_max_pool", False, lambda: fd_op_check(
            lambda t, x: t.global_max_pool(x), [spaced((7, 5))])),
    ]
    # its own stream, so the checks above draw as before; at this seed every
    # ReLU pre-activation lies at least 0.09 from the kink
    dense_rng = np.random.default_rng(44)

    def dense_check(split, relu):
        x, b = dense_rng.standard_normal((7, 4)), dense_rng.standard_normal(5)
        w = dense_rng.standard_normal((4 + 2 * split, 5))
        if not split:
            return fd_op_check(lambda t, x_, w_, b_: t.dense(x_, w_, b_, relu), [x, w, b])
        cluster = dense_rng.standard_normal((3, 2))
        mask = dense_rng.permutation(np.concatenate([np.arange(3), dense_rng.integers(0, 3, 4)]))
        return fd_op_check(lambda t, x_, c_, w_, b_: t.dense(x_, w_, b_, relu, c_, mask),
                           [x, cluster, w, b])

    worst_dense = max(dense_check(split, relu) for split in (False, True)
                      for relu in (False, True))
    worst_elem = worst_struct = 0.0
    for name, elementwise, run in op_checks:
        err = run()
        if elementwise:
            worst_elem = max(worst_elem, err)
        else:
            worst_struct = max(worst_struct, err)

    # softmax cross entropy has a scalar output; check it directly
    logits = rng.standard_normal((6, 4))
    classes = rng.integers(0, 4, 6)
    tape = Tape()
    t = Tensor(logits)
    tape.backward(tape.softmax_cross_entropy(t, classes), 1.0)
    fd = central_diff(lambda z: float(
        Tape().softmax_cross_entropy(Tensor(z), classes).data), logits)
    worst_struct = max(worst_struct, max_rel_err(fd, t.grad))

    # full model on the 12-vertex mesh with the [4, 2] hierarchy
    cache = preprocess_mesh(icosahedron(),
                            PreprocessParams(n_eigenvectors=8, cluster_counts=(4, 2)))
    config = ModelConfig(in_dim=14, cluster_counts=(4, 2), update_widths=(6, 6),
                         corr_width=5, head_hidden=(6, 6), head_final=6,
                         task="segmentation", num_labels=3, num_categories=2)
    params = init_params(config, seed=0)
    for name in sorted(params):  # nonzero biases keep pool margins generic
        if name.endswith(".b"):
            params[name].value.data[...] = rng.uniform(0.01, 0.1,
                                                       params[name].data.shape)
    labels = np.arange(12) % 3

    def loss_value():
        tape = Tape()
        logits = model_forward(tape, params, config, cache.features,
                               cache.level_masks, category=1)
        return tape, tape.softmax_cross_entropy(logits, labels)

    tape, loss = loss_value()
    tape.backward(loss, 1.0)
    grads = {n: params[n].grad.copy() for n in params}
    params.grad.fill(0.0)

    eps = 1e-5
    worst_model = 0.0
    n_entries = 0
    for name in sorted(params):
        arr = params[name].value.data
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            up = float(loss_value()[1].data)
            arr[idx] = orig - eps
            down = float(loss_value()[1].data)
            arr[idx] = orig
            fd[idx] = (up - down) / (2.0 * eps)
            n_entries += 1
        worst_model = max(worst_model, max_rel_err(fd, grads[name]))

    ok = (worst_elem < 1e-6 and worst_struct < 1e-4 and worst_dense < 1e-4
          and worst_model < 1e-4)
    criterion_report(4, ok, f"op grads: elementwise {worst_elem:.1e} (<1e-6), "
                            f"structured {worst_struct:.1e} (<1e-4), dense "
                            f"{worst_dense:.1e} (<1e-4); full model "
                            f"{worst_model:.1e} over {n_entries} parameter entries")
    assert ok


def test_criterion_5_symmetries(criterion_report, bumpy):
    cache = preprocess_mesh(bumpy, PP_DEFAULT)  # simple spectrum by deformation
    feats, masks = cache.features, cache.level_masks
    seg_cfg = ModelConfig(task="segmentation", num_labels=3, num_categories=1)
    cls_cfg = ModelConfig(task="classification", num_categories=4)
    seg_params = init_params(seg_cfg, seed=0)
    cls_params = init_params(cls_cfg, seed=0)
    base_seg = model_forward(Tape(), seg_params, seg_cfg, feats, masks,
                             category=0).data
    base_cls = model_forward(Tape(), cls_params, cls_cfg, feats, masks).data

    rng = np.random.default_rng(55)
    worst_equi = worst_inv = 0.0
    for _ in range(20):
        perm = rng.permutation(len(feats))
        pf, pm = feats[perm], [m[perm] for m in masks]
        seg_out = model_forward(Tape(), seg_params, seg_cfg, pf, pm, category=0).data
        worst_equi = max(worst_equi, np.abs(seg_out - base_seg[perm]).max())
        cls_out = model_forward(Tape(), cls_params, cls_cfg, pf, pm).data
        worst_inv = max(worst_inv, np.abs(cls_out - base_cls).max())

    min_eig = np.inf
    worst_asym = 0.0
    p = seg_cfg.cluster_counts[0]  # level-0 correlation pools to p clusters
    for _ in range(100):
        n = int(rng.integers(p + 4, 60))
        x = rng.standard_normal((n, seg_cfg.in_dim))
        mask = np.concatenate([np.arange(p), rng.integers(0, p, n - p)])
        rng.shuffle(mask)
        corr = correlation_matrix(Tape(), seg_params, seg_cfg, 0,
                                  Tensor(x), mask.astype(np.int64)).data
        min_eig = min(min_eig, float(np.linalg.eigvalsh(corr).min()))
        worst_asym = max(worst_asym, np.abs(corr - corr.T).max())

    ok = worst_equi < 1e-9 and worst_inv < 1e-9 and min_eig >= -1e-10 and worst_asym < 1e-9
    criterion_report(5, ok, f"equivariance {worst_equi:.1e}, invariance "
                            f"{worst_inv:.1e} (20 perms); corr min eig {min_eig:.1e}, "
                            f"asymmetry {worst_asym:.1e} (100 inputs)")
    assert ok


def test_criterion_6_classification_overfit(criterion_report, cls_run):
    train_acc = evaluate_accuracy(cls_run["params"], cls_run["config"], cls_run["train"])
    test_acc = evaluate_accuracy(cls_run["params"], cls_run["config"], cls_run["test"])
    epochs = len(cls_run["history"])
    ok = train_acc == 1.0 and test_acc >= 0.90 and epochs <= 200
    criterion_report(6, ok, f"train {train_acc:.3f} (want 1.0), test {test_acc:.3f} "
                            f"(want >=0.90) in {epochs} epochs "
                            f"({len(cls_run['train'])}/{len(cls_run['test'])} split)")
    assert ok


def test_criterion_7_segmentation_overfit(criterion_report, seg_run):
    train_rep = evaluate_segmentation(seg_run["params"], seg_run["config"], seg_run["train"])
    test_rep = evaluate_segmentation(seg_run["params"], seg_run["config"], seg_run["test"])
    epochs = len(seg_run["history"])
    ok = train_rep.accuracy >= 0.95 and test_rep.accuracy >= 0.90 and epochs <= 200
    criterion_report(7, ok, f"train {train_rep.accuracy:.3f} (want >=0.95), test "
                            f"{test_rep.accuracy:.3f} (want >=0.90), test mIoU "
                            f"{test_rep.mean_iou:.3f}, {epochs} epochs")
    assert ok


def test_criterion_8_remesh_robustness(criterion_report, seg_run):
    params, config = seg_run["params"], seg_run["config"]
    n_levels = len(PP_DEFAULT.cluster_counts)
    worst_drop = -np.inf
    min_agree = [1.0] * n_levels
    for rec in seg_run["test"]:
        sample = seg_run["samples"][rec.name]
        variant = remesh(sample.mesh, seed=101)
        variant_cache = preprocess_mesh(variant, PP_DEFAULT)
        nearest = cKDTree(sample.mesh.vertices).query(variant.vertices)[1]
        variant_rec = record_from_cache(rec.name, variant_cache, rec.category,
                                        labels=sample.labels[nearest])
        acc = evaluate_segmentation(params, config, [rec]).accuracy
        acc_variant = evaluate_segmentation(params, config, [variant_rec]).accuracy
        worst_drop = max(worst_drop, 100.0 * (acc - acc_variant))
        orig_cache = seg_run["caches"][rec.name]
        for level in range(n_levels):
            agree = cluster_agreement(orig_cache.level_masks[level][nearest],
                                      variant_cache.level_masks[level])
            min_agree[level] = min(min_agree[level], agree)
    ok = worst_drop <= 5.0 and min(min_agree) >= 0.80
    agree_text = ", ".join(f"level{j} {v:.3f}" for j, v in enumerate(min_agree))
    criterion_report(8, ok, f"worst accuracy drop {worst_drop:.2f}pt (<=5), min "
                            f"cluster agreement {agree_text} (>=0.80) over "
                            f"{len(seg_run['test'])} remeshed test meshes")
    assert ok


def test_criterion_9_held_out_resolution(criterion_report, seg_run):
    base, labels = dumbbell(*DUMBBELL_RESOLUTIONS["c"])  # between presets a and b
    records = []
    for i in range(12):
        mesh = deform(base, seed=[7, i])
        cache = preprocess_mesh(mesh, PP_DEFAULT)
        records.append(record_from_cache(f"dumbbell_c_{i:03d}", cache, 0,
                                         labels=labels))
    held_out = evaluate_segmentation(seg_run["params"], seg_run["config"], records)
    same_res = evaluate_segmentation(seg_run["params"], seg_run["config"], seg_run["test"])
    delta = 100.0 * abs(held_out.accuracy - same_res.accuracy)
    ok = delta <= 5.0
    criterion_report(9, ok, f"held-out resolution {held_out.accuracy:.3f} vs "
                            f"same-resolution {same_res.accuracy:.3f}: "
                            f"delta {delta:.2f}pt (<=5) on 12 meshes")
    assert ok


def test_criterion_10_determinism(criterion_report, cls_run, tmp_path):
    rerun_params, rerun_hist = train(cls_run["train"], cls_run["config"], cls_run["tcfg"])
    identical = params_equal(cls_run["params"], rerun_params)
    same_history = ([h.mean_loss for h in rerun_hist]
                    == [h.mean_loss for h in cls_run["history"]])

    subset = cls_run["train"][:16]
    config = cls_run["config"]
    full_params, _ = train(subset, config, TrainConfig(epochs=3, seed=0))
    part_params, _ = train(subset, config, TrainConfig(epochs=2, seed=0))
    path = tmp_path / "resume.ckpt"
    save_checkpoint(path, part_params, config, epoch=1, train_seed=0)
    loaded, config2, epoch, train_seed = load_checkpoint(path, expected_config=config)
    resumed_params, _ = train(subset, config2, TrainConfig(epochs=3, seed=train_seed),
                              params=loaded, start_epoch=epoch + 1)
    resume_exact = params_equal(full_params, resumed_params)

    ok = identical and same_history and resume_exact
    criterion_report(10, ok, f"rerun bit-identical: {identical}, histories equal: "
                             f"{same_history}, checkpoint resume exact: {resume_exact}")
    assert ok

"""Finite-difference checks and bookkeeping tests for the tape engine."""

import numpy as np
import pytest

from meshpool.autodiff import Parameter, Tape, Tensor, adam_step, set_debug_checks

from conftest import central_diff, fd_op_check, max_rel_err

EPS_ELEMENTWISE = 1e-6  # tolerance for ops that act entry by entry
EPS_STRUCTURED = 1e-4


def spaced_values(rng, shape, gap=0.1):
    """Entries pairwise distinct with margin ``gap``: safe for max pools."""
    vals = gap * (1.0 + np.arange(np.prod(shape), dtype=float))
    return rng.permutation(vals).reshape(shape) - vals.mean()


def small_mask(rng, n, p):
    mask = np.concatenate([np.arange(p), rng.integers(0, p, size=n - p)])
    return rng.permutation(mask).astype(np.int64)


# ---------------------------------------------------------------------------
# per-op gradients
# ---------------------------------------------------------------------------

def test_matmul_gradients():
    rng = np.random.default_rng(10)
    err = fd_op_check(lambda t, a, b: t.matmul(a, b),
                      [rng.standard_normal((5, 4)), rng.standard_normal((4, 3))])
    assert err < EPS_STRUCTURED


def test_transpose_gradients():
    rng = np.random.default_rng(11)
    err = fd_op_check(lambda t, x: t.transpose(x), [rng.standard_normal((4, 6))])
    assert err < EPS_ELEMENTWISE


def test_add_gradients():
    rng = np.random.default_rng(12)
    err = fd_op_check(lambda t, a, b: t.add(a, b),
                      [rng.standard_normal((5, 3)), rng.standard_normal((5, 3))])
    assert err < EPS_ELEMENTWISE


def test_scale_gradients():
    rng = np.random.default_rng(13)
    err = fd_op_check(lambda t, x: t.scale(x, -1.7), [rng.standard_normal((6, 2))])
    assert err < EPS_ELEMENTWISE


def test_bias_add_gradients():
    rng = np.random.default_rng(14)
    err = fd_op_check(lambda t, x, b: t.bias_add(x, b),
                      [rng.standard_normal((5, 4)), rng.standard_normal(4)])
    assert err < EPS_ELEMENTWISE


def test_relu_gradients_away_from_kink():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((6, 5))
    x += 0.25 * np.sign(x)  # keep every entry off the kink
    err = fd_op_check(lambda t, x_: t.relu(x_), [x])
    assert err < EPS_ELEMENTWISE


def test_concat_gradients_both_axes():
    rng = np.random.default_rng(16)
    parts = [rng.standard_normal((4, d)) for d in (2, 3, 1)]
    err = fd_op_check(lambda t, *ps: t.concat(list(ps), axis=1), parts)
    assert err < EPS_ELEMENTWISE
    rows = [rng.standard_normal((r, 3)) for r in (2, 1, 4)]
    err0 = fd_op_check(lambda t, *ps: t.concat(list(ps), axis=0), rows)
    assert err0 < EPS_ELEMENTWISE


def test_cluster_max_pool_gradients():
    rng = np.random.default_rng(17)
    x = spaced_values(rng, (9, 4))
    mask = small_mask(rng, 9, 3)
    err = fd_op_check(lambda t, x_: t.cluster_max_pool(x_, mask, 3), [x])
    assert err < EPS_STRUCTURED


def test_cluster_mean_pool_gradients():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((10, 3))
    mask = small_mask(rng, 10, 4)
    err = fd_op_check(lambda t, x_: t.cluster_mean_pool(x_, mask, 4), [x])
    assert err < EPS_STRUCTURED


def test_cluster_scatter_gradients():
    rng = np.random.default_rng(19)
    cx = rng.standard_normal((3, 4))
    mask = small_mask(rng, 8, 3)
    err = fd_op_check(lambda t, c: t.cluster_scatter(c, mask), [cx])
    assert err < EPS_STRUCTURED


def test_global_max_pool_gradients():
    rng = np.random.default_rng(20)
    x = spaced_values(rng, (7, 5))
    err = fd_op_check(lambda t, x_: t.global_max_pool(x_), [x])
    assert err < EPS_STRUCTURED


def test_softmax_cross_entropy_gradients():
    rng = np.random.default_rng(21)
    logits = rng.standard_normal((6, 4))
    target = np.zeros((6, 4))
    target[np.arange(6), rng.integers(0, 4, size=6)] = 1.0

    tape = Tape()
    t = Tensor(logits)
    loss = tape.softmax_cross_entropy(t, target)
    tape.backward(loss, 1.0)

    def f(x):
        return float(Tape().softmax_cross_entropy(Tensor(x), target).data)

    assert max_rel_err(central_diff(f, logits), t.grad) < EPS_STRUCTURED


def test_chained_graph_gradients():
    # two-layer composite exercises fan-out accumulation through the tape
    rng = np.random.default_rng(22)
    x = rng.standard_normal((6, 3))
    w = rng.standard_normal((3, 3))

    def network(t, x_, w_):
        h = t.relu(t.matmul(x_, w_))
        return t.concat([h, t.matmul(h, t.transpose(w_))], axis=1)

    assert fd_op_check(network, [x + 0.3 * np.sign(x), w]) < EPS_STRUCTURED


# ---------------------------------------------------------------------------
# mechanics
# ---------------------------------------------------------------------------

def test_softmax_cross_entropy_closed_form():
    tape = Tape()
    loss = tape.softmax_cross_entropy(Tensor([[2.0, -1.0]]), np.array([[1.0, 0.0]]))
    assert float(loss.data) == pytest.approx(np.log1p(np.exp(-3.0)))


def test_softmax_cross_entropy_validation():
    tape = Tape()
    with pytest.raises(ValueError, match="one-hot"):
        tape.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.full((2, 3), 0.5))
    with pytest.raises(ValueError, match="target shape"):
        tape.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.eye(3))


def test_backward_seed_scales_gradients():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    grads = []
    for seed in (1.0, 0.25):
        tape = Tape()
        t = Tensor(x)
        loss = tape.softmax_cross_entropy(t, np.array([[1.0, 0.0], [0.0, 1.0]]))
        tape.backward(loss, seed)
        grads.append(t.grad.copy())
    assert np.allclose(grads[1], 0.25 * grads[0])


def test_relu_zero_input_has_zero_gradient():
    tape = Tape()
    x = Tensor(np.array([[0.0, -1.0, 2.0]]))
    out = tape.relu(x)
    out_loss = tape.matmul(out, Tensor(np.ones((3, 1))))
    tape.backward(out_loss, 1.0)
    assert np.array_equal(out.data, [[0.0, 0.0, 2.0]])
    assert np.array_equal(x.grad, [[0.0, 0.0, 1.0]])


def test_max_pool_tie_routes_to_lowest_row():
    tape = Tape()
    x = Tensor(np.array([[1.0], [1.0], [0.5]]))
    out = tape.cluster_max_pool(x, np.zeros(3, dtype=np.int64), 1)
    tape.backward(out, 1.0)
    assert np.array_equal(x.grad, [[1.0], [0.0], [0.0]])


def test_mask_validation_errors():
    tape = Tape()
    x = Tensor(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="mask length"):
        tape.cluster_max_pool(x, np.zeros(3, dtype=np.int64), 2)
    with pytest.raises(ValueError, match="out of range"):
        tape.cluster_mean_pool(x, np.array([0, 1, 2, 3]), 3)
    with pytest.raises(ValueError, match="empty cluster"):
        tape.cluster_max_pool(x, np.array([0, 0, 2, 2]), 3)
    with pytest.raises(ValueError, match="out of range"):
        tape.cluster_scatter(Tensor(np.zeros((2, 2))), np.array([0, 5]))


def test_parameter_gradients_accumulate_across_tapes():
    p = Parameter(np.ones((2, 2)))
    for _ in range(2):
        tape = Tape()
        out = tape.matmul(p.value, Tensor(np.eye(2)))
        tape.backward(out, 1.0)
    assert np.array_equal(p.grad, 2.0 * np.ones((2, 2)))
    p.zero_grad()
    assert np.array_equal(p.grad, np.zeros((2, 2)))


def test_adam_step_matches_reference():
    p = Parameter(np.array([1.0, -2.0]))
    g = np.array([0.5, -0.25])
    p.value.grad[...] = g
    adam_step(p, lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8)

    m = 0.1 * g
    v = 0.001 * g * g
    expect = np.array([1.0, -2.0]) - 1e-2 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    assert np.allclose(p.data, expect, atol=1e-15)
    assert p.step == 1
    assert np.array_equal(p.grad, np.zeros(2))

    # second step uses the running moments and t=2 bias correction
    p.value.grad[...] = g
    adam_step(p, lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8)
    m2 = 0.9 * m + 0.1 * g
    v2 = 0.999 * v + 0.001 * g * g
    expect2 = expect - 1e-2 * (m2 / (1 - 0.9**2)) / (np.sqrt(v2 / (1 - 0.999**2)) + 1e-8)
    assert np.allclose(p.data, expect2, atol=1e-15)


def test_debug_checks_flag_catches_nonfinite():
    set_debug_checks(True)
    try:
        tape = Tape()
        with pytest.raises(FloatingPointError):
            tape.scale(Tensor(np.array([[np.inf]])), 1.0)
    finally:
        set_debug_checks(False)
    # off by default: the same op passes silently
    out = Tape().scale(Tensor(np.array([[np.inf]])), 1.0)
    assert np.isinf(out.data).all()


def test_matmul_shape_validation():
    tape = Tape()
    with pytest.raises(ValueError, match="matmul"):
        tape.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ValueError, match="add"):
        tape.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ValueError, match="bias_add"):
        tape.bias_add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
    with pytest.raises(ValueError, match="concat"):
        tape.concat([])


# ---------------------------------------------------------------------------
# lean tape: needs-grad flags, record-free forwards, adopted gradients
# ---------------------------------------------------------------------------

def test_matmul_by_leading_rows_gradients():
    # a with fewer columns than b has rows multiplies b's leading rows
    rng = np.random.default_rng(30)
    a, b = rng.standard_normal((5, 3)), rng.standard_normal((4, 2))
    out = Tape().matmul(Tensor(a), Tensor(b))
    assert np.array_equal(out.data, a @ b[:3])
    err = fd_op_check(lambda t, a_, b_: t.matmul(a_, b_), [a, b])
    assert err < EPS_STRUCTURED


def test_row_slice_gradients():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((5, 3))
    assert np.array_equal(Tape().row_slice(Tensor(x), 2).data, x[2:])
    err = fd_op_check(lambda t, x_: t.row_slice(x_, 1, 4), [x])
    assert err < EPS_ELEMENTWISE


def test_constant_leaves_get_no_gradient_and_record_nothing():
    rng = np.random.default_rng(32)
    tape = Tape()
    const = Tensor(rng.standard_normal((4, 3)), needs_grad=False)
    w = Tensor(rng.standard_normal((3, 2)))
    pooled = tape.cluster_max_pool(const, np.array([0, 1, 0, 1]), 2)
    assert not pooled.needs_grad and tape._records == []
    out = tape.matmul(const, w)
    tape.backward(tape.softmax_cross_entropy(out, np.eye(2)[[0, 1, 1, 0]]))
    assert const.grad is None and pooled.grad is None
    assert w.grad.shape == (3, 2)
    assert len(tape._records) == 2  # matmul and the loss


def test_record_free_tape_matches_recording_forward():
    rng = np.random.default_rng(33)
    x, w = rng.standard_normal((6, 4)), rng.standard_normal((4, 3))
    mask = small_mask(rng, 6, 2)

    def run(tape):
        h = tape.relu(tape.matmul(Tensor(x), Tensor(w)))
        return tape.cluster_max_pool(h, mask, 2), tape.cluster_mean_pool(h, mask, 2)

    free = Tape(record=False)
    outs = run(free)
    assert free._records == [] and not any(o.needs_grad for o in outs)
    for got, want in zip(outs, run(Tape())):
        assert np.array_equal(got.data, want.data)
    with pytest.raises(RuntimeError, match="records nothing"):
        free.backward(outs[0])


def test_adopted_gradients_never_alias():
    # add hands one gradient to both inputs: the second must get a copy, or
    # the later fan-out into a would leak into b's gradient
    rng = np.random.default_rng(34)
    a, b = Tensor(rng.standard_normal((3, 2))), Tensor(rng.standard_normal((3, 2)))
    tape = Tape()
    s = tape.add(a, b)
    out = tape.concat([s, a], axis=1)
    tape.backward(out)
    assert np.array_equal(a.grad, np.full((3, 2), 2.0))
    assert np.array_equal(b.grad, np.ones((3, 2)))
    tape = Tape()
    c = Tensor(np.ones((2, 2)))
    tape.backward(tape.add(c, c))  # both operands the same tensor
    assert np.array_equal(c.grad, np.full((2, 2), 2.0))


def test_max_pool_ties_route_to_lowest_row_per_cluster():
    # shuffled rows: the sorted segment layout must still pick the lowest
    # original index among equal maxima, in every cluster and column
    mask = np.array([1, 0, 1, 0, 1, 0])
    x = np.array([[0.5, 2.0], [3.0, 1.0], [0.5, 2.0], [3.0, 1.0], [0.1, 2.0], [1.0, 1.0]])
    tape = Tape()
    t = Tensor(x)
    out = tape.cluster_max_pool(t, mask, 2)
    tape.backward(tape.matmul(Tensor(np.ones((1, 2))), out))
    expect = np.zeros_like(x)
    expect[1, :] = 1.0  # cluster 0: rows 1, 3, 5 -> lowest tie row 1 in both columns
    expect[0, :] = 1.0  # cluster 1: rows 0, 2, 4 -> lowest tie row 0 in both columns
    assert np.array_equal(out.data, [[3.0, 1.0], [0.5, 2.0]])
    assert np.array_equal(t.grad, expect)


def test_cluster_scatter_gradient_skips_unused_clusters():
    tape = Tape()
    cx = Tensor(np.arange(6.0).reshape(3, 2))
    out = tape.cluster_scatter(cx, np.array([2, 0, 2]))
    tape.backward(tape.matmul(Tensor(np.ones((1, 3))), out))
    assert np.array_equal(cx.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])


def test_adam_step_bit_identical_to_textbook_form():
    rng = np.random.default_rng(35)
    start = rng.standard_normal((4, 3))
    p = Parameter(start)
    m = np.zeros_like(start)
    v = np.zeros_like(start)
    w = start.copy()
    lr, b1, b2, eps = 7e-4, 0.9, 0.999, 1e-8
    for step in range(1, 6):
        g = rng.standard_normal((4, 3))
        p.value.grad[...] = g
        adam_step(p, lr, b1, b2, eps)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        w -= lr * (m / (1.0 - b1**step)) / (np.sqrt(v / (1.0 - b2**step)) + eps)
        assert np.array_equal(p.m, m) and np.array_equal(p.v, v)
        assert np.array_equal(p.data, w)

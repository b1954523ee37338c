"""Finite-difference checks and bookkeeping tests for the tape engine."""

import numpy as np
import pytest

from meshpool.autodiff import (ADAM_CHUNK, GRAD_CHUNK, ParameterSet, StepMemory, Tape, Tensor,
                               _Segments, adam_step)

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


def test_concat_gradients():
    rng = np.random.default_rng(16)
    parts = [rng.standard_normal((4, d)) for d in (2, 3, 1)]
    err = fd_op_check(lambda t, *ps: t.concat(list(ps)), parts)
    assert err < EPS_ELEMENTWISE


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
    labels = rng.integers(0, 4, size=6)

    tape = Tape()
    t = Tensor(logits)
    loss = tape.softmax_cross_entropy(t, labels)
    tape.backward(loss, 1.0)

    def f(x):
        return float(Tape().softmax_cross_entropy(Tensor(x), labels).data)

    assert max_rel_err(central_diff(f, logits), t.grad) < EPS_STRUCTURED


def test_chained_graph_gradients():
    # two-layer composite exercises fan-out accumulation through the tape
    rng = np.random.default_rng(22)
    x = rng.standard_normal((6, 3))
    w = rng.standard_normal((3, 3))

    def network(t, x_, w_):
        h = t.relu(t.matmul(x_, w_))
        return t.concat([h, t.matmul(h, t.transpose(w_))])

    assert fd_op_check(network, [x + 0.3 * np.sign(x), w]) < EPS_STRUCTURED


# ---------------------------------------------------------------------------
# mechanics
# ---------------------------------------------------------------------------

def test_softmax_cross_entropy_closed_form():
    tape = Tape()
    loss = tape.softmax_cross_entropy(Tensor([[2.0, -1.0]]), np.array([0]))
    assert float(loss.data) == pytest.approx(np.log1p(np.exp(-3.0)))


def test_softmax_cross_entropy_validation():
    bad = [np.array([0, 3]), np.array([-1, 0]),          # out of [0, C)
           np.array([0, 1, 2]), np.array([[0], [1]]),    # not one id per row
           np.array([0.0, 1.0]), np.array([True, False]),  # not integer ids
           np.eye(2, 3)]                                 # a one-hot target
    for labels in bad:
        with pytest.raises(ValueError, match=r"labels must be 2 class ids in \[0, 3\)"):
            Tape().softmax_cross_entropy(Tensor(np.zeros((2, 3))), labels)


def test_backward_seed_scales_gradients():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    grads = []
    for seed in (1.0, 0.25):
        tape = Tape()
        t = Tensor(x)
        loss = tape.softmax_cross_entropy(t, np.array([0, 1]))
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


def _two_params(w, b):
    """A set of a matrix ``W`` and a vector ``b`` with the given values."""
    params = ParameterSet({"W": np.shape(w), "b": np.shape(b)})
    params["W"].data[...] = w
    params["b"].data[...] = b
    return params


def test_parameter_gradients_accumulate_across_tapes():
    params = _two_params(np.ones((2, 3)), np.zeros(3))
    w, b = params["W"], params["b"]
    for _ in range(2):
        tape = Tape()
        out = tape.bias_add(tape.matmul(Tensor(np.eye(2)), w.value), b.value)
        tape.backward(out, 1.0)
    assert np.array_equal(w.grad, 2.0 * np.ones((2, 3)))
    assert np.array_equal(b.grad, 4.0 * np.ones(3))
    # the gradients are views into the set's one flat gradient
    assert np.array_equal(params.grad, np.r_[2.0 * np.ones(6), 4.0 * np.ones(3)])
    w.grad.fill(0.0)
    assert np.array_equal(params.grad, np.r_[np.zeros(6), 4.0 * np.ones(3)])


def test_adam_step_matches_reference():
    params = _two_params([[1.0, -2.0]], [3.0])
    start = np.array([1.0, -2.0, 3.0])
    g = np.array([0.5, -0.25, 2.0])
    params.grad[...] = g
    adam_step(params, lr=1e-2)

    m = 0.1 * g
    v = 0.001 * g * g
    expect = start - 1e-2 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    assert np.allclose(params.data, expect, atol=1e-15)
    assert np.array_equal(params["W"].data, params.data[:2].reshape(1, 2))
    assert params.step == 1
    assert np.array_equal(params.grad, np.zeros(3))

    # second step uses the running moments and t=2 bias correction
    params["W"].grad[...] = g[:2]
    params["b"].grad[...] = g[2:]
    adam_step(params, lr=1e-2)
    m2 = 0.9 * m + 0.1 * g
    v2 = 0.999 * v + 0.001 * g * g
    expect2 = expect - 1e-2 * (m2 / (1 - 0.9**2)) / (np.sqrt(v2 / (1 - 0.999**2)) + 1e-8)
    assert np.allclose(params.data, expect2, atol=1e-15)
    assert params.step == 2


def test_a_mask_changed_in_place_is_read_afresh():
    # a tape keeps no segments between ops, so the second pool sees the
    # mask as it is now, as a fresh tape does
    x = Tensor(np.arange(12.0).reshape(6, 2))
    mask = np.array([0, 0, 0, 1, 1, 1])
    tape = Tape()
    assert np.array_equal(tape.cluster_max_pool(x, mask, 2).data, [[4, 5], [10, 11]])
    mask[:] = [1, 1, 1, 0, 0, 0]
    again = tape.cluster_max_pool(x, mask, 2).data
    assert np.array_equal(again, Tape().cluster_max_pool(x, mask, 2).data)
    assert np.array_equal(again, [[10, 11], [4, 5]])


def test_a_mask_changed_in_place_after_the_forward_keeps_its_gradient():
    # backward routes the gradient through the mask the forward saw
    mask = np.array([0, 1, 0, 1, 1, 1])

    def first_column_grad(change):
        x, tape = Tensor(np.arange(12.0).reshape(6, 2)), Tape()
        out = tape.cluster_mean_pool(x, mask, 2)
        change()
        tape.backward(out)
        return x.grad[:, 0]

    kept = first_column_grad(lambda: mask.__setitem__(slice(None), [1, 0, 1, 0, 0, 0]))
    assert np.array_equal(kept, [0.5, 0.25, 0.5, 0.25, 0.25, 0.25])
    assert np.array_equal(kept, first_column_grad(lambda: None))


def test_matmul_shape_validation():
    tape = Tape()
    with pytest.raises(ValueError, match="matmul"):
        tape.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ValueError, match="matmul"):  # no leading-rows product
        tape.matmul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ValueError, match="dense"):
        tape.dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)),
                   True)
    with pytest.raises(ValueError, match="dense"):
        tape.dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(3)),
                   True, Tensor(np.zeros((1, 1))), np.zeros(2))
    with pytest.raises(ValueError, match="add"):
        tape.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ValueError, match="bias_add"):
        tape.bias_add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
    with pytest.raises(ValueError, match="concat"):
        tape.concat([])


# ---------------------------------------------------------------------------
# lean tape: adopted gradients
# ---------------------------------------------------------------------------

def test_adopted_gradients_never_alias():
    # add hands one gradient to both inputs: the second must get a copy, or
    # the later fan-out into a would leak into b's gradient
    rng = np.random.default_rng(34)
    a, b = Tensor(rng.standard_normal((3, 2))), Tensor(rng.standard_normal((3, 2)))
    tape = Tape()
    s = tape.add(a, b)
    out = tape.concat([s, a])
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


def _interleaved_and_contiguous(seed, n=60, p=7, d=5):
    """The same rows twice: interleaved (a shuffled mask) and contiguous
    (stably sorted by cluster, so each cluster keeps its row order), plus
    that ``order``. Values come from three levels, so most maxima tie."""
    rng = np.random.default_rng(seed)
    mask = rng.permutation(np.concatenate([np.arange(p), rng.integers(0, p, n - p)]))
    x = rng.integers(0, 3, (n, d)).astype(np.float64)
    order = np.argsort(mask, kind="stable")
    return (x, mask), (x[order], mask[order]), order


def _backward_through(tape, out, r, c):
    """Backward from the scalar r^T out c, so d loss / d out = outer(r, c):
    a different weight per (row, column)."""
    tape.backward(tape.matmul(tape.matmul(Tensor(r), out), Tensor(c)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_contiguous_segments_match_the_gathered_layout(seed):
    # a non-decreasing mask reduces slices of the rows themselves; the
    # results are those of the gathered path on the same segment rows
    (xi, mi), (xc, mc), order = _interleaved_and_contiguous(seed)
    n, p, d = len(mi), int(mi.max()) + 1, xi.shape[1]
    assert _Segments(mc, n, p).order is None and _Segments(mi, n, p).order is not None
    rng = np.random.default_rng(seed + 10)
    a, b = rng.standard_normal((1, p)), rng.standard_normal((d, 1))
    pooled, grads = [], []
    for x, mask in ((xi, mi), (xc, mc)):
        tape = Tape()
        t = Tensor(x)
        out = tape.cluster_max_pool(t, mask, p)
        _backward_through(tape, out, a, b)
        pooled.append(out.data)
        grads.append(t.grad)
    assert np.array_equal(pooled[0], pooled[1])
    assert np.array_equal(grads[0][order], grads[1])
    # sums of real rows, whose rounding depends on the order they are added in
    xr, r = rng.standard_normal((n, d)), rng.standard_normal((1, n))
    layouts = ((xr, mi, r), (xr[order], mc, r[:, order]))
    means, mean_grads = [], []
    for x, mask, _ in layouts:
        tape = Tape()
        t = Tensor(x)
        out = tape.cluster_mean_pool(t, mask, p)
        _backward_through(tape, out, a, b)
        means.append(out.data)
        mean_grads.append(t.grad)
    assert np.array_equal(means[0], means[1])
    assert np.array_equal(mean_grads[0][order], mean_grads[1])
    for ids in (p, p + 1):  # every id used, and one id without rows
        sums = []
        for x, mask, weights in layouts:
            tape = Tape()
            cx = Tensor(np.ones((ids, d)))
            _backward_through(tape, tape.cluster_scatter(cx, mask), weights, b)
            sums.append(cx.grad)
        assert np.array_equal(sums[0], sums[1]) and sums[1].shape == (ids, d)
        assert not sums[1][p:].any()


def _check_adam_against_textbook_form(shape_w, shape_b, steps, seed):
    """``adam_step`` on a two-parameter set against the textbook update
    written per parameter, compared with ``np.array_equal`` after each step."""
    rng = np.random.default_rng(seed)
    start = {"W": rng.standard_normal(shape_w), "b": rng.standard_normal(shape_b)}
    params = _two_params(start["W"], start["b"])
    m = {name: np.zeros_like(a) for name, a in start.items()}
    v = {name: np.zeros_like(a) for name, a in start.items()}
    w = {name: a.copy() for name, a in start.items()}
    lr, b1, b2, eps = 7e-4, 0.9, 0.999, 1e-8
    for step in range(1, steps + 1):
        for name in start:
            g = rng.standard_normal(start[name].shape)
            params[name].grad[...] = g
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            w[name] -= (lr * (m[name] / (1.0 - b1**step))
                        / (np.sqrt(v[name] / (1.0 - b2**step)) + eps))
        adam_step(params, lr)
        assert np.array_equal(params.m, np.r_[m["W"].ravel(), m["b"]])
        assert np.array_equal(params.v, np.r_[v["W"].ravel(), v["b"]])
        assert all(np.array_equal(params[name].data, w[name]) for name in start)
        assert not params.grad.any()


def test_adam_step_bit_identical_to_textbook_form():
    _check_adam_against_textbook_form((4, 3), 5, steps=5, seed=35)


def test_chunked_adam_step_bit_identical_to_textbook_form():
    # two full chunks and a short last one, the parameter boundary inside a chunk
    shape_w, shape_b = (3, ADAM_CHUNK // 2 + 7), ADAM_CHUNK // 2 - 3
    size = np.prod(shape_w) + shape_b
    assert size > 2 * ADAM_CHUNK and size % ADAM_CHUNK
    _check_adam_against_textbook_form(shape_w, shape_b, steps=3, seed=36)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_max_pool_backward_adds_into_an_existing_gradient(seed):
    # x already holds a gradient when the pool's backward runs: the result
    # is that gradient plus the pool's zeros-then-assign gradient, exactly,
    # with ties (three distinct values per column) routed as on their own
    for x, mask in _interleaved_and_contiguous(seed)[:2]:
        n, p, d = len(mask), int(mask.max()) + 1, x.shape[1]
        rng = np.random.default_rng(seed + 20)
        a, b = rng.standard_normal((1, p)), rng.standard_normal((d, 1))
        r, c = rng.standard_normal((1, n)), rng.standard_normal((d, 1))
        alone = Tensor(x)
        tape = Tape()
        _backward_through(tape, tape.cluster_max_pool(alone, mask, p), a, b)
        earlier = Tensor(x)
        tape = Tape()
        _backward_through(tape, tape.scale(earlier, 1.0), r, c)
        both = Tensor(x)
        tape = Tape()
        pooled = tape.cluster_max_pool(both, mask, p)
        scaled = tape.scale(both, 1.0)  # recorded later, so its backward runs first
        loss = tape.add(tape.matmul(tape.matmul(Tensor(a), pooled), Tensor(b)),
                        tape.matmul(tape.matmul(Tensor(r), scaled), Tensor(c)))
        tape.backward(loss)
        assert (alone.grad != 0.0).sum() == p * d  # one routed cell per (cluster, column)
        assert np.array_equal(both.grad, earlier.grad + alone.grad)


# ---------------------------------------------------------------------------
# fused dense layer
# ---------------------------------------------------------------------------

def dense_inputs(seed, split):
    """x, W, b and (split only) the cluster rows and mask of one layer."""
    rng = np.random.default_rng(seed)
    x, cluster = rng.standard_normal((9, 4)), rng.standard_normal((3, 2))
    w = rng.standard_normal((4 + 2 * split, 5))
    b = rng.standard_normal(5)
    return x, w, b, (cluster, small_mask(rng, 9, 3)) if split else None


@pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
@pytest.mark.parametrize("split", [False, True], ids=["tensor", "split"])
def test_dense_gradients(split, relu):
    x, w, b, part = dense_inputs(40, split)
    if part is None:
        err = fd_op_check(lambda t, x_, w_, b_: t.dense(x_, w_, b_, relu), [x, w, b])
    else:
        cluster, mask = part
        err = fd_op_check(lambda t, x_, c_, w_, b_: t.dense(x_, w_, b_, relu, c_, mask),
                          [x, cluster, w, b])
    assert err < EPS_STRUCTURED


def unfused_dense(tape, x, w_parts, b, relu, cluster=None, mask=None):
    """The layer from single ops: matmul, bias_add, relu and, for a split
    input, its cluster part at cluster rank put back by cluster_scatter
    and add. ``w_parts`` holds W, or W's leading and trailing rows."""
    if cluster is None:
        h = tape.bias_add(tape.matmul(x, w_parts[0]), b)
    else:
        per_cluster = tape.bias_add(tape.matmul(cluster, w_parts[1]), b)
        h = tape.add(tape.matmul(x, w_parts[0]), tape.cluster_scatter(per_cluster, mask))
    return tape.relu(h) if relu else h


@pytest.mark.parametrize("memory", [False, True], ids=["fresh", "memory"])
@pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
@pytest.mark.parametrize("split", [False, True], ids=["tensor", "split"])
def test_dense_bit_identical_to_unfused_ops(split, relu, memory):
    x, w, b, part = dense_inputs(41, split)
    cluster, mask = part or (None, None)
    k = x.shape[1]
    rng = np.random.default_rng(42)
    labels = rng.integers(0, 5, size=len(x))

    def run(fused):
        tape = Tape()
        leaves = {"x": Tensor(x), "b": Tensor(b)}
        if cluster is not None:
            leaves["cluster"] = Tensor(cluster)
        c = leaves.get("cluster")
        if fused and memory:
            # a first step sizes the memory, so this one writes into its array
            step_memory = StepMemory()
            Tape(memory=step_memory).dense(Tensor(x), Tensor(w), Tensor(b), relu,
                                           None if c is None else Tensor(cluster), mask)
            tape = Tape(memory=step_memory)
        if fused:
            leaves["w"] = Tensor(w)
            out = tape.dense(leaves["x"], leaves["w"], leaves["b"], relu, c, mask)
            assert out.data.flags.owndata == (not memory)
        else:
            w_parts = [Tensor(w)] if c is None else [Tensor(w[:k]), Tensor(w[k:])]
            out = unfused_dense(tape, leaves["x"], w_parts, leaves["b"], relu, c, mask)
        tape.backward(tape.softmax_cross_entropy(out, labels))
        grads = {name: t.grad for name, t in leaves.items() if name != "w"}
        grads["w"] = (leaves["w"].grad if fused
                      else np.concatenate([p.grad for p in w_parts], axis=0))
        return out.data, grads

    (got, got_grads), (want, want_grads) = run(True), run(False)
    assert np.array_equal(got, want)
    assert set(got_grads) == set(want_grads)
    for name in want_grads:
        assert np.array_equal(got_grads[name], want_grads[name]), name
    if cluster is not None:
        # the materialized N-row input sums in another order: equal to rounding
        tape = Tape()
        dense_rows = tape.concat([Tensor(x), tape.cluster_scatter(Tensor(cluster), mask)])
        ref = unfused_dense(tape, dense_rows, [Tensor(w)], Tensor(b), relu)
        assert max_rel_err(got, ref.data) < 1e-12


def test_weight_gradients_sum_fixed_row_chunks():
    """Over more than GRAD_CHUNK rows, matmul's and dense's weight gradients
    are the row-ordered sum of per-chunk products; up to it, one product."""
    rng = np.random.default_rng(45)
    x, w = rng.standard_normal((2 * GRAD_CHUNK + 88, 3)), rng.standard_normal((3, 2))
    ones = np.ones((len(x), 2))  # the gradient backward seeds on the output
    chunks = [slice(0, GRAD_CHUNK), slice(GRAD_CHUNK, 2 * GRAD_CHUNK),
              slice(2 * GRAD_CHUNK, None)]
    want = x[chunks[0]].T @ ones[chunks[0]]
    for rows in chunks[1:]:
        want += x[rows].T @ ones[rows]
    for rows, expected in ((slice(None), want),
                           (chunks[0], x[chunks[0]].T @ ones[chunks[0]])):
        for op in (lambda t, wt: t.matmul(Tensor(x[rows]), wt),
                   lambda t, wt: t.dense(Tensor(x[rows]), wt, Tensor(np.zeros(2)), False)):
            tape, wt = Tape(), Tensor(w)
            tape.backward(op(tape, wt))
            assert np.array_equal(wt.grad, expected)


def test_a_step_memory_hands_its_blocks_to_the_next_tape():
    """A block is a view of the memory's array, reused by the next tape; a
    step past the array gets arrays of its own, and the next tape has room."""
    x, w, b, _ = dense_inputs(46, False)
    w2, b2 = np.random.default_rng(47).standard_normal((5, 3)), np.zeros(3)
    memory = StepMemory()

    def step(rows, tape):
        h = tape.dense(Tensor(rows), Tensor(w), Tensor(b), True)
        return h.data, tape.dense(h, Tensor(w2), Tensor(b2), False).data

    def in_memory(rows):
        got = step(rows, Tape(memory=memory))
        want = step(rows, Tape())
        assert all(np.array_equal(g, v) for g, v in zip(got, want))
        return got, [not g.flags.owndata for g in got]  # a block is a view

    first, blocks = in_memory(x)
    assert blocks == [False, False]  # an empty memory: every output falls back
    second, blocks = in_memory(x)
    assert blocks == [True, True]
    third, _ = in_memory(x)
    assert all(np.shares_memory(s, t) for s, t in zip(second, third))
    assert not any(np.shares_memory(s, t) for s, t in zip(first, third))
    _, blocks = in_memory(np.vstack([x, x + 1.0]))
    assert blocks == [False, False]  # past the end of the array
    _, blocks = in_memory(np.vstack([x, x - 1.0]))
    assert blocks == [True, True]  # the array grew to the larger step


def test_later_tapes_leave_a_leaf_gradient_alone():
    """A leaf's dense input gradient is its own array: a later tape's step
    on another leaf neither overwrites nor shares it."""
    x, w, b, _ = dense_inputs(44, False)
    grads = []
    for step in range(2):
        leaf = Tensor(x + step)
        tape = Tape()
        out = tape.dense(leaf, Tensor(w), Tensor(b), True)
        tape.backward(tape.softmax_cross_entropy(out, np.arange(9) % 5))
        grads.append((leaf.grad, leaf.grad.copy()))
    (first, kept), (second, _) = grads
    assert np.array_equal(first, kept)
    assert not np.shares_memory(first, second)

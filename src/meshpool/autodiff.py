"""Minimal reverse-mode autodiff over dense float64 arrays.

Only the operations the pooling networks need: matmul, row slicing, bias
add, ReLU, transpose, concat, cluster max/mean pooling, scatter, global
pooling and a log-sum-exp-stable softmax cross-entropy. Forward results are
recorded on an explicit tape; ``Tape.backward`` replays the records in exact
reverse execution order and accumulates gradients additively at fan-out
points. All reductions have a fixed order, so identical inputs give
bit-identical outputs.

The tape does only the work a result needs:

- Every tensor carries a ``needs_grad`` flag. Leaves set it themselves
  (the model's input features and category one-hot do not need a
  gradient); an op's output needs one only when one of its inputs does and
  the tape records. An op whose inputs all lack gradients records no
  backward closure, and backward never computes a gradient for a tensor
  that does not need one.
- ``Tape(record=False)`` runs record-free forwards for inference: no op
  records a closure, and state that only backward uses (ReLU masks, max
  pool argmax rows, softmax probabilities) is never computed.
- The first gradient that reaches a tensor is adopted as its gradient
  array instead of being added to zeros. An op copies a gradient only
  where adopting it would make two tensors share one gradient array.
  Backward hands each op output's gradient to its closure and drops it
  from the output, so a closure may reuse that array (ReLU masks it in
  place) and after backward only tensors the tape did not produce (leaves
  and parameters) hold gradients.
- Cluster pooling and the scatter backward reduce contiguous segments of
  the rows sorted stably by cluster id, so each segment lists its vertices
  in ascending index order.
"""

from __future__ import annotations

import numpy as np

_DEBUG_CHECKS = False


def set_debug_checks(enabled: bool) -> None:
    """When on, every forward op asserts its output is finite."""
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(enabled)


class Tensor:
    """A dense float64 array plus a gradient slot filled during backward.

    ``needs_grad`` marks a leaf whose gradient someone reads; pass False
    for constant inputs so backward skips their gradient products.
    """

    __slots__ = ("data", "grad", "needs_grad")

    def __init__(self, data, needs_grad: bool = True):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.needs_grad = bool(needs_grad)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Parameter:
    """Trainable tensor with persistent gradient and Adam state.

    The gradient buffer survives across tapes, so backward passes for
    several meshes accumulate into it until ``adam_step`` consumes and
    zeroes it.
    """

    __slots__ = ("value", "m", "v", "step")

    def __init__(self, data):
        self.value = Tensor(np.array(data, dtype=np.float64))
        self.value.grad = np.zeros_like(self.value.data)
        self.m = np.zeros_like(self.value.data)
        self.v = np.zeros_like(self.value.data)
        self.step = 0

    @property
    def data(self) -> np.ndarray:
        return self.value.data

    @property
    def grad(self) -> np.ndarray:
        return self.value.grad

    def zero_grad(self) -> None:
        self.value.grad[...] = 0.0


def adam_step(param: Parameter, lr=7e-4, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    """One Adam update with bias correction; zeroes the gradient afterwards.

    Updates the moments and the value in place, with the same operations
    in the same order as m = beta1 m + (1 - beta1) g,
    v = beta2 v + (1 - beta2) g g, value -= lr m_hat / (sqrt(v_hat) + eps),
    so the results are bit-identical to that textbook form.
    """
    param.step += 1
    g = param.value.grad
    m, v = param.m, param.v
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    gg = (1.0 - beta2) * g
    gg *= g
    v += gg
    update = m / (1.0 - beta1**param.step)
    update *= lr
    denom = v / (1.0 - beta2**param.step)
    np.sqrt(denom, out=denom)
    denom += eps
    update /= denom
    param.value.data -= update
    param.zero_grad()


def _accumulate(t: Tensor, g: np.ndarray, rows=None) -> None:
    """Add ``g`` into ``t.grad`` (into ``t.grad[rows]`` when rows is a slice).

    A tensor without a gradient yet adopts ``g`` itself, so callers must
    not hand the same array to two tensors.
    """
    if not t.needs_grad:
        return
    if rows is not None:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad[rows] += g
    elif t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _check(out: np.ndarray) -> np.ndarray:
    if _DEBUG_CHECKS and not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite value produced by a forward op")
    return out


class Tape:
    """Ordered record of executed ops; one backward pass per tape.

    With ``record=False`` the tape only computes forwards (inference) and
    ``backward`` is an error.
    """

    def __init__(self, record: bool = True):
        self.record = bool(record)
        self._records = []  # (output tensor, backward closure)

    def _emit(self, data, backward, *inputs) -> Tensor:
        tracked = self.record and any(t.needs_grad for t in inputs)
        out = Tensor(_check(data), needs_grad=tracked)
        if tracked:
            self._records.append((out, backward))
        return out

    def backward(self, loss: Tensor, seed: float = 1.0) -> None:
        """Accumulate d(seed * loss)/dx into every leaf that needs it.

        Gradients of the tape's own outputs are consumed on the way and
        read None afterwards.
        """
        if not self.record:
            raise RuntimeError("backward on a tape that records nothing")
        loss.grad = np.full_like(loss.data, float(seed))
        for out, fn in reversed(self._records):
            if out.grad is not None:
                g, out.grad = out.grad, None
                fn(g)

    # ---- ops ----------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """a @ b. When a has fewer columns than b has rows, a multiplies the
        leading rows of b: the per-vertex part of a weight whose trailing
        rows act on cluster features (see ``row_slice``)."""
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] > b.data.shape[0]:
            raise ValueError(f"matmul shapes {a.data.shape} x {b.data.shape}")
        k = a.data.shape[1]
        rows = None if k == b.data.shape[0] else slice(0, k)
        bk = b.data if rows is None else b.data[rows]

        def backward(g):
            if a.needs_grad:
                _accumulate(a, g @ bk.T)
            if b.needs_grad:
                _accumulate(b, a.data.T @ g, rows)

        return self._emit(a.data @ bk, backward, a, b)

    def row_slice(self, x: Tensor, start: int, stop: int = None) -> Tensor:
        """Rows start:stop of x (a view; the gradient lands in those rows)."""
        rows = slice(start, stop)

        def backward(g):
            _accumulate(x, g, rows)

        return self._emit(x.data[rows], backward, x)

    def transpose(self, x: Tensor) -> Tensor:
        def backward(g):
            _accumulate(x, g.T)

        return self._emit(x.data.T.copy(), backward, x)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ValueError(f"add shapes {a.data.shape} vs {b.data.shape}")

        def backward(g):
            _accumulate(a, g)
            _accumulate(b, g.copy() if a.grad is g else g)

        return self._emit(a.data + b.data, backward, a, b)

    def scale(self, x: Tensor, s: float) -> Tensor:
        s = float(s)

        def backward(g):
            _accumulate(x, g * s)

        return self._emit(x.data * s, backward, x)

    def bias_add(self, x: Tensor, b: Tensor) -> Tensor:
        if b.data.ndim != 1 or x.data.ndim != 2 or x.data.shape[1] != b.data.shape[0]:
            raise ValueError(f"bias_add shapes {x.data.shape} + {b.data.shape}")

        def backward(g):
            _accumulate(x, g)
            if b.needs_grad:
                _accumulate(b, g.sum(axis=0))

        return self._emit(x.data + b.data[None, :], backward, x, b)

    def relu(self, x: Tensor) -> Tensor:
        def backward(g):
            np.multiply(g, x.data > 0.0, out=g)  # subgradient at 0 is 0
            _accumulate(x, g)

        return self._emit(np.maximum(x.data, 0.0), backward, x)

    def concat(self, parts, axis: int = 1) -> Tensor:
        parts = list(parts)
        if not parts:
            raise ValueError("concat of nothing")
        sizes = [p.data.shape[axis] for p in parts]
        splits = np.cumsum(sizes)[:-1]

        def backward(g):
            for p, piece in zip(parts, np.split(g, splits, axis=axis)):
                _accumulate(p, piece)

        return self._emit(np.concatenate([p.data for p in parts], axis=axis),
                          backward, *parts)

    def cluster_max_pool(self, x: Tensor, mask: np.ndarray, p: int) -> Tensor:
        """Columnwise max over each cluster's rows.

        The gradient routes to the argmax row of each (cluster, column);
        ties break to the lowest vertex index.
        """
        seg = _Segments(mask, x.data.shape[0], p)
        xs = seg.sort(x.data)
        out = seg.reduce(np.maximum, xs)

        def backward(g):
            # a segment lists its rows in ascending vertex order, so the
            # lowest-index argmax is the first hit; keying the sorted rows by
            # n - position makes that first hit the segment max
            n, d = xs.shape
            hit = xs == np.repeat(out, seg.counts, axis=0)
            first = n - seg.reduce(np.maximum, hit * (n - np.arange(n))[:, None])
            gx = np.zeros_like(x.data)
            gx[seg.order[first], np.arange(d)] = g
            _accumulate(x, gx)

        return self._emit(out, backward, x)

    def cluster_mean_pool(self, x: Tensor, mask: np.ndarray, p: int) -> Tensor:
        seg = _Segments(mask, x.data.shape[0], p)
        counts = seg.counts.astype(np.float64)[:, None]
        out = seg.reduce(np.add, seg.sort(x.data))
        out /= counts

        def backward(g):
            _accumulate(x, (g / counts)[seg.mask])

        return self._emit(out, backward, x)

    def cluster_scatter(self, cx: Tensor, mask: np.ndarray) -> Tensor:
        """Row i of the output is the cluster feature of mask[i]."""
        p = cx.data.shape[0]
        mask = np.asarray(mask, dtype=np.int64)
        if mask.ndim != 1:
            raise ValueError("mask must be 1-D")
        if len(mask) and (mask.min() < 0 or mask.max() >= p):
            raise ValueError("mask id out of range")

        def backward(g):
            seg = _Segments(mask, len(mask), p, allow_empty=True)
            filled = seg.counts > 0
            if filled.all():
                gc = seg.reduce(np.add, seg.sort(g))
            else:  # a cluster no row points to gets a zero gradient
                gc = np.zeros_like(cx.data)
                if filled.any():
                    gc[filled] = np.add.reduceat(seg.sort(g), seg.starts[filled], axis=0)
            _accumulate(cx, gc)

        return self._emit(cx.data[mask], backward, cx)

    def global_max_pool(self, x: Tensor) -> Tensor:
        return self.cluster_max_pool(x, np.zeros(x.data.shape[0], dtype=np.int64), 1)

    def softmax_cross_entropy(self, logits: Tensor, target_onehot) -> Tensor:
        """Mean over rows of the cross entropy between softmax(logits) and
        the one-hot targets; numerically stable via the log-sum-exp shift."""
        y = np.asarray(target_onehot, dtype=np.float64)
        z = logits.data
        if y.shape != z.shape:
            raise ValueError(f"target shape {y.shape} vs logits {z.shape}")
        rows = len(z)
        row_sums = y.sum(axis=1)
        if not (np.all((y == 0.0) | (y == 1.0)) and np.all(row_sums == 1.0)):
            raise ValueError("targets must be one-hot rows")
        shifted = z - z.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - lse
        loss = -(y * log_probs).sum() / rows

        def backward(g):
            _accumulate(logits, (g / rows) * (np.exp(log_probs) - y))

        return self._emit(loss, backward, logits)


class _Segments:
    """Rows grouped by cluster id through a stable argsort.

    In sorted order cluster j owns the contiguous rows
    starts[j] : starts[j] + counts[j], listed in ascending row index, so a
    segment reduction has a fixed order and "first" means lowest index.
    Validates the mask: one id per row, in [0, p), and (unless
    ``allow_empty``) no cluster without rows.
    """

    __slots__ = ("mask", "order", "counts", "starts")

    def __init__(self, mask, n: int, p: int, allow_empty: bool = False):
        mask = np.asarray(mask, dtype=np.int64)
        if mask.shape != (n,):
            raise ValueError(f"mask length {mask.shape} does not match {n} rows")
        if n and (mask.min() < 0 or mask.max() >= p):
            raise ValueError("mask id out of range")
        self.mask = mask
        self.counts = np.bincount(mask, minlength=p)
        if not allow_empty and np.any(self.counts == 0):
            raise ValueError("empty cluster id in mask")
        self.order = np.argsort(mask, kind="stable")
        self.starts = np.zeros(p, dtype=np.int64)
        np.cumsum(self.counts[:-1], out=self.starts[1:])

    def sort(self, rows: np.ndarray) -> np.ndarray:
        """Rows in segment order (one cluster: already in order)."""
        return rows if len(self.counts) == 1 else rows[self.order]

    def reduce(self, ufunc, sorted_rows: np.ndarray) -> np.ndarray:
        """ufunc over each cluster's sorted rows; every cluster non-empty."""
        if len(self.counts) == 1:
            return ufunc.reduce(sorted_rows, axis=0, keepdims=True)
        return ufunc.reduceat(sorted_rows, self.starts, axis=0)

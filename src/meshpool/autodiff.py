"""Minimal reverse-mode autodiff over dense float64 arrays.

The pooling networks run a fused dense layer, matmul, transpose, concat,
cluster max pooling, scatter, global max pooling and a log-sum-exp-stable
softmax cross-entropy; ``add``, ``scale``, ``bias_add``, ``relu`` and
``cluster_mean_pool`` stay for the benchmark tracer and the tests only,
until ROADMAP item 1 (the benchmark change that teaches
``perfbench/tracer.py`` to time ``dense``). Forward results are recorded on
an explicit tape;
``Tape.backward`` replays the records in exact reverse execution order and
accumulates gradients additively at fan-out points. All reductions have a
fixed order, so identical inputs give bit-identical outputs.

How the tape works:

- Every tape records: each op appends its output and a backward closure,
  and backward gives every input of every op its gradient, leaves
  included. State that only backward uses (ReLU masks, max pool argmax
  rows, softmax probabilities) is computed inside the closures, so a
  forward costs the same whether backward runs or not. Inference drops
  its tape without calling backward, which frees every output the caller
  does not hold.
- The first gradient that reaches a tensor is adopted as its gradient
  array instead of being added to zeros. An op copies a gradient only
  where adopting it would make two tensors share one gradient array.
  Backward hands each op output's gradient to its closure and drops it
  from the output, so a closure may reuse that array (ReLU masks it in
  place) and after backward only tensors the tape did not produce (leaves
  and parameters) hold gradients.
- Every cluster op reduces each cluster's rows as one contiguous
  segment, listed in ascending row order, with one loop of
  ``ufunc.reduce`` over row slices (``_Segments.reduce``). A training or
  inference record is cluster-contiguous (every level's mask is
  non-decreasing; see ``training.record_from_cache``), so its segments
  are plain row slices of the arrays at hand, and a split ``dense`` adds
  each cluster row to its slice. Any other mask is first put in that
  order by a stable argsort and a gathered copy, which gives the same
  numbers for the same segment rows. Each op works out the segments of
  the mask it is passed when it runs, so a mask may change between ops.
- ``Tape.dense`` is a whole linear + bias (+ ReLU) layer in one record,
  for a plain input or a split one (per-vertex columns beside cluster
  columns that a mask scatters). Its forward and gradients are
  bit-identical to the same layer built from ``matmul``, ``bias_add`` and
  ``relu``, with a split input's cluster part multiplied at cluster rank
  and put back by ``cluster_scatter`` and ``add``.
- A weight gradient (``x.T @ g`` in ``matmul`` and ``dense`` backward)
  is summed over fixed ``GRAD_CHUNK``-row chunks in row order, so trained
  weights do not depend on the BLAS thread count.
- Every op but ``dense`` allocates its output afresh and the output
  tensor owns it, so a result stays valid for as long as the caller holds
  it. ``dense`` writes into the tape's ``StepMemory``: a tape built
  without one gets a fresh memory, whose blocks are fresh arrays, and on
  a memory that training passes from tape to tape a block is valid until
  the next tape is built on it.
- Max-pool backward adds its routed cells into an existing input
  gradient; only an input without one gets a zeroed array. ``adam_step``
  walks the flat parameter arrays in ``ADAM_CHUNK`` slices with one
  slice-sized temporary.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A dense float64 array plus a gradient slot filled during backward."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Parameter(Tensor):
    """A Tensor whose data and gradient are views into a ``ParameterSet``;
    ``value`` is the parameter itself. The gradient accumulates across
    tapes until ``adam_step`` consumes and zeroes it."""

    __slots__ = ()

    @property
    def value(self) -> Tensor:
        return self


class ParameterSet(dict):
    """name -> Parameter, views in ``shapes`` order into the flat float64
    ``data``, ``grad`` and Adam moments ``m`` and ``v``, plus the one Adam
    ``step`` count. Given arrays are adopted; the others start at zero."""

    def __init__(self, shapes: dict, data=None, m=None, v=None, step: int = 0):
        super().__init__()
        ends = np.cumsum([np.prod(shape, dtype=np.int64) for shape in shapes.values()])
        self.data = np.zeros(ends[-1]) if data is None else data
        self.grad = np.zeros_like(self.data)
        self.m = np.zeros_like(self.data) if m is None else m
        self.v = np.zeros_like(self.data) if v is None else v
        self.step = int(step)
        for (name, shape), start, end in zip(shapes.items(), np.r_[0, ends[:-1]], ends):
            p = self[name] = Parameter(self.data[start:end].reshape(shape))
            p.grad = self.grad[start:end].reshape(shape)


ADAM_CHUNK = 1 << 15  # elements per slice of the flat arrays in adam_step
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's published defaults


def adam_step(params: ParameterSet, lr: float) -> None:
    """One Adam update of every parameter at learning rate ``lr``, with bias
    correction; zeroes the gradients afterwards.

    Updates the flat moments and values in place, ``ADAM_CHUNK`` elements
    at a time, with the same operations in the same order on every element
    as m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g,
    value -= lr m_hat / (sqrt(v_hat) + eps), with beta1, beta2 and eps the
    module's ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``, so the
    results are bit-identical to that textbook form. One chunk-sized
    temporary serves every term, and the spent gradient holds the update.
    """
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    params.step += 1
    correct1, correct2 = 1.0 - beta1**params.step, 1.0 - beta2**params.step
    size = len(params.data)
    buf = np.empty(min(size, ADAM_CHUNK))
    for start in range(0, size, ADAM_CHUNK):
        chunk = slice(start, start + ADAM_CHUNK)
        g, m, v = params.grad[chunk], params.m[chunk], params.v[chunk]
        tmp = buf[:len(g)]
        np.multiply(g, 1.0 - beta1, out=tmp)
        m *= beta1
        m += tmp
        np.multiply(g, 1.0 - beta2, out=tmp)
        tmp *= g
        v *= beta2
        v += tmp
        update = np.divide(m, correct1, out=g)
        update *= lr
        np.divide(v, correct2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        update /= tmp
        params.data[chunk] -= update
        g.fill(0.0)


GRAD_CHUNK = 256  # rows per partial product of a weight gradient


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``x.T @ g`` summed over ``GRAD_CHUNK``-row chunks in row order.

    OpenBLAS sums one product over many rows in an order that depends on
    its thread count, while a product over at most ``GRAD_CHUNK`` rows
    rounds the same at 1, 2 and 4 threads (tests/test_training.py checks
    whole trainings). Up to ``GRAD_CHUNK`` rows this is ``x.T @ g`` itself.
    """
    out = x[:GRAD_CHUNK].T @ g[:GRAD_CHUNK]
    for start in range(GRAD_CHUNK, len(x), GRAD_CHUNK):
        out += x[start:start + GRAD_CHUNK].T @ g[start:start + GRAD_CHUNK]
    return out


def _accumulate(t: Tensor, g: np.ndarray, rows=None) -> None:
    """Add ``g`` into ``t.grad`` (into ``t.grad[rows]`` when rows is a slice).

    A tensor without a gradient yet adopts ``g`` itself, so callers must
    not hand the same array to two tensors.
    """
    if rows is not None:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad[rows] += g
    elif t.grad is None:
        t.grad = g
    else:
        t.grad += g


class StepMemory:
    """One flat float64 array that the ``dense`` outputs of successive
    tapes reuse, so training does not free and fault in the same N-row
    arrays every step. ``take`` hands out the next C-contiguous block, at a
    64-byte offset, or ``np.empty`` past the array's end. A tape built on
    the memory restarts it, growing the array to the total the last step
    asked for, so a block is valid until the next tape on the memory."""

    __slots__ = ("_array", "_used")

    def __init__(self):
        self._array = np.empty(0)
        self._used = 0  # elements asked for since the last restart

    def restart(self) -> None:
        if self._used > len(self._array):
            self._array = np.empty(self._used)
        self._used = 0

    def take(self, n: int, w: int) -> np.ndarray:
        start, size = self._used, n * w
        self._used += -(-size // 8) * 8  # 8 float64s: the next block is 64-byte aligned
        if self._used > len(self._array):
            return np.empty((n, w))
        return self._array[start:start + size].reshape(n, w)


class Tape:
    """Ordered record of executed ops; at most one backward pass per tape.

    ``dense`` writes into ``memory``, a fresh ``StepMemory`` unless one is
    given. The records are the tape's only other state: a cluster op
    builds the segments of its mask when it runs. A tape dropped without
    backward frees its records with it.
    """

    def __init__(self, memory: StepMemory = None):
        self.memory = StepMemory() if memory is None else memory
        self.memory.restart()
        self._records = []  # (output tensor, backward closure)

    def _emit(self, data, backward) -> Tensor:
        out = Tensor(data)
        self._records.append((out, backward))
        return out

    def backward(self, loss: Tensor, seed: float = 1.0) -> None:
        """Accumulate d(seed * loss)/dx into every leaf the loss reads.

        Gradients of the tape's own outputs are consumed on the way and
        read None afterwards.
        """
        loss.grad = np.full_like(loss.data, float(seed))
        for out, fn in reversed(self._records):
            if out.grad is not None:
                g, out.grad = out.grad, None
                fn(g)

    # ---- ops ----------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
            raise ValueError(f"matmul shapes {a.data.shape} x {b.data.shape}")

        def backward(g):
            _accumulate(a, g @ b.data.T)
            _accumulate(b, _weight_grad(a.data, g))

        return self._emit(a.data @ b.data, backward)

    def transpose(self, x: Tensor) -> Tensor:
        def backward(g):
            _accumulate(x, g.T)

        return self._emit(x.data.T.copy(), backward)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ValueError(f"add shapes {a.data.shape} vs {b.data.shape}")

        def backward(g):
            _accumulate(a, g)
            _accumulate(b, g.copy() if a.grad is g else g)

        return self._emit(a.data + b.data, backward)

    def scale(self, x: Tensor, s: float) -> Tensor:
        s = float(s)

        def backward(g):
            _accumulate(x, g * s)

        return self._emit(x.data * s, backward)

    def bias_add(self, x: Tensor, b: Tensor) -> Tensor:
        if b.data.ndim != 1 or x.data.ndim != 2 or x.data.shape[1] != b.data.shape[0]:
            raise ValueError(f"bias_add shapes {x.data.shape} + {b.data.shape}")

        def backward(g):
            _accumulate(x, g)
            _accumulate(b, g.sum(axis=0))

        return self._emit(x.data + b.data[None, :], backward)

    def relu(self, x: Tensor) -> Tensor:
        def backward(g):
            np.multiply(g, x.data > 0.0, out=g)  # subgradient at 0 is 0
            _accumulate(x, g)

        return self._emit(np.maximum(x.data, 0.0), backward)

    def dense(self, x: Tensor, w: Tensor, b: Tensor, relu: bool,
              cluster: Tensor = None, mask=None) -> Tensor:
        """x @ W + b, then ReLU when ``relu``: one layer, one record.

        With ``cluster`` (p rows) and ``mask`` (a cluster id per row of x)
        the input is the split matrix ``[x, cluster[mask]]``: x multiplies
        W's leading rows at N rows, the cluster part multiplies W's trailing
        rows (plus b) at p rows, and that product is scattered onto x's.
        The bias, scatter and ReLU work in place on the x @ W product, which
        is the next block of the tape's memory.
        """
        kc = 0 if cluster is None else cluster.data.shape[-1]
        if (x.data.ndim != 2 or w.data.ndim != 2 or b.data.shape != w.data.shape[1:]
                or (cluster is not None and cluster.data.ndim != 2)
                or x.data.shape[1] + kc != w.data.shape[0]):
            raise ValueError(f"dense shapes {x.data.shape} + {kc} x {w.data.shape} "
                             f"+ {b.data.shape}")
        n, k = x.data.shape
        wx = w.data[:k]
        out = np.matmul(x.data, wx, out=self.memory.take(n, wx.shape[1]))
        if cluster is None:
            out += b.data
        else:
            seg = _Segments(mask, n, cluster.data.shape[0])
            wc = w.data[k:]
            per_cluster = cluster.data @ wc
            per_cluster += b.data
            seg.add_rows(out, per_cluster)
        if relu:
            np.maximum(out, 0.0, out=out)

        def backward(g):
            if relu:
                np.multiply(g, out > 0.0, out=g)  # subgradient at 0 is 0
            _accumulate(x, g @ wx.T)
            _accumulate(w, _weight_grad(x.data, g), None if cluster is None else slice(0, k))
            if cluster is None:
                _accumulate(b, g.sum(axis=0))
            else:
                gc = seg.reduce(np.add, g)
                _accumulate(b, gc.sum(axis=0))
                _accumulate(w, _weight_grad(cluster.data, gc), slice(k, None))
                _accumulate(cluster, gc @ wc.T)

        return self._emit(out, backward)

    def concat(self, parts) -> Tensor:
        """The parts' columns side by side."""
        parts = list(parts)
        if not parts:
            raise ValueError("concat of nothing")
        splits = np.cumsum([p.data.shape[1] for p in parts])[:-1]

        def backward(g):
            for p, piece in zip(parts, np.split(g, splits, axis=1)):
                _accumulate(p, piece)

        return self._emit(np.concatenate([p.data for p in parts], axis=1), backward)

    def cluster_max_pool(self, x: Tensor, mask: np.ndarray, p: int) -> Tensor:
        """Columnwise max over each cluster's rows.

        The gradient routes to the argmax row of each (cluster, column);
        ties break to the lowest row of x, which for a record is the lowest
        row of its cluster-contiguous layout.
        """
        seg = _Segments(mask, x.data.shape[0], p, allow_empty=False)
        out = seg.reduce(np.maximum, x.data)

        def backward(g):
            # a segment lists its rows in ascending order and argmax takes
            # the first maximum, so ties go to the lowest row
            xs = seg.sort(x.data)
            rows = np.empty(out.shape, dtype=np.intp)
            for j, (start, end) in enumerate(seg.bounds):
                np.argmax(xs[start:end], axis=0, out=rows[j])
                rows[j] += start
            if seg.order is not None:
                rows = seg.order[rows]
            cols = np.arange(xs.shape[1])
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
                x.grad[rows, cols] = g
            else:  # every other cell would gain +0.0: leave it as it is
                x.grad[rows, cols] += g

        return self._emit(out, backward)

    def cluster_mean_pool(self, x: Tensor, mask: np.ndarray, p: int) -> Tensor:
        seg = _Segments(mask, x.data.shape[0], p, allow_empty=False)
        counts = seg.counts.astype(np.float64)[:, None]
        out = seg.reduce(np.add, x.data)
        out /= counts

        def backward(g):
            _accumulate(x, (g / counts)[seg.mask])

        return self._emit(out, backward)

    def cluster_scatter(self, cx: Tensor, mask: np.ndarray) -> Tensor:
        """Row i of the output is the cluster feature of mask[i]."""
        seg = _Segments(mask, np.size(mask), cx.data.shape[0])

        def backward(g):
            _accumulate(cx, seg.reduce(np.add, g))

        return self._emit(cx.data[seg.mask], backward)

    def global_max_pool(self, x: Tensor) -> Tensor:
        return self.cluster_max_pool(x, np.zeros(x.data.shape[0], dtype=np.int64), 1)

    def softmax_cross_entropy(self, logits: Tensor, labels) -> Tensor:
        """Mean over rows of the cross entropy between softmax(logits) and
        ``labels``, one class id in [0, C) per row; numerically stable via
        the log-sum-exp shift."""
        z, labels = logits.data, np.array(labels)  # a copy: backward reads it later
        rows, n_classes = z.shape
        if not (labels.shape == (rows,) and labels.dtype.kind in "iu" and rows
                and 0 <= labels.min() and labels.max() < n_classes):
            raise ValueError(f"labels must be {rows} class ids in [0, {n_classes})")
        picked = (np.arange(rows), labels)
        shifted = z - z.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - lse
        loss = -log_probs[picked].sum() / rows

        def backward(g):
            grad = np.exp(log_probs)
            grad[picked] -= 1.0
            _accumulate(logits, (g / rows) * grad)

        return self._emit(loss, backward)


class _Segments:
    """Rows grouped by cluster id.

    In segment order cluster j owns the contiguous rows
    ``bounds[j] = (start, end)``, ``counts[j]`` of them, listed in ascending
    row index, so a segment reduction has a fixed order and "first" means
    lowest row. A non-decreasing mask, as every cluster-contiguous record
    has, is in segment order already: ``order`` is None and a segment is a
    slice of the rows themselves. Any other mask gets the stable argsort
    ``order`` and ``sort`` gathers a copy.

    Every cluster op builds its own, and this is its one mask check: the
    mask must hold one cluster id in [0, p) for each of ``n`` rows, and
    unless ``allow_empty`` every cluster must have a row.
    """

    __slots__ = ("mask", "order", "counts", "bounds")

    def __init__(self, mask, n: int, p: int, allow_empty: bool = True):
        self.mask = mask = np.array(mask, dtype=np.int64)  # a copy: backward reads it later
        if mask.shape != (n,):
            raise ValueError(f"mask length {mask.shape} does not match {n} rows")
        if n and (mask.min() < 0 or mask.max() >= p):
            raise ValueError("mask id out of range")
        self.counts = np.bincount(mask, minlength=p)
        if not (allow_empty or self.counts.all()):
            raise ValueError("empty cluster id in mask")
        in_order = (mask[1:] >= mask[:-1]).all()
        self.order = None if in_order else np.argsort(mask, kind="stable")
        ends = self.counts.cumsum()
        self.bounds = list(zip((ends - self.counts).tolist(), ends.tolist()))

    def sort(self, rows: np.ndarray) -> np.ndarray:
        """Rows in segment order: ``rows`` itself for a non-decreasing mask,
        otherwise a gathered copy."""
        return rows if self.order is None else rows[self.order]

    def add_rows(self, out: np.ndarray, rows: np.ndarray) -> None:
        """``out[i] += rows[mask[i]]`` for every row i: a slice add per
        cluster, or one gathered temporary for a mask that is not
        non-decreasing."""
        if self.order is None:
            for j, (start, end) in enumerate(self.bounds):
                out[start:end] += rows[j]
        else:
            out += rows[self.mask]

    def reduce(self, ufunc, rows: np.ndarray) -> np.ndarray:
        """``ufunc`` over each cluster's rows of ``rows`` (one row per mask
        entry), one slice at a time; a cluster without rows gets the ufunc's
        identity (zero for ``np.add``)."""
        rows = self.sort(rows)
        out = np.empty((len(self.bounds), rows.shape[1]))
        for j, (start, end) in enumerate(self.bounds):
            ufunc.reduce(rows[start:end], axis=0, out=out[j])
        return out

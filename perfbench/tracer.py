"""Benchmark-side tracing of meshpool's public calls.

A ``Tracer`` replaces public functions at every module attribute that
refers to them (so ``meshpool.cache.solve_eigs`` and ``meshpool.cli.load_obj``
are both caught), swaps ``meshpool.training.Tape`` for a subclass that
times each public op method, and puts every original back on ``restore``.
Spans (name, start, end, parent, trace id, attributes) are kept in memory
and written out once, when the run ends. Nothing here changes what the
wrapped functions compute: the traced and untraced runs of a workload are
compared bit for bit.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

# Public functions timed per layer. A function is wrapped once, at its home
# module, and the wrapper is installed at every meshpool module attribute
# that refers to the original.
TRACED_FUNCTIONS = {
    "mesh": ("load_obj", "write_obj", "compute_vertex_normals", "assemble_laplacian"),
    "spectral": ("solve_eigs", "build_input_features", "build_hierarchy"),
    "cache": ("get_features", "preprocess_mesh", "load_cache", "save_cache"),
    "binio": ("write_container", "read_container"),
    "autodiff": ("adam_step",),
    "model": ("init_params", "model_forward"),
    "training": ("train", "evaluate_segmentation", "forward_logits",
                 "save_checkpoint", "load_checkpoint", "split_dataset"),
    "synth": ("make_segmentation_dataset", "dumbbell", "icosphere", "torus", "deform"),
    "ply": ("write_ply",),
}

# Public op methods of the autodiff tape.
TAPE_OPS = ("matmul", "transpose", "add", "scale", "bias_add", "relu", "concat",
            "cluster_max_pool", "cluster_mean_pool", "cluster_scatter",
            "global_max_pool", "softmax_cross_entropy")

# Op kinds the pooling network runs, reported per training mesh-step.
MODEL_OPS = ("matmul", "bias_add", "relu", "transpose", "concat", "cluster_max_pool",
             "cluster_scatter", "global_max_pool", "softmax_cross_entropy")

# Parameter blocks that matmul time is attributed to (name prefix of the weight).
MODEL_BLOCKS = ("block0.update", "block0.corr", "block1.update", "block1.corr",
                "head.mlp", "head.out")

CLI_COMMANDS = ("synth", "preprocess", "train", "eval", "export")


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """In-memory span recorder plus the patching of meshpool's modules."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent, trace, attrs]
        self.trace_id = 0
        self.residuals = []      # max eigenpair residual of each traced solve
        self._stack = []
        self._patches = []
        self._eig_results = []
        self._param_blocks = {}  # id(parameter tensor) -> (block name, tensor)

    # ---- spans --------------------------------------------------------

    def begin(self, name, attrs=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.trace_id, attrs])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def record(self, name, start_ns, end_ns, attrs=None) -> int:
        """Add a finished span measured elsewhere (for example by a child)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start_ns, end_ns, parent, self.trace_id, attrs])
        return len(self.spans) - 1

    def adopt(self, child_spans, parent) -> None:
        """Append spans recorded in a child process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, par, _, attrs in child_spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par,
                               self.trace_id, attrs])

    def wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(idx, args, kwargs, out)
            return out
        return traced

    # ---- installing and removing wrappers -----------------------------

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "meshpool" or n.startswith("meshpool."))]
        hooks = {
            "binio.write_container": self._after_write,
            "model.init_params": self._after_params,  # also runs inside load_checkpoint
            "spectral.solve_eigs": self._after_eigs,
        }
        for layer, names in TRACED_FUNCTIONS.items():
            home = sys.modules.get(f"meshpool.{layer}")
            if home is None:  # a layer this process never imported makes no calls
                continue
            for fname in names:
                orig = getattr(home, fname)
                span = f"{layer}.{fname}"
                if span == "binio.read_container":
                    wrapper = self._wrap_read(orig)
                else:
                    wrapper = self.wrap(orig, span, hooks.get(span))
                self._patch_everywhere(mods, fname, orig, wrapper)
        tape = sys.modules["meshpool.autodiff"].Tape
        self._patch_everywhere(mods, "Tape", tape, self._traced_tape(tape))
        # EpochStats is built once at the end of every epoch: a free marker
        training = sys.modules["meshpool.training"]
        stats_cls = training.EpochStats

        def epoch_marker(*args, **kwargs):
            self.record("training.epoch_end", time.perf_counter_ns(), time.perf_counter_ns())
            return stats_cls(*args, **kwargs)

        self._patch(training, "EpochStats", epoch_marker)

    def _patch_everywhere(self, mods, attr, orig, wrapper) -> None:
        for mod in mods:
            if getattr(mod, attr, None) is orig:
                self._patch(mod, attr, wrapper)

    def _patch(self, mod, attr, value) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def restore(self) -> None:
        """Put every original back and compute the deferred residuals."""
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()
        if self._eig_results:
            eig_residuals = sys.modules["meshpool.spectral"].eig_residuals
            self.residuals.extend(float(eig_residuals(op, basis).max())
                                  for op, basis in self._eig_results)
            self._eig_results.clear()

    # ---- hooks --------------------------------------------------------

    def _after_write(self, idx, args, kwargs, out) -> None:
        path = args[0] if args else kwargs["path"]
        self.spans[idx][5] = {"bytes": os.path.getsize(path)}

    def _wrap_read(self, fn):
        def traced(path, *args, **kwargs):
            size = os.path.getsize(path) if os.path.exists(path) else 0
            idx = self.begin("binio.read_container", {"bytes": size})
            try:
                return fn(path, *args, **kwargs)
            finally:
                self.end(idx)
        return functools.wraps(fn)(traced)

    def _after_params(self, idx, args, kwargs, params) -> None:
        # the map holds the tensors, so their ids cannot be reused while mapped
        self._param_blocks = {id(p.value): (name.rsplit(".", 2)[0], p.value)
                              for name, p in params.items()}

    def _after_eigs(self, idx, args, kwargs, basis) -> None:
        # residuals are computed in restore(), outside every timed span
        op = args[0] if args else kwargs["op"]
        self._eig_results.append((op, basis))

    def _traced_tape(self, base):
        tracer = self

        def timed(op):
            method = getattr(base, op)

            def traced(self, *args, **kwargs):
                idx = tracer.begin(f"autodiff.{op}")
                try:
                    return method(self, *args, **kwargs)
                finally:
                    tracer.end(idx)
            return functools.wraps(method)(traced)

        def matmul(self, a, b):
            attrs = {"flop": 2 * a.data.shape[0] * a.data.shape[1] * b.data.shape[1]}
            owner = tracer._param_blocks.get(id(b))
            if owner is not None:
                attrs["block"] = owner[0]
            idx = tracer.begin("autodiff.matmul", attrs)
            try:
                return base.matmul(self, a, b)
            finally:
                tracer.end(idx)

        namespace = {op: timed(op) for op in TAPE_OPS}
        namespace["matmul"] = functools.wraps(base.matmul)(matmul)
        namespace["backward"] = timed("backward")
        return type("TracedTape", (base,), namespace)

    # ---- output -------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "residuals": self.residuals}, fh)


def load_dump(path):
    with open(path) as fh:
        data = json.load(fh)
    return data["spans"], data["residuals"]


# ---- summaries ----------------------------------------------------------

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile_summary(values):
    """p50 plus the highest listed percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "p50": statistics.median(values) if values else 0.0}
    for q in PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10.0:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            out[f"p{q:g}"] = cut[int(round(q * 10)) - 1]
            break
    return out


def _durations(spans):
    """Seconds per span: duration, and self time (duration minus its children)."""
    durs = [(end - start) * 1e-9 for _, start, end, _, _, _ in spans]
    selfs = list(durs)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            selfs[span[3]] -= durs[i]
    return durs, selfs


def span_table(spans):
    """name -> {count, total_s, self_s, n, p50, p<high>} over all spans."""
    durs, selfs = _durations(spans)
    by_name = {}
    for span, dur, own in zip(spans, durs, selfs):
        entry = by_name.setdefault(span[0], {"durs": [], "self_s": 0.0})
        entry["durs"].append(dur)
        entry["self_s"] += own
    table = {}
    for name, entry in sorted(by_name.items()):
        row = {"count": len(entry["durs"]), "total_s": sum(entry["durs"]),
               "self_s": entry["self_s"]}
        row.update(percentile_summary(entry["durs"]))
        table[name] = row
    return table


def layer_metrics(spans, residuals, passes, dgemm_gflops, overhead_s):
    """Every per-layer metric of LAYER_METRICS, from one traced run's spans.

    ``passes`` is the number of traced passes (for per-pass byte counts).
    Metrics of a layer the workload does not exercise read 0.
    """
    n = len(spans)
    names = [s[0] for s in spans]
    durs, selfs = _durations(spans)
    in_train = [False] * n
    children = [[] for _ in range(n)]
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
            in_train[i] = in_train[parent]
        if name == "training.train":
            in_train[i] = True

    def p50(name):
        vals = [d for nm, d in zip(names, durs) if nm == name]
        return statistics.median(vals) if vals else 0.0

    def idx_of(name, train_only=False):
        return [i for i in range(n) if names[i] == name and (in_train[i] or not train_only)]

    steps = len(idx_of("autodiff.backward", train_only=True))
    forwards = len(idx_of("model.model_forward"))
    m = {}
    for name in ("mesh.load_obj", "mesh.assemble_laplacian", "mesh.compute_vertex_normals",
                 "spectral.solve_eigs", "spectral.build_hierarchy",
                 "spectral.build_input_features", "cache.get_features",
                 "cache.save_cache", "cache.load_cache", "training.forward_logits",
                 "training.save_checkpoint", "ply.write_ply",
                 "synth.make_segmentation_dataset", "synth.dumbbell", "synth.deform"):
        m[f"{name}.s"] = p50(name)
    m["spectral.solve_eigs.max_residual"] = max(residuals) if residuals else 0.0
    gets = idx_of("cache.get_features")
    misses = sum(any(names[c] == "cache.preprocess_mesh" for c in children[i]) for i in gets)
    m["cache.get_features.hit_ratio"] = _ratio(len(gets) - misses, len(gets))
    in_pass = [s[4] > 0 for s in spans]
    for key, span in (("binio.bytes_written", "binio.write_container"),
                      ("binio.bytes_read", "binio.read_container")):
        total = sum(spans[i][5]["bytes"] for i in idx_of(span) if in_pass[i])
        m[key] = _ratio(total, passes)
    for op in MODEL_OPS:
        ids = idx_of(f"autodiff.{op}", train_only=True)
        m[f"autodiff.{op}.fwd_s"] = _ratio(sum(selfs[i] for i in ids), steps)
        m[f"autodiff.{op}.calls_per_step"] = _ratio(len(ids), steps)
    for key, span in (("autodiff.backward.s_per_step", "autodiff.backward"),
                      ("autodiff.adam_step.s_per_step", "autodiff.adam_step")):
        m[key] = _ratio(sum(durs[i] for i in idx_of(span, train_only=True)), steps)
    mm = idx_of("autodiff.matmul", train_only=True)
    flop = sum(spans[i][5]["flop"] for i in mm)
    # one forward GEMM plus the two backward GEMMs (dA, dB) of the same size
    m["autodiff.matmul.gflop_per_step"] = _ratio(3 * flop, steps) * 1e-9
    m["autodiff.matmul.achieved_gflops"] = _ratio(flop, sum(selfs[i] for i in mm)) * 1e-9
    m["machine.dgemm_gflops"] = dgemm_gflops
    for block in MODEL_BLOCKS:
        t = sum(selfs[i] for i in idx_of("autodiff.matmul")
                if (spans[i][5] or {}).get("block") == block)
        m[f"model.{block}.fwd_s"] = _ratio(t, forwards)
    m["training.train.epoch_s"] = _epoch_p50(spans)
    m["cli.import_s"] = p50("cli.import")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = p50(f"cli.{cmd}")
    m["trace.overhead_s"] = overhead_s
    return m


def _epoch_p50(spans):
    """Median epoch length: from train start or the previous epoch end."""
    lengths = []
    last = None
    for name, start, end, _, _, _ in spans:
        if name == "training.train":
            last = start
        elif name == "training.epoch_end" and last is not None:
            lengths.append((end - last) * 1e-9)
            last = end
    return statistics.median(lengths) if lengths else 0.0


# name, unit, better, end-to-end metric it should move, workloads where it moves.
# End-to-end names: pass_s / compute_s / reuse_s / setup_s (see README.md).
# Workloads named here are those of BENCHMARK.json; "preprocess-large" (run by
# name, not listed there) measures the mesh, spectral, cache and binio rows too.
LAYER_METRICS = [
    ("mesh.load_obj.s", "s", "lower", "compute_s, reuse_s, pass_s", "quickstart"),
    ("mesh.assemble_laplacian.s", "s", "lower", "setup_s, compute_s", "seg-train, quickstart"),
    ("mesh.compute_vertex_normals.s", "s", "lower", "setup_s, compute_s", "seg-train, quickstart"),
    ("spectral.solve_eigs.s", "s", "lower", "setup_s, compute_s", "seg-train, quickstart"),
    ("spectral.solve_eigs.max_residual", "ratio", "lower", "none (accuracy)", "seg-train, quickstart"),
    ("spectral.build_hierarchy.s", "s", "lower", "setup_s, compute_s", "seg-train, quickstart"),
    ("spectral.build_input_features.s", "s", "lower", "setup_s, compute_s", "seg-train, quickstart"),
    ("cache.get_features.s", "s", "lower", "compute_s, reuse_s, pass_s", "quickstart"),
    ("cache.get_features.hit_ratio", "fraction", "higher", "compute_s, reuse_s, pass_s", "quickstart"),
    ("cache.save_cache.s", "s", "lower", "setup_s, compute_s", "seg-train, quickstart"),
    ("cache.load_cache.s", "s", "lower", "compute_s, reuse_s, pass_s", "quickstart"),
    ("binio.bytes_written", "B", "lower", "compute_s", "quickstart"),
    ("binio.bytes_read", "B", "lower", "compute_s, reuse_s", "quickstart"),
] + [
    row for op in MODEL_OPS for row in (
        (f"autodiff.{op}.fwd_s", "s", "lower", "compute_s, reuse_s", "seg-train, quickstart"),
        (f"autodiff.{op}.calls_per_step", "count", "lower", "compute_s, reuse_s",
         "seg-train, quickstart"),
    )
] + [
    ("autodiff.backward.s_per_step", "s", "lower", "compute_s", "seg-train, quickstart"),
    ("autodiff.adam_step.s_per_step", "s", "lower", "compute_s", "seg-train, quickstart"),
    ("autodiff.matmul.gflop_per_step", "GFLOP", "lower", "compute_s", "seg-train"),
    ("autodiff.matmul.achieved_gflops", "GFLOP/s", "higher", "compute_s", "seg-train"),
    ("machine.dgemm_gflops", "GFLOP/s", "higher", "none (machine roof)", "all"),
] + [
    (f"model.{block}.fwd_s", "s", "lower", "reuse_s, compute_s", "seg-train, quickstart")
    for block in MODEL_BLOCKS
] + [
    ("training.train.epoch_s", "s", "lower", "compute_s", "seg-train, quickstart"),
    ("training.forward_logits.s", "s", "lower", "reuse_s", "seg-train, quickstart"),
    ("training.save_checkpoint.s", "s", "lower", "compute_s, pass_s", "quickstart"),
    ("cli.import_s", "s", "lower", "pass_s", "quickstart"),
] + [
    (f"cli.{cmd}.s", "s", "lower", "pass_s", "quickstart") for cmd in CLI_COMMANDS
] + [
    ("ply.write_ply.s", "s", "lower", "reuse_s, pass_s", "quickstart"),
    ("synth.make_segmentation_dataset.s", "s", "lower", "setup_s, compute_s",
     "seg-train, quickstart"),
    ("synth.dumbbell.s", "s", "lower", "setup_s, compute_s", "seg-train, quickstart"),
    ("synth.deform.s", "s", "lower", "setup_s, compute_s", "seg-train, quickstart"),
    ("trace.overhead_s", "s", "lower", "none (tracing cost)", "all"),
]

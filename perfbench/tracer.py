"""Per-layer tracing for the benchmark's traced runs.

`install()` wraps, at their import sites, the public functions each layer
of gliomaforge exposes: the autodiff ops that `model` and `train` call, the
model's block callables, `AdamW.step`, and the public functions of `nifti`,
`harmonize`, `radiomics`, `stratify`, `metrics` and the checkpoint format.
Nothing under `src/` is edited; the wrappers live only in the traced worker
process. Backward closures are charged to the innermost wrapped call that
created them, by wrapping `Tensor._from_op`.

Spans are kept in memory as `[name, start, end, parent, info]` lists and
written out once, when the worker ends. `summarize()` turns one worker's
spans into per-layer sums, maxima and training-step durations.
"""

import functools
import math
import os
import time
import tracemalloc

import numpy as np

MIB = 2**20

# Leaf ops whose backward closures get their own bucket; everything else
# that records a graph node is charged to tensor.other.
LEAF_OPS = ("tensor.matmul", "tensor.softmax", "tensor.layer_norm")
MODEL_BLOCKS = ("model.stem", "model.stage1", "model.stage2", "model.stage3", "model.stage4",
                "model.dual", "model.decoder")


class Recorder:
    """In-memory span store plus the tracemalloc peak windows."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.graph_nodes = 0
        self.mem_peaks = {}
        self._windows = []  # open windows: [base bytes, peak seen before a nested reset]

    def open(self, name, info=None):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, info])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def mem_enter(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._windows:
            self._windows[-1][1] = max(self._windows[-1][1], peak)
        self._windows.append([current, current])
        tracemalloc.reset_peak()

    def mem_exit(self, name):
        base, earlier = self._windows.pop()
        peak = max(earlier, tracemalloc.get_traced_memory()[1])
        self.mem_peaks[name] = max(self.mem_peaks.get(name, 0.0), (peak - base) / MIB)
        if self._windows:
            self._windows[-1][1] = max(self._windows[-1][1], peak)
        else:
            tracemalloc.stop()

    def dump(self):
        return {"spans": self.spans, "graph_nodes": self.graph_nodes, "mem_peaks": self.mem_peaks}


def _wrap(rec, fn, name, info=None, mem=None):
    """Time every call of `fn` as a span; `name` and `info` may be callables
    of the call's arguments."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        detail = info(*args, **kwargs) if info else None
        if mem:
            rec.mem_enter()
        index = rec.open(label, detail)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)
            if mem:
                rec.mem_exit(mem)

    return wrapper


def _conv_info(x, w, bias=None, stride=1, padding=0, groups=1):
    n, c = x.shape[:2]
    o, cg, k = w.shape[0], w.shape[1], w.shape[2]
    length = math.prod((s + 2 * padding - k) // stride + 1 for s in x.shape[2:])
    return {
        "gflop": 2.0 * n * o * length * cg * k**3 / 1e9,
        "col_mib": n * c * k**3 * length * x.data.itemsize / MIB,
    }


def _conv_name(x, w, bias=None, stride=1, padding=0, groups=1):
    if groups > 1 and groups == x.shape[1]:
        return "conv.depthwise"
    return "conv.pointwise" if w.shape[2] == 1 else "conv.dense"


def _tconv_info(x, w, bias=None, stride=1):
    n, ci = x.shape[:2]
    co, k = w.shape[1], w.shape[2]
    length = math.prod(x.shape[2:])
    return {
        "gflop": 2.0 * n * ci * co * k**3 * length / 1e9,
        "col_mib": n * co * k**3 * length * x.data.itemsize / MIB,
    }


def _matmul_info(a, b):
    b_shape = np.shape(getattr(b, "data", b))
    batch = math.prod(np.broadcast_shapes(a.shape[:-2], b_shape[:-2]))
    m, k = a.shape[-2:]
    return {"gflop": 2.0 * batch * m * k * b_shape[-1] / 1e9}


def _file_info(path):
    return {
        "mib": os.path.getsize(path) / MIB,
        "suffix": "nii_gz" if str(path).endswith(".gz") else "nii",
    }


def _read_span(rec, fn, name):
    """A span around a file read; its info is the file's size and suffix."""
    return _wrap(rec, fn, name, lambda path, *args, **kwargs: _file_info(path))


def _write_span(rec, fn, name):
    """A span around a file write, sized once the file exists."""

    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        index = rec.open(name)
        try:
            return fn(path, *args, **kwargs)
        finally:
            rec.close(index)
            if os.path.exists(path):
                rec.spans[index][4] = _file_info(path)

    return wrapper


def install():
    """Wrap every traced layer in this process and return the recorder."""
    from gliomaforge import cli, metrics, model, nifti, train
    from gliomaforge.autodiff import Tensor

    rec = Recorder()

    # autodiff ops, at the sites where model and train import them
    model.conv3d = _wrap(rec, model.conv3d, _conv_name, _conv_info)
    model.transpose_conv3d = _wrap(rec, model.transpose_conv3d, "conv.transpose", _tconv_info)
    model.layer_norm = _wrap(rec, model.layer_norm, "tensor.layer_norm")
    model.softmax = _wrap(rec, model.softmax, "tensor.softmax")
    train.softmax = _wrap(rec, train.softmax, "tensor.softmax")
    Tensor.__matmul__ = _wrap(rec, Tensor.__matmul__, "tensor.matmul", _matmul_info)
    Tensor.backward = _wrap(rec, Tensor.backward, "tensor.backward", mem="backward")

    original_from_op = Tensor.__dict__["_from_op"].__func__

    def from_op(data, parents, backward_fn):
        out = original_from_op(data, parents, backward_fn)
        if out._backward_fn is not None:
            rec.graph_nodes += 1
            out._backward_fn = _timed_backward(rec, backward_fn, rec.innermost())
        return out

    Tensor._from_op = staticmethod(from_op)

    # model blocks
    net = model.GliomaForgeNet
    net.forward = net.__call__ = _wrap(rec, net.forward, "model.forward", mem="forward")
    net.frequency_stem = _wrap(rec, net.frequency_stem, "model.stem")
    def stage_name(stage, x):
        return "model." + stage.merge.weight.name.split(".")[0]

    model._Stage.__call__ = _wrap(rec, model._Stage.__call__, stage_name)
    model._DualAttention.__call__ = _wrap(rec, model._DualAttention.__call__, "model.dual")
    model._Decoder.__call__ = _wrap(rec, model._Decoder.__call__, "model.decoder")

    # checkpoint format
    model.save_checkpoint = _write_span(rec, model.save_checkpoint, "checkpoint.save")
    model.load_checkpoint = _read_span(rec, model.load_checkpoint, "checkpoint.load")

    # training loop
    train.AdamW.step = _wrap(rec, train.AdamW.step, "train.adamw")
    train.random_crop = _wrap(rec, train.random_crop, "train.crop")
    train.apply_augmentation = _wrap(rec, train.apply_augmentation, "train.augment")
    train.composite_loss = _wrap(rec, train.composite_loss, "train.loss")
    train.validation_dice = _wrap(rec, train.validation_dice, "train.validate")

    # nifti I/O
    nifti.load_volume = _read_span(rec, nifti.load_volume, "nifti.read")
    nifti.load_mask = metrics.load_mask = _read_span(rec, nifti.load_mask, "nifti.read")
    cli.save_volume = _write_span(rec, cli.save_volume, "nifti.write")
    cli.save_mask = _write_span(rec, cli.save_mask, "nifti.write")

    # harmonize, radiomics, stratify, metrics
    cli.build_cdf = _wrap(rec, cli.build_cdf, "harmonize.build_cdf")
    cli.match_histogram = _wrap(rec, cli.match_histogram, "harmonize.match_histogram")
    cli.zscore_normalize = _wrap(rec, cli.zscore_normalize, "harmonize.zscore")
    train.zscore_normalize = _wrap(rec, train.zscore_normalize, "harmonize.zscore")
    cli.extract_case_features = _wrap(rec, cli.extract_case_features, "radiomics.features")
    cli.stratify_cases = _wrap(rec, cli.stratify_cases, "stratify.stratify")
    cli.predict_case = _wrap(rec, cli.predict_case, "cli.predict_case", mem="predict")
    postprocess = _wrap(rec, metrics.keep_largest_per_class, "metrics.postprocess")
    cli.keep_largest_per_class = metrics.keep_largest_per_class = postprocess
    metrics.dice = _wrap(rec, metrics.dice, "metrics.dice")
    metrics.hd95 = _wrap(rec, metrics.hd95, "metrics.hd95")
    metrics.sensitivity_specificity = _wrap(
        rec, metrics.sensitivity_specificity, "metrics.sens_spec"
    )
    return rec


def _timed_backward(rec, backward_fn, creator):
    def timed(grad):
        index = rec.open("bwd", creator)
        try:
            backward_fn(grad)
        finally:
            rec.close(index)

    return timed


# -- aggregation -------------------------------------------------------------


def summarize(dump):
    """Per-layer totals of one worker's trace.

    Returns (sums, maxima, step_seconds): `sums` are seconds, counts,
    GFLOP and MiB that add across calls; `maxima` are the largest single
    column matrix, checkpoint and allocation peak; `step_seconds` are the
    durations of the training steps, each from its first crop to the end
    of its AdamW update. A forward pass inside a step also counts toward
    train.forward_s, which leaves out the validation forward passes.
    """
    spans = dump["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    sums, maxima, steps = {}, {}, []

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    def peak(key, value):
        maxima[key] = max(maxima.get(key, 0.0), value)

    step_start = None
    for i, (name, start, end, _, info) in enumerate(spans):
        duration = end - start
        if name == "bwd":
            bucket = info if info.startswith("conv.") or info in LEAF_OPS else "tensor.other"
            add(bucket + ".bwd_s", duration)
        elif name.startswith("conv."):
            add(name + ".fwd_s", duration)
            add(name + ".calls", 1)
            add(name + ".gflop", info["gflop"])
            peak(name + ".col_mb", info["col_mib"])
        elif name in LEAF_OPS:
            add(name + ".fwd_s", duration)
            if info:
                add(name + ".gflop", info["gflop"])
        elif name in ("model.forward", "train.loss") or name in MODEL_BLOCKS:
            add("tensor.other.fwd_s", duration - child[i])
            if name != "model.forward":
                add(name + "_s", duration)
            elif step_start is not None:
                add("train.forward_s", duration)
        elif name in ("nifti.read", "nifti.write"):
            if info:  # a write that raised leaves no file to size
                kind = name.split(".")[1]
                add(f"nifti.{info['suffix']}.{kind}_s", duration)
                add(f"nifti.{info['suffix']}.{kind}_mb", info["mib"])
        elif name.startswith("checkpoint."):
            add(name + "_s", duration)
            if info:
                peak("checkpoint.mb", info["mib"])
        elif name == "tensor.backward":
            add("tensor.backward_s", duration)
        elif name == "cli.predict_case":
            continue
        else:
            add(name + "_s", duration)
        if name == "train.crop" and step_start is None:
            step_start = start
        elif name == "train.adamw" and step_start is not None:
            steps.append(end - step_start)
            step_start = None
    if steps:
        add("tensor.graph_nodes_total", dump["graph_nodes"])
    for window, mib in dump["mem_peaks"].items():
        peak(f"mem.{window}_peak_mb", mib)
    return sums, maxima, steps

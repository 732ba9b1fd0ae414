"""Built-in property suites behind the `selftest` subcommand.

Each suite re-derives its expected values inline (closed forms, adjoint
identities, finite differences) so a deployment can verify the build
without the development test harness installed.
"""

import gzip
import io
import math
import os
import tempfile
import traceback

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    conv3d,
    no_grad,
    softmax,
    transpose_conv3d,
)
from .autodiff.conv import _blas_blocks
from .autodiff.gradcheck import gradcheck
from .harmonize import EmpiricalCDF, HarmonizationMapping, build_cdf, ks_statistic, match_histogram
from .metrics import _boundary, connected_components, dice, hd95, keep_largest_per_class
from .model import GliomaForgeNet, ModelConfig, _MixFFN, _StemInput, _Store
from .nifti import (
    _BLOCK_BYTES,
    DEFAULT_VOX_OFFSET,
    SegmentationMask,
    Volume,
    load_volume,
    read_mask,
    read_volume,
    save_volume,
    write_mask,
    write_volume,
)
from .radiomics import first_order_features
from .stratify import kmeans, pca_fit_transform, standardize, stratified_folds
from .synthetic import make_dataset
from .train import (
    AdamW,
    TrainConfig,
    composite_loss,
    cosine_lr,
    cross_entropy,
    fit,
    predict_labels,
    training_case,
)

SMALL_MODEL = dict(
    stage_channels=[8, 16, 32, 64],
    stage_heads=[1, 2, 4, 8],
    stage_depths=[1, 1, 1, 1],
    decoder_channels=8,
    ffn_expansion=2,
)


def _check(condition, message):
    if not condition:
        raise AssertionError(message)


def suite_format_roundtrip(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        dims = tuple(int(d) for d in rng.integers(4, 12, size=3))
        data = rng.normal(size=dims).astype(np.float32)
        vol = Volume.from_array(data, spacing=tuple(rng.uniform(0.5, 3.0, size=3)))
        back = read_volume(write_volume(vol))
        _check(np.array_equal(back.data, data), "volume payload changed in round-trip")
        _check(
            np.allclose(back.spacing, vol.spacing, atol=1e-6), "spacing changed in round-trip"
        )
    # a uint8 mask decodes without a float detour; a legacy label 4 becomes 3
    labels = rng.integers(0, 4, size=(5, 6, 7)).astype(np.uint8)
    buf = bytearray(write_mask(SegmentationMask(labels=labels, spacing=(1.0, 1.0, 2.0))))
    buf[DEFAULT_VOX_OFFSET] = 4  # voxel (0, 0, 0) comes first on disk
    back = read_mask(bytes(buf))
    labels[0, 0, 0] = 3
    _check(np.array_equal(back.labels, labels), "uint8 mask changed in round-trip")
    _check(back.labels.flags.c_contiguous, "uint8 mask not in C layout")
    _check(back.spacing == (1.0, 1.0, 2.0), "mask spacing changed in round-trip")
    # files are written and read a block of last-axis planes at a time: a
    # volume of two blocks and a short third, against one NIfTI-order copy
    # of its grid
    dims = (64, 64, 2 * (_BLOCK_BYTES // (64 * 64 * 4)) + 3)
    data = rng.normal(size=dims).astype(np.float32)
    vol = Volume.from_array(data, spacing=(1.0, 1.0, 2.0))
    want = write_volume(vol)
    _check(
        want[DEFAULT_VOX_OFFSET:] == data.tobytes(order="F"),
        "payload of a volume of many blocks is not its grid in NIfTI order",
    )
    with tempfile.TemporaryDirectory() as tmp:
        for suffix in (".nii", ".nii.gz"):
            path = os.path.join(tmp, "v" + suffix)
            save_volume(path, vol)
            with open(path, "rb") as fh:
                written = fh.read()
            if suffix == ".nii.gz":
                written = gzip.decompress(written)
            _check(written == want, f"streamed {suffix} write differs from write_volume")
            _check(
                np.array_equal(load_volume(path).data, data),
                f"streamed {suffix} read of a volume of many blocks changed it",
            )


def suite_harmonization(seed):
    rng = np.random.default_rng(seed)
    ref = np.zeros((32, 32, 32), dtype=np.float32)
    ref[4:28, 4:28, 4:28] = rng.lognormal(5.0, 0.4, size=(24, 24, 24))
    src = np.zeros_like(ref)
    src[4:28, 4:28, 4:28] = rng.lognormal(5.5, 0.6, size=(24, 24, 24))
    ref_cdf = build_cdf(ref)
    matched = match_histogram(Volume.from_array(src), ref_cdf)
    ks = ks_statistic(matched.data[src != 0], ref[ref != 0])
    _check(ks <= 0.02, f"post-matching KS {ks:.4f} > 0.02")
    self_matched = match_histogram(Volume.from_array(ref), ref_cdf)
    err = np.max(np.abs(self_matched.data - ref) / np.maximum(np.abs(ref), 1.0))
    _check(err <= 1e-6, f"self-matching not identity: rel err {err:.2e}")


def suite_harmonize_contract(seed):
    """`HarmonizationMapping.apply` and `EmpiricalCDF.quantile` reproduce
    np.interp's rounding, not just its values: a numpy whose np.interp
    rounds differently (one built to fuse multiply-adds, say) fails here."""
    rng = np.random.default_rng(seed)
    xp = np.sort(rng.lognormal(3.0, 1.0, size=64))
    # knots one ulp apart share a table bin
    xp = np.unique(np.concatenate([xp, np.nextafter(xp[::8], np.inf)]))
    fp = np.sort(rng.lognormal(4.0, 0.5, size=xp.size))
    span = xp[-1] - xp[0]
    x = np.concatenate([rng.uniform(xp[0] - span / 4, xp[-1] + span / 4, size=100_000), xp])
    got = HarmonizationMapping(source_knots=xp, reference_knots=fp).apply(x)
    differ = np.count_nonzero(got.view(np.int64) != np.interp(x, xp, fp).view(np.int64))
    _check(differ == 0, f"table interpolation differs from np.interp at {differ} values")
    values = np.sort(np.round(rng.normal(size=10_001), 2))  # with ties
    n = values.size
    levels = np.concatenate([rng.uniform(-0.1, 1.1, size=1000), (np.arange(0, n, 97) + 0.5) / n])
    got = EmpiricalCDF(values=values).quantile(levels)
    want = np.interp(levels, (np.arange(n) + 0.5) / n, values)
    differ = np.count_nonzero(got.view(np.int64) != want.view(np.int64))
    _check(differ == 0, f"quantile differs from np.interp at {differ} levels")
    # float32 samples are sorted and searched as float32: the levels,
    # quantiles and knots of the float64 path, to the bit
    sample = values[values != 0].astype(np.float32)
    samples = sample, sample.astype(np.float64)
    cdfs = [build_cdf(s) for s in samples]
    _check(cdfs[0].values.dtype == np.float32, "float32 samples were widened")
    keys = np.concatenate([samples[1], np.nextafter(samples[1], np.inf), rng.normal(size=1000)])
    fits = [HarmonizationMapping.fit(s, cdf, quantiles=64) for s, cdf in zip(samples, cdfs)]
    for what, (got, want) in {
        "levels": [cdf.evaluate(keys) for cdf in cdfs],
        "quantiles": [cdf.quantile(levels) for cdf in cdfs],
        "source knots": [fit.source_knots for fit in fits],
        "reference knots": [fit.reference_knots for fit in fits],
    }.items():
        _check(got.dtype == np.float64, f"float32 CDF {what} are {got.dtype}, not float64")
        differ = np.count_nonzero(got.view(np.int64) != want.view(np.int64))
        _check(differ == 0, f"float32 CDF {what} differ from the float64 path's at {differ} places")


def suite_radiomics(seed):
    vol = Volume.from_array(np.array([[[1.0, 2.0], [3.0, 4.0]]] * 2, dtype=np.float32))
    f = first_order_features(vol, bin_width=1.0)
    hand = {
        "mean": 2.5,
        "variance": 1.25,
        "range": 3.0,
        "energy": 2 * (1 + 4 + 9 + 16),
        "root_mean_squared": math.sqrt(7.5),
        "entropy": 2.0,
        "uniformity": 0.25,
        "skewness": 0.0,
        "kurtosis": 1.64,
    }
    for name, want in hand.items():
        got = getattr(f, name)
        _check(abs(got - want) <= 1e-9, f"{name}: {got} != {want}")


def suite_stratification(seed):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    sizes = (30, 20, 10)
    points = np.vstack(
        [c + 0.1 * rng.standard_normal((n, 2)) for c, n in zip(centers, sizes)]
    )
    truth = np.repeat(np.arange(3), sizes)
    scaled, _, _ = standardize(points)
    model, reduced = pca_fit_transform(scaled, components=2)
    _check(
        np.allclose(model.components @ model.components.T, np.eye(2), atol=1e-8),
        "PCA basis not orthonormal",
    )
    labels, _ = kmeans(reduced, k=3, seed=seed)
    for cluster in range(3):
        member = truth[labels == cluster]
        _check(member.size and np.all(member == member[0]), "k-means split a blob")
    ids = [f"c{i}" for i in range(60)]
    assignment = stratified_folds(ids, labels, n_folds=5, seed=seed)
    for fold in range(5):
        counts = sorted(
            int(np.sum((assignment.folds == fold) & (labels == c))) for c in range(3)
        )
        _check(counts == [2, 4, 6], f"fold {fold} counts {counts} != [2, 4, 6]")


def suite_autodiff(seed):
    rng = np.random.default_rng(seed)
    gradcheck(
        lambda ts: (ts[0] @ ts[1]).sum(),
        [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))],
        tol=1e-6,
    )
    gradcheck(
        lambda ts: conv3d(ts[0], ts[1], stride=1, padding=1).sum(),
        [rng.normal(size=(1, 2, 4, 4, 4)), rng.normal(size=(3, 2, 3, 3, 3))],
        tol=1e-4,
    )
    # conv / transpose-conv adjoint identity: <conv(x), y> = <x, tconv(y)>.
    # The conv weight (out, in, k^3) already has transpose-conv layout
    # (in, out, k^3) when read from y's side.
    x = Tensor(rng.normal(size=(1, 2, 5, 5, 5)))
    w = Tensor(rng.normal(size=(3, 2, 3, 3, 3)))
    y = Tensor(rng.normal(size=(1, 3, 2, 2, 2)))
    lhs = float((conv3d(x, w, stride=2).data * y.data).sum())
    rhs = float((transpose_conv3d(y, w, stride=2).data * x.data).sum())
    _check(abs(lhs - rhs) <= 1e-6 * max(abs(lhs), 1.0), "conv/tconv adjoint identity broken")
    # tconv's backward runs the dense conv kernels: overlapping windows under
    # a random upstream weight, which a constant .sum() upstream would pass
    upstream = Tensor(rng.normal(size=(1, 3, 5, 7, 5)))
    gradcheck(
        lambda ts: (transpose_conv3d(ts[0], ts[1], bias=ts[2], stride=2) * upstream).sum(),
        [rng.normal(size=(1, 2, 2, 3, 2)), rng.normal(size=(2, 3, 3, 3, 3)), rng.normal(size=3)],
    )
    # Depthwise convs run the tap path; a dense conv whose weight is
    # block-diagonal computes the same sums, and gradients, through im2col.
    for stride in (1, 2):
        x = rng.normal(size=(2, 3, 7, 6, 5)).astype(np.float32)
        w = rng.normal(size=(3, 1, 3, 3, 3)).astype(np.float32)
        diag = np.zeros((3, 3, 3, 3, 3), dtype=np.float32)
        diag[np.arange(3), np.arange(3)] = w[:, 0]
        runs = []
        for weight, groups in ((w, 3), (diag, 1)):
            xt, wt = Tensor(x, requires_grad=True), Tensor(weight, requires_grad=True)
            out = conv3d(xt, wt, stride=stride, padding=1, groups=groups)
            upstream = np.random.default_rng(seed).normal(size=out.shape).astype(np.float32)
            (out * Tensor(upstream)).sum().backward()
            dw = wt.grad[:, 0] if groups == 3 else wt.grad[np.arange(3), np.arange(3)]
            runs.append((out.data, xt.grad, dw))
        for got, want, what in zip(runs[0], runs[1], ("forward", "input grad", "weight grad")):
            _check(
                np.allclose(got, want, rtol=1e-4, atol=1e-4),
                f"depthwise conv {what} (stride {stride}) != block-diagonal dense conv",
            )
    a, b = (Tensor(rng.normal(size=(3, 1, 4))) for _ in range(2))  # softmax; axis 1 has length 1
    gradcheck(
        lambda ts: (softmax(ts[0], axis=1) * a + softmax(ts[0], axis=-1) * b).sum(),
        [rng.normal(size=(3, 1, 4))],
    )


def decoder_gradcheck(seed):
    """Gradcheck a float64 decoder w.r.t. upfinal's and head's weights and
    biases, which reach the logits through one folded transposed conv."""
    cfg = ModelConfig(**{**SMALL_MODEL, "decoder_channels": 2})
    decoder = GliomaForgeNet(config=cfg, seed=seed, dtype=np.float64).decoder
    rng = np.random.default_rng(seed)
    pyramid = [
        Tensor(rng.normal(size=(1, c, g, g, g))) for c, g in zip(cfg.stage_channels, (8, 4, 2, 1))
    ]
    upstream = Tensor(rng.normal(size=(1, cfg.num_classes, 32, 32, 32)))
    layers = (decoder.upfinal, decoder.head)
    slots = [(layer, name) for layer in layers for name in ("weight", "bias")]

    def build(ts):
        for (layer, name), t in zip(slots, ts):
            setattr(layer, name, t)
        return (decoder(pyramid, pyramid[3]) * upstream).sum()

    # random values throughout: the biases start at zero, which would leave
    # the bias fold's product term unchecked
    return gradcheck(build, [rng.normal(size=getattr(*slot).shape) for slot in slots])


def merge_padding_faces(merge, spatial):
    """Boolean grid over a merge conv's outputs: True where the window reads
    the conv's zero padding."""
    k, s, p = merge.weight.shape[-1], merge.stride, merge.padding
    axes = []
    for size in spatial:
        first = np.arange((size + 2 * p - k) // s + 1) * s - p  # first input each window reads
        axes.append((first < 0) | (first + k > size))
    return axes[0][:, None, None] | axes[1][None, :, None] | axes[2][None, None, :]


def stem_merge_fold_check(model, x):
    """Stage 1's merge with the stem folded in, against the stem then the
    merge: the padding-reading faces byte-equal, the rest within float32
    rounding. Random stem weights and biases and merge bias, so every term
    of the composed kernel and bias counts."""
    rng = np.random.default_rng(0)
    merge = model.stages[0].merge
    for p in (model.stem_low.weight, model.stem_low.bias, model.stem_high.weight,
              model.stem_high.bias, merge.bias):
        p.data = rng.normal(size=p.shape).astype(p.dtype)
    with no_grad():
        ref = merge(model.frequency_stem(x)).data
        folded = merge(_StemInput(model, x)).data
    faces = merge_padding_faces(merge, x.shape[2:])
    _check(folded.shape == ref.shape, f"folded merge shape {folded.shape} != {ref.shape}")
    _check(
        folded[:, :, faces].tobytes() == ref[:, :, faces].tobytes(),
        "folded stem merge changed the bits of a padding-reading face output",
    )
    _check(
        np.allclose(folded, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max()),
        "folded stem merge differs from the stem then the merge",
    )


def random_mix_ffn(channels, expansion, seed):
    """A float32 `_MixFFN` with every weight and bias random, so each term
    of each sum counts."""
    ffn = _MixFFN(_Store(seed, np.float32), "ffn", channels, expansion)
    rng = np.random.default_rng(seed)
    for p in (ffn.fc1.weight, ffn.fc1.bias, ffn.dw_weight, ffn.dw_bias, ffn.fc2.weight,
              ffn.fc2.bias):
        p.data = rng.normal(size=p.shape).astype(np.float32)
    return ffn


def mix_ffn_gradcheck(seed):
    """Gradcheck a float64 Mix-FFN node w.r.t. its tokens and its six
    parameters, which its hand-written backward reaches. Random biases
    throughout, and a grid whose every voxel has taps on the zero padding."""
    ffn = _MixFFN(_Store(seed, np.float64), "ffn", 2, 2)
    rng = np.random.default_rng(seed)
    grid = (3, 2, 2)
    upstream = Tensor(rng.normal(size=(2, 12, 2)))
    slots = [(ffn.fc1, "weight"), (ffn.fc1, "bias"), (ffn, "dw_weight"), (ffn, "dw_bias"),
             (ffn.fc2, "weight"), (ffn.fc2, "bias")]

    def build(ts):
        for (layer, name), t in zip(slots, ts[1:]):
            setattr(layer, name, t)
        return (ffn(ts[0], grid) * upstream).sum()

    shapes = [upstream.shape] + [getattr(*slot).shape for slot in slots]
    return gradcheck(build, [rng.normal(size=shape) for shape in shapes])


def mix_ffn_blocks_check(seed):
    """The no-grad Mix-FFN, run a block of depth planes at a time, against
    the recorded node's one block of the whole batch and grid, to the bit:
    at stage-1 widths in 2-plane blocks with a 1-plane tail, and at stage-3
    widths, whose short tail joins its block. A BLAS whose row blocks sum
    otherwise than the whole product fails here."""
    rng = np.random.default_rng(seed)
    for channels, grid in ((32, (5, 16, 16)), (160, (12, 3, 3))):
        ffn = random_mix_ffn(channels, 4, seed)
        tokens = Tensor(rng.normal(size=(2, math.prod(grid), channels)).astype(np.float32))
        graph = ffn(tokens, grid).data
        with no_grad():
            blocked = ffn(tokens, grid).data
        _check(
            blocked.tobytes() == graph.tobytes(),
            f"no-grad Mix-FFN differs from its graph at {channels} channels on a {grid} grid",
        )


def labels_path_check(seed):
    """`predict_labels`, whose decoder runs `logits` on blocks of depth planes,
    against the first-max argmax of the whole logits, to the bit. At the default
    decoder width a block is three 1/4-resolution planes, the last four. A BLAS
    whose column blocks sum otherwise than the whole product fails here."""
    model = GliomaForgeNet(ModelConfig(**{**SMALL_MODEL, "decoder_channels": 48}), seed=seed)
    rng = np.random.default_rng(seed)
    decoder = model.decoder
    for p in (decoder.upfinal.bias, decoder.head.bias):  # zero at init
        p.data = rng.normal(size=p.shape).astype(np.float32)
    x = Tensor(rng.normal(size=(1, 48, 16, 8, 16)).astype(np.float32))
    bounds = _blas_blocks(16, 1, 48 * 4 * 4**2 * 8 * 16, 8 * 16)  # the decoder's, for x
    blocks = [decoder.logits(Tensor(x.data[:, :, a:b])).data for a, b in zip(bounds, bounds[1:])]
    _check(
        np.concatenate(blocks, axis=2).tobytes() == decoder.logits(x).data.tobytes(),
        "decoder logit blocks differ from the whole transposed conv",
    )
    dims = (40, 30, 61)
    images = rng.normal(size=(4, *dims)).astype(np.float32)
    padded = np.zeros((1, 4, 64, 32, 64), dtype=np.float32)
    padded[0, :, :40, :30, :61] = images
    with no_grad():
        logits = model(Tensor(padded)).data
    want = np.argmax(logits[0], axis=0)[:40, :30, :61].astype(np.uint8)
    _check(
        predict_labels(model, images).tobytes() == want.tobytes(),
        "labels path != argmax of logits",
    )


def suite_model_contract(seed):
    model = GliomaForgeNet(config=ModelConfig(**SMALL_MODEL), seed=seed)
    x = Tensor(np.random.default_rng(seed).normal(size=(1, 4, 32, 32, 32)).astype(np.float32))
    features = model.encode(model.frequency_stem(x))
    grids = [f.shape[2] for f in features]
    _check(grids == [8, 4, 2, 1], f"pyramid grids {grids}")
    _check(
        [f.shape[1] for f in features] == SMALL_MODEL["stage_channels"],
        "pyramid channel widths off",
    )
    logits = model(x)
    _check(logits.shape == (1, 4, 32, 32, 32), f"logit shape {logits.shape}")
    _check(logits.dtype == np.float32, f"float32 model returned {logits.dtype} logits")
    again = model(x)
    _check(np.array_equal(logits.data, again.data), "forward pass not deterministic")
    # a loaded model skips its own draw and keeps the checkpoint's weights
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        model.save(path)
        loaded = GliomaForgeNet(config=ModelConfig(**SMALL_MODEL), seed=seed + 1)
        loaded.load(path)
    _check(
        loaded(x).data.tobytes() == logits.data.tobytes(),
        "logits changed through a checkpoint save and load",
    )
    decoder_gradcheck(seed)
    mix_ffn_blocks_check(seed)
    labels_path_check(seed)
    # every face has enough outputs that BLAS sums its product as it sums
    # the whole grid's (OpenBLAS has a separate kernel for small products)
    x = np.random.default_rng(seed).normal(size=(1, 4, 32, 64, 64)).astype(np.float32)
    stem_merge_fold_check(GliomaForgeNet(config=ModelConfig(**SMALL_MODEL), seed=seed), Tensor(x))
    mix_ffn_gradcheck(seed)


def suite_loss_optimizer(seed):
    logits = Tensor(np.zeros((1, 4, 2, 2, 2)))
    labels = np.zeros((1, 2, 2, 2), dtype=np.int64)
    ce = cross_entropy(logits, labels).item()
    _check(abs(ce - math.log(4)) <= 1e-6, f"uniform CE {ce} != ln 4")
    truth = np.zeros((1, 4, 4, 4), dtype=np.int64)
    truth[0, 1], truth[0, 2], truth[0, 3] = 1, 2, 3
    perfect = Tensor(np.moveaxis(np.eye(4)[truth], -1, 1) * 20.0)
    _check(composite_loss(perfect, truth).item() <= 1e-4, "perfect-prediction loss too high")
    p = Parameter(np.zeros(1), name="w")
    p.grad = np.ones(1)
    opt = AdamW([p], lr=1e-4, weight_decay=1e-5)
    opt.step()
    _check(abs(p.data[0] + 1e-4) <= 1e-9, f"AdamW first step {p.data[0]}")
    _check(cosine_lr(0, 10, 1e-4) == 1e-4, "cosine start")
    _check(cosine_lr(10, 10, 1e-4) == 0.0, "cosine end")


def suite_metrics(seed):
    a = np.zeros((8, 8, 8), dtype=np.uint8)
    a[2, 2, 2] = 1
    b = np.zeros_like(a)
    b[2, 2, 5] = 1
    _check(abs(hd95(a, b, "WT") - 3.0) <= 1e-12, "hd95 of 3-voxel gap")
    corners = np.zeros((8, 8, 8), dtype=np.uint8)
    far = corners.copy()
    corners[0, 0, 0] = far[7, 7, 7] = 1
    _check(abs(hd95(corners, far, "WT") - 7 * math.sqrt(3)) <= 1e-12, "hd95 across the grid")
    edge = np.zeros((8, 8, 8), dtype=bool)
    edge[:3, 2:6, 2:6] = True
    rim = _boundary(edge)
    _check(rim[0, 2:6, 2:6].all() and not rim[1, 3:5, 3:5].any(), "grid-edge boundary")
    g = np.zeros((6, 6, 6), dtype=np.uint8)
    g[0, :2, :4] = 3
    p = np.zeros_like(g)
    p[0, 0, :4] = 3
    _check(abs(dice(p, g, "ET") - 2 / 3) <= 1e-12, "subset dice")
    m = np.zeros((8, 8, 8), dtype=np.uint8)
    m[1:3, 1:3, 1:3] = 1
    m[1:3, 5:7, 1:3] = 1
    _check(connected_components(m)[1] == 2, "two-blob component count")
    s = np.zeros((8, 8, 8), dtype=np.uint8)
    s[0:2, 0, :5] = 3
    s[6, 6, :3] = 3
    cleaned = keep_largest_per_class(SegmentationMask(labels=s))
    _check((cleaned.labels == 3).sum() == 10, "largest-component filter")
    twice = keep_largest_per_class(cleaned)
    _check(np.array_equal(cleaned.labels, twice.labels), "filter not idempotent")


def suite_training_determinism(seed):
    cases = [training_case(c) for c in make_dataset(2, shape=(32, 32, 32), seed=seed)]
    cfg = TrainConfig(crop_size=32, batch_size=2, seed=seed)
    logs = []
    for _ in range(2):
        model = GliomaForgeNet(config=ModelConfig(**SMALL_MODEL), seed=seed)
        logs.append(fit(model, cases, cases[:1], cfg, epochs=1).log)
    _check(logs[0] == logs[1], "same-seed training runs diverged")


SUITES = (
    ("format-roundtrip", suite_format_roundtrip),
    ("harmonization", suite_harmonization),
    ("harmonize-contract", suite_harmonize_contract),
    ("radiomics-oracle", suite_radiomics),
    ("stratification", suite_stratification),
    ("autodiff-gradients", suite_autodiff),
    ("model-contract", suite_model_contract),
    ("loss-optimizer", suite_loss_optimizer),
    ("metrics-oracle", suite_metrics),
    ("training-determinism", suite_training_determinism),
)


def run_selftest(seed: int = 42, stream=None) -> int:
    """Run every suite; print one PASS/FAIL line each; return failure count."""
    failures = 0
    for name, suite in SUITES:
        try:
            suite(seed)
        except Exception as err:  # noqa: BLE001 - report any failure mode
            failures += 1
            detail = str(err) or err.__class__.__name__
            print(f"FAIL {name}: {detail}", file=stream)
            if not isinstance(err, AssertionError):
                buf = io.StringIO()
                traceback.print_exc(file=buf)
                print(buf.getvalue(), file=stream)
        else:
            print(f"PASS {name}", file=stream)
    return failures

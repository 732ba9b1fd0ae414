"""Hierarchical 3D transformer for 4-class glioma segmentation.

Input N x 4 x D x H x W (spatial dims divisible by 32) flows through a
dual-path convolutional stem (low-pass / high-pass split), four encoder
stages of spatial-reduction attention + depthwise Mix-FFN blocks (at 1/4
.. 1/32 resolution with the default strides), a combined spatial + channel
attention gate on the deepest features, and a transpose-conv decoder that
undoes each stage's stride, fusing the skips, to full-resolution logits.

Memory at inference is kept near the size of the input. A forward with
`dims` and grad off (`train.predict_labels`) returns uint8 labels and
holds no full-grid array but its input, which a caller can hand over
(a one-item list that `forward` empties): stage 1's merge is then its
last reader, and it is freed there. Attention runs its queries in chunks
of at most `_QUERY_CHUNK` tokens against the full reduced K/V, which
gives the unchunked map's rows exactly; each chunk's softmax is the one
`autodiff.softmax` node, for grad on and off alike. Mix-FFN is
one graph node whose one forward runs a block of output depth planes at a
time: with grad off a few planes of one sample, so its hidden arrays, four
times as wide as the tokens, exist for one block only; when recorded, the
whole batch and grid. Both give the same bits.
Two pairs of linear maps with nothing between them run as one layer
each; checkpoints keep all four layers:

- The decoder's last upsampler and its 1x1 head run as one transposed conv
  with `num_classes` outputs, whose weight and bias are composed from both
  layers' parameters as graph ops once per forward, training included.
  For labels, `_Decoder.labels` runs `logits` with that one composed head
  on a few stage-1-resolution depth planes at a time, each block argmaxed
  before the next is made, with the bits of the one-shot conv.
- The frequency stem and stage 1's patch merge run as one (k+2)^3 conv
  when grad is off (`_StemMerge`), so inference never builds the stem's
  2C-channel full-resolution output. The composed conv sees stem values
  where the merge sees its zero padding, so it gives only the outputs
  whose merge window lies inside the grid; the rest (a face one output
  thick at the default stride 4) are recomputed through the stem and the
  merge on the thinnest input slab, and keep their bits. With grad on,
  the forward is the plain stem then merge: the faces' slabs and their
  backward would cost more than the fold saves at training crop sizes.
"""

import functools
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    channel_avg,
    channel_max,
    concat,
    conv3d,
    global_avg_pool,
    is_grad_enabled,
    layer_norm,
    load_checkpoint,
    save_checkpoint,
    softmax,
    transpose_conv3d,
)
from .autodiff.conv import _DEPTHWISE_BLOCK, _blas_blocks, _depthwise, _depthwise_grads
from .autodiff.tensor import _accumulate, gelu_grad, gelu_values
from .errors import CheckpointError, ConfigError, ShapeError

# The product of the stage strides: every input spatial dim must divide by it.
NETWORK_STRIDE = 32

# Query tokens per attention chunk. A chunk's map is N x heads x 8192 x
# L_reduced; a BraTS-size stage-1 map would otherwise be 4 x 163 840 x 320.
_QUERY_CHUNK = 8192


@dataclass
class ModelConfig:
    in_channels: int = 4
    num_classes: int = 4
    stage_channels: list[int] = field(default_factory=lambda: [48, 96, 192, 384])
    stage_heads: list[int] = field(default_factory=lambda: [4, 4, 6, 8])
    stage_strides: list[int] = field(default_factory=lambda: [4, 2, 2, 2])
    stage_depths: list[int] = field(default_factory=lambda: [2, 2, 2, 2])
    sr_ratios: list[int] = field(default_factory=lambda: [8, 4, 2, 1])
    decoder_channels: int = 48
    spatial_attn_kernel: int = 7
    channel_attn_reduction: int = 8
    ffn_expansion: int = 4

    def __post_init__(self):
        lists = (
            self.stage_channels,
            self.stage_heads,
            self.stage_strides,
            self.stage_depths,
            self.sr_ratios,
        )
        if any(len(item) != 4 for item in lists):
            raise ConfigError("stage lists must all have length 4")
        # before the divisibility checks, which would divide by zero
        positive = (
            self.in_channels,
            self.num_classes,
            self.decoder_channels,
            self.ffn_expansion,
            self.channel_attn_reduction,
            self.spatial_attn_kernel,
            *self.stage_channels,
            *self.stage_depths,
            *self.stage_heads,
            *self.stage_strides,
            *self.sr_ratios,
        )
        if any(v < 1 for v in positive):
            raise ConfigError("config values must be positive")
        for c, h in zip(self.stage_channels, self.stage_heads):
            if c % h:
                raise ConfigError(f"channels {c} not divisible by heads {h}")
        if int(np.prod(self.stage_strides)) != NETWORK_STRIDE:
            raise ConfigError(
                f"stage strides {self.stage_strides} must multiply to {NETWORK_STRIDE}"
            )
        if self.stage_channels[-1] % self.channel_attn_reduction:
            raise ConfigError("stage-4 channels must be divisible by the channel reduction")
        if self.spatial_attn_kernel % 2 == 0:
            raise ConfigError("spatial attention kernel must be odd")


class _Store:
    """Creates named parameters with seeded initialization.

    Kaiming weights are drawn on the first read of any of their values, so
    a model that loads a checkpoint draws nothing. The draw takes every
    pending weight's normals from the one generator in creation order, the
    same stream as drawing each weight when it is created, and keeps any
    value assigned before it. The generator itself is made on first use,
    so a model that only loads a checkpoint never imports `numpy.random`.
    """

    def __init__(self, seed, dtype):
        self.seed = seed
        self.dtype = dtype
        self.params: dict[str, Parameter] = {}
        self._pending: list[tuple[Parameter, float]] = []

    @functools.cached_property
    def rng(self):
        return np.random.default_rng(self.seed)

    def _add(self, name, array, init=None):
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name}")
        p = Parameter(array, name=name, init=init)
        self.params[name] = p
        return p

    def kaiming(self, name, shape, fan_in):
        # read-only NaN placeholder: costs nothing, and misuse fails loudly
        placeholder = np.broadcast_to(np.array(np.nan, dtype=self.dtype), shape)
        p = self._add(name, placeholder, init=self._draw)
        self._pending.append((p, math.sqrt(2.0 / fan_in)))
        return p

    def constant(self, name, shape, value):
        return self._add(name, np.full(shape, value, dtype=self.dtype))

    def _draw(self):
        pending, self._pending = self._pending, []
        for p, std in pending:
            values = self.rng.normal(0.0, std, size=p.shape)
            if p._init is not None:  # not assigned since it was created
                p.data = values.astype(self.dtype)


def _to_tokens(x):
    n, c = x.shape[:2]
    return x.permute(0, 2, 3, 4, 1).reshape(n, -1, c)


def _to_grid(tokens, grid):
    n, _, c = tokens.shape
    return tokens.reshape(n, *grid, c).permute(0, 4, 1, 2, 3)


class _Conv:
    def __init__(self, store, name, cin, cout, k, stride=1, padding=0, groups=1):
        self.stride, self.padding, self.groups = stride, padding, groups
        fan_in = (cin // groups) * k**3
        self.weight = store.kaiming(f"{name}.weight", (cout, cin // groups, k, k, k), fan_in)
        self.bias = store.constant(f"{name}.bias", (cout,), 0.0)

    def __call__(self, x):
        return conv3d(
            x, self.weight, bias=self.bias, stride=self.stride, padding=self.padding,
            groups=self.groups,
        )


class _StemInput:
    """The model's input in place of its frequency stem's output: a forward
    with grad off hands it to stage 1, whose merge folds the stem in. The
    merge takes the input out (`take`), so this holds it no longer."""

    def __init__(self, model, x):
        self.model, self.x = model, x

    def take(self):
        x, self.x = self.x, None
        return x


class _StemMerge(_Conv):
    """Stage 1's patch merge, which the frequency stem feeds directly.

    On the stem's output it is the plain conv. On a `_StemInput` it gives
    the same outputs without building the stem's output:
    - outputs whose window lies inside the grid come from one conv with the
      composed kernel (`_folded_weights`) on the input, zero-padded only
      where the stem's own padding lies. It reads the input in boxes: a
      view for most outputs, thin padded copies for those whose taps reach
      past the grid, so the whole input is never copied.
    - the faces whose window reads the merge's zero padding go through the
      stem and this conv, on the thinnest slab of the input that covers
      them, and keep their bits.
    """

    def __call__(self, x):
        if not isinstance(x, _StemInput):
            return super().__call__(x)
        model, x = x.model, x.take()
        s, pm, km = self.stride, self.padding, self.weight.shape[-1]
        spatial = x.shape[2:]
        counts = [(size + 2 * pm - km) // s + 1 for size in spatial]
        # per axis, the outputs p_lo..p_hi read no merge padding
        p_lo = -(-pm // s)
        p_hi = [(size - km + pm) // s for size in spatial]
        if min(p_hi) <= p_lo:
            # with fewer than two on an axis, a face can be one output
            # column, whose product numpy hands to a matrix-vector BLAS call
            # that sums in another order; such grids take the plain path
            return super().__call__(model.frequency_stem(x))
        out = np.empty((x.shape[0], self.weight.shape[0], *counts), dtype=self.weight.dtype)
        inner = [(p_lo, hi + 1) for hi in p_hi]
        # faces: an axis's outputs before p_lo and after p_hi, over the inner
        # outputs of the axes before it and all outputs of those after it
        for axis in range(3):
            for face in ((0, p_lo), (p_hi[axis] + 1, counts[axis])):
                if face[0] < face[1]:
                    box = inner[:axis] + [face] + [(0, c) for c in counts[axis + 1 :]]
                    out[_box(box)] = self._face(model, x, box, p_lo)
        # output p's composed taps read x at s*p - reach + t, t < k: split
        # each axis where they start and stop reaching past the grid, so
        # only the boxes at its edges need a padded copy
        weight, bias = self._folded_weights(model.stem_low, model.stem_high)
        k, reach = weight.shape[-1], pm + model.stem_low.padding
        first = -(-reach // s)  # the first output whose taps start inside x
        cuts = []
        for (p0, p1), size in zip(inner, spatial):
            end = (size - k + reach) // s + 1  # past the last whose taps end inside x
            cuts.append(sorted({p0, p1, min(max(first, p0), p1), min(max(end, p0), p1)}))
        for box in product(*(zip(c, c[1:]) for c in cuts)):
            take, pads = [], []
            for (p0, p1), size in zip(box, spatial):
                lo, hi = s * p0 - reach, s * (p1 - 1) - reach + k
                take.append(slice(max(lo, 0), min(hi, size)))
                pads.append((max(-lo, 0), max(hi - size, 0)))
            slab = x.data[(...,) + tuple(take)]
            if any(a or b for a, b in pads):
                slab = np.pad(slab, ((0, 0), (0, 0), *pads))
            out[_box(box)] = conv3d(Tensor(slab), weight, bias=bias, stride=s).data
        return Tensor(out)

    def _face(self, model, x, box, p_lo):
        """The outputs in `box` through the stem and this conv, on the input
        slab that covers them and the stem voxels their windows read."""
        s, pm, km = self.stride, self.padding, self.weight.shape[-1]
        ps = model.stem_low.padding
        take, crop, keep = [], [], []
        for (p0, p1), size in zip(box, x.shape[2:]):
            # the slab starts at an output on the merge grid whose window
            # the slab's own merge padding does not shift
            q0 = max(0, p0 - p_lo)
            b, e = s * q0, min(size, s * (p1 - 1) - pm + km)  # the stem voxels read
            x0 = max(b - ps, 0)
            take.append(slice(x0, min(e + ps, size)))
            crop.append(slice(b - x0, e - x0))
            keep.append(slice(p0 - q0, p1 - q0))
        stem = model.frequency_stem(Tensor(x.data[(...,) + tuple(take)]))
        merged = super().__call__(stem[(slice(None),) * 2 + tuple(crop)])
        return merged.data[(...,) + tuple(keep)]

    def _folded_weights(self, low, high):
        """The composed conv's weight and bias, in float64, cast once.

        K[o, c] = W[o, c] * w_low[c] + W[o, C+c] * (w_high[c] - w_low[c]),
        with * full 3D convolution, so K is (k_merge + k_stem - 1)^3; and
        B' = B + sum_u W[:, :C] b_low + sum_u W[:, C:] (b_high - b_low).
        """
        wm = self.weight.data.astype(np.float64)
        c, km = wm.shape[1] // 2, wm.shape[-1]
        w_low = low.weight.data[:, 0].astype(np.float64)
        w_diff = high.weight.data[:, 0].astype(np.float64) - w_low
        b_low = low.bias.data.astype(np.float64)
        b_diff = high.bias.data.astype(np.float64) - b_low
        ks = w_low.shape[-1]
        k = km + ks - 1
        weight = np.zeros((wm.shape[0], c, k, k, k))
        for a, b, q in np.ndindex(ks, ks, ks):
            weight[:, :, a : a + km, b : b + km, q : q + km] += (
                wm[:, :c] * w_low[:, a, b, q, None, None, None]
                + wm[:, c:] * w_diff[:, a, b, q, None, None, None]
            )
        sums = wm.sum(axis=(2, 3, 4))
        bias = self.bias.data + sums[:, :c] @ b_low + sums[:, c:] @ b_diff
        return Tensor(weight.astype(self.weight.dtype)), Tensor(bias.astype(self.weight.dtype))


def _box(ranges):
    """The index of (start, stop) ranges over the spatial axes of N x C x D x H x W."""
    return (slice(None), slice(None)) + tuple(slice(a, b) for a, b in ranges)


class _TConv:
    def __init__(self, store, name, cin, cout, k, stride):
        self.stride = stride
        self.weight = store.kaiming(f"{name}.weight", (cin, cout, k, k, k), cin * k**3)
        self.bias = store.constant(f"{name}.bias", (cout,), 0.0)

    def __call__(self, x):
        return transpose_conv3d(x, self.weight, bias=self.bias, stride=self.stride)


class _Linear:
    def __init__(self, store, name, cin, cout):
        self.weight = store.kaiming(f"{name}.weight", (cin, cout), cin)
        self.bias = store.constant(f"{name}.bias", (cout,), 0.0)

    def __call__(self, x):
        return x @ self.weight + self.bias


class _Norm:
    def __init__(self, store, name, dim):
        self.gamma = store.constant(f"{name}.gamma", (dim,), 1.0)
        self.beta = store.constant(f"{name}.beta", (dim,), 0.0)

    def __call__(self, x):
        return layer_norm(x, self.gamma, self.beta)


class _Attention:
    """Multi-head self-attention with strided spatial reduction of K/V."""

    def __init__(self, store, name, channels, heads, sr_ratio):
        self.channels, self.heads, self.ratio = channels, heads, sr_ratio
        self.q = _Linear(store, f"{name}.q", channels, channels)
        self.k = _Linear(store, f"{name}.k", channels, channels)
        self.v = _Linear(store, f"{name}.v", channels, channels)
        self.proj = _Linear(store, f"{name}.proj", channels, channels)
        if sr_ratio > 1:
            self.sr = _Conv(store, f"{name}.sr", channels, channels, sr_ratio, stride=sr_ratio)
            self.srnorm = _Norm(store, f"{name}.srnorm", channels)
        else:
            self.sr = None

    def _reduced(self, tokens, grid):
        if self.sr is None:
            return tokens
        # clamp the reduction so the reduced grid stays >= 1^3; for small
        # grids this runs a sliced corner of the learned kernel
        r = min(self.ratio, *grid)
        x = _to_grid(tokens, grid)
        weight = self.sr.weight if r == self.ratio else self.sr.weight[:, :, :r, :r, :r]
        reduced = conv3d(x, weight, bias=self.sr.bias, stride=r)
        return self.srnorm(_to_tokens(reduced))

    def _split(self, t):
        n = t.shape[0]
        dk = self.channels // self.heads
        return t.reshape(n, t.shape[1], self.heads, dk).permute(0, 2, 1, 3)

    def _weights(self, q, k_t):
        scale = 1.0 / math.sqrt(self.channels // self.heads)
        return softmax(q @ k_t * scale, axis=-1)

    def attention_map(self, tokens, grid):
        """Per-head softmax weights (N, heads, L, L_reduced) plus the K/V tokens."""
        kv = self._reduced(tokens, grid)
        q = self._split(self.q(tokens))
        return self._weights(q, self._split(self.k(kv)).permute(0, 1, 3, 2)), kv

    def __call__(self, tokens, grid):
        n, length, c = tokens.shape
        kv = self._reduced(tokens, grid)
        q = self._split(self.q(tokens))
        k_t = self._split(self.k(kv)).permute(0, 1, 3, 2)
        v = self._split(self.v(kv))
        # Each query row attends on its own, so chunks of rows give the full
        # map's rows while one chunk's map exists at a time. The chunks are
        # near-equal, so none is a single row unless the whole is: numpy runs
        # a one-row product as a matrix-vector BLAS call, whose sums round
        # differently.
        count = -(-length // _QUERY_CHUNK)
        bounds = [length * i // count for i in range(count + 1)]
        chunks = [self._weights(q[:, :, a:b], k_t) @ v for a, b in zip(bounds, bounds[1:])]
        out = concat(chunks, axis=2).permute(0, 2, 1, 3).reshape(n, length, c)
        return self.proj(out)


class _MixFFN:
    """Pointwise expand, depthwise 3^3 conv over the grid, GELU, project back,
    as one graph node. The conv reads the tokens channels last, so they are
    never permuted."""

    def __init__(self, store, name, channels, expansion):
        hidden = channels * expansion
        self.fc1 = _Linear(store, f"{name}.fc1", channels, hidden)
        self.dw_weight = store.kaiming(f"{name}.dw.weight", (hidden, 1, 3, 3, 3), 3**3)
        self.dw_bias = store.constant(f"{name}.dw.bias", (hidden,), 0.0)
        self.fc2 = _Linear(store, f"{name}.fc2", hidden, channels)

    def __call__(self, tokens, grid):
        w1, b1, w2, b2 = self.fc1.weight, self.fc1.bias, self.fc2.weight, self.fc2.bias
        parents = (tokens, w1, b1, self.dw_weight, self.dw_bias, w2, b2)
        # what backward reads, kept only if the node is recorded
        saved = [] if Tensor._records(parents) else None
        out = self._planes(tokens.data, grid, saved)

        def backward_fn(g):
            # fc2, GELU, the conv and fc1 as their Tensor ops' backward, bit for bit
            taps, padded, act, cdf = saved
            saved.clear()
            _accumulate(b2, g.sum(axis=(0, 1)))
            _accumulate(w2, ((act * cdf).swapaxes(-1, -2) @ g).sum(axis=0))
            g = g @ w2.data.swapaxes(-1, -2)
            g = gelu_grad(g, act, cdf)
            del act, cdf
            dpre, dtaps = _depthwise_grads(
                padded, taps, g.reshape(len(padded), *grid, -1), 3, 1, 1, True, True
            )
            del padded
            _accumulate(self.dw_weight, dtaps[0].T.reshape(self.dw_weight.shape))
            _accumulate(self.dw_bias, g.sum(axis=(0, 1)))
            g = dpre.reshape(g.shape)
            _accumulate(b1, g.sum(axis=(0, 1)))
            _accumulate(tokens, g @ w1.data.swapaxes(-1, -2))
            _accumulate(w1, (tokens.data.swapaxes(-1, -2) @ g).sum(axis=0))

        return Tensor._from_op(out, parents, backward_fn)

    def _planes(self, x, grid, saved=None):
        """The forward on (N, L, C) arrays, a block of output depth planes at
        a time: fc1 on its planes and the plane either side that its taps
        read, then the taps, GELU and fc2 into the output's rows. With no
        `saved` list a block is one sample's planes, as many as
        `_DEPTHWISE_BLOCK` holds; with one it is the whole batch and grid,
        and `saved` takes what backward reads. Each value is summed as the
        one block sums it (`_blas_blocks`), so both give the same bits."""
        n, _, c = x.shape
        d, h, w = grid
        plane = h * w
        w1, b1 = self.fc1.weight.data, self.fc1.bias.data
        w2, b2 = self.fc2.weight.data, self.fc2.bias.data
        hidden = w1.shape[1]
        taps = np.ascontiguousarray(self.dw_weight.data.reshape(hidden, 27).T)[None]
        out = np.empty((n, d * plane, c), dtype=np.result_type(x, w1, w2))
        zb = max(1, _DEPTHWISE_BLOCK // (plane * hidden)) if saved is None else d
        bounds = _blas_blocks(d, zb, plane * c * hidden, plane)
        samples = [slice(i, i + 1) for i in range(n)] if saved is None else [slice(None)]
        for i, (z0, z1) in product(samples, zip(bounds, bounds[1:])):
            lo, hi = max(z0 - 1, 0), min(z1 + 1, d)
            pre = (x[i, lo * plane : hi * plane] @ w1).reshape(-1, hi - lo, h, w, hidden)
            pre += b1
            padded = np.zeros((len(pre), z1 - z0 + 2, h + 2, w + 2, hidden), dtype=pre.dtype)
            padded[:, lo - z0 + 1 : hi - z0 + 1, 1:-1, 1:-1] = pre
            del pre
            act = _depthwise(padded, taps, 3, 1, (z1 - z0, h, w)).reshape(len(padded), -1, hidden)
            if saved is not None:
                saved += [taps, padded]
            del padded
            act += self.dw_bias.data
            gelu, cdf = gelu_values(act)
            rows = out[i, z0 * plane : z1 * plane]
            np.matmul(gelu, w2, out=rows)
            rows += b2
            if saved is not None:
                saved += [act, cdf]
            del act, gelu, cdf
        return out


class _Block:
    def __init__(self, store, name, channels, heads, sr_ratio, expansion):
        self.norm1 = _Norm(store, f"{name}.norm1", channels)
        self.attn = _Attention(store, f"{name}.attn", channels, heads, sr_ratio)
        self.norm2 = _Norm(store, f"{name}.norm2", channels)
        self.ffn = _MixFFN(store, f"{name}.ffn", channels, expansion)

    def __call__(self, tokens, grid):
        tokens = tokens + self.attn(self.norm1(tokens), grid)
        return tokens + self.ffn(self.norm2(tokens), grid)


class _Stage:
    """Overlapped patch merging followed by transformer blocks."""

    def __init__(self, store, name, cin, cfg, index):
        cout = cfg.stage_channels[index]
        stride = cfg.stage_strides[index]
        k, pad, conv = (7, 3, _StemMerge) if index == 0 else (3, 1, _Conv)
        self.merge = conv(store, f"{name}.merge", cin, cout, k, stride=stride, padding=pad)
        self.blocks = [
            _Block(
                store,
                f"{name}.block{j}",
                cout,
                cfg.stage_heads[index],
                cfg.sr_ratios[index],
                cfg.ffn_expansion,
            )
            for j in range(cfg.stage_depths[index])
        ]
        self.norm = _Norm(store, f"{name}.norm", cout)

    def __call__(self, x):
        x = self.merge(x)
        grid = x.shape[2:]
        tokens = _to_tokens(x)
        for block in self.blocks:
            tokens = block(tokens, grid)
        return _to_grid(self.norm(tokens), grid)


class _DualAttention:
    """Spatial gate from pooled channels, channel gate from pooled space."""

    def __init__(self, store, name, channels, kernel, reduction):
        self.spatial = _Conv(store, f"{name}.spatial", 2, 1, kernel, padding=kernel // 2)
        self.fc1 = _Linear(store, f"{name}.fc1", channels, channels // reduction)
        self.fc2 = _Linear(store, f"{name}.fc2", channels // reduction, channels)

    def __call__(self, x):
        n, c = x.shape[:2]
        pooled = concat([channel_max(x), channel_avg(x)], axis=1)
        a_spatial = self.spatial(pooled).sigmoid()
        a_channel = self.fc2(self.fc1(global_avg_pool(x)).relu()).sigmoid()
        return x * a_spatial * a_channel.reshape(n, c, 1, 1, 1)


class _Decoder:
    """Upsample the deepest features, fusing each shallower stage's projected
    skip, to full-resolution class logits, or with `dims` to their argmax
    labels. up3, up2, up1 and upfinal undo the strides of stages 4, 3, 2, 1."""

    def __init__(self, store, name, cfg):
        chans, dc = cfg.stage_channels, cfg.decoder_channels
        self.projs = [_Conv(store, f"{name}.proj{i + 1}", chans[i], dc, 1) for i in (3, 2, 1, 0)]
        self.ups = [
            _TConv(store, f"{name}.{up}", dc, dc, s, s)
            for up, s in zip(("up3", "up2", "up1", "upfinal"), reversed(cfg.stage_strides))
        ]
        self.upfinal = self.ups[-1]
        self.head = _Conv(store, f"{name}.head", dc, cfg.num_classes, 1)

    def __call__(self, pyramid, attended, dims=None):
        x = self.projs[0](attended)
        for up, proj, skip in zip(self.ups, self.projs[1:], reversed(pyramid[:3])):
            x = (up(x) + proj(skip)).relu()
        return self.logits(x) if dims is None else self.labels(x, dims)

    def _composed(self):
        """head(upfinal(.))'s weight and bias as one transposed conv's.

        Both maps are linear with nothing between them, so they compose:
        W'[i, o] = sum_c head[o, c] * up[i, c] and b' = head @ b_up + b_head.
        The composition is a graph op on the four parameters, so training
        reaches each of them, and the dc-channel full-grid map never exists.
        """
        up, head = self.upfinal.weight, self.head.weight
        ci, dc, k = up.shape[:3]
        mix = head.reshape(head.shape[0], dc)
        weight = (mix @ up.reshape(ci, dc, k**3)).reshape(ci, -1, k, k, k)
        bias = (mix @ self.upfinal.bias.reshape(dc, 1)).reshape(-1) + self.head.bias
        return weight, bias

    def logits(self, x, head=None):
        """head(upfinal(x)) as one transposed conv; `head` is `_composed()`'s pair."""
        weight, bias = head or self._composed()
        return transpose_conv3d(x, weight, bias=bias, stride=self.upfinal.stride)

    def labels(self, x, dims):
        """The first-max argmax over classes of `logits(x)`, cropped to `dims`,
        as uint8 (N, *dims). Stride equals kernel, so `logits` runs on the
        shortest runs of x's depth planes that keep the whole product's bits
        (`_blas_blocks`), none past the crop, each argmaxed before the next."""
        head = self._composed()
        k, (ci, depth, h, w) = self.upfinal.weight.shape[-1], x.shape[1:]
        bounds = _blas_blocks(depth, 1, ci * self.head.weight.shape[0] * k * k * h * w, h * w)
        labels = np.empty((x.shape[0], *dims), dtype=np.uint8)
        for z0, z1 in zip(bounds, bounds[1:]):
            if z0 * k >= dims[0]:
                break
            scores = self.logits(Tensor(x.data[:, :, z0:z1]), head).data
            rows = labels[:, z0 * k : z1 * k]
            rows[...] = np.argmax(scores[:, :, : rows.shape[1], : dims[1], : dims[2]], axis=1)
        return labels


class GliomaForgeNet:
    """Full segmentation network; parameters created from a seeded RNG."""

    def __init__(self, config: ModelConfig | None = None, seed: int = 0, dtype=np.float32):
        self.config = config or ModelConfig()
        cfg = self.config
        store = _Store(seed, dtype)
        stem_c = cfg.in_channels
        self.stem_low = _Conv(store, "stem.low", stem_c, stem_c, 3, padding=1, groups=stem_c)
        # replaces the Kaiming draw (which still consumes its normals): the
        # low path starts as an exact box mean
        weight = self.stem_low.weight
        weight.data = np.full(weight.shape, 1.0 / 27.0, dtype=weight.dtype)
        self.stem_high = _Conv(store, "stem.high", stem_c, stem_c, 3, padding=1, groups=stem_c)
        self.stages = []
        cin = 2 * stem_c
        for i in range(4):
            self.stages.append(_Stage(store, f"stage{i + 1}", cin, cfg, i))
            cin = cfg.stage_channels[i]
        self.dual = _DualAttention(
            store, "dual", cfg.stage_channels[3], cfg.spatial_attn_kernel,
            cfg.channel_attn_reduction,
        )
        self.decoder = _Decoder(store, "decoder", cfg)
        self._store = store
        self._params = store.params

    # -- parameters --------------------------------------------------------

    def named_parameters(self) -> dict[str, Parameter]:
        return dict(self._params)

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def parameter_count(self) -> int:
        return sum(p.size for p in self._params.values())

    def zero_grad(self):
        for p in self._params.values():
            p.zero_grad()

    def save(self, path):
        save_checkpoint(path, {name: p.data for name, p in self._params.items()})

    def load(self, path):
        arrays = load_checkpoint(path)
        if set(arrays) != set(self._params):
            missing = sorted(set(self._params) - set(arrays))[:3]
            extra = sorted(set(arrays) - set(self._params))[:3]
            raise CheckpointError(f"parameter names differ (missing {missing}, extra {extra})")
        for name, p in self._params.items():  # all shapes first: no half-loaded model
            if arrays[name].shape != p.shape:
                raise CheckpointError(
                    f"{name}: checkpoint shape {arrays[name].shape} != model {p.shape}"
                )
        for name, p in self._params.items():
            p.data = arrays[name].astype(p.dtype, copy=False)

    # -- forward -----------------------------------------------------------

    def frequency_stem(self, x):
        low = self.stem_low(x)
        high = self.stem_high(x) - low
        return concat([low, high], axis=1)

    def encode(self, x_stem):
        """The four stages' feature pyramid from the stem's output, or from a
        `_StemInput`, which stage 1's merge folds the stem into."""
        pyramid = []
        x = x_stem
        for stage in self.stages:
            x = stage(x)
            pyramid.append(x)
        return pyramid

    def forward(self, x, dims=None):
        """Class logits, N x num_classes x D x H x W, of the input `x`.

        With `dims` (for grad off) it returns instead the uint8 labels the
        logits' first-max argmax gives, cropped to `dims`, and builds no
        full-grid logits (`_Decoder.labels`). `x` is a Tensor, or a one-item
        list holding one, which forward empties: with grad off stage 1's
        merge is then the last reader of the input, which is freed there
        unless the caller keeps its own reference.
        """
        if isinstance(x, list):
            x = x.pop()
        if x.ndim != 5 or x.shape[1] != self.config.in_channels:
            raise ShapeError(
                f"expected N x {self.config.in_channels} x D x H x W input, got {x.shape}"
            )
        bad = [s for s in x.shape[2:] if s % NETWORK_STRIDE]
        if bad:
            raise ShapeError(
                f"spatial dims {tuple(x.shape[2:])} must be divisible by {NETWORK_STRIDE}; "
                "pad the input"
            )
        stem = self.frequency_stem(x) if is_grad_enabled() else _StemInput(self, x)
        del x
        pyramid = self.encode(stem)
        attended = self.dual(pyramid[3])
        return self.decoder(pyramid, attended, dims)

    __call__ = forward

"""Spatial operations on N x C x D x H x W tensors.

A dense conv and a transposed conv are one linear map read from its two
ends, with one weight layout: (small-side channels, big-side channels,
k, k, k), the big side being the grid the kernel slides over. Three
kernels run both ops, forward and backward:

- `_correlate`, im2col + matmul: conv's forward, tconv's input gradient.
  It builds one sample's columns over blocks of output depth planes,
  about `_COLUMN_BLOCK_BYTES` at a time, into slices of one output. The
  blocks come from `_blas_blocks`, so each output column is summed in the
  one-shot matmul's order and the result is the same to the bit.
- `_correlate_adjoint`, its adjoint, built from the columns of one leading
  kernel offset at a time, so no (N, C*k^3, L) array exists: conv's input
  gradient, tconv's forward. When stride == k and the windows tile the
  grid, each slab is written into a view of an unfilled grid; otherwise
  the slabs are added into zeros in (a, b, q) order.
- `_correlate_weight_grad`, which recomputes the column matrix from the
  saved grid rather than caching it: the weight gradient of both. In
  tconv's backward the grid is the upstream gradient, and each of its two
  gradients builds its own columns from it.

Depthwise convs build no column matrix, which would hold k^3 copies of
the input. One tap kernel, `_depthwise`, runs them on a channels-last
(B, Dp, Hp, Wp, C) grid: it writes tap 0 and multiplies and adds the
others in (a, b, q) order, in blocks of B and output depth planes so that
the running sum and its one temporary stay in cache. Two layouts call it:

- `conv3d` with groups == C == O (the stem) views its channels-first
  input as B = N*C grids of one channel, each with its own taps.
- the model's Mix-FFN node views its hidden tokens (N, L, C) as
  (N, D, H, W, C) grids sharing one set of taps, so no permute copy is
  made either way; it calls `_depthwise_grads` for its backward.

The input gradient is the same kernel run over the upstream gradient,
zero-stuffed between strides and zero-padded, with the taps flipped but
visited in their forward order, so each voxel sums its terms in the order
of a scatter into a zeroed grid. The weight gradient is one reduction over
the spatial axes per tap.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError
from .tensor import Tensor, _accumulate

# Elements of one depthwise forward block. The running sum and its one
# temporary are float32 in the network, so the pair takes 512 KiB, which
# stays in a 1-2 MiB L2 cache alongside the windows read into it.
_DEPTHWISE_BLOCK = 1 << 16

# Bytes of im2col columns `_correlate` builds at once when it makes its own:
# a block of one sample's whole output depth planes, at least one plane.
# A BraTS-size stage-1 merge would otherwise build 1.7 GiB of columns.
_COLUMN_BLOCK_BYTES = 16 << 20

# Multiply-adds at or under which OpenBLAS runs a product through its
# small-matrix kernel, which sums in another order than its blocked kernel:
# with OpenBLAS 0.3.31, `A @ B[:, :n]` for A 8 x 2744 differs from
# `(A @ B)[:, :n]` for n <= 45 and equals it from n = 46. numpy runs a
# product with one row or column as gemv, which also sums differently.
_BLAS_SMALL = 10**6


def _blas_blocks(count, block, unit_cost, unit_len):
    """Bounds splitting `count` units (depth planes) along one side of a
    matrix product into blocks of at least `block` units, where a unit is
    `unit_len` rows or columns and costs `unit_cost` multiply-adds. Each
    block sums every entry as the whole product does: it costs more than
    `_BLAS_SMALL` and has two rows or columns or more, unless the whole
    product does not, which is then one block. A short last block joins
    the one before it."""
    least = max(_BLAS_SMALL // unit_cost + 1, -(-2 // unit_len))
    bounds = list(range(0, count, max(block, least)))
    if len(bounds) > 1 and count - bounds[-1] < least:
        bounds.pop()
    return bounds + [count]


def _im2col(padded, k, stride):
    """(N,C,Dp,Hp,Wp) -> column matrix (N, C*k^3, L)."""
    n, c = padded.shape[:2]
    win = sliding_window_view(padded, (k, k, k), axis=(2, 3, 4))
    win = win[:, :, ::stride, ::stride, ::stride]
    return win.transpose(0, 1, 5, 6, 7, 2, 3, 4).reshape(n, c * k**3, -1)


def _windows(k, stride, out_spatial, start=0, flip=False):
    """Per kernel offset (a, b, q), row-major: the (D, H, W) slices of the
    padded grid its window covers, for output depth planes from `start`;
    with `flip`, offset (a, b, q) covers the window of (k-1-a, k-1-b, k-1-q)."""
    do, ho, wo = out_spatial
    for a, b, q in np.ndindex(k, k, k):
        if flip:
            a, b, q = k - 1 - a, k - 1 - b, k - 1 - q
        yield (
            slice(a + start * stride, a + (start + do - 1) * stride + 1, stride),
            slice(b, b + (ho - 1) * stride + 1, stride),
            slice(q, q + (wo - 1) * stride + 1, stride),
        )


def _correlate(grid, w, stride):
    """(N, C, D, H, W) grid, (S, C, k, k, k) weights -> (N, S, do, ho, wo).
    Each sample's columns are built a block of output depth planes at a
    time (`_blas_blocks`), with the bits of the one-shot `w2 @ _im2col`."""
    n, c = grid.shape[:2]
    s, k = w.shape[0], w.shape[2]
    w2 = w.reshape(s, c * k**3)
    do, ho, wo = ((size - k) // stride + 1 for size in grid.shape[2:])
    plane = ho * wo
    zb = max(1, _COLUMN_BLOCK_BYTES // (c * k**3 * plane * grid.itemsize))
    bounds = _blas_blocks(do, zb, s * c * k**3 * plane, plane)
    out = np.empty((n, s, do, ho, wo), dtype=np.result_type(grid, w))
    flat = out.reshape(n, s, do * plane)
    for i in range(n):
        for z0, z1 in zip(bounds, bounds[1:]):
            cols = _im2col(grid[i : i + 1, :, z0 * stride : (z1 - 1) * stride + k], k, stride)
            np.matmul(w2, cols[0], out=flat[i, :, z0 * plane : z1 * plane])
            del cols  # else it lives on while the next block's columns are made
    return out


def _correlate_adjoint(small, w, stride, grid_shape):
    """Adjoint of _correlate: (N, S, do, ho, wo) -> a grid of `grid_shape`,
    from the columns of one leading kernel offset at a time."""
    n, s = small.shape[:2]
    c, k = w.shape[1], w.shape[2]
    do, ho, wo = small.shape[2:]
    tiles = stride == k and grid_shape[2:] == (do * k, ho * k, wo * k)
    grid = (np.empty if tiles else np.zeros)(grid_shape, dtype=np.result_type(small, w))
    if tiles:
        block = grid.reshape(n, c, do, k, ho, k, wo, k)
    windows = _windows(k, stride, (do, ho, wo))
    sm = small.reshape(n, s, -1)
    for a in range(k):
        slab = (w[:, :, a].reshape(s, c * k * k).T @ sm).reshape(n, c, k, k, do, ho, wo)
        if tiles:  # each voxel takes exactly one term
            block[:, :, :, a] = slab.transpose(0, 1, 4, 5, 2, 6, 3)
        else:
            for b, q in np.ndindex(k, k):
                grid[(slice(None), slice(None)) + next(windows)] += slab[:, :, b, q]
        del slab  # else it lives on while the next offset's slab is made
    return grid


def _correlate_weight_grad(grid, small, k, stride):
    """Gradient of _correlate's (S, C, k, k, k) weights, `small` its upstream."""
    n, s = small.shape[:2]
    cols = _im2col(grid, k, stride)
    dw = np.matmul(small.reshape(n, s, -1), cols.transpose(0, 2, 1)).sum(axis=0)
    return dw.reshape(s, grid.shape[1], k, k, k)


def _depthwise(grid, taps, k, stride, out_spatial, flip=False):
    """Depthwise taps over a channels-last (B, Dp, Hp, Wp, C) grid with
    (B or 1, k^3, C) weights -> (B, do, ho, wo, C); `flip` as in `_windows`."""
    b, c = grid.shape[0], grid.shape[-1]
    do, ho, wo = out_spatial
    plane = ho * wo * c
    if do * plane <= _DEPTHWISE_BLOCK:
        bb, zb = _DEPTHWISE_BLOCK // (do * plane), do
    else:
        bb, zb = 1, max(1, _DEPTHWISE_BLOCK // plane)
    out = np.empty((b, do, ho, wo, c), dtype=np.result_type(grid, taps))
    tmp = np.empty((min(bb, b), min(zb, do), ho, wo, c), dtype=out.dtype)
    for b0 in range(0, b, bb):
        weights = (taps if len(taps) == 1 else taps[b0 : b0 + bb])[:, :, None, None, None]
        for z0 in range(0, do, zb):
            acc = out[b0 : b0 + bb, z0 : z0 + zb]
            part = tmp[: acc.shape[0], : acc.shape[1]]
            spatial = (acc.shape[1], ho, wo)
            for tap, window in enumerate(_windows(k, stride, spatial, z0, flip)):
                win = grid[(slice(b0, b0 + bb),) + window]
                if tap == 0:
                    np.multiply(win, weights[:, tap], out=acc)
                else:
                    np.multiply(win, weights[:, tap], out=part)
                    acc += part
    return out


def _depthwise_grads(grid, taps, g, k, stride, padding, need_grid, need_taps):
    """Gradients of `_depthwise` under upstream g (B, do, ho, wo, C): of the
    grid with its `padding` cropped, and of the taps (None where not needed)."""
    dgrid = dtaps = None
    if need_grid:
        # output o's gradient sits at k-1-padding + o*stride in a zero grid
        # whose flipped tap sums land on the unpadded input; outputs whose
        # windows read only padding fall outside it
        spatial = tuple(s - 2 * padding for s in grid.shape[1:4])
        stuffed = np.zeros((len(g), *(s + k - 1 for s in spatial), g.shape[-1]), dtype=g.dtype)
        lo = k - 1 - padding
        src, dst = [slice(None)], [slice(None)]
        for o, s in zip(g.shape[1:4], spatial):
            first, last = max(0, -(lo // stride)), min(o, (s - 1 + padding) // stride + 1)
            src.append(slice(first, last))
            dst.append(slice(lo + first * stride, lo + (last - 1) * stride + 1, stride))
        stuffed[tuple(dst)] = g[tuple(src)]
        dgrid = _depthwise(stuffed, taps, k, 1, spatial, flip=True)
    if need_taps:
        spec = "nzyxc,nzyxc->c" if len(taps) == 1 else "nzyxc,nzyxc->nc"
        sums = [
            np.einsum(spec, g, grid[(slice(None),) + window])
            for window in _windows(k, stride, g.shape[1:4])
        ]
        dtaps = np.stack(sums, axis=-2).reshape(taps.shape)
    return dgrid, dtaps


def _require_rank5(x, op):
    if x.ndim != 5:
        raise ShapeError(f"{op} expects N x C x D x H x W input, got shape {x.shape}")


def conv3d(x, w, bias=None, stride=1, padding=0, groups=1):
    """Cross-correlation with cubic kernels: dense (groups 1) or depthwise
    (groups == C == O)."""
    _require_rank5(x, "conv3d")
    if w.ndim != 5 or not (w.shape[2] == w.shape[3] == w.shape[4]):
        raise ShapeError(f"conv3d expects O x C/g x k x k x k weights, got {w.shape}")
    n, c = x.shape[:2]
    o, cg, k = w.shape[0], w.shape[1], w.shape[2]
    depthwise = groups == c == o
    if not (groups == 1 or depthwise) or cg != c // groups:
        raise ShapeError(
            f"conv3d runs dense (groups 1) or depthwise (groups == in == out) convs, "
            f"got in={c} out={o} groups={groups} w_in={cg}"
        )
    for s in x.shape[2:]:
        if s + 2 * padding < k:
            raise ShapeError(f"kernel {k} does not fit input {s} with padding {padding}")
    if bias is not None and bias.shape != (o,):
        raise ShapeError(f"bias shape {bias.shape} != ({o},)")

    pad = ((0, 0), (0, 0)) + ((padding, padding),) * 3
    padded = np.pad(x.data, pad) if padding else x.data
    if depthwise:
        out_spatial = tuple((s - k) // stride + 1 for s in padded.shape[2:])
        rows = padded.reshape(n * c, *padded.shape[2:], 1)
        taps = np.tile(w.data.reshape(c, k**3), (n, 1))[:, :, None]
        out = _depthwise(rows, taps, k, stride, out_spatial).reshape(n, o, *out_spatial)
    else:
        out = _correlate(padded, w.data, stride)
    if bias is not None:
        out += bias.data.reshape(1, o, 1, 1, 1)

    parents = (x, w) if bias is None else (x, w, bias)

    def depthwise_backward(g):
        g_rows = g.reshape(n * c, *g.shape[2:], 1)
        dx, dtaps = _depthwise_grads(
            rows, taps, g_rows, k, stride, padding, x.requires_grad, w.requires_grad
        )
        if dtaps is not None:
            _accumulate(w, dtaps.reshape(n, c, k**3).sum(axis=0).reshape(w.shape))
        return None if dx is None else dx.reshape(x.shape)

    def dense_backward(g):
        if w.requires_grad:
            _accumulate(w, _correlate_weight_grad(padded, g, k, stride))
        if not x.requires_grad:
            return None
        dpad = _correlate_adjoint(g, w.data, stride, padded.shape)
        if padding:
            dpad = dpad[:, :, padding:-padding, padding:-padding, padding:-padding]
        return dpad

    def backward_fn(g):
        if w.requires_grad or x.requires_grad:
            dx = (depthwise_backward if depthwise else dense_backward)(g)
            if dx is not None:
                _accumulate(x, dx)
        if bias is not None:
            _accumulate(bias, g.sum(axis=(0, 2, 3, 4)))

    return Tensor._from_op(out, parents, backward_fn)


def transpose_conv3d(x, w, bias=None, stride=1):
    """Learned upsampling: the adjoint of conv3d with the same weights.

    Weights are laid out (C_in, C_out, k, k, k); output spatial size is
    (S - 1) * stride + k.
    """
    _require_rank5(x, "transpose_conv3d")
    if w.ndim != 5 or not (w.shape[2] == w.shape[3] == w.shape[4]):
        raise ShapeError(f"transpose_conv3d expects Cin x Cout x k^3 weights, got {w.shape}")
    n, ci = x.shape[:2]
    if w.shape[0] != ci:
        raise ShapeError(f"weight in-channels {w.shape[0]} != input channels {ci}")
    co, k = w.shape[1], w.shape[2]
    if bias is not None and bias.shape != (co,):
        raise ShapeError(f"bias shape {bias.shape} != ({co},)")
    out_spatial = tuple((s - 1) * stride + k for s in x.shape[2:])
    out = _correlate_adjoint(x.data, w.data, stride, (n, co) + out_spatial)
    if bias is not None:
        out += bias.data.reshape(1, co, 1, 1, 1)

    parents = (x, w) if bias is None else (x, w, bias)

    def backward_fn(g):
        if x.requires_grad:
            _accumulate(x, _correlate(g, w.data, stride))
        if w.requires_grad:
            _accumulate(w, _correlate_weight_grad(g, x.data, k, stride))
        if bias is not None:
            _accumulate(bias, g.sum(axis=(0, 2, 3, 4)))

    return Tensor._from_op(out, parents, backward_fn)


def channel_max(x):
    """Max over channels, keeping a singleton channel axis."""
    _require_rank5(x, "channel_max")
    idx = np.argmax(x.data, axis=1)[:, None]  # first max on ties
    out = np.take_along_axis(x.data, idx, axis=1)

    def backward_fn(g):
        dx = np.zeros_like(x.data)
        np.put_along_axis(dx, idx, g, axis=1)
        _accumulate(x, dx)

    return Tensor._from_op(out, (x,), backward_fn)


def channel_avg(x):
    """Mean over channels, keeping a singleton channel axis."""
    _require_rank5(x, "channel_avg")
    return x.mean(axis=1, keepdims=True)


def global_avg_pool(x):
    """Mean over all spatial positions: (N,C,D,H,W) -> (N,C)."""
    _require_rank5(x, "global_avg_pool")
    return x.mean(axis=(2, 3, 4))


def _axis_weights(size_in, size_out):
    src = (np.arange(size_out) + 0.5) * (size_in / size_out) - 0.5
    src = np.clip(src, 0.0, size_in - 1.0)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, size_in - 1)
    frac = src - lo
    return lo, hi, frac


def trilinear_resize(x, out_size):
    """Resize spatial dims by trilinear interpolation (fixed weights)."""
    _require_rank5(x, "trilinear_resize")
    out_size = tuple(int(s) for s in out_size)
    if len(out_size) != 3 or any(s < 1 for s in out_size):
        raise ShapeError(f"invalid resize target {out_size}")
    axes = [_axis_weights(x.shape[2 + i], out_size[i]) for i in range(3)]
    (d0, d1, fd), (h0, h1, fh), (w0, w1, fw) = axes
    fd = fd[:, None, None]
    fh = fh[None, :, None]
    fw = fw[None, None, :]

    corners = []
    for di, wd in ((d0, 1.0 - fd), (d1, fd)):
        for hi, wh in ((h0, 1.0 - fh), (h1, fh)):
            for wi, ww in ((w0, 1.0 - fw), (w1, fw)):
                corners.append((di, hi, wi, wd * wh * ww))

    out = np.zeros(x.shape[:2] + out_size, dtype=x.dtype)
    for di, hi, wi, weight in corners:
        out += weight * x.data[:, :, di[:, None, None], hi[None, :, None], wi[None, None, :]]

    def backward_fn(g):
        # scatter-add through the same weights; index collisions at
        # clamped borders must accumulate, hence add.at
        dxt = np.zeros(x.shape[2:] + x.shape[:2], dtype=g.dtype)
        gt = np.moveaxis(g, (0, 1), (3, 4))
        for di, hi, wi, weight in corners:
            np.add.at(
                dxt,
                (di[:, None, None], hi[None, :, None], wi[None, None, :]),
                weight[..., None, None] * gt,
            )
        _accumulate(x, np.moveaxis(dxt, (3, 4), (0, 1)))

    return Tensor._from_op(out, (x,), backward_fn)

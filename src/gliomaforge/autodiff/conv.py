"""Spatial operations on N x C x D x H x W tensors.

A dense conv and a transposed conv are one linear map read from its two
ends, with one weight layout: (small-side channels, big-side channels,
k, k, k), the big side being the grid the kernel slides over. Three
kernels run both ops, forward and backward:

- `_correlate`, im2col + matmul: conv's forward, tconv's input gradient.
  For one sample (inference, validation) it builds the columns over
  blocks of output depth planes, about `_COLUMN_BLOCK_BYTES` at a time,
  into slices of one output; every output column is summed in the
  one-shot matmul's order, so the result is the same to the bit.
- `_correlate_adjoint`, its adjoint, built from the columns of one leading
  kernel offset at a time, so no (N, C*k^3, L) array exists: conv's input
  gradient, tconv's forward. When stride == k and the windows tile the
  grid, each slab is written into a view of an unfilled grid; otherwise
  the slabs are added into zeros in (a, b, q) order.
- `_correlate_weight_grad`, which recomputes the column matrix from the
  saved grid rather than caching it: the weight gradient of both. In
  tconv's backward the grid is the upstream gradient, whose column matrix
  is made once for both of its gradients.

Depthwise convs (groups == C == O), the only other grouping conv3d runs,
build no column matrix, which would hold k^3 copies of the input. The
forward sums the k^3 shifted windows tap by tap, each times that tap's
per-channel weight, in blocks of (N*C) rows and output depth planes so
that the running sum and its one temporary stay in cache. Backward adds
g times each tap's weight into that tap's window of the padded grid, and
reduces g times each window into that tap's weight gradient.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError
from .tensor import Tensor, _accumulate

# Elements of one depthwise forward block. The running sum and its one
# temporary are float32 in the network, so the pair takes 512 KiB, which
# stays in a 1-2 MiB L2 cache alongside the windows read into it.
_DEPTHWISE_BLOCK = 1 << 16

# Bytes of im2col columns `_correlate` builds at once when it makes its own
# for one sample: a block of whole output depth planes, at least one plane.
# A BraTS-size stage-1 merge would otherwise build 1.7 GiB of columns.
_COLUMN_BLOCK_BYTES = 16 << 20


def _im2col(padded, k, stride):
    """(N,C,Dp,Hp,Wp) -> column matrix (N, C*k^3, L) and the out spatial dims."""
    n, c = padded.shape[:2]
    win = sliding_window_view(padded, (k, k, k), axis=(2, 3, 4))
    win = win[:, :, ::stride, ::stride, ::stride]
    out_spatial = win.shape[2:5]
    cols = win.transpose(0, 1, 5, 6, 7, 2, 3, 4).reshape(n, c * k**3, -1)
    return cols, out_spatial


def _windows(k, stride, out_spatial, start=0):
    """Per kernel offset (a, b, q), row-major: the (D, H, W) slices of the
    padded grid its window covers, for output depth planes from `start`."""
    do, ho, wo = out_spatial
    for a, b, q in np.ndindex(k, k, k):
        yield (
            slice(a + start * stride, a + (start + do - 1) * stride + 1, stride),
            slice(b, b + (ho - 1) * stride + 1, stride),
            slice(q, q + (wo - 1) * stride + 1, stride),
        )


def _correlate(grid, w, stride, columns=None):
    """(N, C, D, H, W) grid, (S, C, k, k, k) weights -> (N, S, do, ho, wo).
    `columns` is the grid's `_im2col`, if the caller already made it; with
    none and N == 1, the columns are built a block of output depth planes
    at a time."""
    n, c = grid.shape[:2]
    s, k = w.shape[0], w.shape[2]
    w2 = w.reshape(s, c * k**3)
    if columns is not None or n != 1:
        cols, out_spatial = columns or _im2col(grid, k, stride)
        return (w2 @ cols).reshape(n, s, *out_spatial)
    do, ho, wo = ((size - k) // stride + 1 for size in grid.shape[2:])
    plane = ho * wo
    zb = max(1, _COLUMN_BLOCK_BYTES // (c * k**3 * plane * grid.itemsize))
    out = np.empty((n, s, do, ho, wo), dtype=np.result_type(grid, w))
    flat = out.reshape(s, do * plane)
    for z0 in range(0, do, zb):
        z1 = min(z0 + zb, do)
        cols, _ = _im2col(grid[:, :, z0 * stride : (z1 - 1) * stride + k], k, stride)
        np.matmul(w2, cols[0], out=flat[:, z0 * plane : z1 * plane])
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


def _correlate_weight_grad(grid, small, k, stride, columns=None):
    """Gradient of _correlate's (S, C, k, k, k) weights, `small` its upstream;
    `columns` as in `_correlate`."""
    n, s = small.shape[:2]
    cols, _ = columns or _im2col(grid, k, stride)
    dw = np.matmul(small.reshape(n, s, -1), cols.transpose(0, 2, 1)).sum(axis=0)
    return dw.reshape(s, grid.shape[1], k, k, k)


def _depthwise(rows, taps, k, stride, out_spatial):
    """Depthwise forward on (R, Dp, Hp, Wp) rows with (R, k^3) tap weights."""
    r = rows.shape[0]
    do, ho, wo = out_spatial
    plane = ho * wo
    if do * plane <= _DEPTHWISE_BLOCK:
        rb, zb = _DEPTHWISE_BLOCK // (do * plane), do
    else:
        rb, zb = 1, max(1, _DEPTHWISE_BLOCK // plane)
    out = np.empty((r, do, ho, wo), dtype=np.result_type(rows, taps))
    tmp = np.empty((min(rb, r), min(zb, do), ho, wo), dtype=out.dtype)
    for r0 in range(0, r, rb):
        for z0 in range(0, do, zb):
            acc = out[r0 : r0 + rb, z0 : z0 + zb]
            part = tmp[: acc.shape[0], : acc.shape[1]]
            weights = taps[r0 : r0 + rb, :, None, None, None]
            spatial = (acc.shape[1], ho, wo)
            for tap, window in enumerate(_windows(k, stride, spatial, z0)):
                win = rows[(slice(r0, r0 + rb),) + window]
                if tap == 0:
                    np.multiply(win, weights[:, tap], out=acc)
                else:
                    np.multiply(win, weights[:, tap], out=part)
                    acc += part
    return out


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
        rows = padded.reshape(n * c, *padded.shape[2:])
        taps = np.tile(w.data.reshape(c, k**3), (n, 1))
        out = _depthwise(rows, taps, k, stride, out_spatial).reshape(n, o, *out_spatial)
    else:
        out = _correlate(padded, w.data, stride)
        out_spatial = out.shape[2:]
    if bias is not None:
        out += bias.data.reshape(1, o, 1, 1, 1)

    parents = (x, w) if bias is None else (x, w, bias)

    def depthwise_backward(g):
        length = int(np.prod(out_spatial))
        g_rows = g.reshape(n * c, *out_spatial)
        part = np.empty_like(g_rows)
        if x.requires_grad:
            dpad = np.zeros(padded.shape, dtype=g.dtype)
            d_rows = dpad.reshape(rows.shape)
        if w.requires_grad:
            dw = np.empty((n * c, k**3), dtype=g.dtype)
        for tap, window in enumerate(_windows(k, stride, out_spatial)):
            window = (slice(None),) + window
            if w.requires_grad:
                np.multiply(g_rows, rows[window], out=part)
                dw[:, tap] = part.reshape(n * c, length).sum(axis=1)
            if x.requires_grad:
                np.multiply(g_rows, taps[:, tap, None, None, None], out=part)
                d_rows[window] += part
        if w.requires_grad:
            _accumulate(w, dw.reshape(n, c, k**3).sum(axis=0).reshape(w.shape))
        return dpad if x.requires_grad else None

    def dense_backward(g):
        if w.requires_grad:
            _accumulate(w, _correlate_weight_grad(padded, g, k, stride))
        if x.requires_grad:
            return _correlate_adjoint(g, w.data, stride, padded.shape)
        return None

    def backward_fn(g):
        if w.requires_grad or x.requires_grad:
            dpad = (depthwise_backward if depthwise else dense_backward)(g)
            if dpad is not None:
                if padding:
                    dpad = dpad[:, :, padding:-padding, padding:-padding, padding:-padding]
                _accumulate(x, dpad)
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
        if x.requires_grad or w.requires_grad:
            columns = _im2col(g, k, stride)  # g's columns serve both gradients
        if x.requires_grad:
            _accumulate(x, _correlate(g, w.data, stride, columns))
        if w.requires_grad:
            _accumulate(w, _correlate_weight_grad(g, x.data, k, stride, columns))
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

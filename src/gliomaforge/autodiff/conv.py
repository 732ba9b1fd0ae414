"""Spatial operations on N x C x D x H x W tensors.

conv3d runs im2col + matmul; its input gradient is the col2im scatter
over the k^3 kernel offsets, and transpose_conv3d is exactly that
adjoint used as a forward pass. Backward passes recompute the column
matrix from the saved input instead of caching it, trading a second
im2col for a much smaller live set on volumetric inputs.

When stride == k the windows tile the grid without overlapping, so the
scatter is no loop: the (k, k, k, do, ho, wo) column axes interleave
into (do, k, ho, k, wo, k) and reshape onto the grid in one pass, and
any remainder of the grid past do*k that no window covers stays zero.
That path serves every 1x1 conv backward, the strided spatial-reduction
conv backward and the k = stride upsampling transpose convs.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError
from .tensor import Tensor, _accumulate


def _im2col(padded, k, stride):
    """(N,C,Dp,Hp,Wp) -> column matrix (N, C*k^3, L) and the out spatial dims."""
    n, c = padded.shape[:2]
    win = sliding_window_view(padded, (k, k, k), axis=(2, 3, 4))
    win = win[:, :, ::stride, ::stride, ::stride]
    out_spatial = win.shape[2:5]
    cols = win.transpose(0, 1, 5, 6, 7, 2, 3, 4).reshape(n, c * k**3, -1)
    return cols, out_spatial


def _col2im(dcols, grid_shape, k, stride, win_spatial):
    """Adjoint of _im2col: scatter columns back onto the padded grid."""
    n, c = grid_shape[:2]
    do, ho, wo = win_spatial
    grid = np.zeros(grid_shape, dtype=dcols.dtype)
    dcols = dcols.reshape(n, c, k, k, k, do, ho, wo)
    if stride == k:
        # splitting each spatial axis of the covered block is a view, so the
        # add lands in grid; each voxel gets exactly one term, as in the loop
        block = grid[:, :, : do * k, : ho * k, : wo * k].reshape(n, c, do, k, ho, k, wo, k)
        block += dcols.transpose(0, 1, 5, 2, 6, 3, 7, 4)
        return grid
    for a in range(k):
        sa = slice(a, a + (do - 1) * stride + 1, stride)
        for b in range(k):
            sb = slice(b, b + (ho - 1) * stride + 1, stride)
            for q in range(k):
                sq = slice(q, q + (wo - 1) * stride + 1, stride)
                grid[:, :, sa, sb, sq] += dcols[:, :, a, b, q]
    return grid


def _require_rank5(x, op):
    if x.ndim != 5:
        raise ShapeError(f"{op} expects N x C x D x H x W input, got shape {x.shape}")


def conv3d(x, w, bias=None, stride=1, padding=0, groups=1):
    """Cross-correlation with cubic kernels and optional channel groups."""
    _require_rank5(x, "conv3d")
    if w.ndim != 5 or not (w.shape[2] == w.shape[3] == w.shape[4]):
        raise ShapeError(f"conv3d expects O x C/g x k x k x k weights, got {w.shape}")
    n, c = x.shape[:2]
    o, cg, k = w.shape[0], w.shape[1], w.shape[2]
    if c % groups or o % groups or cg != c // groups:
        raise ShapeError(
            f"conv3d channel geometry invalid: in={c} out={o} groups={groups} w_in={cg}"
        )
    for s in x.shape[2:]:
        if s + 2 * padding < k:
            raise ShapeError(f"kernel {k} does not fit input {s} with padding {padding}")
    if bias is not None and bias.shape != (o,):
        raise ShapeError(f"bias shape {bias.shape} != ({o},)")

    pad = ((0, 0), (0, 0)) + ((padding, padding),) * 3
    padded = np.pad(x.data, pad) if padding else x.data
    cols, out_spatial = _im2col(padded, k, stride)
    length = cols.shape[-1]
    wm = w.data.reshape(groups, o // groups, cg * k**3)
    out = wm @ cols.reshape(n, groups, cg * k**3, length)
    out = out.reshape(n, o, *out_spatial)
    if bias is not None:
        out += bias.data.reshape(1, o, 1, 1, 1)

    parents = (x, w) if bias is None else (x, w, bias)

    def backward_fn(g):
        gm = g.reshape(n, groups, o // groups, length)
        if w.requires_grad or x.requires_grad:
            if w.requires_grad:
                cols_b, _ = _im2col(padded, k, stride)
                colsg = cols_b.reshape(n, groups, cg * k**3, length)
                dw = np.matmul(gm, colsg.transpose(0, 1, 3, 2)).sum(axis=0)
                _accumulate(w, dw.reshape(w.shape))
            if x.requires_grad:
                dcols = np.matmul(wm.transpose(0, 2, 1), gm).reshape(n, c * k**3, length)
                dpad = _col2im(dcols, padded.shape, k, stride, out_spatial)
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
    in_spatial = x.shape[2:]
    out_spatial = tuple((s - 1) * stride + k for s in in_spatial)
    length = int(np.prod(in_spatial))

    wm = w.data.reshape(ci, co * k**3)
    dcols = wm.T @ x.data.reshape(n, 1, ci, length)  # (n, 1, co*k^3, L)
    out = _col2im(
        dcols.reshape(n, co * k**3, length), (n, co) + out_spatial, k, stride, in_spatial
    )
    if bias is not None:
        out += bias.data.reshape(1, co, 1, 1, 1)

    parents = (x, w) if bias is None else (x, w, bias)

    def backward_fn(g):
        if x.requires_grad or w.requires_grad:
            gcols, win_spatial = _im2col(g.reshape(n, co, *out_spatial), k, stride)
            assert win_spatial == in_spatial
            if x.requires_grad:
                dx = (wm @ gcols).reshape(x.shape)
                _accumulate(x, dx)
            if w.requires_grad:
                xm = x.data.reshape(n, ci, length)
                dw = np.matmul(xm, gcols.transpose(0, 2, 1)).sum(axis=0)
                _accumulate(w, dw.reshape(w.shape))
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

"""Tensor ops, gradients, spatial kernels, and the checkpoint format."""

import operator
import re
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from gliomaforge.autodiff import (
    MAGIC,
    Parameter,
    Tensor,
    channel_avg,
    channel_max,
    concat,
    conv3d,
    global_avg_pool,
    gradcheck,
    layer_norm,
    load_checkpoint,
    no_grad,
    save_checkpoint,
    softmax,
    transpose_conv3d,
    trilinear_resize,
)
from gliomaforge.autodiff import conv as conv_module
from gliomaforge.autodiff.conv import _blas_blocks, _correlate, _correlate_adjoint, _im2col
from gliomaforge.autodiff.tensor import _accumulate, _unbroadcast
from gliomaforge.errors import CheckpointError, GraphReleasedError, ShapeError


class TestElementwise:
    def test_sigmoid_zero(self):
        assert Tensor(np.array(0.0)).sigmoid().item() == 0.5

    def test_relu_values_and_grad(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        y = x.relu()
        np.testing.assert_array_equal(y.data, [0.0, 2.0])
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gelu_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        err = gradcheck(lambda t: t[0].gelu().sum(), [rng.normal(size=(7,))])
        assert err < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_arith_chain_gradcheck(self, seed):
        rng = np.random.default_rng(seed)

        def build(t):
            a, b = t
            return ((a * b + a - b / (a * a + 2.0)).exp().log() * a.sigmoid()).sum()

        err = gradcheck(build, [rng.uniform(0.5, 2, size=(4, 3)), rng.uniform(0.5, 2, size=(4, 3))])
        assert err < 1e-4

    def test_broadcast_size_one_only(self):
        a = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            a + Tensor(np.zeros((2, 4)))

    def test_broadcast_grad_reduces(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((1, 3)), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (1, 3)
        np.testing.assert_array_equal(b.grad, [[2.0, 2.0, 2.0]])


# The operand gradients of each broadcast op as its own closure computed
# them, before the four ops shared one node: (forward, d/da, d/db).
PER_OP_CLOSURES = {
    "add": (operator.add, lambda g, a, b: g, lambda g, a, b: g),
    "sub": (operator.sub, lambda g, a, b: g, lambda g, a, b: -g),
    "mul": (operator.mul, lambda g, a, b: g * b, lambda g, a, b: g * a),
    "div": (operator.truediv, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b)),
}


class TestBroadcastNode:
    """`+`, `-`, `*` and `/` record one broadcast node that computes a
    gradient only for an operand that requires one, with the bits of the
    per-op closures it replaced."""

    @staticmethod
    def upstream_backward(out, rng):
        # weighting by a random g makes g the node's upstream gradient exactly
        g = rng.uniform(0.5, 2.0, size=out.shape).astype(out.dtype)
        (out * Tensor(g)).sum().backward()
        return g

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("b_shape", [(3, 4, 5), (3, 1, 5), (1, 5), ()],
                             ids=["same", "size-1-axis", "leading", "0-d"])
    @pytest.mark.parametrize("op", sorted(PER_OP_CLOSURES))
    def test_two_tensors(self, op, b_shape, dtype):
        rng = np.random.default_rng(30)
        a = Tensor(rng.uniform(0.5, 2.0, size=(3, 4, 5)).astype(dtype), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 2.0, size=b_shape).astype(dtype), requires_grad=True)
        forward, grad_a, grad_b = PER_OP_CLOSURES[op]
        out = forward(a, b)
        assert out.data.tobytes() == forward(a.data, b.data).tobytes()
        g = self.upstream_backward(out, rng)
        ref_a = _unbroadcast(grad_a(g, a.data, b.data), a.shape)
        ref_b = _unbroadcast(grad_b(g, a.data, b.data), b.shape)
        assert a.grad.dtype == b.grad.dtype == dtype
        assert a.grad.tobytes() == ref_a.tobytes()
        assert b.grad.shape == b_shape and b.grad.tobytes() == ref_b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reflected", [False, True], ids=["t-op-s", "s-op-t"])
    @pytest.mark.parametrize("op", sorted(PER_OP_CLOSURES))
    def test_scalar_operand(self, op, reflected, dtype):
        rng = np.random.default_rng(31)
        t = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)).astype(dtype), requires_grad=True)
        s = np.dtype(dtype).type(2.5)
        forward, grad_a, grad_b = PER_OP_CLOSURES[op]
        a, b = (s, t.data) if reflected else (t.data, s)
        out = forward(2.5, t) if reflected else forward(t, 2.5)
        assert out.dtype == dtype and out.data.tobytes() == forward(a, b).tobytes()
        g = self.upstream_backward(out, rng)
        ref = grad_b(g, a, b) if reflected else grad_a(g, a, b)
        assert t.grad.tobytes() == np.asarray(ref).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", sorted(PER_OP_CLOSURES))
    def test_same_tensor_both_sides(self, op, dtype):
        # x op x: the first operand's gradient, then the second's added to it
        rng = np.random.default_rng(32)
        x = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)).astype(dtype), requires_grad=True)
        forward, grad_a, grad_b = PER_OP_CLOSURES[op]
        out = forward(x, x)
        assert out.data.tobytes() == forward(x.data, x.data).tobytes()
        x.grad = None  # so the reference need not add into zeros first
        g = self.upstream_backward(out, rng)
        ref = grad_a(g, x.data, x.data) + grad_b(g, x.data, x.data)
        assert x.grad.tobytes() == ref.tobytes()

    def test_constant_operand_allocates_no_gradient(self):
        # the backward of (x * c).sum() makes x's gradient and nothing else
        # of x's size; with no zeros to add into, that is one array
        rng = np.random.default_rng(33)
        x = Tensor(rng.normal(size=(64, 64, 32)), requires_grad=True)
        c = Tensor(rng.normal(size=(64, 64, 32)))
        loss = (x * c).sum()
        x.grad = None
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad.tobytes() == c.data.tobytes()
        assert x.data.nbytes <= peak < 1.5 * x.data.nbytes


class TestLeafGradient:
    """A leaf's first gradient since it was zeroed is kept as it is given;
    later ones are added to it, never in place."""

    def test_first_gradient_makes_no_second_array(self):
        # the backward of (x * c).sum() on a freshly zeroed leaf makes x's
        # gradient and nothing else of x's size
        rng = np.random.default_rng(34)
        x = Tensor(rng.normal(size=(64, 64, 32)), requires_grad=True)
        c = Tensor(rng.normal(size=(64, 64, 32)))
        loss = (x * c).sum()
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad.tobytes() == c.data.tobytes()
        assert x.data.nbytes <= peak < 1.5 * x.data.nbytes

    def test_read_only_first_gradient_then_a_sum(self):
        # sum's gradient is a read-only broadcast: it is kept, and the next
        # backward adds to it in a new array
        x = Parameter(np.arange(6.0).reshape(2, 3), name="x")
        x.sum().backward()
        assert not x.grad.flags.writeable
        first = x.grad
        (x * 2.0).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 3.0))
        np.testing.assert_array_equal(first, np.ones((2, 3)))
        x.zero_grad()
        (x * 2.0).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))

    def test_zeros_are_known_by_identity(self):
        # zeros assigned by the caller are added to, as any gradient is
        x = Tensor(np.ones(4), requires_grad=True)
        g = np.array([1.0, -0.0, 2.0, 3.0])
        _accumulate(x, g)
        assert np.shares_memory(x.grad, g)
        x.grad = np.zeros(4)
        _accumulate(x, g)
        assert not np.shares_memory(x.grad, g) and not np.signbit(x.grad).any()


SCALAR_OPS = {
    "add": lambda t, s: t + s,
    "radd": lambda t, s: s + t,
    "sub": lambda t, s: t - s,
    "rsub": lambda t, s: s - t,
    "mul": lambda t, s: t * s,
    "rmul": lambda t, s: s * t,
    "div": lambda t, s: t / s,
    "rdiv": lambda t, s: s / t,
    "pow": lambda t, s: t**s,
    "layer_norm": lambda t, s: layer_norm(
        t, Tensor(np.ones(3, dtype=t.dtype)), Tensor(np.zeros(3, dtype=t.dtype)), eps=s
    ),
    "softmax": lambda t, s: softmax(t, axis=-1) * s,
    "gelu": lambda t, s: t.gelu() * s,
}


class TestPrecision:
    """Scalar operands must not change the dtype the graph computes in."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scalar", [2.5, np.float64(2.5)], ids=["float", "np.float64"])
    @pytest.mark.parametrize("op", sorted(SCALAR_OPS))
    def test_forward_and_backward_keep_dtype(self, op, scalar, dtype):
        x = Tensor(np.random.default_rng(0).uniform(0.5, 2.0, size=(2, 3)).astype(dtype),
                   requires_grad=True)
        out = SCALAR_OPS[op](x, scalar)
        assert out.dtype == dtype
        out.sum().backward()
        assert x.grad.dtype == dtype


class TestMatmul:
    def test_hand_case(self):
        out = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])) @ Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_identity(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        np.testing.assert_array_equal((Tensor(a) @ Tensor(np.eye(3))).data, a)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        err = gradcheck(
            lambda t: (t[0] @ t[1]).sum(), [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]
        )
        assert err < 1e-6

    def test_batched_gradcheck(self):
        rng = np.random.default_rng(4)
        err = gradcheck(
            lambda t: (t[0] @ t[1]).sum(),
            [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))],
        )
        assert err < 1e-6

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))


class TestConv3d:
    def test_local_mean_of_constant(self):
        out = conv3d(
            Tensor(np.ones((1, 1, 3, 3, 3))),
            Tensor(np.full((1, 1, 3, 3, 3), 1 / 27)),
            stride=1,
            padding=1,
        )
        assert out.data[0, 0, 1, 1, 1] == pytest.approx(1.0)
        assert out.data[0, 0, 0, 0, 0] < 1.0  # zero padding thins the border

    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 1, 4, 4, 4))
        w = np.zeros((1, 1, 3, 3, 3))
        w[0, 0, 1, 1, 1] = 1.0
        out = conv3d(Tensor(x), Tensor(w), stride=1, padding=1)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_output_geometry(self):
        out = conv3d(Tensor(np.zeros((1, 1, 9, 9, 9))), Tensor(np.zeros((2, 1, 3, 3, 3))), stride=2, padding=1)
        assert out.shape == (1, 2, 5, 5, 5)  # floor((9+2-3)/2)+1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradcheck_grouped(self, seed):
        rng = np.random.default_rng(seed)
        err = gradcheck(
            lambda t: conv3d(t[0], t[1], bias=t[2], stride=1, padding=1, groups=2).sum(),
            [
                rng.normal(size=(1, 2, 4, 4, 4)),
                rng.normal(size=(2, 1, 3, 3, 3)),
                rng.normal(size=(2,)),
            ],
        )
        assert err < 1e-4

    def test_strided_gradcheck(self):
        rng = np.random.default_rng(6)
        err = gradcheck(
            lambda t: conv3d(t[0], t[1], stride=2, padding=1).sum(),
            [rng.normal(size=(2, 3, 5, 5, 5)), rng.normal(size=(4, 3, 3, 3, 3))],
        )
        assert err < 1e-4

    def test_geometry_errors(self):
        with pytest.raises(ShapeError):
            conv3d(Tensor(np.zeros((1, 3, 4, 4, 4))), Tensor(np.zeros((2, 1, 3, 3, 3))), groups=2)
        with pytest.raises(ShapeError):
            conv3d(Tensor(np.zeros((1, 1, 2, 2, 2))), Tensor(np.zeros((1, 1, 3, 3, 3))))
        # only dense (groups 1) and depthwise (groups == C == O) convs run
        with pytest.raises(ShapeError):
            conv3d(Tensor(np.zeros((1, 4, 4, 4, 4))), Tensor(np.zeros((4, 2, 3, 3, 3))), groups=2)


def scatter_loop(dcols, grid_shape, k, stride, win_spatial):
    """The general col2im scatter: one strided add per kernel offset."""
    n, c = grid_shape[:2]
    do, ho, wo = win_spatial
    grid = np.zeros(grid_shape, dtype=dcols.dtype)
    dcols = dcols.reshape(n, c, k, k, k, do, ho, wo)
    for a in range(k):
        for b in range(k):
            for q in range(k):
                grid[
                    :, :,
                    a : a + (do - 1) * stride + 1 : stride,
                    b : b + (ho - 1) * stride + 1 : stride,
                    q : q + (wo - 1) * stride + 1 : stride,
                ] += dcols[:, :, a, b, q]
    return grid


def block_diagonal(w):
    """The groups=1 weight of a depthwise weight: channel c reads only c."""
    c = w.shape[0]
    full = np.zeros((c, c) + w.shape[2:], dtype=w.dtype)
    full[np.arange(c), np.arange(c)] = w[:, 0]
    return full


class TestDepthwiseConv:
    """groups == C == O runs the tap path, not im2col; a dense conv with the
    block-diagonal weight is its oracle."""

    @pytest.mark.parametrize(
        "block", [None, 60, 700], ids=["one-block", "plane-blocks", "row-blocks"]
    )
    @pytest.mark.parametrize("stride, padding", [(1, 1), (1, 0), (2, 1), (2, 0)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_block_diagonal_dense_conv(
        self, monkeypatch, block, stride, padding, dtype
    ):
        # 7x6x5 leaves a remainder at stride 2; the small blocks split the 10
        # (N*C) rows 3,3,3,1 or the output depth planes into uneven runs
        if block is not None:
            monkeypatch.setattr(conv_module, "_DEPTHWISE_BLOCK", block)
        rng = np.random.default_rng(40 + stride + padding)
        x = rng.normal(size=(2, 5, 7, 6, 5)).astype(dtype)
        w = rng.normal(size=(5, 1, 3, 3, 3)).astype(dtype)
        b = rng.normal(size=(5,)).astype(dtype)
        out = conv3d(Tensor(x), Tensor(w), bias=Tensor(b), stride=stride, padding=padding,
                     groups=5)
        ref = conv3d(Tensor(x), Tensor(block_diagonal(w)), bias=Tensor(b), stride=stride,
                     padding=padding)
        assert out.dtype == dtype and out.shape == ref.shape
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(out.data, ref.data, rtol=tol, atol=tol)

    # A fixed random upstream weight, not .sum(): a forward and backward that
    # both mirror the tap index pass a constant upstream gradient.

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradcheck_weighted(self, stride):
        rng = np.random.default_rng(50 + stride)
        x = rng.normal(size=(2, 3, 5, 4, 5))
        probe = conv3d(Tensor(x), Tensor(np.zeros((3, 1, 3, 3, 3))), stride=stride, padding=1,
                       groups=3)
        weight = Tensor(rng.normal(size=probe.shape))
        err = gradcheck(
            lambda t: (conv3d(t[0], t[1], bias=t[2], stride=stride, padding=1, groups=3)
                       * weight).sum(),
            [x, rng.normal(size=(3, 1, 3, 3, 3)), rng.normal(size=(3,))],
        )
        assert err < 1e-4

    def test_padding_beyond_the_kernel_gradcheck(self):
        # with padding 4 > k - 1, the border outputs read only padding
        rng = np.random.default_rng(53)
        x = rng.normal(size=(1, 2, 3, 4, 2))
        weight = Tensor(rng.normal(size=(1, 2, 5, 5, 4)))
        err = gradcheck(
            lambda t: (conv3d(t[0], t[1], stride=2, padding=4, groups=2) * weight).sum(),
            [x, rng.normal(size=(2, 1, 3, 3, 3))],
        )
        assert err < 1e-4

    def test_never_builds_columns(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("depthwise conv called _im2col")

        monkeypatch.setattr(conv_module, "_im2col", refuse)
        rng = np.random.default_rng(52)
        x = Tensor(rng.normal(size=(1, 2, 4, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 1, 3, 3, 3)), requires_grad=True)
        conv3d(x, w, stride=2, padding=1, groups=2).sum().backward()
        assert x.grad.shape == x.shape and w.grad.shape == w.shape


class TestNonOverlappingWindows:
    """stride == k: the adjoint's reshape, and gradients through it."""

    @pytest.mark.parametrize(
        "grid_shape, k, win_spatial",
        [
            ((2, 3, 4, 6, 8), 2, (2, 3, 4)),  # exact fit
            ((1, 2, 5, 5, 5), 2, (2, 2, 2)),  # one-voxel remainder on every axis
            ((1, 2, 7, 7, 7), 2, (3, 3, 3)),  # a 5^3 input padded by 1
            ((1, 2, 9, 8, 10), 4, (2, 2, 2)),  # uneven remainders
            ((2, 3, 3, 4, 5), 1, (3, 4, 5)),  # 1x1 conv backward
        ],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_col2im_equals_scatter_loop(self, grid_shape, k, win_spatial, dtype):
        rng = np.random.default_rng(16)
        n, c = grid_shape[:2]
        dcols = rng.normal(size=(n, c * k**3, int(np.prod(win_spatial)))).astype(dtype)
        # the adjoint under an identity weight is col2im
        eye = np.eye(c * k**3, dtype=dtype).reshape(c * k**3, c, k, k, k)
        fast = _correlate_adjoint(dcols.reshape(n, -1, *win_spatial), eye, k, grid_shape)
        slow = scatter_loop(dcols, grid_shape, k, k, win_spatial)
        assert fast.dtype == slow.dtype
        assert fast.tobytes() == slow.tobytes()

    # A plain .sum() feeds a constant upstream gradient, which a wrong axis
    # order in the reshape would pass; a fixed random weighting does not.

    def test_pointwise_conv_gradcheck(self):
        rng = np.random.default_rng(17)
        weight = Tensor(rng.normal(size=(2, 4, 3, 4, 5)))
        err = gradcheck(
            lambda t: (conv3d(t[0], t[1], bias=t[2]) * weight).sum(),
            [rng.normal(size=(2, 3, 3, 4, 5)), rng.normal(size=(4, 3, 1, 1, 1)),
             rng.normal(size=(4,))],
        )
        assert err < 1e-4

    @pytest.mark.parametrize("padding", [0, 1])
    def test_strided_conv_with_remainder_gradcheck(self, padding):
        rng = np.random.default_rng(18 + padding)
        weight = Tensor(rng.normal(size=(1, 3, 2 + padding, 2 + padding, 2 + padding)))
        err = gradcheck(
            lambda t: (conv3d(t[0], t[1], stride=2, padding=padding) * weight).sum(),
            [rng.normal(size=(1, 2, 5, 5, 5)), rng.normal(size=(3, 2, 2, 2, 2))],
        )
        assert err < 1e-4

    @pytest.mark.parametrize("k", [2, 3])
    def test_transpose_conv_gradcheck(self, k):
        rng = np.random.default_rng(20 + k)
        weight = Tensor(rng.normal(size=(1, 3, 2 * k, 3 * k, 2 * k)))
        err = gradcheck(
            lambda t: (transpose_conv3d(t[0], t[1], bias=t[2], stride=k) * weight).sum(),
            [rng.normal(size=(1, 2, 2, 3, 2)), rng.normal(size=(2, 3, k, k, k)),
             rng.normal(size=(3,))],
        )
        assert err < 1e-4


class TestCorrelateAdjoint:
    """The kernel shared by conv3d's backward and transpose_conv3d's
    forward is the adjoint of the one shared by their other directions."""

    @pytest.mark.parametrize(
        "k, stride, padding, spatial",
        [
            (3, 1, 0, (5, 4, 6)),
            (3, 2, 0, (6, 5, 7)),  # a remainder past the last window
            (3, 2, 1, (6, 5, 7)),
            (2, 2, 0, (4, 6, 8)),  # stride == k, the windows tile the grid
            (2, 2, 1, (5, 5, 5)),  # stride == k with a remainder
        ],
    )
    def test_inner_products_match(self, k, stride, padding, spatial):
        rng = np.random.default_rng(70 + k + stride + padding)
        x = rng.normal(size=(2, 3) + spatial)
        w = rng.normal(size=(4, 3, k, k, k))
        grid = np.pad(x, ((0, 0), (0, 0)) + ((padding, padding),) * 3)
        fwd = _correlate(grid, w, stride)
        y = rng.normal(size=fwd.shape)
        back = _correlate_adjoint(y, w, stride, grid.shape)
        inner = (slice(None),) * 2 + tuple(slice(padding, padding + s) for s in spatial)
        assert np.sum(fwd * y) == pytest.approx(np.sum(x * back[inner]), rel=1e-12)


def one_shot_correlate(grid, w, stride):
    """`_correlate` as one product over the grid's whole column matrix."""
    k = w.shape[2]
    out_spatial = tuple((s - k) // stride + 1 for s in grid.shape[2:])
    return (w.reshape(len(w), -1) @ _im2col(grid, k, stride)).reshape(
        len(grid), len(w), *out_spatial
    )


class TestBlockedCorrelate:
    """`_correlate` builds each sample's columns a block of output depth
    planes at a time. Each block runs the one-shot matmul's rows over fewer
    columns, and every output column is summed in the same order, so the
    result is the one-shot im2col's to the bit. The sizes keep every
    block's matmul above BLAS's small-matrix kernels."""

    @pytest.mark.parametrize(
        "k, stride, padding, cin, cout, spatial, planes",
        [
            (7, 4, 3, 8, 48, (36, 64, 64), 2),  # 9 output planes: blocks 2, 2, 2, 2, 1
            (3, 2, 1, 48, 96, (16, 32, 32), 3),  # 8 planes: 3, 3, 2
            (1, 1, 0, 96, 96, (10, 32, 48), 3),  # 10 planes: 3, 3, 3, 1
        ],
    )
    def test_blocks_equal_one_shot_columns(
        self, monkeypatch, k, stride, padding, cin, cout, spatial, planes
    ):
        rng = np.random.default_rng(80 + k)
        x = rng.normal(size=(1, cin) + spatial).astype(np.float32)
        w = rng.normal(size=(cout, cin, k, k, k)).astype(np.float32)
        blocks = []

        def counting(padded, *args):
            blocks.append(padded.shape[2])
            return im2col(padded, *args)

        im2col = conv_module._im2col
        monkeypatch.setattr(conv_module, "_im2col", counting)
        # one sample, then two: each sample's columns are blocked alike
        for x in (x, np.concatenate([x, rng.normal(size=x.shape).astype(np.float32)])):
            grid = np.pad(x, ((0, 0), (0, 0)) + ((padding, padding),) * 3)
            one_shot = one_shot_correlate(grid, w, stride)
            do, ho, wo = one_shot.shape[2:]
            monkeypatch.setattr(
                conv_module, "_COLUMN_BLOCK_BYTES", planes * cin * k**3 * ho * wo * 4
            )
            blocks.clear()
            blocked = _correlate(grid, w, stride)
            assert len(blocks) == len(x) * -(-do // planes) > len(x)
            assert blocked.dtype == one_shot.dtype and blocked.shape == one_shot.shape
            assert blocked.tobytes() == one_shot.tobytes()

    def test_short_tail_joins_the_block_before(self, monkeypatch):
        # 9 output planes of 25 columns in blocks of 4: a 1-plane tail would
        # be an 8 x 2744 x 25 product, under the BLAS small-matrix cutoff,
        # which sums in another order; it joins the block before it
        rng = np.random.default_rng(85)
        grid = rng.normal(size=(1, 8, 15, 11, 11)).astype(np.float32)
        w = rng.normal(size=(8, 8, 7, 7, 7)).astype(np.float32)
        one_shot = one_shot_correlate(grid, w, 1)
        monkeypatch.setattr(conv_module, "_COLUMN_BLOCK_BYTES", 4 * 8 * 7**3 * 25 * 4)
        blocks = []

        def counting(padded, *args):
            blocks.append(padded.shape[2] - 6)
            return im2col(padded, *args)

        im2col = conv_module._im2col
        monkeypatch.setattr(conv_module, "_im2col", counting)
        blocked = _correlate(grid, w, 1)
        assert blocks == [4, 5]
        assert blocked.tobytes() == one_shot.tobytes()

    @pytest.mark.parametrize(
        "count, block, unit_cost, unit_len, bounds",
        [
            (9, 4, 548_800, 25, [0, 4, 9]),  # a tail under the cutoff joins
            (9, 4, 2_000_000, 25, [0, 4, 8, 9]),  # a tail above it stays
            (9, 1, 300_000, 25, [0, 4, 9]),  # blocks grow past the cutoff
            (3, 1, 300_000, 25, [0, 3]),  # the whole is under it: one block
            (4, 1, 2_000_000, 1, [0, 2, 4]),  # no one-row blocks
            (1, 1, 2_000_000, 1, [0, 1]),
        ],
    )
    def test_blas_blocks(self, count, block, unit_cost, unit_len, bounds):
        assert _blas_blocks(count, block, unit_cost, unit_len) == bounds

    def test_conv3d_holds_output_and_two_blocks(self, monkeypatch):
        # one-shot columns would be 2744 x 1800 floats, 18.8 MiB
        monkeypatch.setattr(conv_module, "_COLUMN_BLOCK_BYTES", 1 << 20)
        rng = np.random.default_rng(90)
        x = Tensor(rng.normal(size=(1, 8, 36, 64, 64)).astype(np.float32))
        w = Tensor(rng.normal(size=(48, 8, 7, 7, 7)).astype(np.float32))
        tracemalloc.start()
        try:
            out = conv3d(x, w, stride=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * 7**3 * out.shape[3] * out.shape[4] * 4  # one plane > 1 MiB
        assert out.shape == (1, 48, 8, 15, 15)
        assert peak <= out.data.nbytes + 2 * block


class TestTransposeConv3d:
    def test_non_overlapping_tiles(self):
        # stride = kernel: every output voxel receives exactly one term
        out = transpose_conv3d(
            Tensor(np.ones((1, 1, 2, 2, 2))), Tensor(np.ones((1, 1, 2, 2, 2))), stride=2
        )
        assert out.shape == (1, 1, 4, 4, 4)
        np.testing.assert_array_equal(out.data, np.ones((1, 1, 4, 4, 4)))

    def test_adjoint_of_conv(self):
        # exact-cover geometry: S = (So-1)*stride + k
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 5, 5, 5))
        w = rng.normal(size=(4, 3, 3, 3, 3))
        fwd = conv3d(Tensor(x), Tensor(w), stride=2)
        y = rng.normal(size=fwd.shape)
        back = transpose_conv3d(Tensor(y), Tensor(w), stride=2)
        lhs = np.sum(fwd.data * y)
        rhs = np.sum(x * back.data)
        assert lhs == pytest.approx(rhs, abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        err = gradcheck(
            lambda t: transpose_conv3d(t[0], t[1], bias=t[2], stride=2).sum(),
            [
                rng.normal(size=(1, 2, 3, 3, 3)),
                rng.normal(size=(2, 3, 2, 2, 2)),
                rng.normal(size=(3,)),
            ],
        )
        assert err < 1e-4

    @pytest.mark.parametrize("k, stride", [(2, 2), (4, 4), (3, 2)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_equals_full_columns_scattered(self, k, stride, dtype):
        # the offset-at-a-time slabs reproduce the whole column matrix's bytes
        rng = np.random.default_rng(60 + k)
        n, ci, co, spatial = 2, 48, 48, (4, 3, 2)
        x = rng.normal(size=(n, ci, *spatial)).astype(dtype)
        w = rng.normal(size=(ci, co, k, k, k)).astype(dtype)
        out = transpose_conv3d(Tensor(x), Tensor(w), stride=stride).data
        dcols = w.reshape(ci, co * k**3).T @ x.reshape(n, ci, -1)
        grid = (n, co) + tuple((s - 1) * stride + k for s in spatial)
        ref = scatter_loop(dcols, grid, k, stride, spatial)
        assert out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            transpose_conv3d(Tensor(np.zeros((1, 3, 2, 2, 2))), Tensor(np.zeros((2, 1, 2, 2, 2))))

    @pytest.mark.parametrize("k, stride", [(2, 2), (4, 4), (3, 2)])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_equals_shared_columns(self, k, stride, n, dtype):
        # each gradient builds its own columns of the upstream gradient, with
        # the bits of one column matrix shared by both
        rng = np.random.default_rng(61 + k)
        ci, co, spatial = 48, 24, (4, 3, 2)
        x = Tensor(rng.normal(size=(n, ci, *spatial)).astype(dtype), requires_grad=True)
        w = Tensor(rng.normal(size=(ci, co, k, k, k)).astype(dtype), requires_grad=True)
        out = transpose_conv3d(x, w, stride=stride)
        g = rng.normal(size=out.shape).astype(dtype)
        (out * Tensor(g)).sum().backward()
        cols = _im2col(g, k, stride)
        dx = (w.data.reshape(ci, -1) @ cols).reshape(x.shape)
        dw = np.matmul(x.data.reshape(n, ci, -1), cols.transpose(0, 2, 1)).sum(axis=0)
        assert x.grad.dtype == w.grad.dtype == dtype
        assert x.grad.tobytes() == dx.tobytes()
        assert w.grad.tobytes() == dw.reshape(w.shape).tobytes()


class TestPooling:
    def test_constant_input(self):
        x = Tensor(np.full((1, 3, 2, 2, 2), 4.5))
        assert np.all(channel_max(x).data == 4.5)
        assert np.all(channel_avg(x).data == 4.5)
        assert np.all(global_avg_pool(x).data == 4.5)

    def test_two_channel_voxel(self):
        x = np.zeros((1, 2, 1, 1, 1))
        x[0, 0] = 1.0
        x[0, 1] = 5.0
        t = Tensor(x)
        assert channel_max(t).data[0, 0, 0, 0, 0] == 5.0
        assert channel_avg(t).data[0, 0, 0, 0, 0] == 3.0

    def test_gap_gradient_is_uniform(self):
        x = Tensor(np.zeros((1, 2, 2, 2, 2)), requires_grad=True)
        global_avg_pool(x).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 2, 2, 2, 2), 1.0 / 8.0))

    def test_max_ties_route_to_first(self):
        x = Tensor(np.ones((1, 3, 1, 1, 1)), requires_grad=True)
        channel_max(x).sum().backward()
        np.testing.assert_array_equal(x.grad[0, :, 0, 0, 0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        err = gradcheck(
            lambda t: (channel_max(t[0]) * channel_avg(t[0])).sum()
            + global_avg_pool(t[0]).sum(),
            [rng.normal(size=(2, 3, 2, 2, 2))],
        )
        assert err < 1e-4


class TestSoftmaxLayerNorm:
    def test_softmax_uniform(self):
        out = softmax(Tensor(np.zeros(4)), axis=-1)
        np.testing.assert_allclose(out.data, 0.25)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 5))
        a = softmax(Tensor(x), axis=-1).data
        b = softmax(Tensor(x + 100.0), axis=-1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(9)
        out = softmax(Tensor(rng.normal(size=(3, 6)) * 10), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_softmax_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        picked = Tensor(rng.normal(size=(3, 5)))
        err = gradcheck(
            lambda t: (softmax(t[0], axis=-1) * picked).sum(), [rng.normal(size=(3, 5))]
        )
        assert err < 1e-4

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(3, 7, size=(4, 16)))
        out = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_layer_norm_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        err = gradcheck(
            lambda t: layer_norm(t[0], t[1], t[2]).sigmoid().sum(),
            [rng.normal(size=(4, 6)), rng.normal(size=(6,)), rng.normal(size=(6,))],
        )
        assert err < 1e-4


def composed_softmax(x, axis=-1):
    """Softmax as the four graph ops it was once composed of: the bits the
    one softmax node keeps, forward and backward."""
    shift = Tensor(np.max(x.data, axis=axis, keepdims=True))
    e = (x - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


class TestSoftmaxNode:
    CASES = {
        "last-axis": ((4, 7), -1),
        "axis-1": ((2, 4, 3, 5), 1),
        "length-1-axis": ((2, 3, 1), -1),  # attention against a single key
        "minus-inf": ((3, 6), -1),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_composed_graph(self, case, dtype):
        shape, axis = self.CASES[case]
        rng = np.random.default_rng(31)
        x = (rng.normal(size=shape) * 3).astype(dtype)
        if case == "minus-inf":
            x[1, 2] = -np.inf
        upstream = Tensor(rng.normal(size=shape).astype(dtype))
        runs = []
        for fn in (softmax, composed_softmax):
            with no_grad():
                off = fn(Tensor(x), axis=axis).data
            leaf = Tensor(x, requires_grad=True)
            out = fn(leaf, axis=axis)
            (out * upstream).sum().backward()
            runs.append((off, out.data, leaf.grad))
        for got, want in zip(*runs):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_gradcheck_with_length_one_axis(self):
        rng = np.random.default_rng(32)
        a, b = (Tensor(rng.normal(size=(3, 1, 4))) for _ in range(2))
        err = gradcheck(
            lambda t: (softmax(t[0], axis=1) * a + softmax(t[0], axis=-1) * b).sum(),
            [rng.normal(size=(3, 1, 4))],
        )
        assert err < 1e-4

    def test_one_node(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        out = softmax(x, axis=-1)
        assert out._parents == (x,)


class TestStructural:
    def test_concat_sizes(self):
        out = concat([Tensor(np.zeros((1, 2, 3))), Tensor(np.ones((1, 3, 3)))], axis=1)
        assert out.shape == (1, 5, 3)

    def test_concat_grad_splits(self):
        a = Tensor(np.zeros((1, 2)), requires_grad=True)
        b = Tensor(np.zeros((1, 3)), requires_grad=True)
        (concat([a, b], axis=1) * Tensor(np.arange(5.0)[None])).sum().backward()
        np.testing.assert_array_equal(a.grad, [[0.0, 1.0]])
        np.testing.assert_array_equal(b.grad, [[2.0, 3.0, 4.0]])

    def test_permute_roundtrip(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, 4))
        out = Tensor(x).permute(2, 0, 1).permute(1, 2, 0)
        np.testing.assert_array_equal(out.data, x)

    def test_reshape_permute_slice_gradcheck(self):
        rng = np.random.default_rng(12)
        err = gradcheck(
            lambda t: (t[0].reshape(6, 4).permute(1, 0)[1:3] * 2.0).sum(),
            [rng.normal(size=(2, 3, 4))],
        )
        assert err < 1e-6

    def test_resize_ramp_roundtrip(self):
        # interpolation oracle: 2x upsample then block-average restores a
        # linear ramp exactly away from the clamped border
        d = np.arange(6, dtype=np.float64)
        x = np.broadcast_to(d[:, None, None], (6, 6, 6)).copy()[None, None]
        up = trilinear_resize(Tensor(x), (12, 12, 12)).data
        back = up.reshape(1, 1, 6, 2, 6, 2, 6, 2).mean(axis=(3, 5, 7))
        np.testing.assert_allclose(back[0, 0, 1:-1], x[0, 0, 1:-1], atol=1e-9)
        assert np.max(np.abs(back - x)) <= 0.125 + 1e-9  # slope/8 at the border

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_resize_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        err = gradcheck(
            lambda t: trilinear_resize(t[0], (5, 4, 6)).sum(),
            [rng.normal(size=(1, 2, 3, 3, 3))],
        )
        assert err < 1e-4

    def test_resize_adjoint(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(1, 2, 3, 3, 3))
        xt = Tensor(x, requires_grad=True)
        out = trilinear_resize(xt, (6, 6, 6))
        y = rng.normal(size=out.shape)
        (out * Tensor(y)).sum().backward()
        assert np.sum(out.data * y) == pytest.approx(np.sum(x * xt.grad), abs=1e-9)


class TestBackward:
    def test_square_sum(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_unused_leaf_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(y.grad, np.zeros(3))

    def test_shared_node_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x.sum() + x.sum()).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3), requires_grad=True).backward()

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert not y.requires_grad
        assert y._parents == ()

    def test_backward_releases_the_graph(self):
        x = Tensor(np.arange(1.0, 4.0), requires_grad=True)
        w = Tensor(np.full(3, 0.5), requires_grad=True)
        hidden = x * w
        saved = weakref.ref(hidden.data)  # exp's closure reads it
        out = hidden.exp()
        loss = out.sum()
        del hidden
        loss.backward()
        assert saved() is None
        assert out.grad is None and loss.grad is None
        assert out._parents == () and out._backward_fn is None
        np.testing.assert_allclose(x.grad, 0.5 * np.exp(0.5 * np.arange(1.0, 4.0)))
        np.testing.assert_allclose(w.grad, np.arange(1.0, 4.0) * np.exp(0.5 * np.arange(1.0, 4.0)))

    def test_second_backward_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = ((x * 2.0) * 3.0).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, [6.0, 6.0, 6.0])
        with pytest.raises(GraphReleasedError, match="already used"):
            loss.backward()
        with pytest.raises(GraphReleasedError, match="already used"):
            (loss * 2.0).backward()  # a new graph over a released node
        np.testing.assert_array_equal(x.grad, [6.0, 6.0, 6.0])

    def test_deterministic_forward_backward(self):
        def run():
            rng = np.random.default_rng(14)
            x = Tensor(rng.normal(size=(1, 2, 5, 5, 5)).astype(np.float32), requires_grad=True)
            w = Tensor(rng.normal(size=(3, 2, 3, 3, 3)).astype(np.float32), requires_grad=True)
            out = conv3d(x, w, stride=2, padding=1).gelu().sum()
            out.backward()
            return out.item(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(gx1, gx2)
        np.testing.assert_array_equal(gw1, gw2)


def joined_checkpoint(arrays):
    """The whole file as one bytes object, built in memory: the streamed writer's reference."""
    chunks = [MAGIC]
    for name, arr in arrays.items():
        payload = np.asarray(arr, dtype="<f4", order="C")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", payload.ndim))
        chunks.append(struct.pack(f"<{payload.ndim}I", *payload.shape))
        chunks.append(payload.tobytes())
    return b"".join(chunks)


_rng = np.random.default_rng(17)
# inputs of rank 0 to 5: float64 cast to float32, a transposed view, an
# empty array and a non-ASCII name
CHECKPOINT_ARRAYS = {
    "scalar": np.float64(-1.25),
    "stem.bias": _rng.normal(size=5),
    "attn.q.weight": _rng.normal(size=(3, 4)).astype(np.float32).T,
    "empty": np.zeros((2, 0, 3)),
    "norm.weight": _rng.normal(size=(1, 2, 3, 4)).astype(np.float32),
    "stage1.kernel": _rng.normal(size=(2, 1, 3, 1, 2)),
    "größe.µ": np.float32([1.0, -0.0, np.inf]),
}


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        arrays = {
            "stem.low.w": rng.normal(size=(4, 1, 3, 3, 3)).astype(np.float32),
            "head.bias": rng.normal(size=(4,)).astype(np.float32),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arrays)
        back = load_checkpoint(path)
        assert list(back) == list(arrays)
        for key in arrays:
            np.testing.assert_array_equal(back[key], arrays[key])

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"x": np.zeros(2, dtype=np.float32)})
        assert path.read_bytes()[:8] == MAGIC == b"GFCK0001"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"x": np.arange(8, dtype=np.float32)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-6])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bytes_equal_the_joined_writer(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, CHECKPOINT_ARRAYS)
        assert path.read_bytes() == joined_checkpoint(CHECKPOINT_ARRAYS)
        back = load_checkpoint(path)
        assert list(back) == list(CHECKPOINT_ARRAYS)
        for name, arr in CHECKPOINT_ARRAYS.items():
            want = np.asarray(arr, dtype="<f4", order="C")
            assert back[name].dtype == want.dtype and back[name].shape == want.shape
            assert back[name].tobytes() == want.tobytes()

    def test_rank_zero_record(self, tmp_path):
        path = tmp_path / "scalar.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I1sI", 1, b"s", 0) + np.float32(2.5).tobytes())
        back = load_checkpoint(path)
        assert back["s"].shape == () and back["s"] == 2.5

    @pytest.mark.parametrize("scalar", [np.float32(3.5), np.float64(3.5), np.array(3.5)])
    def test_rank_zero_roundtrip(self, tmp_path, scalar):
        path = tmp_path / "scalar.ckpt"
        save_checkpoint(path, {"s": scalar, "w": np.ones((2, 1), dtype=np.float32)})
        record = struct.pack("<I1sI", 1, b"s", 0) + np.float32(3.5).tobytes()
        assert path.read_bytes()[8 : 8 + len(record)] == record
        back = load_checkpoint(path)
        assert back["s"].shape == () and back["s"] == 3.5
        assert back["w"].shape == (2, 1)

    def test_every_cut_is_a_checkpoint_error(self, tmp_path):
        blob = joined_checkpoint(CHECKPOINT_ARRAYS)
        ends, offset = {8}, 8
        for name, arr in CHECKPOINT_ARRAYS.items():
            payload = np.asarray(arr, dtype="<f4", order="C")
            offset += 8 + len(name.encode("utf-8")) + 4 * payload.ndim + payload.nbytes
            ends.add(offset)
        path = tmp_path / "cut.ckpt"
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            if cut in ends:
                assert len(load_checkpoint(path)) == sorted(ends).index(cut)
                continue
            with pytest.raises(CheckpointError, match=re.escape(str(path))):
                load_checkpoint(path)

    def test_duplicate_record(self, tmp_path):
        path = tmp_path / "dup.ckpt"
        record = joined_checkpoint({"w": np.ones(2)})[8:]
        path.write_bytes(MAGIC + record + record)
        with pytest.raises(CheckpointError, match="duplicate record 'w'"):
            load_checkpoint(path)

    def test_name_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "name.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I1sII", 1, b"\xff", 1, 1) + bytes(4))
        with pytest.raises(CheckpointError, match="byte 12 is not utf-8"):
            load_checkpoint(path)

    def test_load_holds_its_arrays_and_save_at_most_one_record(self, tmp_path):
        # peaks beyond what opening the file costs (its write buffer), with
        # 1 KiB for the Python objects of a record (its array, header bytes)
        rng = np.random.default_rng(16)
        arrays = {f"w{i}": rng.normal(size=(64, 32, 3, 3, 3)) for i in range(4)}
        path = tmp_path / "big.ckpt"
        header = 4 + len("w0") + 4 + 4 * 5
        record = header + 64 * 32 * 27 * 4
        back, peaks = {}, []
        tracemalloc.start()
        try:
            for step in (
                lambda: save_checkpoint(path, {}),
                lambda: save_checkpoint(path, arrays),  # float64: a float32 copy a record
                lambda: back.update(load_checkpoint(path)),
                lambda: save_checkpoint(path, back),  # float32: written as they are
            ):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                step()
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        opened, saved64, loaded, saved32 = peaks
        payload = sum(a.nbytes for a in back.values())
        assert payload == 4 * (record - header)
        assert saved64 - opened < record + 1024, (saved64, opened, record)
        assert saved32 - opened < 1024, (saved32, opened)
        assert payload <= loaded < 1.1 * payload, (loaded, payload)

    def test_parameter_names(self):
        p = Parameter(np.zeros((2, 2)), name="block0.attn.q")
        assert p.requires_grad
        assert p.name == "block0.attn.q"

"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and, when an operation involves a tensor that
requires gradients, records the parents and a closure that maps the
upstream gradient to parent gradients. backward() runs a reverse
topological sweep from a scalar loss and accumulates into .grad. An
operand that does not require a gradient (a constant such as a one-hot
target, a max shift or `eps`) gets none computed.

backward() releases the graph as it sweeps it: each node it reaches drops
its closure, its parents and its upstream gradient before the closure
runs, so an intermediate's saved arrays are freed once every node that
read them has run, and each intermediate gradient once it has been passed
on. Only leaves keep `.grad`; a non-leaf's is None afterwards. A graph
runs backward once: a second sweep that reaches a released node raises
GraphReleasedError instead of summing into gradients already given out.

Broadcasting is limited to numpy's size-1 rules. Compute stays in the
dtype of the operands, so the same graph code runs in float32 for
training and float64 for finite-difference checks. A scalar float
operand (a Python float, an np.float64, a 0-d array) takes the dtype of
the tensor it meets: under NumPy 2 promotion a float64 0-d array is not
"weak", so `x * 0.5` would otherwise turn a float32 tensor, and every
tensor and gradient downstream of it, into float64. Gradient arrays are
never mutated in place: a sum allocates, and a leaf's first gradient
since it was zeroed is kept as it is given, which may be an array another
leaf holds too, or a read-only broadcast. Adding it to the zeros would
give the same values, but for the sign of a zero, from a second array
and a full pass.
"""

from contextlib import contextmanager

import numpy as np

from ..errors import GraphReleasedError, ShapeError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference, metrics)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def is_grad_enabled():
    """Whether ops record the graph: False inside `no_grad`."""
    return _grad_enabled


def _unbroadcast(grad, shape):
    """Reduce a gradient back to the shape it was broadcast from."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Dense array with optional gradient tracking."""

    __array_priority__ = 100
    _released = False  # set once backward has swept this node
    _zeros = None  # the zeros `.grad` holds until a gradient arrives

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype.kind in "iub":
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        # leaves that require grad start at zeros so an unused leaf still
        # reports a well-defined (zero) gradient after backward; np.zeros
        # leaves a large buffer's pages untouched until it is written
        self.grad = self._zeros = np.zeros(arr.shape, arr.dtype) if requires_grad else None
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = self._zeros = np.zeros(self.shape, self.dtype) if self.requires_grad else None

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _records(parents):
        """Whether an op on `parents` records a node: grad on, one requires grad."""
        return _grad_enabled and any(p.requires_grad for p in parents)

    @staticmethod
    def _from_op(data, parents, backward_fn):
        out = Tensor(data)
        if Tensor._records(parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    def backward(self):
        """Accumulate d(self)/d(leaf) into every leaf's .grad, releasing
        the graph as the sweep goes (see the module docstring)."""
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._released:
                raise GraphReleasedError(
                    f"backward reached {node!r} of a graph that backward already used"
                )
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        # popping drops the sweep's own reference to each node as it runs
        while topo:
            node = topo.pop()
            backward_fn, grad = node._backward_fn, node.grad
            if backward_fn is None:
                continue  # a leaf keeps its gradient
            node._backward_fn, node._parents, node.grad = None, (), None
            node._released = True
            if grad is not None:
                backward_fn(grad)

    # -- elementwise -------------------------------------------------------

    def _coerce(self, value):
        """Wrap a non-Tensor operand; a scalar float takes this tensor's dtype."""
        if isinstance(value, Tensor):
            return value
        arr = np.asarray(value)
        if arr.ndim == 0 and arr.dtype.kind == "f":
            arr = arr.astype(self.dtype)
        return Tensor(arr)

    def _broadcast_op(self, other, ufunc, grad_self, grad_other):
        """Record `ufunc(self, other)` under numpy's size-1 broadcasting as one
        node. `grad_self(g, a, b)` and `grad_other(g, a, b)` map the upstream
        gradient to each operand's gradient at the output's shape (a, b the
        operands' data); each runs only if its operand requires a gradient,
        self first, and its result is reduced to the operand's shape."""
        other = self._coerce(other)
        try:
            np.broadcast_shapes(self.shape, other.shape)
        except ValueError:
            raise ShapeError(f"cannot broadcast {self.shape} with {other.shape}") from None

        def backward_fn(g):
            for operand, grad in ((self, grad_self), (other, grad_other)):
                if operand.requires_grad:
                    g_op = grad(g, self.data, other.data)
                    _accumulate(operand, _unbroadcast(g_op, operand.shape))

        return Tensor._from_op(ufunc(self.data, other.data), (self, other), backward_fn)

    def __add__(self, other):
        return self._broadcast_op(other, np.add, lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __neg__(self):
        def backward_fn(g):
            _accumulate(self, -g)

        return Tensor._from_op(-self.data, (self,), backward_fn)

    def __sub__(self, other):
        return self._broadcast_op(other, np.subtract, lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        return self._broadcast_op(other, np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._broadcast_op(
            other, np.true_divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b)
        )

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent):
        exponent = float(exponent)
        out_data = self.data**exponent

        def backward_fn(g):
            _accumulate(self, g * exponent * self.data ** (exponent - 1.0))

        return Tensor._from_op(out_data, (self,), backward_fn)

    def relu(self):
        def backward_fn(g):
            _accumulate(self, g * (self.data > 0))

        return Tensor._from_op(np.maximum(self.data, 0), (self,), backward_fn)

    def gelu(self):
        """Exact (erf-based) GELU."""
        out, cdf = gelu_values(self.data)

        def backward_fn(g):
            _accumulate(self, gelu_grad(g, self.data, cdf))

        return Tensor._from_op(out, (self,), backward_fn)

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward_fn(g):
            _accumulate(self, g * out_data * (1.0 - out_data))

        return Tensor._from_op(out_data, (self,), backward_fn)

    def exp(self):
        out_data = np.exp(self.data)

        def backward_fn(g):
            _accumulate(self, g * out_data)

        return Tensor._from_op(out_data, (self,), backward_fn)

    def log(self):
        def backward_fn(g):
            _accumulate(self, g / self.data)

        return Tensor._from_op(np.log(self.data), (self,), backward_fn)

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward_fn(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(self, np.broadcast_to(g, self.shape))

        return Tensor._from_op(out_data, (self,), backward_fn)

    def mean(self, axis=None, keepdims=False):
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        count = self.data.size // max(out_data.size, 1)

        def backward_fn(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(self, np.broadcast_to(g / count, self.shape))

        return Tensor._from_op(out_data, (self,), backward_fn)

    # -- structure ---------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src_shape = self.shape

        def backward_fn(g):
            _accumulate(self, g.reshape(src_shape))

        return Tensor._from_op(self.data.reshape(shape), (self,), backward_fn)

    def permute(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))

        def backward_fn(g):
            _accumulate(self, g.transpose(inverse))

        return Tensor._from_op(self.data.transpose(axes), (self,), backward_fn)

    def __getitem__(self, key):
        def backward_fn(g):
            full = np.zeros_like(self.data)
            full[key] = g
            _accumulate(self, full)

        return Tensor._from_op(self.data[key], (self,), backward_fn)

    def __matmul__(self, other):
        other = self._coerce(other)
        if self.ndim < 2 or other.ndim < 2 or self.shape[-1] != other.shape[-2]:
            raise ShapeError(f"matmul shapes {self.shape} and {other.shape} do not agree")

        def backward_fn(g):
            _accumulate(self, _unbroadcast(g @ other.data.swapaxes(-1, -2), self.shape))
            _accumulate(other, _unbroadcast(self.data.swapaxes(-1, -2) @ g, other.shape))

        return Tensor._from_op(self.data @ other.data, (self, other), backward_fn)


def gelu_values(x):
    """Exact (erf-based) GELU of an array, and the normal CDF that scales x;
    `Tensor.gelu` and graph-free forwards share it, so they share its bits."""
    from scipy.special import erf

    cdf = 0.5 * (1.0 + erf(x * x.dtype.type(1.0 / np.sqrt(2.0))))
    return x * cdf, cdf


def gelu_grad(g, x, cdf):
    """GELU's gradient at x under upstream g; `cdf` is from `gelu_values`."""
    pdf = np.exp(-0.5 * x * x) / x.dtype.type(np.sqrt(2.0 * np.pi))
    return g * (cdf + x * pdf)


def _accumulate(tensor, grad):
    if not tensor.requires_grad:
        return
    grad = grad.reshape(tensor.shape)
    # by identity, not value: zeros the caller assigned are added to
    zeros, tensor._zeros = tensor._zeros, None
    tensor.grad = grad if tensor.grad is None or tensor.grad is zeros else tensor.grad + grad


class Parameter(Tensor):
    """Trainable tensor with a name used as its checkpoint key.

    With `init`, `data` starts as a placeholder of the right shape and
    dtype, and the first read of `.data` calls `init()`, which must assign
    `.data`. `shape`, `dtype`, `size` and `ndim` read the placeholder
    without calling it. Assigning `.data` (a checkpoint load, say) cancels
    the pending `init`.
    """

    def __init__(self, data, name, init=None):
        super().__init__(data, requires_grad=True)
        self.name = name
        self._init = init

    @property
    def data(self):
        if self._init is not None:
            self._init()
        return self._data

    @data.setter
    def data(self, value):
        self._data = value
        self._init = None

    shape = property(lambda self: self._data.shape)
    ndim = property(lambda self: self._data.ndim)
    size = property(lambda self: self._data.size)
    dtype = property(lambda self: self._data.dtype)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def concat(tensors, axis=0):
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            _accumulate(t, g[tuple(index)])

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor._from_op(data, tuple(tensors), backward_fn)


def softmax(x, axis=-1):
    """Softmax along an axis with a detached max shift, as one graph node, in
    place on one new array; recorded, it keeps only the exponentials and their
    sums. Both ways keep the bits of the sub, exp, sum and divide it replaces."""
    e = x.data - np.max(x.data, axis=axis, keepdims=True)
    np.exp(e, out=e)
    s = e.sum(axis=axis, keepdims=True)

    def backward_fn(g):  # the divide's backward to e and s, the sum's to e, then exp's
        ds = _unbroadcast(-g * e / (s * s), s.shape)
        _accumulate(x, (g / s + ds) * e)

    out = e / s if Tensor._records((x,)) else np.divide(e, s, out=e)
    return Tensor._from_op(out, (x,), backward_fn)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis to mean 0 / var 1, then apply the affine."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / ((var + eps) ** 0.5) * gamma + beta

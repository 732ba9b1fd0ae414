"""Build a computation graph, backpropagate, and verify against finite
differences.

Tensors record their parents during the forward pass; backward() walks
the graph once in reverse topological order and accumulates gradients.
It releases the graph as it goes, so only leaves keep `.grad`, and a
graph runs backward once: a second backward() raises GraphReleasedError.
"""

import numpy as np

from gliomaforge.autodiff import Tensor, conv3d, no_grad, softmax
from gliomaforge.autodiff.gradcheck import gradcheck

# a small dense network: y = softmax(W2 relu(W1 x))
rng = np.random.default_rng(3)
x = Tensor(rng.normal(size=(1, 6)), requires_grad=True)
w1 = Tensor(rng.normal(size=(6, 8)) * 0.5, requires_grad=True)
w2 = Tensor(rng.normal(size=(8, 4)) * 0.5, requires_grad=True)

probs = softmax((x @ w1).relu() @ w2, axis=1)
loss = -(probs[:, 2]).log().sum()
loss.backward()
print(f"loss                : {loss.item():.6f}")
print(f"|dL/dx|   max entry : {np.abs(x.grad).max():.6f}")
print(f"|dL/dW1|  max entry : {np.abs(w1.grad).max():.6f}")

# the same graph checked against central finite differences
worst = gradcheck(
    lambda ts: -(softmax((ts[0] @ ts[1]).relu() @ ts[2], axis=1)[:, 2]).log().sum(),
    [x.data, w1.data, w2.data],
)
print(f"gradcheck worst rel error: {worst:.2e}")

# 3-D convolution gets the same treatment
worst = gradcheck(
    lambda ts: conv3d(ts[0], ts[1], stride=1, padding=1).sum(),
    [rng.normal(size=(1, 2, 4, 4, 4)), rng.normal(size=(3, 2, 3, 3, 3))],
)
print(f"conv3d gradcheck rel err : {worst:.2e}")

# no_grad suppresses graph construction entirely
with no_grad():
    y = (x @ w1).relu() @ w2
print("graph recorded under no_grad:", y.requires_grad)

"""Tour of the tensor core: build a graph, run backward, verify with FD.

Run:  python3 demos/autodiff_walkthrough.py
"""

import numpy as np

from aligndet import tensor as T
from aligndet.tensor import Tensor, grad_check

print("== scalar chain rule ==")
x = Tensor(np.array(3.0, dtype=np.float64))
u = T.add(T.mul(x, 2.0), 1.0)                               # 2x+1
y = T.tensor_sum(T.mul(u, u))                               # (2x+1)^2
y.backward()
print(f"d/dx (2x+1)^2 at x=3: {x.grad}  (expected {4 * (2 * 3 + 1)})")

print("\n== a small conv + relu + pool graph ==")
rng = np.random.default_rng(0)
img = Tensor(rng.normal(size=(6, 6, 2)).astype(np.float64))
w = Tensor(rng.normal(size=(3, 3, 2, 4)).astype(np.float64) * 0.3)
b = Tensor(np.zeros(4, dtype=np.float64))

def network(params):
    h = T.relu(T.conv2d(img, params["w"], params["b"], pad=1))
    return T.tensor_sum(T.mul(T.global_avg_pool([h]), T.global_avg_pool([h])))

loss = network({"w": w, "b": b})
loss.backward()
print(f"loss {float(loss.data):.6f}, |dL/dw| max {np.abs(w.grad).max():.6f}")

err = grad_check(network, {"w": w, "b": b}, eps=1e-5)
print(f"finite-difference check, max relative error: {err:.2e}")

print("\n== bilinear sampling is differentiable in the coordinates ==")
m = Tensor(np.arange(16, dtype=np.float64).reshape(4, 4, 1))
# cell (1, 2) samples at offset (0.5, 0.25); v reads that one sample
o = np.zeros((4, 4, 2))
o[1, 2] = (0.5, 0.25)
o = Tensor(o)
pick = np.zeros((4, 4, 1))
pick[1, 2] = 1.0
v = T.tensor_sum(T.mul(T.bilinear_sample_per_channel(m, o), pick))
v.backward()
print(f"sample at (1.5, 2.25) = {float(v.data)}; dv/di = {o.grad[1, 2, 0]} (row step is 4)")

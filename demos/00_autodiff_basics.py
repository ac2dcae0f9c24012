"""A minimal tour of the tensor substrate: taped ops, backward, Adam.

Run:  python demos/00_autodiff_basics.py
"""

from rgtrec import tensor as T

# 1. forward + backward on a tiny expression ----------------------------------
# a tensor's dtype is its data's: Python floats give float64
x = T.parameter([[1.0, 2.0], [3.0, 4.0]])
w = T.parameter([[0.5, 1.0], [-0.5, 0.0]])

with T.Tape() as tape:
    y = T.logsumexp_rows(T.linear(x, w))  # x @ w.T, the one dense product
    loss = T.tsum(T.mul(y, y))
    grads = T.backward(loss, tape)  # {tensor: gradient}, one entry per leaf

print("loss      ", float(loss.values))
print("dloss/dx  \n", grads[x])
print("dloss/dw  \n", grads[w])

# 2. check one gradient entry against a central finite difference -------------
h = 1e-6
orig = x.values[0, 0]
x.values[0, 0] = orig + h
up = float(T.tsum(T.square(T.logsumexp_rows(T.linear(x, w)))).values)
x.values[0, 0] = orig - h
down = float(T.tsum(T.square(T.logsumexp_rows(T.linear(x, w)))).values)
x.values[0, 0] = orig
print("analytic  ", grads[x][0, 0])
print("numeric   ", (up - down) / (2 * h))

# 3. Adam drives a quadratic toward its minimum -------------------------------
p = T.parameter([4.0])
opt = T.Adam({"p": p}, lr=0.2)
for step in range(120):
    with T.Tape() as tape:
        loss = T.tsum(T.square(p))
        grads = T.backward(loss, tape)
    opt.step(grads)
    if step % 30 == 29:
        print(f"step {step + 1:3d}: p = {float(p.values[0]):+.4f}")
print("target 0; note the constant-magnitude early steps, then the damping")

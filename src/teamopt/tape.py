"""Reverse-mode autodiff over float64 numpy arrays.

The reference the closed-form training gradients are tested against; no
training path uses it. A minimal tape: just enough primitives for MLP
forward passes, calibrated probability pipelines and the team-utility
surrogate losses. Every node carries a value and one vector-Jacobian
closure per parent; `backward` walks the graph once in reverse
topological order and skips the closures of parents that need no
gradient. Values may carry a leading replica axis (R stacked trainings of
the same shapes); the primitives broadcast over it and reduce gradients
back to each operand's shape. Not a general-purpose autograd.
"""

from __future__ import annotations

import numpy as np

from .numerics import Workspace, stable_sigmoid


class Node:
    __slots__ = ("data", "grad", "parents", "vjps", "needs_grad")
    # numpy operators defer to Node, so `array * node` builds a tape node.
    __array_ufunc__ = None

    def __init__(self, data, parents=(), vjps=None, needs_grad=False):
        self.data = data
        self.grad = None
        self.parents = parents
        self.vjps = vjps
        self.needs_grad = needs_grad

    @property
    def shape(self):
        return self.data.shape

    def __add__(self, other):
        return add(self, wrap(other))

    def __radd__(self, other):
        return add(wrap(other), self)

    def __sub__(self, other):
        return sub(self, wrap(other))

    def __rsub__(self, other):
        return sub(wrap(other), self)

    def __mul__(self, other):
        return mul(self, wrap(other))

    def __rmul__(self, other):
        return mul(wrap(other), self)

    def __truediv__(self, other):
        return div(self, wrap(other))

    def __neg__(self):
        return mul(self, constant(np.float64(-1.0)))


def constant(x) -> Node:
    return Node(np.asarray(x, dtype=np.float64))


def param(x) -> Node:
    return Node(np.asarray(x, dtype=np.float64), needs_grad=True)


def wrap(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    # Sum gradient back down to the broadcast source's shape.
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _binary(a: Node, b: Node, data, da, db) -> Node:
    # One vjp per parent; `backward` calls only those of parents that
    # need a gradient, so constant inputs cost nothing on the way back.
    ng = a.needs_grad or b.needs_grad
    return Node(data, (a, b), (da, db) if ng else None, ng)


def _unary(a: Node, data, da) -> Node:
    return Node(data, (a,), (da,) if a.needs_grad else None, a.needs_grad)


def add(a: Node, b: Node) -> Node:
    return _binary(a, b, a.data + b.data,
                   lambda g: _unbroadcast(g, a.data.shape),
                   lambda g: _unbroadcast(g, b.data.shape))


def sub(a: Node, b: Node) -> Node:
    return _binary(a, b, a.data - b.data,
                   lambda g: _unbroadcast(g, a.data.shape),
                   lambda g: _unbroadcast(-g, b.data.shape))


def mul(a: Node, b: Node) -> Node:
    return _binary(a, b, a.data * b.data,
                   lambda g: _unbroadcast(g * b.data, a.data.shape),
                   lambda g: _unbroadcast(g * a.data, b.data.shape))


def div(a: Node, b: Node) -> Node:
    out = a.data / b.data
    return _binary(a, b, out,
                   lambda g: _unbroadcast(g / b.data, a.data.shape),
                   lambda g: _unbroadcast(-g * out / b.data, b.data.shape))


def matmul(a: Node, b: Node) -> Node:
    # Batched over leading axes: a stack of R replicas is one call, and a
    # 2D operand broadcasts against the stack.
    return _binary(a, b, a.data @ b.data,
                   lambda g: _unbroadcast(g @ np.swapaxes(b.data, -1, -2),
                                          a.data.shape),
                   lambda g: _unbroadcast(np.swapaxes(a.data, -1, -2) @ g,
                                          b.data.shape))


def relu(a: Node) -> Node:
    mask = a.data > 0.0
    return _unary(a, a.data * mask, lambda g: g * mask)


def sigmoid(a: Node) -> Node:
    out = stable_sigmoid(a.data, Workspace())
    return _unary(a, out, lambda g: g * out * (1.0 - out))


def exp(a: Node) -> Node:
    out = np.exp(a.data)
    return _unary(a, out, lambda g: g * out)


def log(a: Node) -> Node:
    return _unary(a, np.log(a.data), lambda g: g / a.data)


def clamp_min(a: Node, lo: float) -> Node:
    # Gradient passes only where the clamp is inactive.
    mask = a.data > lo
    return _unary(a, np.maximum(a.data, lo), lambda g: g * mask)


def softmax(a: Node, axis: int = -1, tau: float = 1.0) -> Node:
    z = a.data / tau
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - dot) / tau

    return _unary(a, out, vjp)


def sum_(a: Node, axis=None, keepdims: bool = False) -> Node:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.data.shape).copy()

    return _unary(a, out, vjp)


def reshape(a: Node, shape) -> Node:
    orig = a.data.shape
    return _unary(a, a.data.reshape(shape), lambda g: g.reshape(orig))


def backward(root: Node) -> None:
    """Accumulate gradients of `root` (summed if non-scalar) into the graph."""
    topo: list[Node] = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node.needs_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))

    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node.vjps is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            if parent.needs_grad:
                g = vjp(node.grad)
                parent.grad = g if parent.grad is None else parent.grad + g

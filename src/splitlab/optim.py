"""SGD and Adam parameter updates, over the gradients ``backward`` left on
the parameters."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor
from .errors import ConfigError, ShapeError


class Optimizer:
    def __init__(self, params: list[Tensor], lr: float):
        self.params = list(params)
        self.lr = float(lr)
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def _grads(self) -> list[np.ndarray]:
        grads = [p.grad for p in self.params]
        for i, g in enumerate(grads):
            if g is None:
                raise ShapeError(f"optimizer step: parameter {i} has no gradient")
        return grads

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    def step(self) -> None:
        grads = self._grads()
        self.step_count += 1
        for p, g in zip(self.params, grads):
            p.data -= np.float32(self.lr) * g


GROUP_LIMIT = 1 << 16  # most elements Adam updates as one flat group


class Adam(Optimizer):
    """Bias-corrected Adam with the usual betas and epsilon.

    Consecutive parameters share one flat ``m``, ``v`` and pass while their
    group stays within ``GROUP_LIMIT`` elements; a larger parameter is a
    group of its own. Every element sees the per-tensor update's float32
    operations in the same order, in place through two scratch arrays made
    per step. The groups, as (parameter, start, stop) in the flat arrays,
    and the float32 constants are set once, at construction.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        super().__init__(params, lr)
        self.groups: list[list[tuple[Tensor, int, int]]] = []
        size = GROUP_LIMIT
        for p in self.params:
            if size + p.data.size > GROUP_LIMIT:
                self.groups.append([])
                size = 0
            self.groups[-1].append((p, size, size + p.data.size))
            size += p.data.size
        self.m = [np.zeros(group[-1][2], np.float32) for group in self.groups]
        self.v = [np.zeros_like(m) for m in self.m]
        b1, b2 = np.float32(self.BETA1), np.float32(self.BETA2)
        self._consts = (b1, b2, 1 - b1, 1 - b2, np.float32(self.lr), np.float32(self.EPS))

    def step(self) -> None:
        self._grads()  # every parameter has one, before any moves
        self.step_count += 1
        t = self.step_count
        c1 = np.float32(1.0 - self.BETA1**t)
        c2 = np.float32(1.0 - self.BETA2**t)
        b1, b2, a1, a2, lr, eps = self._consts
        mul, div, add = np.multiply, np.divide, np.add
        for group, m, v in zip(self.groups, self.m, self.v):
            s, d = np.empty_like(m), np.empty_like(m)
            # A group's gradients are joined into d, which nothing reads
            # until after their last use.
            g = (group[0][0].grad.reshape(-1) if len(group) == 1 else
                 np.concatenate([p.grad for p, _, _ in group], axis=None, out=d))
            # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and the update
            # lr*(m/c1) / (sqrt(v/c2) + eps), rounded op by op as written.
            add(mul(m, b1, m), mul(a1, g, s), m)
            add(mul(v, b2, v), mul(mul(a2, g, s), g, s), v)
            mul(lr, div(m, c1, s), s)
            add(np.sqrt(div(v, c2, d), d), eps, d)
            div(s, d, s)
            for p, start, stop in group:
                data = p.data
                np.subtract(data, s[start:stop].reshape(data.shape), data)


OPTIMIZERS = {"sgd": SGD, "adam": Adam}


def make_optimizer(kind: str, params: list[Tensor], lr: float) -> Optimizer:
    if kind not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {kind!r}")
    return OPTIMIZERS[kind](params, lr)


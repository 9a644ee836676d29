"""SGD and Adam parameter updates, and the supervised epoch loop on them."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, backward, cross_entropy
from .data import epoch_batches
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
        grads = []
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ShapeError(f"optimizer step: parameter {i} has no gradient")
            grads.append(p.grad)
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
    operations in the same order, in place through two scratch arrays.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        super().__init__(params, lr)
        self.groups: list[list[int]] = []  # parameter indices, in order
        size = GROUP_LIMIT
        for i, p in enumerate(self.params):
            if size + p.data.size > GROUP_LIMIT:
                self.groups.append([])
                size = 0
            self.groups[-1].append(i)
            size += p.data.size
        self.m = [np.zeros(sum(self.params[i].data.size for i in g), np.float32)
                  for g in self.groups]
        self.v = [np.zeros_like(m) for m in self.m]

    def step(self) -> None:
        grads = self._grads()
        self.step_count += 1
        t = self.step_count
        b1, b2 = np.float32(self.BETA1), np.float32(self.BETA2)
        a1, a2 = 1 - b1, 1 - b2
        c1 = np.float32(1.0 - self.BETA1**t)
        c2 = np.float32(1.0 - self.BETA2**t)
        lr, eps = np.float32(self.lr), np.float32(self.EPS)
        mul, div = np.multiply, np.divide
        for group, m, v in zip(self.groups, self.m, self.v):
            g = (grads[group[0]].reshape(-1) if len(group) == 1 else
                 np.concatenate([grads[i].reshape(-1) for i in group]))
            s, d = np.empty_like(m), np.empty_like(m)
            # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and the update
            # lr*(m/c1) / (sqrt(v/c2) + eps), rounded op by op as written.
            m *= b1
            m += mul(a1, g, s)
            v *= b2
            v += mul(mul(a2, g, s), g, s)
            mul(lr, div(m, c1, s), s)
            np.sqrt(div(v, c2, d), d)
            d += eps
            s /= d
            start = 0
            for i in group:
                p = self.params[i]
                n = p.data.size
                p.data -= s[start:start + n].reshape(p.data.shape)
                start += n


OPTIMIZERS = {"sgd": SGD, "adam": Adam}


def make_optimizer(kind: str, params: list[Tensor], lr: float) -> Optimizer:
    if kind not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {kind!r}")
    return OPTIMIZERS[kind](params, lr)


def fit_epoch(stack, opt: Optimizer, inputs: np.ndarray, labels: np.ndarray,
              batch_size: int, seed: int, epoch: int) -> list[float]:
    """One epoch of cross-entropy training of ``stack`` in ``epoch_order``;
    returns the loss of every step."""
    losses = []
    for idx in epoch_batches(len(labels), batch_size, seed, epoch):
        opt.zero_grad()
        loss = cross_entropy(stack.forward(Tensor(inputs[idx])),
                             labels[idx].astype(np.int64))
        backward(loss)
        opt.step()
        losses.append(float(loss.data))
    return losses

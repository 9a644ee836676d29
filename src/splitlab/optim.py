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


class Adam(Optimizer):
    """Bias-corrected Adam with the usual defaults."""

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(params, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        grads = self._grads()
        self.step_count += 1
        t = self.step_count
        b1, b2 = np.float32(self.beta1), np.float32(self.beta2)
        c1 = np.float32(1.0 - self.beta1**t)
        c2 = np.float32(1.0 - self.beta2**t)
        lr, eps = np.float32(self.lr), np.float32(self.eps)
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


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

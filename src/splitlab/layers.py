"""Primitive layers chained into networks.

A layer names its autograd op by ``kind`` and owns its parameters, if
any. Shape rules live only in the ops: each op checks its input and
computes its output shape, so a layer states neither.

Ops are looked up on ``autograd`` at every call, never bound at import,
so that a function patched onto the module (a tracer's span wrapper,
say) is the one that runs.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor


def _uniform_f32(rng: np.random.Generator, low: float, high: float,
                shape: tuple[int, ...]) -> np.ndarray:
    """``rng.uniform(low, high, shape).astype(np.float32)``, bit for bit and
    without its slower fill: ``low + (high - low)·u`` in float64, ``u`` one
    ``rng.random`` double per element as ``uniform`` draws it, rounded to
    float32 once."""
    u = rng.random(shape)
    u *= high - low
    out = np.empty(shape, dtype=np.float32)
    np.add(u, low, out=out, casting="same_kind")
    return out


class Layer:
    """A parameter-free layer: ``forward`` applies ``autograd.<kind>`` to
    the input."""

    kind = "layer"

    def forward(self, x: Tensor) -> Tensor:
        return getattr(ag, self.kind)(x)

    def params(self) -> list[Tensor]:
        return []

    def init(self, rng: np.random.Generator) -> None:
        pass

    def __repr__(self) -> str:
        return f"<{self.kind}>"


class Weighted(Layer):
    """A layer with a ``weight`` and a ``bias``, both drawn uniform in
    ±1/sqrt(fan-in), weight first; ``forward`` applies ``autograd.<kind>``
    to the input, the weight and the bias."""

    def __init__(self, weight_shape: tuple[int, ...]):
        self.weight = Tensor(np.zeros(weight_shape, dtype=np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(weight_shape[0], dtype=np.float32), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return getattr(ag, self.kind)(x, self.weight, self.bias)

    def params(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def init(self, rng: np.random.Generator) -> None:
        bound = 1.0 / np.sqrt(self.weight.data[0].size)
        for p in self.params():
            p.data = _uniform_f32(rng, -bound, bound, p.data.shape)


class Conv2d(Weighted):
    """Stride-1 convolution with zero padding preserving spatial dims."""

    kind = "conv2d"

    def __init__(self, in_ch: int, out_ch: int, kernel: int = 3):
        super().__init__((out_ch, in_ch, kernel, kernel))


class FullyConnected(Weighted):
    kind = "fc"

    def __init__(self, in_features: int, out_features: int):
        super().__init__((out_features, in_features))

    def forward(self, x):
        return ag.linear(x, self.weight, self.bias)


class ReLU(Layer):
    kind = "relu"


class Sigmoid(Layer):
    kind = "sigmoid"


class MaxPool2x2(Layer):
    kind = "maxpool2x2"


class Flatten(Layer):
    kind = "flatten"


class Softmax(Layer):
    kind = "softmax"


class LayerStack:
    """An ordered list of layers applied in sequence."""

    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def params(self) -> list[Tensor]:
        out: list[Tensor] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def __len__(self) -> int:
        return len(self.layers)

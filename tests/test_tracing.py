"""The bench tracer's contract with the package: every op it patches on
``splitlab.autograd`` is the one a layer runs, forward and backward."""

import importlib.util
from pathlib import Path

import numpy as np

import splitlab  # noqa: F401  (the tracer patches every loaded splitlab module)
from splitlab import autograd as ag
from splitlab.autograd import Tensor
from splitlab.layers import (Conv2d, Flatten, FullyConnected, LayerStack,
                             MaxPool2x2, ReLU, Sigmoid, Softmax)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_op_is_traced():
    stack = LayerStack([Conv2d(1, 2, 3), MaxPool2x2(), ReLU(), Sigmoid(),
                        Flatten(), FullyConnected(8, 3), Softmax()])
    rng = np.random.default_rng(0)
    for layer in stack.layers:
        layer.init(rng)
    x = Tensor(rng.uniform(size=(2, 1, 4, 4)).astype(np.float32))

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        ag.backward(ag.cross_entropy(stack.forward(x), np.array([0, 2])))
    finally:
        tracer.uninstall()
    names = {span[0] for log in tracer.drain() for span in log.spans}
    for op in ("conv2d", "maxpool2x2", "relu", "sigmoid", "linear", "softmax"):
        assert f"autograd.{op}.fwd" in names
        assert f"autograd.{op}.bwd" in names

"""Label inference from the gradients a loss-owning client sends back.

For a single stochastic training step the server knows the activations it
sent to the client tail and the gradients the client's own loss step
(``protocol.loss_forward_backward``) sent back. It compares them with the
gradients a fresh random clone of the tail architecture would produce
under every candidate label, and picks the candidate whose parameter
gradients are closest (mean squared over all tail parameters) to the
received ones. One clone is drawn per inference.

All candidates share the clone's forward pass, so one backward pass of a
matrix with a row per candidate gives each candidate's gradient at every
layer output. An fc layer's weight gradient for a candidate is the outer
product ``d aᵀ`` of its output-gradient row ``d`` and the layer input
``a``, whose squared distance to a received ``G`` is
``|d|²|a|² − 2 d·(G a) + |G|²`` (after Goodfellow, arXiv:1510.01799), so
no candidate's gradients are ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor
from ..errors import ConfigError, TieError
from ..layers import LayerStack
from ..models import build_layers, tail_start_index
from ..protocol import loss_forward_backward

_EVAL_BATCH = 256  # rows per forward when tail_accuracy scores a set


@dataclass
class LabelInferenceResult:
    label: int
    distances: np.ndarray  # one distance per candidate label
    margin: float  # second-best minus best distance
    tie: bool  # best distance shared by several candidates


def make_tail_clone(arch: str, tail_depth: int, seed: int | list[int]) -> LayerStack:
    """Fresh random clone of the last ``tail_depth`` fc layers of an arch,
    equal to the same layers of ``build_net(arch, seed)``."""
    return LayerStack(build_layers(arch, seed, tail_start_index(arch, tail_depth)))


def tail_param_gradients(tail: LayerStack, smashed: np.ndarray,
                         label: int) -> list[np.ndarray]:
    """The GRAD a loss-owning client sends after its own batch-1 loss step
    (``protocol.loss_forward_backward``) on ``tail`` from ``smashed``: the
    cut gradient, then the tail's parameter gradients, as stored."""
    for p in tail.params():
        p.grad = None
    _, gcut = loss_forward_backward(tail, Tensor(smashed, requires_grad=True), [label])
    return [gcut, *(p.grad for p in tail.params())]


# How each kind of tail layer carries the candidate rows ``d`` (gradients
# at its output ``s``) back to its input ``a``, as the layer's VJP does.
_CARRY = {
    "fc": lambda d, layer, a, s: d @ layer.weight.data,
    "relu": lambda d, layer, a, s: d * (a > 0),
    "sigmoid": lambda d, layer, a, s: d * s * (1.0 - s),
}


def _fc_distances(d: np.ndarray, a: np.ndarray, gw: np.ndarray,
                  gb: np.ndarray) -> np.ndarray:
    """Per candidate row of ``d``, the float64 squared distance from the fc
    gradients ``(outer(d, a), d)`` to the received ``(gw, gb)``."""
    d64, a64, gw64 = d.astype(np.float64), a.astype(np.float64), gw.astype(np.float64)
    flat = gw64.ravel()
    return ((d64 * d64).sum(axis=1) * (a64 @ a64)
            - 2.0 * (d64 @ (gw64 @ a64))
            + flat @ flat
            + ((d64 - gb) ** 2).sum(axis=1))


def _candidate_distances(grad_received, smashed_in: np.ndarray,
                        clone_tail: LayerStack) -> np.ndarray:
    """Mean squared distance between the received tail gradients and the
    clone's gradients under each candidate label, one per clone output,
    in closed form."""
    params = clone_tail.params()
    received = [np.asarray(g, dtype=np.float32) for g in grad_received]
    if [g.shape for g in received] != [p.data.shape for p in params]:
        raise ConfigError(
            f"clone gradient shapes {[p.data.shape for p in params]} != received "
            f"{[g.shape for g in received]}; clone architecture does not match "
            "the client tail"
        )
    *layers, last = clone_tail.layers
    if last.kind != "softmax":
        raise ConfigError(f"clone tail must end in softmax, not {last.kind!r}")
    try:
        carries = [_CARRY[layer.kind] for layer in layers]
    except KeyError as e:
        raise ConfigError(f"closed-form label inference has no rule for a "
                          f"{e.args[0]!r} layer") from None
    x = Tensor(smashed_in)
    acts = [x.data[0]]  # acts[i] is the input of layer i, acts[-1] the probs
    for layer in clone_tail.layers:
        x = layer.forward(x)
        acts.append(x.data[0])
    probs = acts[-1]
    # Seed rows as cross_entropy's and softmax's VJPs compute them, in float32.
    rows = np.arange(probs.size)
    g = np.zeros((probs.size, probs.size), dtype=np.float32)
    g[rows, rows] = np.float32(-1.0) / np.clip(probs, 1e-12, None)
    d = probs * (g - (g * probs).sum(axis=1, keepdims=True))
    total = np.zeros(probs.size, dtype=np.float64)
    for i in range(len(layers) - 1, -1, -1):
        layer, a = layers[i], acts[i]
        if layer.kind == "fc":
            gb, gw = received.pop(), received.pop()
            total += _fc_distances(d, a, gw, gb)
        if i:
            d = carries[i](d, layer, a, acts[i + 1])
    return total / sum(p.data.size for p in params)


def infer_label(
    grad_received,
    smashed_in: np.ndarray,
    clone_tail: LayerStack,
) -> LabelInferenceResult:
    """Infer the label behind one stochastic step.

    ``grad_received`` holds the client-tail parameter gradients in layer
    order (the cut gradient, if logged first in the tap entry, must be
    stripped by the caller — see ``infer_from_tap_entry``).
    """
    if smashed_in.shape[0] != 1:
        raise ConfigError(
            f"label inference needs a batch-size-1 step, got batch {smashed_in.shape[0]}"
        )
    distances = _candidate_distances(grad_received, smashed_in, clone_tail)
    if np.all(distances == distances[0]):
        raise TieError("all candidate labels produce identical gradient distances")
    order = np.argsort(distances, kind="stable")
    best, second = distances[order[0]], distances[order[1]]
    return LabelInferenceResult(
        label=int(order[0]),
        distances=distances,
        margin=float(second - best),
        tie=bool(best == second),
    )


def infer_from_tap_entry(entry, clone_tail: LayerStack) -> LabelInferenceResult:
    """Run inference on a tap entry whose grad list is [cut grad, param
    grads...], against the activations the server sent to the tail."""
    if len(entry.grad) < 2 or entry.tail_input is None:
        raise ConfigError(
            "tap entry carries no client parameter gradients; label inference "
            "needs a topology where the client owns the loss"
        )
    return infer_label(entry.grad[1:], entry.tail_input, clone_tail)


def tail_accuracy(tail: LayerStack, smashed: np.ndarray, labels: np.ndarray) -> float:
    hits = 0
    for start in range(0, smashed.shape[0], _EVAL_BATCH):
        probs = tail.forward(Tensor(smashed[start : start + _EVAL_BATCH]))
        hits += int(
            (probs.data.argmax(axis=1) == labels[start : start + _EVAL_BATCH]).sum()
        )
    return hits / max(1, smashed.shape[0])

"""Label inference from the gradients a loss-owning client sends back.

For a single stochastic training step the server knows the activations it
sent to the client tail and the gradients it got back. It probes a fresh
random clone of the tail architecture with every candidate label and
picks the one whose parameter gradients are closest (mean squared over
all tail parameters, concatenated) to the received ones. One clone is
drawn per inference and reused across all candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor, backward, cross_entropy
from ..errors import ConfigError, TieError
from ..layers import LayerStack
from ..models import build_net, tail_start_index


@dataclass
class LabelInferenceResult:
    label: int
    distances: np.ndarray  # one distance per candidate label
    margin: float  # second-best minus best distance
    tie: bool  # best distance shared by several candidates


def make_tail_clone(arch: str, tail_depth: int, seed: int) -> LayerStack:
    """Fresh random clone of the last ``tail_depth`` fc layers of an arch."""
    model = build_net(arch, seed=seed)
    return LayerStack(model.layers[tail_start_index(model, tail_depth):])


def tail_param_gradients(tail: LayerStack, smashed: np.ndarray,
                         label: int) -> list[np.ndarray]:
    """Parameter gradients of one stochastic cross-entropy step on a tail."""
    probs = tail.forward(Tensor(smashed))
    loss = cross_entropy(probs, np.array([label], dtype=np.int64))
    for p in tail.params():
        p.grad = None
    backward(loss)
    return [p.grad.copy() for p in tail.params()]


def _concat(grads) -> np.ndarray:
    return np.concatenate([np.asarray(g, dtype=np.float32).ravel() for g in grads])


def infer_label(
    grad_received,
    smashed_in: np.ndarray,
    clone_tail: LayerStack,
    num_classes: int = 10,
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
    ref = _concat(grad_received)
    distances = np.empty(num_classes, dtype=np.float64)
    for cand in range(num_classes):
        grads = tail_param_gradients(clone_tail, smashed_in, cand)
        probe = _concat(grads)
        if probe.shape != ref.shape:
            raise ConfigError(
                f"clone gradient size {probe.size} != received {ref.size}; "
                "clone architecture does not match the client tail"
            )
        distances[cand] = np.mean((probe - ref) ** 2)
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


def infer_from_tap_entry(entry, clone_tail: LayerStack,
                         num_classes: int = 10) -> LabelInferenceResult:
    """Run inference on a tap entry whose grad list is [cut grad, param grads...]."""
    if len(entry.grad) < 2:
        raise ConfigError(
            "tap entry carries no client parameter gradients; label inference "
            "needs a topology where the client owns the loss"
        )
    return infer_label(entry.grad[1:], entry.smashed, clone_tail, num_classes)


def tail_accuracy(tail: LayerStack, smashed: np.ndarray, labels: np.ndarray,
                  batch_size: int = 256) -> float:
    hits = 0
    for start in range(0, smashed.shape[0], batch_size):
        probs = tail.forward(Tensor(smashed[start : start + batch_size]))
        hits += int(
            (probs.data.argmax(axis=1) == labels[start : start + batch_size]).sum()
        )
    return hits / max(1, smashed.shape[0])

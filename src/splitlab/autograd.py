"""Dense float32 tensors with reverse-mode automatic differentiation.

Implements exactly the operations the reference CNNs need: stride-1
zero-padded convolution, 2x2 max pooling, ReLU, sigmoid, fully-connected
layers, flatten, row softmax, MSE and cross-entropy losses, and a smoothed
total-variation penalty. Gradients flow to any leaf tensor marked
``requires_grad``, including network inputs, which is what the inversion
attack relies on.

Graphs are built implicitly: every op records its parents and a
vector-Jacobian closure on the output tensor. ``backward`` walks the graph
once in reverse topological order and then marks it consumed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import GraphError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "relu",
    "sigmoid",
    "conv2d",
    "maxpool2x2",
    "linear",
    "flatten",
    "softmax",
    "add",
    "scale",
    "tsum",
    "mse_loss",
    "cross_entropy",
    "tv_penalty",
    "backward",
    "finite_diff_grad",
    "assert_finite",
]


class Tensor:
    """A dense float32 array, optionally a node in a computation graph.

    Leaf tensors (parameters, inputs) have no parents; op outputs carry a
    reference to their parents plus a closure computing the parent
    gradients from the output gradient.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._vjp = vjp
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def assert_finite(t: Tensor | np.ndarray, what: str = "tensor") -> None:
    data = t.data if isinstance(t, Tensor) else t
    if not np.all(np.isfinite(data)):
        bad = int(np.size(data) - np.count_nonzero(np.isfinite(data)))
        raise NumericError(f"{what} contains {bad} non-finite values")


# ---------------------------------------------------------------------------
# elementwise / structural ops

def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def vjp(g):
        return (g * mask,)

    return _node(np.where(mask, x.data, np.float32(0.0)), (x,), vjp)


def sigmoid(x: Tensor) -> Tensor:
    # Stable piecewise form; avoids overflow in exp for large |x|.
    out = np.empty_like(x.data)
    pos = x.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    e = np.exp(x.data[~pos])
    out[~pos] = e / (1.0 + e)
    out = out.astype(np.float32, copy=False)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _node(out, (x,), vjp)


def flatten(x: Tensor) -> Tensor:
    n = x.data.shape[0]
    shape = x.data.shape

    def vjp(g):
        return (g.reshape(shape),)

    return _node(x.data.reshape(n, -1), (x,), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def vjp(g):
        return (g, g)

    return _node(a.data + b.data, (a, b), vjp)


def scale(x: Tensor, s: float) -> Tensor:
    s = np.float32(s)

    def vjp(g):
        return (g * s,)

    return _node(x.data * s, (x,), vjp)


def tsum(x: Tensor) -> Tensor:
    shape = x.data.shape

    def vjp(g):
        return (np.full(shape, g, dtype=np.float32),)

    return _node(np.float32(x.data.sum()), (x,), vjp)


def softmax(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"softmax: expected 2-d (batch, classes), got {x.data.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = (e / e.sum(axis=1, keepdims=True)).astype(np.float32)

    def vjp(g):
        inner = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - inner),)

    return _node(p, (x,), vjp)


# ---------------------------------------------------------------------------
# linear / convolution / pooling

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x: (N, D), w: (U, D), b: (U,) -> (N, U)."""
    if x.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(
            f"linear: input {x.data.shape} incompatible with weight {w.data.shape}"
        )

    def vjp(g):
        return (g @ w.data, g.T @ x.data, g.sum(axis=0))

    return _node(x.data @ w.data.T + b.data, (x, w, b), vjp)


def _im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(N, C, Hp, Wp) padded input -> (N, C*kh*kw, H*W) patch matrix."""
    n, c, hp, wp = xp.shape
    h, w = hp - kh + 1, wp - kw + 1
    s0, s1, s2, s3 = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (n, c, kh, kw, h, w), (s0, s1, s2, s3, s2, s3)
    )
    return win.reshape(n, c * kh * kw, h * w)


def _col2im(dcols: np.ndarray, padded_shape, kh: int, kw: int) -> np.ndarray:
    n, c, hp, wp = padded_shape
    h, w = hp - kh + 1, wp - kw + 1
    dxp = np.zeros(padded_shape, dtype=np.float32)
    dc = dcols.reshape(n, c, kh, kw, h, w)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + h, j : j + w] += dc[:, :, i, j]
    return dxp


def conv2d(x: Tensor, w: Tensor, b: Tensor, padding: int) -> Tensor:
    """Stride-1 convolution. x: (N,C,H,W), w: (O,C,kh,kw), b: (O,)."""
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-d input, got {x.data.shape}")
    if x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(
            f"conv2d: input channels {x.data.shape} do not match kernel {w.data.shape}"
        )
    n, _, hh, ww = x.data.shape
    o, c, kh, kw = w.data.shape
    p = padding
    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = _im2col(xp, kh, kw)  # (N, C*kh*kw, H*W)
    ho, wo = hh + 2 * p - kh + 1, ww + 2 * p - kw + 1
    wm = w.data.reshape(o, -1)
    out = (wm @ cols).reshape(n, o, ho, wo) + b.data.reshape(1, o, 1, 1)

    def vjp(g):
        gr = g.reshape(n, o, -1)  # (N, O, H*W)
        # Batched GEMM against the patch matrix, then a sum over the batch.
        dw = np.matmul(gr, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.data.shape)
        db = gr.sum(axis=(0, 2))
        if not x.requires_grad:  # backward drops gradients for such parents
            return (None, dw, db)
        dcols = np.matmul(wm.T, gr)  # (C*kh*kw, O) @ (N, O, H*W)
        dxp = _col2im(dcols, xp.shape, kh, kw)
        dx = dxp[:, :, p : p + hh, p : p + ww] if p else dxp
        return (dx, dw, db)

    return _node(out.astype(np.float32, copy=False), (x, w, b), vjp)


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2. Ties go to the first slot in row-major order."""
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2x2: expected 4-d input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2: spatial dims must be even, got {x.data.shape}")
    win = x.data.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(n, c, h // 2, w // 2, 4)  # window slots in row-major order
    idx = win.argmax(axis=-1)  # argmax returns the first maximal slot
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def vjp(g):
        dwin = np.zeros_like(win)
        np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
        dx = (
            dwin.reshape(n, c, h // 2, w // 2, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w)
        )
        return (dx,)

    return _node(out, (x,), vjp)


# ---------------------------------------------------------------------------
# losses and penalties

def mse_loss(a: Tensor, b: Tensor) -> Tensor:
    """Mean over all elements of the squared difference."""
    _check_same_shape(a, b, "mse_loss")
    diff = a.data - b.data
    n = np.float32(diff.size)

    def vjp(g):
        ga = g * 2.0 * diff / n
        return (ga, -ga)

    return _node(np.float32(np.mean(diff.astype(np.float64) ** 2)), (a, b), vjp)


def cross_entropy(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over a batch of probability rows.

    ``probs`` must already be softmax output; rows are clipped below at
    1e-12 before the log so an over-confident wrong prediction cannot
    produce inf.
    """
    if probs.data.ndim != 2:
        raise ShapeError(f"cross_entropy: expected 2-d probs, got {probs.data.shape}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != probs.data.shape[0]:
        raise ShapeError(
            f"cross_entropy: labels {labels.shape} do not match probs {probs.data.shape}"
        )
    k = probs.data.shape[1]
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ShapeError(f"cross_entropy: label out of range [0,{k})")
    n = probs.data.shape[0]
    rows = np.arange(n)
    py = np.clip(probs.data[rows, labels], 1e-12, None)

    def vjp(g):
        dp = np.zeros_like(probs.data)
        dp[rows, labels] = -g / (n * py)
        return (dp,)

    return _node(np.float32(-np.mean(np.log(py))), (probs,), vjp)


def tv_penalty(x: Tensor, eps: float = 1e-8) -> Tensor:
    """Total variation of an NCHW image batch.

    Per pixel: sqrt(|down-diff|^2 + |right-diff|^2 + eps), with missing
    neighbours at the bottom/right boundary contributing zero. Summed over
    batch and channels. ``eps`` smooths the kink at zero difference;
    pass 0 for the exact (non-differentiable) value.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"tv_penalty: expected NCHW input, got {x.data.shape}")
    eps = np.float32(eps)
    dv = np.zeros_like(x.data)  # x[i+1, j] - x[i, j]
    dh = np.zeros_like(x.data)  # x[i, j+1] - x[i, j]
    dv[:, :, :-1, :] = x.data[:, :, 1:, :] - x.data[:, :, :-1, :]
    dh[:, :, :, :-1] = x.data[:, :, :, 1:] - x.data[:, :, :, :-1]
    r = np.sqrt(dv * dv + dh * dh + eps)

    def vjp(g):
        # Zero-difference pixels get zero gradient when eps == 0.
        inv = np.divide(g, r, out=np.zeros_like(r), where=r > 0)
        gdv = inv * dv
        gdh = inv * dh
        dx = np.zeros_like(x.data)
        dx[:, :, 1:, :] += gdv[:, :, :-1, :]
        dx[:, :, :-1, :] -= gdv[:, :, :-1, :]
        dx[:, :, :, 1:] += gdh[:, :, :, :-1]
        dx[:, :, :, :-1] -= gdh[:, :, :, :-1]
        return (dx,)

    return _node(np.float32(r.sum(dtype=np.float64)), (x,), vjp)


# ---------------------------------------------------------------------------
# backward pass

def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor, seed_grad: np.ndarray | None = None) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

    ``seed_grad`` defaults to 1.0 and must be scalar-shaped like ``loss``;
    a non-scalar loss requires an explicit seed of matching shape. The
    graph is single-use: a second backward through any of its nodes raises.
    """
    if seed_grad is None:
        if loss.data.size != 1:
            raise GraphError(
                f"backward: loss must be scalar, got shape {loss.data.shape}"
            )
        seed_grad = np.ones_like(loss.data)
    else:
        seed_grad = np.asarray(seed_grad, dtype=np.float32)
        if seed_grad.shape != loss.data.shape:
            raise ShapeError(
                f"backward: seed gradient {seed_grad.shape} does not match "
                f"loss {loss.data.shape}"
            )
    if not loss.requires_grad:
        raise GraphError("backward: loss does not depend on any requires_grad tensor")
    if loss._consumed:
        raise GraphError("backward: graph already consumed")

    order = _toposort(loss)
    grads: dict[int, np.ndarray] = {id(loss): seed_grad.reshape(loss.data.shape)}
    for node in reversed(order):
        if node._vjp is not None:
            # Interior nodes are single-use; leaves live across many graphs.
            if node._consumed:
                raise GraphError("backward: graph already consumed")
            node._consumed = True
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is not None:
            for parent, pg in zip(node._parents, node._vjp(g)):
                if not parent.requires_grad:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
        elif node.requires_grad:
            node.grad = g.copy() if node.grad is None else node.grad + g


# ---------------------------------------------------------------------------
# finite-difference oracle

def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, h: float = 1e-3) -> Tensor:
    """Central-difference gradient estimate of a tensor-to-scalar function.

    Evaluates in float64 around the float32 point to keep the oracle's own
    rounding error below the comparison tolerances.
    """
    base = x.data.copy()
    flat = base.reshape(-1)
    out = np.zeros(flat.shape, dtype=np.float64)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        fp = float(_eval_scalar(f, base))
        flat[k] = orig - h
        fm = float(_eval_scalar(f, base))
        flat[k] = orig
        out[k] = (fp - fm) / (2.0 * h)
    return Tensor(out.reshape(base.shape))


def _eval_scalar(f, data: np.ndarray) -> float:
    val = f(Tensor(data.copy()))
    if isinstance(val, Tensor):
        val = val.data
    return float(np.asarray(val).reshape(()))

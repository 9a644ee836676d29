"""Dense float32 tensors with reverse-mode automatic differentiation.

Implements exactly the operations the reference CNNs need: stride-1
zero-padded convolution, 2x2 max pooling, ReLU, sigmoid, fully-connected
layers, flatten, row softmax, MSE and cross-entropy losses, and a smoothed
total-variation penalty. Gradients flow to any leaf tensor marked
``requires_grad``, including network inputs, which is what the inversion
attack relies on.

Graphs are built implicitly and kept apart from the data. Every op output
that needs a gradient gets a ``_Node``: its vector-Jacobian closure, its
parents' nodes and a consumed flag. A leaf tensor that requires grad gets
a node on first use, holding only a weak link back to the tensor so that
``backward`` can set its ``grad``. The graph holds no ``Tensor``: each
closure saves just the arrays its VJP reads (a ReLU mask, pooling masks,
conv patches or input, a linear layer's input), so an activation that no
VJP saves is freed as soon as the forward pass drops its tensor.
``backward`` walks the op nodes of one or more seeded roots once, in
reverse topological order, marking each consumed and dropping its
closure and parents as soon as its gradient has passed through; the
leaves' gradients, then complete, are stored after each root's nodes.
"""

from __future__ import annotations

import math
import weakref
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
    "mse_loss",
    "cross_entropy",
    "tv_penalty",
    "backward",
    "assert_finite",
]


class _Node:
    """One vertex of a graph. An op output's node holds the VJP closure and
    its parents' nodes (``None`` for a parent that needs no gradient); a
    leaf's node holds a weak reference to its tensor instead."""

    __slots__ = ("vjp", "parents", "consumed", "leaf")

    def __init__(self, vjp=None, parents: tuple = (), leaf=None):
        self.vjp: Callable[[np.ndarray], tuple[np.ndarray | None, ...]] | None = vjp
        self.parents: tuple[_Node | None, ...] = parents
        self.consumed = False
        self.leaf: weakref.ref | None = leaf


class Tensor:
    """A dense float32 array, optionally attached to a computation graph.

    An op output that needs a gradient carries its graph ``_Node``; so does
    a ``requires_grad`` leaf (a parameter or input) once an op has used it.
    ``_vjp`` and ``_parents`` read the node (the parents as nodes), and
    ``_vjp`` can be replaced, to wrap the closure.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def _vjp(self):
        return None if self._node is None else self._node.vjp

    @_vjp.setter
    def _vjp(self, fn) -> None:
        self._node.vjp = fn

    @property
    def _parents(self) -> tuple[_Node | None, ...]:
        return () if self._node is None else self._node.parents

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _node_of(t: Tensor) -> _Node | None:
    """``t``'s graph node, made on first use for a leaf; ``None`` when ``t``
    needs no gradient."""
    if not t.requires_grad:
        return None
    if t._node is None:
        t._node = _Node(leaf=weakref.ref(t))
    return t._node


def _output(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """The output tensor of an op. ``vjp`` must close over arrays, never over
    a ``Tensor``: the graph keeps what the closure holds until backward."""
    out = Tensor(data)
    nodes = tuple([_node_of(p) for p in parents])
    if any(nodes):
        out.requires_grad = True
        out._node = _Node(vjp, nodes)
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
    """``np.where(x > 0, x, 0)`` bit for bit, without a branch per element:
    x's bits times ``x > 0``, so -0.0 and NaN give +0.0."""
    mask = x.data > 0

    def vjp(g):
        return (g * mask,)

    bits = np.multiply(x.data.view(np.uint32), mask, dtype=np.uint32)
    return _output(bits.view(np.float32), (x,), vjp)


def sigmoid(x: Tensor) -> Tensor:
    # Stable piecewise form: exp(-|x|) never overflows.
    e = np.exp(-np.abs(x.data))
    out = np.where(x.data >= 0, 1, e) / (1 + e)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _output(out, (x,), vjp)


def flatten(x: Tensor) -> Tensor:
    shape = x.data.shape

    def vjp(g):
        return (g.reshape(shape),)

    return _output(x.data.reshape(shape[0], math.prod(shape[1:])), (x,), vjp)


def softmax(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"softmax: expected 2-d (batch, classes), got {x.data.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = (e / e.sum(axis=1, keepdims=True)).astype(np.float32, copy=False)

    def vjp(g):
        inner = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - inner),)

    return _output(p, (x,), vjp)


# ---------------------------------------------------------------------------
# linear / convolution / pooling

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x: (N, D), w: (U, D), b: (U,) -> (N, U)."""
    if x.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(
            f"linear: input {x.data.shape} incompatible with weight {w.data.shape}"
        )

    xd, wd = x.data, w.data

    def vjp(g):
        if len(g) == 1:  # matmul's loop at inner size 1, 0 + g*x, but faster
            dw = np.multiply(g.T, xd)
            dw += 0  # -0.0 products give +0.0, as from the loop's zero start
        else:
            dw = g.T @ xd
        return (g @ wd, dw, g.sum(axis=0))

    return _output(xd @ wd.T + b.data, (x, w, b), vjp)


# conv2d lowers an odd k x k kernel over flattened image planes, q = k//2.
# Each plane is padded flat by m = q*W + q zeros at each end, so kernel tap
# (i, j) reads the whole plane shifted by i*W + j. The shift carries the
# first q - j or the last j - q output columns of each row across a row
# edge; zeroing them leaves the bits of a 2-D padded lowering.


def _edge(t: int, q: int, size: int) -> slice:
    """The output positions along an axis of ``size`` that kernel tap ``t``
    shifts past the axis's edge."""
    return slice(0, q - t) if t < q else slice(max(0, size + q - t), size)


def _zero_wrapped(taps: np.ndarray, rows: bool = False) -> None:
    """Zero, in place, the columns of (N, C, k, k, H, W) patches or patch
    gradient that a flat shift carried across a row edge and, with
    ``rows``, the rows it carried across a plane edge."""
    k, h, w = taps.shape[3:]
    for t in range(k):
        if t != k // 2:
            taps[:, :, :, t, :, _edge(t, k // 2, w)] = 0
            if rows:
                taps[:, :, t, :, _edge(t, k // 2, h)] = 0


def _patches(x: np.ndarray, k: int) -> np.ndarray:
    """The (N, C*k*k, H*W) patch matrix of ``x``: one strided copy of the
    flat-padded planes, whose inner run is a whole plane, then its wrapped
    columns zeroed."""
    n, c, h, w = x.shape
    m = k // 2 * (w + 1)
    flat = np.zeros((n, c, h * w + 2 * m), dtype=np.float32)
    flat[:, :, m : m + h * w] = x.reshape(n, c, h * w)
    s0, s1, s2 = flat.strides
    taps = np.ndarray((n, c, k, k, h * w), np.float32, flat, 0,
                      (s0, s1, w * s2, s2, s2)).copy()
    _zero_wrapped(taps.reshape(n, c, k, k, h, w))
    return taps.reshape(n, c * k * k, h * w)


def _col2im(wt: np.ndarray, gs: np.ndarray, dflat: np.ndarray, k: int, h: int,
            w: int) -> None:
    """Add the patch gradient ``wt @ gs`` into ``dflat``: the input gradient
    of the chunk's planes back to back, padded flat by m at both ends.
    A sample's rows of it are tap-major; what each tap's shift carries
    across a row or plane edge zeroed in place, each tap is added as it
    stands, in (i, j) order, one sample's run per row of a shifted view.
    Each element gets the 2-D lowering's terms in its order, plus +0.0
    terms, which cannot change a sum that starts from +0.0."""
    n = len(gs)
    dcols = np.matmul(wt, gs)
    if h * w == 1:  # wt is wm.T there: C-major rows
        dcols = dcols.reshape(n, -1, k * k).transpose(0, 2, 1)
    taps = dcols.reshape(n, k * k, -1)  # a view, also of the regrouped rows
    _zero_wrapped(taps.reshape(n, k, k, -1, h, w).transpose(0, 3, 1, 2, 4, 5), rows=True)
    size = n * taps.shape[2]
    for t in range(k * k):
        shift = t // k * w + t % k
        run = dflat[shift : shift + size].reshape(n, -1)
        run += taps[:, t]


# conv2d never holds more patch matrix than this at once: it lowers a chunk
# of samples at a time. A batch of one chunk keeps its patches for backward;
# a larger one keeps only its input, lowered again in backward.
_CHUNK_BYTES = 2 << 20


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Stride-1 convolution with same padding, k//2. x: (N,C,H,W),
    w: (O,C,k,k) with k odd, b: (O,); the output is (N,O,H,W).

    The lowering keeps the plane's size: each kernel tap is a shift of the
    whole flattened plane (``_patches``, ``_col2im``), a chunk of samples
    at a time. Every product is one GEMM per sample, and ``dw`` adds the
    samples' products up one at a time in batch order, so the bits do not
    depend on the chunk size. The bias is repeated into one (O, H*W) plane
    and added to each sample's output: the float32 adds of a broadcast of
    ``b``, over contiguous rows. The input gradient's GEMM takes the weight
    with its columns in tap-major order, so that each tap's rows of a
    sample's patch gradient are one contiguous run.
    Backward keeps the patches or the input only when the weight needs a
    gradient. Per chunk it computes ``dx`` and drops the patch gradient
    before it rebuilds the patches for ``dw``, and it takes as many
    samples' products for ``dw`` at once as fit in the budget the patches
    leave (at least one): the patches, their gradient and a chunk of
    products are never live together.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-d input, got {x.data.shape}")
    if x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(
            f"conv2d: input channels {x.data.shape} do not match kernel {w.data.shape}"
        )
    n, c, hh, ww = x.data.shape
    o, _, k, kw = w.data.shape
    if k % 2 == 0 or kw != k:
        raise ShapeError(f"conv2d: kernel must be odd and square, got {k}x{kw}")
    hw = hh * ww
    wm = w.data.reshape(o, -1)
    step = max(1, _CHUNK_BYTES // max(1, 4 * c * k * k * hw))  # samples
    out = np.empty((n, o, hw), dtype=np.float32)
    dx_grad, dw_grad, db_grad = x.requires_grad, w.requires_grad, b.requires_grad
    cols, xd = None, x.data if n > step else None
    for s in range(0, n, step):
        cols = _patches(x.data[s : s + step], k)  # (chunk, C*k*k, H*W)
        np.matmul(wm, cols, out=out[s : s + step])
        if xd is not None:
            cols = None  # before the next chunk's patches
    if not dw_grad:  # only dw reads the patches
        cols = xd = None
    out += b.data[:, None].repeat(hw, axis=1)  # one (O, H*W) bias plane
    out = out.reshape(n, o, hh, ww)

    def vjp(g):
        gr = g.reshape(n, o, hw)
        # backward drops the gradients of parents that need none
        db = gr.sum(axis=(0, 2)) if db_grad else None
        dw = np.zeros(wm.shape, dtype=np.float32) if dw_grad and not n else None  # no samples
        if dx_grad:
            # Rows tap-major: the transposed view of a C-contiguous copy, as
            # wm.T is of wm. At H*W = 1 the product is a matrix-vector one,
            # whose bits depend on the row order: there _col2im regroups.
            wt = wm.T if hw == 1 else w.data.transpose(0, 2, 3, 1).reshape(o, -1).T
            m = k // 2 * (ww + 1)
            dflat = np.zeros(n * c * hw + 2 * m, dtype=np.float32)
        for s in range(0, n, step):
            gs = gr[s : s + step]  # the chunk's output gradient
            if dx_grad:
                _col2im(wt, gs, dflat[s * c * hw : (s + len(gs)) * c * hw + 2 * m], k, hh, ww)
            if not dw_grad:
                continue
            chunk = cols if cols is not None else _patches(xd[s : s + step], k)
            # As many samples' products at once as fit in what the patches leave.
            sub = max(1, (_CHUNK_BYTES - chunk.nbytes) // (4 * wm.size))
            for t in range(0, len(chunk), sub):
                prods = np.matmul(gs[t : t + sub], chunk[t : t + sub].transpose(0, 2, 1))
                for prod in prods:  # (O, C*k*k), one sample at a time in batch order
                    if dw is None:
                        dw = prod.copy()
                    else:
                        dw += prod
            chunk = prods = prod = None  # before the next chunk's patch gradient
        if dw is not None:
            dw = dw.reshape(o, c, k, k)
        dx = dflat[m : m + n * c * hw].reshape(n, c, hh, ww) if dx_grad else None
        return (dx, dw, db)

    return _output(out, (x, w, b), vjp)


_POOL_SLOTS = ((0, 0), (0, 1), (1, 0), (1, 1))  # window slots, row-major


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2. Each window outputs its first maximal slot
    in row-major order, bit for bit, and only that slot gets the window's
    gradient. Ties compare equal across signed zeros, so the first of +0.0
    and -0.0 wins with its sign. A window holding NaN outputs its first NaN,
    and that slot gets the gradient, the slot ``argmax`` would pick.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2x2: expected 4-d input, got {x.data.shape}")
    shape = x.data.shape
    h, w = shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2: spatial dims must be even, got {x.data.shape}")
    # Contiguous copies of the four slots: elementwise ops run several times
    # faster on them than on the stride-2 views.
    slots = [x.data[:, :, r::2, s::2].copy() for r, s in _POOL_SLOTS]
    top = np.maximum(np.maximum(slots[0], slots[1]), np.maximum(slots[2], slots[3]))
    lo = top.min(initial=np.inf)  # NaN if top holds one
    # No NaN, and no zero in top or no sign bit in x (a ReLU output): then a
    # window's maximal slots share their bits, and the output is top itself.
    same = (lo > 0 or lo < 0 and top.all()
            or lo == 0 and x.data.view(np.int32).min(initial=0) >= 0)
    won = np.empty((4, *top.shape), dtype=bool)
    for v, m in zip(slots, won):  # the maximal slots, and the NaNs
        np.equal(v, top, out=m)
        if not same:
            m |= np.isnan(v)
    # Every window has a winner, so as many winners as windows means no tie.
    # After a ReLU zeros tie often; there, and on a tie, the first slot wins.
    if lo == 0 or np.count_nonzero(won) != top.size:
        taken = won[0].copy()
        for m in won[1:]:
            np.greater(m, taken, out=m)
            taken |= m
    bits = top.view(np.uint32)
    if not same:
        # Which signed zero np.maximum returns on a tie is not specified,
        # so the output takes the winning slot's bits, times 1 or 0.
        bits = np.zeros(top.shape, dtype=np.uint32)
        for v, m in zip(slots, won):
            bits |= v.view(np.uint32) * m

    def vjp(g):
        # g's bits times 1 or 0 keep a routed -0.0 and write +0.0 to every
        # other slot; g * m in floats would write -0.0 wherever g < 0.
        gb = np.asarray(g, dtype=np.float32).view(np.uint32)
        dx = np.empty(shape, dtype=np.float32)
        dxb = dx.view(np.uint32)
        for (r, s), m in zip(_POOL_SLOTS, won):
            np.multiply(gb, m, out=dxb[:, :, r::2, s::2])
        return (dx,)

    return _output(bits.view(np.float32), (x,), vjp)


# ---------------------------------------------------------------------------
# losses and penalties

def mse_loss(a: Tensor, b: Tensor) -> Tensor:
    """Mean over all elements of the squared difference."""
    _check_same_shape(a, b, "mse_loss")
    diff = a.data - b.data
    n = np.float32(diff.size)
    a_grad, b_grad = a.requires_grad, b.requires_grad

    def vjp(g):
        # backward drops the gradient of a side that needs none
        ga = g * 2.0 * diff / n
        return (ga if a_grad else None, -ga if b_grad else None)

    return _output(np.float32(np.mean(diff.astype(np.float64) ** 2)), (a, b), vjp)


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
    py = np.maximum(probs.data[rows, labels], np.float32(1e-12))

    def vjp(g):
        dp = np.zeros((n, k), dtype=np.float32)
        dp[rows, labels] = -g / (n * py)
        return (dp,)

    # np.mean's bits: a float32 sum, then a correctly rounded division.
    return _output(np.float32(-(np.log(py).sum() / n)), (probs,), vjp)


def tv_penalty(x: Tensor, eps: float = 1e-8) -> Tensor:
    """Total variation of an NCHW image batch.

    Per pixel: sqrt(|down-diff|^2 + |right-diff|^2 + eps), with missing
    neighbours at the bottom/right boundary contributing zero. Summed over
    batch and channels. ``eps`` smooths the kink at zero difference;
    pass 0 for the exact (non-differentiable) value.

    Backward divides the seed by each pixel's r. Where an r can be zero
    or not finite (eps = 0, or a total that is not finite) the divide is
    masked to r > 0, and a zero r gives zero gradient; otherwise every r
    is at least sqrt(eps), and a plain divide has the same bits.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"tv_penalty: expected NCHW input, got {x.data.shape}")
    shape = x.data.shape
    h, w = shape[2:]
    eps = np.float32(eps)
    # Differences over the flattened batch, one subtraction each; those that
    # cross a row or plane edge are zeroed as missing neighbours.
    xf = x.data.reshape(-1)
    n = xf.size
    dv, dh = np.empty(n, dtype=np.float32), np.empty(n, dtype=np.float32)
    np.subtract(xf[w:], xf[: n - w], out=dv[: n - w])  # x[i+1, j] - x[i, j]
    np.subtract(xf[1:], xf[:-1], out=dh[:-1])  # x[i, j+1] - x[i, j]

    def cut(down, right):  # zero, in place, what crosses an edge
        down.reshape(shape)[:, :, h - 1 :] = 0
        right.reshape(shape)[..., w - 1 :] = 0

    cut(dv, dh)
    r = np.sqrt(dv * dv + dh * dh + eps)
    total = r.sum(dtype=np.float64)
    # With eps > 0 and a finite total, every r is finite and at least
    # sqrt(eps): the plain divide then has the masked divide's bits.
    masked = not (eps > 0 and math.isfinite(total))

    def vjp(g):
        # Zero-difference pixels get zero gradient when eps == 0.
        inv = np.divide(g, r, out=np.zeros_like(r), where=r > 0) if masked else g / r
        gdv = inv * dv
        gdh = np.multiply(inv, dh, out=inv)
        cut(gdv, gdh)  # so that the adds across an edge below add +0.0
        dx = np.zeros(n, dtype=np.float32)
        dx[w:] += gdv[: n - w]
        dx[: n - w] -= gdv[: n - w]
        dx[1:] += gdh[:-1]
        dx[:-1] -= gdh[:-1]
        return (dx.reshape(shape),)

    return _output(np.float32(total), (x,), vjp)


# ---------------------------------------------------------------------------
# backward pass

def _toposort(root: _Node, seen: set[_Node]) -> list[_Node]:
    """The op nodes reachable from ``root`` and not yet in ``seen``, each
    after every op node it reads from (depth-first, last parent first);
    leaves are left out. Adds what it reaches to ``seen``. Raises on
    reaching a node an earlier backward consumed."""
    order: list[_Node] = []
    if root in seen:
        return order
    seen.add(root)
    stack = [root] if root.vjp is not None else []
    while stack:
        node = stack[-1]
        for p in reversed(node.parents):
            if p is None or p in seen:
                continue
            seen.add(p)
            if p.vjp is not None:
                stack.append(p)
                break
            if p.consumed:
                raise GraphError("backward: graph already consumed")
        else:
            order.append(stack.pop())
    return order


def backward(loss: Tensor, seed_grad: np.ndarray | None = None,
             *roots: tuple[Tensor, np.ndarray | None]) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``
    and from the further ``(tensor, seed)`` ``roots``, in one walk.

    A seed defaults to 1.0 and must be shaped like its root; a non-scalar
    root requires an explicit seed of matching shape. Every root is checked
    before any node is consumed. The walk takes the op nodes a root at a
    time, in root order, and adds the leaves' gradients into ``grad`` after
    each root's nodes, so that when the graphs share only leaves, each leaf
    gets the bits of one ``backward`` call per root in that order. The graph
    is single-use: a second backward through any of its nodes raises.
    """
    # Each root's share of the walk: the op nodes that no later root
    # reaches, found last root first.
    seen: set[_Node] = set()
    shares: list[tuple[_Node, np.ndarray, list[_Node]]] = []
    for t, seed in reversed(((loss, seed_grad), *roots)):
        if seed is None:
            if t.data.size != 1:
                raise GraphError(f"backward: loss must be scalar, got shape {t.data.shape}")
            seed = np.array(1, np.float32)
        else:
            seed = np.asarray(seed, dtype=np.float32)
            if seed.shape != t.data.shape:
                raise ShapeError(
                    f"backward: seed gradient {seed.shape} does not match "
                    f"loss {t.data.shape}"
                )
        node = _node_of(t)
        if node is None:
            raise GraphError("backward: loss does not depend on any requires_grad tensor")
        if node.consumed:
            raise GraphError("backward: graph already consumed")
        shares += ((node, seed.reshape(t.data.shape), _toposort(node, seen)),)

    grads: dict[_Node, np.ndarray] = {}
    for root, seed, share in reversed(shares):
        grads[root] = grads[root] + seed if root in grads else seed
        for node in reversed(share):
            # Op nodes are single-use. Each is unlinked as the walk reaches it,
            # so its saved arrays are freed once its VJP has run rather than
            # when the walk ends.
            vjp, parents = node.vjp, node.parents
            node.consumed = True
            node.vjp, node.parents = None, ()
            g = grads.pop(node, None)
            if g is None:
                continue
            for parent, pg in zip(parents, vjp(g)):
                if parent is None:  # needs no gradient
                    continue
                acc = grads.get(parent)
                grads[parent] = pg if acc is None else acc + pg
        # The leaves' gradients are complete for this root; leaves live
        # across many graphs. An op node in a later root's share waits.
        waiting: dict[_Node, np.ndarray] = {}
        for node, g in grads.items():
            if node.leaf is None:
                waiting[node] = g
                continue
            leaf = node.leaf()
            if leaf is not None:  # else nothing can read its gradient
                leaf.grad = g.copy() if leaf.grad is None else leaf.grad + g
        grads = waiting

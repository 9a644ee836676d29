"""Shared test utilities: the oracles the library is checked against
(central finite differences, a tail's probe gradients and an epoch of
cross-entropy training written apart from the library's one loss step,
an unsplit trainer, a per-epoch attack loop of its own, per-candidate
label probing, einsum fc distances, uniform draws, argmax pooling,
whole-batch convolution, plane-by-plane total variation, per-tensor
Adam, the wire decoders and the relu, sigmoid, max-pool and col2im
kernels as first written), a layer-construction counter, a profiled call
counter, kink-aware input sampling, a session's traced memory peak, and
tiny PGM/PPM parsing."""

from __future__ import annotations

import math
import os
import struct
import sys
import tracemalloc
from dataclasses import replace

import numpy as np

from splitlab import autograd as ag
from splitlab import models, protocol, transport, wire
from splitlab.attacks.inversion import unsplit_invert
from splitlab.autograd import Tensor
from splitlab.data import epoch_batches
from splitlab.errors import ProtocolError
from splitlab.harness import mse_images, snapshot_tap
from splitlab.models import build_net
from splitlab.optim import make_optimizer

RTOL = 1e-3
ATOL = 1e-4


def tsum(x: Tensor) -> Tensor:
    """The sum of all elements, as an autograd op: the gradcheck suite's
    scalar head."""
    shape = x.data.shape

    def vjp(g):
        return (np.full(shape, g, dtype=np.float32),)

    return ag._output(np.float32(x.data.sum()), (x,), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shaped tensors, as an autograd op."""
    ag._check_same_shape(a, b, "add")

    def vjp(g):
        return (g, g)

    return ag._output(a.data + b.data, (a, b), vjp)


def scale(x: Tensor, s: float) -> Tensor:
    """``x`` times a constant, as an autograd op."""
    s = np.float32(s)

    def vjp(g):
        return (g * s,)

    return ag._output(x.data * s, (x,), vjp)


def finite_diff_grad(f, x: Tensor, h: float = 1e-3) -> Tensor:
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


def tail_param_gradients(tail, smashed: np.ndarray, label: int) -> list[np.ndarray]:
    """Parameter gradients of one stochastic cross-entropy step on a tail,
    as stored, written out apart from ``protocol.loss_forward_backward``:
    the label tests' reference gradients."""
    probs = tail.forward(Tensor(smashed))
    loss = ag.cross_entropy(probs, np.array([label], dtype=np.int64))
    for p in tail.params():
        p.grad = None
    ag.backward(loss)
    return [p.grad for p in tail.params()]


def fit_epoch(stack, opt, inputs: np.ndarray, labels: np.ndarray,
              batch_size: int, seed: int, epoch: int) -> list[float]:
    """One epoch of cross-entropy training of ``stack`` in ``epoch_order``,
    written out apart from ``protocol.loss_forward_backward``; returns the
    loss of every step."""
    losses = []
    for idx in epoch_batches(len(labels), batch_size, seed, epoch):
        opt.zero_grad()
        loss = ag.cross_entropy(stack.forward(Tensor(inputs[idx])),
                                labels[idx].astype(np.int64))
        ag.backward(loss)
        opt.step()
        losses.append(float(loss.data))
    return losses


def train_monolithic(cfg, images: np.ndarray, labels: np.ndarray):
    """Unsplit reference trainer: same data order, one optimizer over all
    parameters. The oracle for split-training equivalence."""
    cfg.validate()
    model = build_net(cfg.arch, seed=cfg.seed, split_depth=cfg.split_depth)
    opt = make_optimizer(cfg.optimizer, model.params(), cfg.lr)
    losses = []
    for epoch in range(cfg.epochs):
        losses += fit_epoch(model, opt, images, labels, cfg.batch_size, cfg.seed, epoch)
    model.step_count += len(losses)
    return model, losses


def epoch_attack_curve_oracle(cfg, train_ds, sample_images: np.ndarray,
                              inv_cfg) -> list[float]:
    """``harness.epoch_attack_curve`` over a training loop of its own: the
    session's batches through ``train_step``, and after each epoch the
    mean reconstruction MSE of the client part's batch-1 cut activations."""
    client, server = protocol.build_parts(cfg)
    curve = []
    for epoch in range(cfg.epochs):
        for idx in epoch_batches(len(train_ds), cfg.batch_size, cfg.seed, epoch):
            protocol.train_step(cfg.topology, client, server,
                                (train_ds.images[idx], train_ds.labels[idx]))
        res = unsplit_invert(snapshot_tap(client.head, sample_images), cfg.arch,
                             cfg.split_depth, inv_cfg, ground_truth=sample_images)
        curve.append(mse_images(res.x_est, sample_images))
    return curve


def probe_distances(grad_received, smashed: np.ndarray, clone,
                    num_classes: int = 10) -> np.ndarray:
    """Label inference's distances the direct way: one full forward and
    backward per candidate label, then the float32 mean squared difference
    of the concatenated parameter gradients."""
    def concat(grads):
        return np.concatenate([np.asarray(g, dtype=np.float32).ravel() for g in grads])

    ref = concat(grad_received)
    return np.array([
        np.mean((concat(tail_param_gradients(clone, smashed, c)) - ref) ** 2)
        for c in range(num_classes)
    ], dtype=np.float64)


def fc_distances_oracle(d: np.ndarray, a: np.ndarray, gw: np.ndarray,
                        gb: np.ndarray) -> np.ndarray:
    """``labels._fc_distances`` with float64 ``einsum`` over the float32
    received weight gradient ``gw`` in place of BLAS products."""
    d64, a64 = d.astype(np.float64), a.astype(np.float64)
    ga = np.einsum("ud,d->u", gw, a, dtype=np.float64)
    return ((d64 * d64).sum(axis=1) * (a64 @ a64)
            - 2.0 * (d64 @ ga)
            + np.einsum("ud,ud->", gw, gw, dtype=np.float64)
            + ((d64 - gb) ** 2).sum(axis=1))


def uniform_oracle(rng: np.random.Generator, low: float, high: float,
                   size) -> np.ndarray:
    """Uniform float32 draws the direct way."""
    return rng.uniform(low, high, size).astype(np.float32)


def adam_oracle(params: list[np.ndarray], grads: list[list[np.ndarray]], lr: float,
                beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8
                ) -> list[np.ndarray]:
    """Adam, one tensor at a time: ``params`` after one step per entry of
    ``grads`` (each a gradient per parameter), in float32."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    b1, b2 = np.float32(beta1), np.float32(beta2)
    lr32, eps32 = np.float32(lr), np.float32(eps)
    for t, step_grads in enumerate(grads, start=1):
        c1 = np.float32(1.0 - beta1**t)
        c2 = np.float32(1.0 - beta2**t)
        for p, g, mi, vi in zip(params, step_grads, m, v):
            mi *= b1
            mi += (1 - b1) * g
            vi *= b2
            vi += (1 - b2) * g * g
            p -= lr32 * (mi / c1) / (np.sqrt(vi / c2) + eps32)
    return params


# The wire decoders as first written, with a whole-tensor finiteness mask
# and ``MsgType(int)``: what the codec accepts, rejects and returns is
# checked against them.

def decode_header_oracle(buf) -> tuple[wire.MsgType, int]:
    if len(buf) < wire.HEADER.size:
        raise ProtocolError(f"frame too short: {len(buf)} bytes")
    magic, mtype, length = wire.HEADER.unpack_from(buf)
    if magic != wire.MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    try:
        mtype = wire.MsgType(mtype)
    except ValueError:
        raise ProtocolError(f"unknown message type {mtype}") from None
    return mtype, length


def _tensor_view_oracle(buf, offset: int) -> tuple[np.ndarray, int]:
    if offset + 1 > len(buf):
        raise ProtocolError("tensor payload truncated before ndim")
    ndim = buf[offset]
    if ndim > wire.MAX_TENSOR_NDIM:
        raise ProtocolError(f"tensor rank {ndim} exceeds wire limit")
    if offset + 1 + 4 * ndim > len(buf):
        raise ProtocolError("tensor payload truncated in dims")
    dims = struct.unpack_from(f"<{ndim}I", buf, offset + 1)
    offset += 1 + 4 * ndim
    count = math.prod(dims)
    if offset + 4 * count > len(buf):
        raise ProtocolError("tensor payload truncated")
    return np.ndarray(dims, "<f4", buf, offset), offset + 4 * count


def decode_tensor_oracle(buf, offset: int = 0) -> tuple[np.ndarray, int]:
    arr, offset = _tensor_view_oracle(buf, offset)
    arr = arr.copy()
    if not np.isfinite(arr).all():
        raise ProtocolError("tensor payload holds NaN or infinite values")
    return arr, offset


def decode_one_tensor_oracle(buf) -> np.ndarray:
    arr, offset = decode_tensor_oracle(buf)
    if offset != len(buf):
        raise ProtocolError("bytes after the payload's tensor")
    return arr


def decode_tensor_list_oracle(buf) -> list[np.ndarray]:
    if not buf:
        raise ProtocolError("empty tensor list payload")
    out, offset = [], 0
    while offset < len(buf):
        arr, offset = decode_tensor_oracle(buf, offset)
        out.append(arr)
    return out


def decode_labels_oracle(buf) -> np.ndarray:
    arr, offset = _tensor_view_oracle(buf, 0)
    if offset != len(buf) or arr.ndim != 1:
        raise ProtocolError("malformed labels payload")
    if not (arr.min(initial=0) >= 0 and arr.max(initial=0) < 2**24):
        raise ProtocolError("labels payload holds values that are not class indices")
    labels = arr.astype(np.int64)
    if (labels != arr).any():
        raise ProtocolError("labels payload holds values that are not class indices")
    return labels


def decode_scalar_oracle(buf) -> float:
    arr = decode_one_tensor_oracle(buf)
    if arr.size != 1:
        raise ProtocolError("malformed scalar payload")
    return float(arr.reshape(()))


def count_calls(fn) -> int:
    """The calls, Python and C, that code in ``splitlab`` makes while
    ``fn()`` runs in this thread, counted with ``sys.setprofile``. Calls
    made inside numpy's or the standard library's own Python code do not
    count; ufuncs run through an operator make no call event."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            frame = frame.f_back
        elif event != "c_call":
            return
        if frame is not None and frame.f_globals.get("__name__", "").startswith("splitlab"):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def count_constructions(monkeypatch, arch: str) -> list[int]:
    """Net indices of the layers of ``arch`` constructed from now on, in
    order, counted through the arch's per-layer constructors."""
    made: list[int] = []
    spec = models.ARCHS[arch]

    def counted(i, make):
        def construct():
            made.append(i)
            return make()
        return construct

    monkeypatch.setitem(models.ARCHS, arch, replace(
        spec, layers=tuple(counted(i, make) for i, make in enumerate(spec.layers))))
    return made


def session_peak_mib(cfg, images: np.ndarray, labels: np.ndarray) -> float:
    """The tracemalloc peak of one ``run_session`` over ``inproc_pair``,
    above the traced memory at its start, in MiB: both role threads, their
    part builds included. Traces only for the call if nothing else does."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        pair = transport.inproc_pair()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            protocol.run_session(cfg, images, labels, pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            for end in pair:
                end.close()
    finally:
        if started:
            tracemalloc.stop()
    return (peak - base) / 2**20


def relu_oracle(x: np.ndarray) -> np.ndarray:
    """ReLU the direct way: ``x`` where ``x > 0``, else +0.0."""
    return np.where(x > 0, x, np.float32(0.0))


def maxpool_oracle(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 max pooling and its input gradient the direct way: ``argmax`` over
    a transposed copy of each window picks the first maximal slot (the first
    NaN, if any), and ``put_along_axis`` routes ``g`` to it."""
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(n, c, h // 2, w // 2, 4)  # window slots in row-major order
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    dwin = np.zeros_like(win)
    np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
    dx = (
        dwin.reshape(n, c, h // 2, w // 2, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h, w)
    )
    return out, dx


def tv_oracle(x: np.ndarray, eps: float, g: np.float32) -> tuple[np.float32, np.ndarray]:
    """The smoothed total variation of ``x`` and its input gradient for the
    seed ``g``, plane by plane: each difference and each of the four
    gradient terms over its own 2-D slice, so no pair crosses an edge."""
    eps = np.float32(eps)
    dv, dh = np.zeros_like(x), np.zeros_like(x)
    dv[:, :, :-1, :] = x[:, :, 1:, :] - x[:, :, :-1, :]
    dh[:, :, :, :-1] = x[:, :, :, 1:] - x[:, :, :, :-1]
    r = np.sqrt(dv * dv + dh * dh + eps)
    inv = np.divide(g, r, out=np.zeros_like(r), where=r > 0)
    gdv, gdh = inv * dv, inv * dh
    dx = np.zeros_like(x)
    dx[:, :, 1:, :] += gdv[:, :, :-1, :]
    dx[:, :, :-1, :] -= gdv[:, :, :-1, :]
    dx[:, :, :, 1:] += gdh[:, :, :, :-1]
    dx[:, :, :, :-1] -= gdh[:, :, :, :-1]
    return np.float32(r.sum(dtype=np.float64)), dx


def relu_mask_oracle(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """relu and its input gradient for the seed ``g`` through a uint32
    mask: x's bits ANDed with all ones where ``x > 0``."""
    mask = x > 0
    ones = mask.astype(np.uint32)
    np.negative(ones, out=ones)
    return np.bitwise_and(x.view(np.uint32), ones).view(np.float32), g * mask


def sigmoid_halves_oracle(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigmoid and its input gradient for the seed ``g``, each half of the
    piecewise form over its own boolean-indexed elements."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out, g * out * (1.0 - out)


def maxpool_mask_oracle(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """maxpool2x2 and its input gradient for the seed ``g`` through uint32
    masks, all ones where a slot wins: the output's tie path ORs the
    winning slot's bits ANDed with its mask, and backward ANDs g's bits
    with each slot's mask."""
    slots = [x[:, :, r::2, s::2].copy() for r, s in ag._POOL_SLOTS]
    top = np.maximum(np.maximum(slots[0], slots[1]), np.maximum(slots[2], slots[3]))
    lo = top.min(initial=np.inf)
    same = (lo > 0 or lo < 0 and top.all()
            or lo == 0 and x.view(np.int32).min(initial=0) >= 0)
    won = np.empty((4, *top.shape), dtype=bool)
    for v, m in zip(slots, won):
        np.equal(v, top, out=m)
        if not same:
            m |= np.isnan(v)
    if lo == 0 or np.count_nonzero(won) != top.size:
        taken = won[0].copy()
        for m in won[1:]:
            np.greater(m, taken, out=m)
            taken |= m
    masks = won.astype(np.uint32)
    np.negative(masks, out=masks)
    bits = top.view(np.uint32)
    if not same:
        bits = np.zeros(top.shape, dtype=np.uint32)
        for v, mk in zip(slots, masks):
            bits |= v.view(np.uint32) & mk
    gb = np.asarray(g, dtype=np.float32).view(np.uint32)
    dx = np.empty(x.shape, dtype=np.float32)
    dxb = dx.view(np.uint32)
    for (r, s), mk in zip(ag._POOL_SLOTS, masks):
        np.bitwise_and(gb, mk, out=dxb[:, :, r::2, s::2])
    return bits.view(np.float32), dx


def col2im_copy_oracle(wt: np.ndarray, gs: np.ndarray, dflat: np.ndarray, k: int,
                       h: int, w: int) -> None:
    """``autograd._col2im`` through a tap-major copy of the patch gradient:
    one (chunk, C*H*W) block per tap, zeroed where its shift wraps, then
    one contiguous add per tap."""
    n = len(gs)
    dcols = np.matmul(wt, gs)
    if h * w == 1:
        dcols = dcols.reshape(n, -1, k * k).transpose(0, 2, 1)
    taps = np.ascontiguousarray(dcols.reshape(n, k * k, -1).transpose(1, 0, 2))
    ag._zero_wrapped(taps.reshape(k, k, n, -1, h, w).transpose(2, 3, 0, 1, 4, 5), rows=True)
    size = taps[0].size
    for i in range(k):
        for j in range(k):
            dflat[i * w + j : i * w + j + size] += taps[i * k + j].reshape(-1)


def conv2d_oracle(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                  g: np.ndarray) -> tuple[np.ndarray, ...]:
    """Stride-1 same-padded convolution (padding k//2) and its
    gradients for the seed ``g`` the direct way: one patch matrix for the
    whole batch, one batched GEMM per product, and ``dw`` summed over the
    batch by one ``.sum(axis=0)``. Returns ``(out, dx, dw, db)``."""
    n, _, hh, ww = x.shape
    o, c, k, _ = w.shape
    p = k // 2
    xp = np.zeros((n, c, hh + 2 * p, ww + 2 * p), dtype=np.float32)
    xp[:, :, p : p + hh, p : p + ww] = x
    s0, s1, s2, s3 = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (n, c, k, k, hh, ww), (s0, s1, s2, s3, s2, s3)
    )
    # A copy whatever the shape: at W = 1 with C = 1 or H = 1 the reshape
    # alone is a strided view, which sends every GEMM to numpy's loop
    # without BLAS, with other bits.
    cols = np.ascontiguousarray(win.reshape(n, c * k * k, hh * ww))
    wm = w.reshape(o, -1)
    out = (wm @ cols).reshape(n, o, hh, ww) + b.reshape(1, o, 1, 1)
    gr = g.reshape(n, o, hh * ww)
    dw = np.matmul(gr, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    db = gr.sum(axis=(0, 2))
    dc = np.matmul(wm.T, gr).reshape(n, c, k, k, hh, ww)
    dxp = np.zeros(xp.shape, dtype=np.float32)
    for i in range(k):
        for j in range(k):
            dxp[:, :, i : i + hh, j : j + ww] += dc[:, :, i, j]
    dx = dxp[:, :, p : p + hh, p : p + ww]
    return out.astype(np.float32, copy=False), dx, dw, db


def fd_check(f, x: np.ndarray, h: float, rtol: float = RTOL, atol: float = ATOL):
    """Assert backward() agrees with central finite differences on f."""
    xt = Tensor(x, requires_grad=True)
    out = f(xt)
    ag.backward(out)
    got = xt.grad
    want = finite_diff_grad(f, Tensor(x), h).data
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


def relu_safe(rng: np.random.Generator, shape, margin: float = 0.05) -> np.ndarray:
    """Values bounded away from zero so finite differences never cross the
    ReLU kink."""
    x = rng.uniform(margin, 1.0, size=shape).astype(np.float32)
    sign = rng.choice([-1.0, 1.0], size=shape).astype(np.float32)
    return x * sign


def pool_safe(rng: np.random.Generator, shape, gap: float = 0.2) -> np.ndarray:
    """(N,C,H,W) values whose 2x2 window maxima are unique by at least
    ``gap``, so finite differences never flip the argmax. The winning slot
    of each window is lifted directly rather than rejection-sampled."""
    n, c, h, w = shape
    x = rng.uniform(0.0, 0.8, size=shape).astype(np.float32)
    win = np.ascontiguousarray(
        x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    ).reshape(n, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)
    bump = np.zeros_like(win)
    np.put_along_axis(bump, idx[..., None], np.float32(gap), axis=-1)
    win = win + bump
    return np.ascontiguousarray(
        win.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    ).reshape(shape)


def net_safe_input(stack, shape, rng: np.random.Generator,
                   margin: float = 0.03, tries: int = 200) -> np.ndarray:
    """Sample an input whose ReLU pre-activations and pooling window gaps
    stay clear of the finite-difference step."""
    from splitlab.layers import MaxPool2x2, ReLU

    for _ in range(tries):
        x = rng.uniform(0.0, 1.0, size=shape).astype(np.float32)
        cur = Tensor(x)
        ok = True
        for layer in stack.layers:
            if isinstance(layer, ReLU) and np.any(np.abs(cur.data) < margin):
                ok = False
                break
            if isinstance(layer, MaxPool2x2):
                n, c, h, w = cur.data.shape
                win = cur.data.reshape(n, c, h // 2, 2, w // 2, 2)
                win = win.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
                top2 = np.sort(win, axis=-1)[..., -2:]
                if np.any(top2[..., 1] - top2[..., 0] < 2 * margin):
                    ok = False
                    break
            cur = layer.forward(cur)
        if ok:
            return x
    raise AssertionError("could not sample a kink-safe input")


def mnist_dir() -> str | None:
    """Path to local MNIST IDX files, or None when absent (skip gate)."""
    root = os.environ.get("SPLITLAB_DATA_DIR", "data")
    path = os.path.join(root, "mnist")
    needed = [
        "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte",
    ]
    if all(os.path.exists(os.path.join(path, f)) for f in needed):
        return path
    return None


def params_equal(a, b) -> bool:
    return all(
        np.array_equal(pa.data, pb.data) for pa, pb in zip(a.params(), b.params())
    )


def max_param_diff(a, b) -> float:
    return max(
        float(np.max(np.abs(pa.data.astype(np.float64) - pb.data)))
        for pa, pb in zip(a.params(), b.params())
    )


def gradcheck_suite(n_cases: int, seed: int = 0) -> int:
    """Randomized analytic-vs-numeric gradient comparison across every op
    kind; raises on the first disagreement, returns the case count."""
    rng = np.random.default_rng(seed)
    kinds = ("relu", "sigmoid", "softmax", "linear", "conv", "pool",
             "mse", "xent", "tv")
    done = 0
    while done < n_cases:
        kind = kinds[done % len(kinds)]
        if kind == "relu":
            x = relu_safe(rng, (int(rng.integers(1, 5)), int(rng.integers(2, 9))))
            r = Tensor(rng.uniform(size=x.shape).astype(np.float32))
            fd_check(lambda t: ag.mse_loss(ag.relu(t), r), x, h=1e-2)
        elif kind == "sigmoid":
            x = rng.uniform(-2, 2, size=(int(rng.integers(1, 5)),
                                         int(rng.integers(2, 9)))).astype(np.float32)
            fd_check(lambda t: tsum(ag.sigmoid(t)), x, h=1e-2)
        elif kind == "softmax":
            n = int(rng.integers(1, 5))
            x = rng.uniform(-1, 1, size=(n, 10)).astype(np.float32)
            r = Tensor(rng.uniform(size=(n, 10)).astype(np.float32))
            fd_check(lambda t: ag.mse_loss(ag.softmax(t), r), x, h=1e-2)
        elif kind == "linear":
            n, d, u = (int(rng.integers(1, 5)) for _ in range(3))
            d, u = d + 1, u + 1
            x = rng.uniform(-1, 1, size=(n, d)).astype(np.float32)
            w = rng.uniform(-0.5, 0.5, size=(u, d)).astype(np.float32)
            b = rng.uniform(-0.5, 0.5, size=u).astype(np.float32)
            r = Tensor(rng.uniform(size=(n, u)).astype(np.float32))
            which = done % 3
            if which == 0:
                fd_check(lambda t: ag.mse_loss(
                    ag.linear(t, Tensor(w), Tensor(b)), r), x, h=1e-2)
            elif which == 1:
                fd_check(lambda t: ag.mse_loss(
                    ag.linear(Tensor(x), t, Tensor(b)), r), w, h=1e-2)
            else:
                fd_check(lambda t: ag.mse_loss(
                    ag.linear(Tensor(x), Tensor(w), t), r), b, h=1e-2)
        elif kind == "conv":
            n, ci, co = int(rng.integers(1, 3)), int(rng.integers(1, 3)), \
                int(rng.integers(1, 3))
            hw = int(rng.integers(3, 7))
            x = rng.uniform(-1, 1, size=(n, ci, hw, hw)).astype(np.float32)
            w = rng.uniform(-0.3, 0.3, size=(co, ci, 3, 3)).astype(np.float32)
            b = rng.uniform(-0.3, 0.3, size=co).astype(np.float32)
            r = Tensor(rng.uniform(size=(n, co, hw, hw)).astype(np.float32))
            which = done % 3
            if which == 0:
                fd_check(lambda t: ag.mse_loss(
                    ag.conv2d(t, Tensor(w), Tensor(b)), r), x, h=1e-2)
            elif which == 1:
                fd_check(lambda t: ag.mse_loss(
                    ag.conv2d(Tensor(x), t, Tensor(b)), r), w, h=1e-2)
            else:
                fd_check(lambda t: ag.mse_loss(
                    ag.conv2d(Tensor(x), Tensor(w), t), r), b, h=1e-2)
        elif kind == "pool":
            shape = (int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                     2 * int(rng.integers(1, 4)), 2 * int(rng.integers(1, 4)))
            x = pool_safe(rng, shape)
            r = Tensor(rng.uniform(
                size=(shape[0], shape[1], shape[2] // 2, shape[3] // 2)
            ).astype(np.float32))
            fd_check(lambda t: ag.mse_loss(ag.maxpool2x2(t), r), x, h=1e-2)
        elif kind == "mse":
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 9)))
            x = rng.uniform(-1, 1, size=shape).astype(np.float32)
            r = Tensor(rng.uniform(-1, 1, size=shape).astype(np.float32))
            fd_check(lambda t: ag.mse_loss(t, r), x, h=1e-2)
        elif kind == "xent":
            n = int(rng.integers(1, 5))
            x = rng.uniform(-1, 1, size=(n, 10)).astype(np.float32)
            y = rng.integers(0, 10, size=n)
            fd_check(lambda t: ag.cross_entropy(ag.softmax(t), y), x, h=1e-2)
        else:  # tv
            hw = int(rng.integers(2, 6))
            # Monotone in both directions keeps every local difference
            # bounded away from zero, where the sqrt is well-conditioned.
            x = np.cumsum(np.cumsum(
                rng.uniform(0.1, 0.4, size=(1, 1, hw, hw)), axis=2), axis=3)
            x = x.astype(np.float32)
            # Mean-scaled so the oracle's f32 evaluation noise stays well
            # below the comparison tolerance.
            fd_check(lambda t: scale(ag.tv_penalty(t, eps=1e-4), 1.0 / x.size),
                     x, h=3e-3)
        done += 1
    return done


def parse_pnm(path: str) -> np.ndarray:
    """Read back a binary PGM/PPM written by the harness; returns (C,H,W)
    floats in [0,1]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while raw[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    magic, w, h, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
    assert maxval == 255
    data = np.frombuffer(raw, dtype=np.uint8, offset=pos)
    if magic == b"P5":
        return data.reshape(1, h, w).astype(np.float32) / 255.0
    assert magic == b"P6"
    return data.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float32) / 255.0

"""Reference network construction, split-point handling, checkpoints.

The two paper-scale architectures (28x28 grayscale and 32x32 RGB, 10
classes each) are built here, plus a shrunk 8x8 fixture net so the test
suite and CI runs need no dataset downloads. A network is split by an
integer depth: every primitive layer is one depth unit, the client runs
layers [0, depth) and the server the rest. A model may hold only some of
a net's layers (one role's part, say); each layer keeps its index in the
whole net, and ``merge`` puts parts back together. A checkpoint is a
fixed header, the held layers' net indices, and their parameters as one
wire tensor list (layout below).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .autograd import Tensor
from .data import write_atomic
from .errors import CheckpointError, ConfigError, ProtocolError
from .layers import (
    Conv2d,
    Flatten,
    FullyConnected,
    Layer,
    LayerStack,
    MaxPool2x2,
    ReLU,
    Sigmoid,
    Softmax,
)
from .wire import decode_tensor_list, encode_tensor_list

CHECKPOINT_MAGIC = b"USPL"
CHECKPOINT_VERSION = 3


class SplitModel(LayerStack):
    """Layers of a network, each with its ``index`` in the whole net (by
    default all of them, in order), plus the metadata needed to rebuild
    and split it."""

    def __init__(self, layers: list[Layer], arch: str, seed: int, split_depth: int = 1,
                 index: list[int] | None = None):
        super().__init__(layers)
        self.arch = arch
        self.seed = seed
        self.split_depth = split_depth
        self.index = list(range(len(self.layers)) if index is None else index)
        self.step_count = 0


_MNIST = (
    partial(Conv2d, 1, 8, 3),
    MaxPool2x2,
    ReLU,
    partial(Conv2d, 8, 16, 3),
    MaxPool2x2,
    ReLU,
    Flatten,
    partial(FullyConnected, 16 * 7 * 7, 256),
    ReLU,
    partial(FullyConnected, 256, 128),
    ReLU,
    partial(FullyConnected, 128, 10),
    Softmax,
)

_CIFAR = (
    partial(Conv2d, 3, 64, 3),
    ReLU,
    partial(Conv2d, 64, 64, 3),
    ReLU,
    MaxPool2x2,
    *(make for in_ch in (64, 128) for make in (
        partial(Conv2d, in_ch, 128, 3),
        ReLU,
        partial(Conv2d, 128, 128, 3),
        ReLU,
        MaxPool2x2,
    )),
    Flatten,
    partial(FullyConnected, 128 * 4 * 4, 256),
    Sigmoid,
    partial(FullyConnected, 256, 10),
    Softmax,
)

# Shrunk single-channel net for CI: 8x8 input, one conv block, two fc.
_TINY8 = (
    partial(Conv2d, 1, 4, 3),
    MaxPool2x2,
    ReLU,
    Flatten,
    partial(FullyConnected, 4 * 4 * 4, 32),
    ReLU,
    partial(FullyConnected, 32, 10),
    Softmax,
)


@dataclass(frozen=True)
class ArchSpec:
    layers: tuple  # one constructor per layer, in net order
    input_shape: tuple[int, int, int]  # (C, H, W)


ARCHS: dict[str, ArchSpec] = {
    "mnist": ArchSpec(_MNIST, (1, 28, 28)),
    "cifar": ArchSpec(_CIFAR, (3, 32, 32)),
    "tiny8": ArchSpec(_TINY8, (1, 8, 8)),
}


@dataclass(frozen=True)
class Layout:
    """What a net is, read without building it: the indices of its
    fully-connected layers, each layer's parameter element count, and the
    per-example shape of each layer's input (``shapes[-1]`` is the net's
    output)."""
    fc: tuple[int, ...]
    sizes: tuple[int, ...]
    shapes: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.sizes)


@cache
def layout(arch: str) -> Layout:
    """The layout of a registered architecture, worked out once per process
    from one unseeded build and a zero-row forward."""
    if arch not in ARCHS:
        raise ConfigError(f"unknown architecture {arch!r}; known: {sorted(ARCHS)}")
    layers = [make() for make in ARCHS[arch].layers]
    x = Tensor(np.zeros((0, *ARCHS[arch].input_shape), np.float32))
    shapes = [x.data.shape[1:]]
    for layer in layers:
        x = layer.forward(x)
        shapes.append(x.data.shape[1:])
    return Layout(
        tuple(i for i, layer in enumerate(layers) if isinstance(layer, FullyConnected)),
        tuple(sum(p.data.size for p in layer.params()) for layer in layers),
        tuple(shapes),
    )


def build_layers(arch: str, seed: int | list[int] = 0, start: int = 0,
                 stop: int | None = None) -> list[Layer]:
    """Layers [start, stop) of an architecture, initialized bit-identically
    to the same layers of ``build_net(arch, seed)``; no other layer is
    constructed.

    Every layer draws from one ``default_rng(seed)`` stream in order, one
    64-bit draw per parameter element, so the layers before ``start`` are
    skipped by advancing the stream by their element count.
    """
    net = layout(arch)
    stop = len(net) if stop is None else stop
    if not 0 <= start < stop <= len(net):
        raise ConfigError(
            f"layer range [{start}, {stop}) out of range for {arch!r} "
            f"({len(net)} layers)"
        )
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(sum(net.sizes[:start]))
    layers = [make() for make in ARCHS[arch].layers[start:stop]]
    for layer in layers:
        layer.init(rng)
    return layers


def build_net(arch: str, seed: int = 0, split_depth: int = 1) -> SplitModel:
    """Build and initialize a registered architecture from a seed."""
    return SplitModel(build_layers(arch, seed), arch, seed, split_depth)


def build_part(arch: str, seed: int, ranges, split_depth: int = 1) -> SplitModel:
    """The layers of ``ranges`` (``(start, stop)`` pairs in net order; an
    empty one is skipped) as one model, each layer initialized
    bit-identically to the same layer of ``build_net(arch, seed)``."""
    ranges = [(lo, hi) for lo, hi in ranges if lo < hi]
    return SplitModel([layer for lo, hi in ranges for layer in build_layers(arch, seed, lo, hi)],
                      arch, seed, split_depth, [i for lo, hi in ranges for i in range(lo, hi)])


def merge(*parts: SplitModel) -> SplitModel:
    """One model of the parts' layers in net order. The parts' indices must
    tile the whole net exactly. Layers are shared, not copied; the
    metadata and step count are the first part's."""
    first = parts[0]
    n = len(layout(first.arch))
    held = sorted(((i, layer) for part in parts for i, layer in zip(part.index, part.layers)),
                  key=lambda pair: pair[0])
    index = [i for i, _ in held]
    if index != list(range(n)):
        raise ConfigError(f"parts hold layers {index}, not each of the {n} layers "
                          f"of {first.arch!r} once")
    model = SplitModel([layer for _, layer in held], first.arch, first.seed, first.split_depth)
    model.step_count = first.step_count
    return model


def split_at(model: SplitModel, depth: int) -> tuple[LayerStack, LayerStack]:
    """Partition into the client part, layers [0, depth) of the net, and
    the model's other layers (the server part [depth, end) of a whole
    net). The model must hold every layer of the client part.

    The halves share the model's layer objects, so parameters are views,
    not copies.
    """
    n = len(layout(model.arch))
    if not 1 <= depth < n:
        raise ConfigError(f"split depth {depth} out of range [1, {n - 1}]")
    missing = set(range(depth)) - set(model.index)
    if missing:
        raise ConfigError(
            f"model holds layers {model.index} of {model.arch!r}, not layer "
            f"{min(missing)} of the client part [0, {depth})"
        )
    return LayerStack(model.layers[:depth]), LayerStack(model.layers[depth:])


def tail_start_index(arch: str, tail_depth: int) -> int:
    """Index where a client tail holding the last ``tail_depth`` fully-connected
    layers of an architecture (plus everything after them) begins."""
    fc = layout(arch).fc
    if not 1 <= tail_depth <= len(fc):
        raise ConfigError(
            f"{arch!r} has only {len(fc)} fully-connected layers, need {tail_depth}"
        )
    return fc[-tail_depth]


# ---------------------------------------------------------------------------
# checkpoint serialization
#
# Little-endian layout:
#   "USPL" | u32 version | u8 arch-id length | arch-id bytes
#   | u32 split depth | u64 seed | u64 step count
#   | u32 layer count | u32 net index of each held layer, ascending
#   | the held layers' parameters in net order, as one wire tensor list
#     (per tensor: u8 ndim | u32 dims... | f32 data; none if no layer has any)
#
# The index list and each layer's params() order say which tensor is
# which, so a part checkpoint (one role's layers) needs no tensor names.
# The body is read by the wire's codec, so its bounds, truncation and
# finiteness rules hold for a checkpoint too.

def save_checkpoint(model: SplitModel, path: str) -> None:
    write_atomic(path, b"".join([
        CHECKPOINT_MAGIC,
        struct.pack("<IB", CHECKPOINT_VERSION, len(model.arch)),
        model.arch.encode("ascii"),
        struct.pack(f"<IQQI{len(model.index)}I", model.split_depth, model.seed,
                    model.step_count, len(model.index), *model.index),
        encode_tensor_list([p.data for p in model.params()]),
    ]))


def load_checkpoint(path: str) -> SplitModel:
    """The model a checkpoint holds: only its listed layers, every
    parameter read from the file."""
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        magic, version, arch_len = struct.unpack_from("<4sIB", buf)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        at = 9 + arch_len  # the end of the arch id
        arch = buf[9:at].decode("ascii")
        if arch not in ARCHS:
            raise CheckpointError(f"{path}: unknown architecture id {arch!r}")
        split_depth, seed, step_count, held = struct.unpack_from("<IQQI", buf, at)
        n = len(layout(arch))
        if not 1 <= held <= n:
            raise CheckpointError(f"{path}: {held} layers listed, {arch!r} has {n}")
        index = list(struct.unpack_from(f"<{held}I", buf, at + 24))  # 24: "<IQQI"
        if any(i >= j for i, j in zip(index, index[1:])) or index[-1] >= n:
            raise CheckpointError(
                f"{path}: layer indices {index} are not ascending, distinct and "
                f"below {n}"
            )
        body = memoryview(buf)[at + 24 + 4 * held:]
        tensors = decode_tensor_list(body) if body else []
    except (struct.error, UnicodeDecodeError, ProtocolError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from None

    model = SplitModel([ARCHS[arch].layers[i]() for i in index], arch, seed, split_depth,
                       index)
    model.step_count = step_count
    params = model.params()
    shapes, expected = [t.shape for t in tensors], [p.data.shape for p in params]
    if shapes != expected:
        raise CheckpointError(
            f"{path}: tensors of shapes {shapes}, but layers {index} of {arch!r} "
            f"take {expected}"
        )
    for p, t in zip(params, tensors):
        p.data = t
    return model

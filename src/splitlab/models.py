"""Reference network construction, split-point handling, checkpoints.

The two paper-scale architectures (28x28 grayscale and 32x32 RGB, 10
classes each) are built here, plus a shrunk 8x8 fixture net so the test
suite and CI runs need no dataset downloads. A network is split by an
integer depth: every primitive layer is one depth unit, the client runs
layers [0, depth) and the server the rest.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ConfigError
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

CHECKPOINT_MAGIC = b"USPL"
CHECKPOINT_VERSION = 1


class SplitModel(LayerStack):
    """A full network plus the metadata needed to rebuild and split it."""

    def __init__(self, layers: list[Layer], arch: str, seed: int, split_depth: int = 1):
        super().__init__(layers)
        self.arch = arch
        self.seed = seed
        self.split_depth = split_depth
        self.step_count = 0

    @property
    def num_classes(self) -> int:
        return ARCHS[self.arch].num_classes

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params())


def _mnist_layers() -> list[Layer]:
    return [
        Conv2d(1, 8, 3),
        MaxPool2x2(),
        ReLU(),
        Conv2d(8, 16, 3),
        MaxPool2x2(),
        ReLU(),
        Flatten(),
        FullyConnected(16 * 7 * 7, 256),
        ReLU(),
        FullyConnected(256, 128),
        ReLU(),
        FullyConnected(128, 10),
        Softmax(),
    ]


def _cifar_layers() -> list[Layer]:
    layers: list[Layer] = [
        Conv2d(3, 64, 3),
        ReLU(),
        Conv2d(64, 64, 3),
        ReLU(),
        MaxPool2x2(),
    ]
    in_ch = 64
    for _ in range(2):
        layers += [
            Conv2d(in_ch, 128, 3),
            ReLU(),
            Conv2d(128, 128, 3),
            ReLU(),
            MaxPool2x2(),
        ]
        in_ch = 128
    layers += [
        Flatten(),
        FullyConnected(128 * 4 * 4, 256),
        Sigmoid(),
        FullyConnected(256, 10),
        Softmax(),
    ]
    return layers


def _tiny8_layers() -> list[Layer]:
    # Shrunk single-channel net for CI: 8x8 input, one conv block, two fc.
    return [
        Conv2d(1, 4, 3),
        MaxPool2x2(),
        ReLU(),
        Flatten(),
        FullyConnected(4 * 4 * 4, 32),
        ReLU(),
        FullyConnected(32, 10),
        Softmax(),
    ]


@dataclass(frozen=True)
class ArchSpec:
    builder: object
    input_shape: tuple[int, int, int]  # (C, H, W)
    num_classes: int


ARCHS: dict[str, ArchSpec] = {
    "mnist": ArchSpec(_mnist_layers, (1, 28, 28), 10),
    "cifar": ArchSpec(_cifar_layers, (3, 32, 32), 10),
    "tiny8": ArchSpec(_tiny8_layers, (1, 8, 8), 10),
}


def build_net(arch: str, seed: int = 0, split_depth: int = 1) -> SplitModel:
    """Build and initialize a registered architecture from a seed."""
    if arch not in ARCHS:
        raise ConfigError(f"unknown architecture {arch!r}; known: {sorted(ARCHS)}")
    layers = ARCHS[arch].builder()
    rng = np.random.default_rng(seed)
    for layer in layers:
        layer.init(rng)
    model = SplitModel(layers, arch, seed, split_depth)
    # Fail fast if the layer list is not shape-consistent.
    model.out_shape((1, *ARCHS[arch].input_shape))
    return model


def split_at(model: SplitModel, depth: int) -> tuple[LayerStack, LayerStack]:
    """Partition into client part [0, depth) and server part [depth, end).

    The halves share the model's layer objects, so parameters are views,
    not copies.
    """
    if not 1 <= depth < len(model.layers):
        raise ConfigError(
            f"split depth {depth} out of range [1, {len(model.layers) - 1}]"
        )
    return LayerStack(model.layers[:depth]), LayerStack(model.layers[depth:])


def tail_start_index(model: SplitModel, tail_depth: int) -> int:
    """Index where a client tail holding the last ``tail_depth`` fully-connected
    layers (plus everything after them) begins."""
    seen = 0
    for i in range(len(model.layers) - 1, -1, -1):
        if isinstance(model.layers[i], FullyConnected):
            seen += 1
            if seen == tail_depth:
                return i
    raise ConfigError(
        f"model has only {seen} fully-connected layers, need {tail_depth}"
    )


def split_three(
    model: SplitModel, depth: int, tail_depth: int = 1
) -> tuple[LayerStack, LayerStack, LayerStack]:
    """Three-way partition: client head, server middle, client tail."""
    tail_at = tail_start_index(model, tail_depth)
    if not 1 <= depth < tail_at:
        raise ConfigError(
            f"split depth {depth} must lie in [1, {tail_at - 1}] for a "
            f"tail of depth {tail_depth}"
        )
    return (
        LayerStack(model.layers[:depth]),
        LayerStack(model.layers[depth:tail_at]),
        LayerStack(model.layers[tail_at:]),
    )


# ---------------------------------------------------------------------------
# checkpoint serialization
#
# Little-endian layout:
#   "USPL" | u32 version | u8 arch-id length | arch-id bytes
#   | u32 split depth | u64 seed | u64 step count | u32 tensor count
#   | per tensor: u16 name length | name bytes | u8 ndim | u32 dims... | f32 data

def save_checkpoint(model: SplitModel, path: str) -> None:
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<B", len(model.arch)),
        model.arch.encode("ascii"),
        struct.pack("<IQQ", model.split_depth, model.seed, model.step_count),
    ]
    named = model.named_params()
    parts.append(struct.pack("<I", len(named)))
    for name, p in named:
        nb = name.encode("ascii")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", p.data.ndim))
        parts.append(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
        parts.append(p.data.astype("<f4", copy=False).tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError(
                f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.buf)}"
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path: str) -> SplitModel:
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    if r.take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    (version,) = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    (arch_len,) = r.unpack("<B")
    arch = r.take(arch_len).decode("ascii")
    if arch not in ARCHS:
        raise CheckpointError(f"{path}: unknown architecture id {arch!r}")
    split_depth, seed, step_count = r.unpack("<IQQ")
    (count,) = r.unpack("<I")

    model = build_net(arch, seed=int(seed), split_depth=int(split_depth))
    model.step_count = int(step_count)
    expected = dict(model.named_params())
    if count != len(expected):
        raise CheckpointError(
            f"{path}: architecture mismatch, {count} tensors vs "
            f"{len(expected)} expected for {arch!r}"
        )
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode("ascii")
        (ndim,) = r.unpack("<B")
        dims = r.unpack(f"<{ndim}I")
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected tensor {name!r} for {arch!r}")
        p = expected[name]
        if tuple(dims) != p.data.shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} shape {dims} != expected {p.data.shape}"
            )
        n_bytes = 4 * int(np.prod(dims, dtype=np.int64)) if dims else 4
        data = np.frombuffer(r.take(n_bytes), dtype="<f4").reshape(dims)
        p.data = data.astype(np.float32).copy()
    if r.pos != len(r.buf):
        raise CheckpointError(f"{path}: {len(r.buf) - r.pos} trailing bytes")
    return model

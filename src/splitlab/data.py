"""Dataset loading and sampling.

Reads the standard IDX files (MNIST / Fashion-MNIST) and CIFAR-10 binary
batches from a local data directory; nothing is ever downloaded. A seeded
synthetic generator provides fixtures so the test suite runs offline.
Pixels are scaled by 1/255 into [0, 1]; no standardization or
augmentation is applied.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD = 3073  # 1 label byte + 3*32*32 pixels


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W) float32 in [0, 1]
    labels: np.ndarray  # (N,) uint8 in [0, 10)
    name: str = "dataset"
    split: str = "train"

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"{self.name}: {self.images.shape[0]} images vs "
                f"{self.labels.shape[0]} labels"
            )

    def __len__(self) -> int:
        return int(self.images.shape[0])

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(self.images[idx], self.labels[idx], self.name, self.split)


def _read_file(path: str) -> bytes:
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    with open(path, "rb") as fh:
        return fh.read()


def load_idx(images_path: str, labels_path: str, name: str = "idx",
             split: str = "train") -> Dataset:
    """Load an IDX image/label file pair (big-endian, u8 pixels)."""
    raw = _read_file(images_path)
    if len(raw) < 16:
        raise DataError(f"{images_path}: truncated IDX header")
    magic, n, h, w = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise DataError(f"{images_path}: bad IDX image magic {magic:#010x}")
    if len(raw) != 16 + n * h * w:
        raise DataError(
            f"{images_path}: expected {16 + n * h * w} bytes, got {len(raw)}"
        )
    images = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(n, 1, h, w)

    raw = _read_file(labels_path)
    if len(raw) < 8:
        raise DataError(f"{labels_path}: truncated IDX header")
    magic, nl = struct.unpack(">II", raw[:8])
    if magic != IDX_LABELS_MAGIC:
        raise DataError(f"{labels_path}: bad IDX label magic {magic:#010x}")
    if len(raw) != 8 + nl:
        raise DataError(f"{labels_path}: expected {8 + nl} bytes, got {len(raw)}")
    labels = np.frombuffer(raw, dtype=np.uint8, offset=8)
    if nl != n:
        raise DataError(f"IDX pair mismatch: {n} images vs {nl} labels")
    if labels.size and labels.max() > 9:
        raise DataError(f"{labels_path}: label {labels.max()} out of range [0,10)")

    return Dataset(
        (images.astype(np.float32) / 255.0), labels.copy(), name, split
    )


def load_cifar_bin(paths: list[str], name: str = "cifar",
                   split: str = "train") -> Dataset:
    """Load one or more CIFAR-10 binary batch files (3073-byte records)."""
    images, labels = [], []
    for path in paths:
        raw = _read_file(path)
        if len(raw) == 0 or len(raw) % CIFAR_RECORD:
            raise DataError(
                f"{path}: size {len(raw)} is not a multiple of {CIFAR_RECORD}"
            )
        rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
        lab = rec[:, 0]
        if lab.max() > 9:
            raise DataError(f"{path}: label {lab.max()} out of range [0,10)")
        labels.append(lab.copy())
        images.append(rec[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0)
    return Dataset(np.concatenate(images), np.concatenate(labels), name, split)


def sample_class_balanced(ds: Dataset, per_class: int, seed: int = 0) -> Dataset:
    """Deterministically pick ``per_class`` examples of each of the 10 classes."""
    if per_class == 0:
        return Dataset(ds.images[:0], ds.labels[:0], ds.name, ds.split)
    rng = np.random.default_rng(seed)
    picks = []
    for cls in range(10):
        pool = np.flatnonzero(ds.labels == cls)
        if pool.size < per_class:
            raise DataError(
                f"{ds.name}: class {cls} has {pool.size} examples, need {per_class}"
            )
        picks.append(rng.choice(pool, size=per_class, replace=False))
    return ds.subset(np.concatenate(picks))


def synth_dataset(n: int, shape: tuple[int, int, int] = (1, 8, 8),
                  seed: int = 0, name: str = "synth",
                  split: str = "train") -> Dataset:
    """Deterministic noise images with class-dependent structure.

    Each class gets a fixed random template; an example is its template
    plus noise, so small nets can actually learn the labels. Used as the
    offline stand-in for the real datasets in tests and CI. Both splits
    of one seed share the templates; the test split (any ``split`` but
    ``train``) draws its labels and noise from a stream of its own.
    """
    rng = np.random.default_rng(seed)
    templates = rng.uniform(0.0, 1.0, size=(10, *shape)).astype(np.float32)
    if split != "train":
        rng = np.random.default_rng([seed, 1])
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    noise = rng.normal(0.0, 0.15, size=(n, *shape)).astype(np.float32)
    images = np.clip(templates[labels] + noise, 0.0, 1.0)
    return Dataset(images, labels, name, split)


def epoch_order(n: int, seed: int, epoch: int) -> np.ndarray:
    """Shuffle shared by both parties so examples and labels stay aligned."""
    order = np.arange(n)
    np.random.default_rng([seed, epoch]).shuffle(order)
    return order


def epoch_batches(n: int, batch_size: int, seed: int, epoch: int):
    """Yield one epoch's index batches in ``epoch_order``; the last may be short."""
    order = epoch_order(n, seed, epoch)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]

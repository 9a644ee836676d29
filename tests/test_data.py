"""Dataset loaders against synthetic IDX / CIFAR files written on the fly."""

import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest

from splitlab.cli import load_dataset
from splitlab.data import (
    Dataset,
    epoch_batches,
    epoch_order,
    load_cifar_bin,
    load_idx,
    sample_class_balanced,
    synth_dataset,
)
from splitlab.errors import DataError


def write_idx_pair(tmp_path, images, labels, prefix=""):
    """images: (N,H,W) u8, labels: (N,) u8 -> file path pair."""
    n, h, w = images.shape
    ipath, lpath = str(tmp_path / f"{prefix}img"), str(tmp_path / f"{prefix}lab")
    with open(ipath, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, n, h, w))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lpath, "wb") as fh:
        fh.write(struct.pack(">II", 0x801, n))
        fh.write(labels.astype(np.uint8).tobytes())
    return ipath, lpath


class TestIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(7, 5, 5)).astype(np.uint8)
        labels = rng.integers(0, 10, size=7).astype(np.uint8)
        ds = load_idx(*write_idx_pair(tmp_path, images, labels), name="t")
        assert ds.images.shape == (7, 1, 5, 5)
        assert ds.images.dtype == np.float32
        np.testing.assert_array_equal(ds.labels, labels)
        np.testing.assert_allclose(
            ds.images[:, 0] * 255.0, images.astype(np.float32), atol=1e-4
        )

    def test_scaling_endpoints(self, tmp_path):
        images = np.array([[[0, 255], [128, 1]]], dtype=np.uint8)
        ds = load_idx(*write_idx_pair(tmp_path, images, np.zeros(1, np.uint8)))
        assert ds.images[0, 0, 0, 0] == 0.0
        assert ds.images[0, 0, 0, 1] == 1.0

    def test_bad_image_magic(self, tmp_path):
        ip, lp = write_idx_pair(
            tmp_path, np.zeros((1, 2, 2), np.uint8), np.zeros(1, np.uint8)
        )
        raw = bytearray(Path(ip).read_bytes())
        raw[3] = 0x01
        Path(ip).write_bytes(bytes(raw))
        with pytest.raises(DataError):
            load_idx(ip, lp)

    def test_truncated_images(self, tmp_path):
        ip, lp = write_idx_pair(
            tmp_path, np.zeros((3, 4, 4), np.uint8), np.zeros(3, np.uint8)
        )
        raw = Path(ip).read_bytes()
        Path(ip).write_bytes(raw[:-5])
        with pytest.raises(DataError):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, _ = write_idx_pair(
            tmp_path, np.zeros((3, 2, 2), np.uint8), np.zeros(3, np.uint8), "a_"
        )
        _, lp = write_idx_pair(
            tmp_path, np.zeros((4, 2, 2), np.uint8), np.zeros(4, np.uint8), "b_"
        )
        with pytest.raises(DataError):
            load_idx(ip, lp)

    def test_label_out_of_range(self, tmp_path):
        ip, lp = write_idx_pair(
            tmp_path, np.zeros((1, 2, 2), np.uint8), np.array([11], np.uint8)
        )
        with pytest.raises(DataError):
            load_idx(ip, lp)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_idx(str(tmp_path / "nope"), str(tmp_path / "nope2"))


class TestCifar:
    def write_batch(self, tmp_path, n, seed=0, name="batch"):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 10, size=(n, 1)).astype(np.uint8)
        pixels = rng.integers(0, 256, size=(n, 3072)).astype(np.uint8)
        raw = np.concatenate([labels, pixels], axis=1).tobytes()
        path = str(tmp_path / name)
        Path(path).write_bytes(raw)
        return path, labels[:, 0], pixels

    def test_round_trip(self, tmp_path):
        path, labels, pixels = self.write_batch(tmp_path, 5)
        ds = load_cifar_bin([path])
        assert ds.images.shape == (5, 3, 32, 32)
        np.testing.assert_array_equal(ds.labels, labels)
        back = np.round(ds.images.reshape(5, 3072) * 255.0).astype(np.uint8)
        np.testing.assert_array_equal(back, pixels)

    def test_multiple_batches_concatenate(self, tmp_path):
        p1, l1, _ = self.write_batch(tmp_path, 3, seed=1, name="b1")
        p2, l2, _ = self.write_batch(tmp_path, 4, seed=2, name="b2")
        ds = load_cifar_bin([p1, p2])
        assert len(ds) == 7
        np.testing.assert_array_equal(ds.labels, np.concatenate([l1, l2]))

    def test_truncated_rejected(self, tmp_path):
        path, _, _ = self.write_batch(tmp_path, 2)
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:-1])
        with pytest.raises(DataError):
            load_cifar_bin([path])

    def test_bad_label_rejected(self, tmp_path):
        path = str(tmp_path / "bad")
        rec = bytearray(3073)
        rec[0] = 12
        Path(path).write_bytes(bytes(rec))
        with pytest.raises(DataError):
            load_cifar_bin([path])


class TestSampling:
    def test_balanced_sample(self):
        ds = synth_dataset(400, seed=0)
        sample = sample_class_balanced(ds, 1, seed=3)
        assert len(sample) == 10
        assert sorted(sample.labels.tolist()) == list(range(10))

    def test_balanced_deterministic(self):
        ds = synth_dataset(400, seed=0)
        a = sample_class_balanced(ds, 2, seed=5)
        b = sample_class_balanced(ds, 2, seed=5)
        np.testing.assert_array_equal(a.images, b.images)

    def test_empty_sample(self):
        ds = synth_dataset(50, seed=0)
        assert len(sample_class_balanced(ds, 0)) == 0

    def test_insufficient_population(self):
        ds = synth_dataset(12, seed=0)
        with pytest.raises(DataError):
            sample_class_balanced(ds, 5)


class TestSynth:
    def test_deterministic(self):
        a, b = synth_dataset(30, seed=7), synth_dataset(30, seed=7)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_shape_and_range(self):
        ds = synth_dataset(20, (1, 8, 8), seed=0)
        assert ds.images.shape == (20, 1, 8, 8)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert ds.labels.max() < 10

    def test_train_split_unchanged(self):
        # Pins the train split's bits: the benchmark's inputs come from it.
        ds = synth_dataset(64, (3, 32, 32), seed=5)
        digest = hashlib.sha256(ds.images.tobytes() + ds.labels.tobytes()).hexdigest()
        assert digest == "493bec072ca94e540bce62135988a6b5f0752ca0f03d47dc1deaa64658f1b8c4"

    def test_test_split_is_learnable(self):
        cfg = {"dataset": "synth", "data_dir": "", "seed": 3}
        train, test = load_dataset(cfg, "train"), load_dataset(cfg, "test")
        assert test.split == "test"
        assert not np.array_equal(train.labels[: len(test)], test.labels)
        # Both splits share the class templates: every test image lies
        # nearest the mean train image of its own class.
        means = np.stack([train.images[train.labels == c].mean(axis=0)
                          for c in range(10)])
        dist = ((test.images[:, None] - means[None]) ** 2).sum(axis=(2, 3, 4))
        np.testing.assert_array_equal(dist.argmin(axis=1), test.labels)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 1, 2, 2), np.float32), np.zeros(2, np.uint8))


class TestBatches:
    def test_covers_all_examples(self):
        batches = list(epoch_batches(10, 3, seed=0, epoch=0))
        assert [len(idx) for idx in batches] == [3, 3, 3, 1]
        assert sorted(np.concatenate(batches).tolist()) == list(range(10))

    def test_shuffle_deterministic(self):
        a = [idx.tolist() for idx in epoch_batches(16, 4, seed=9, epoch=1)]
        b = [idx.tolist() for idx in epoch_batches(16, 4, seed=9, epoch=1)]
        assert a == b
        assert sum(a, []) == epoch_order(16, seed=9, epoch=1).tolist()

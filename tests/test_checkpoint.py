"""Checkpoint serialization round trips and corruption handling."""

import struct
from pathlib import Path

import numpy as np
import pytest

from splitlab.autograd import Tensor
from splitlab.errors import CheckpointError
from splitlab.models import (
    CHECKPOINT_MAGIC,
    build_net,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture
def ckpt(tmp_path):
    return str(tmp_path / "model.ckpt")


def test_round_trip_bit_exact(ckpt):
    model = build_net("tiny8", seed=5, split_depth=2)
    model.step_count = 17
    save_checkpoint(model, ckpt)
    loaded = load_checkpoint(ckpt)
    assert loaded.arch == "tiny8"
    assert loaded.seed == 5
    assert loaded.split_depth == 2
    assert loaded.step_count == 17
    for (na, pa), (nb, pb) in zip(model.named_params(), loaded.named_params()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)


def test_round_trip_forward_identical(ckpt):
    model = build_net("tiny8", seed=1)
    save_checkpoint(model, ckpt)
    loaded = load_checkpoint(ckpt)
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(3, 1, 8, 8)).astype(np.float32)
    np.testing.assert_array_equal(
        model.forward(Tensor(x)).data, loaded.forward(Tensor(x)).data
    )


def test_untrained_checkpoint_reproduces_seeded_init(ckpt):
    save_checkpoint(build_net("tiny8", seed=23), ckpt)
    loaded = load_checkpoint(ckpt)
    fresh = build_net("tiny8", seed=23)
    for pa, pb in zip(loaded.params(), fresh.params()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_size_formula(ckpt):
    model = build_net("tiny8", seed=0)
    save_checkpoint(model, ckpt)
    raw = Path(ckpt).read_bytes()
    header = 4 + 4 + 1 + len(model.arch) + 4 + 8 + 8 + 4
    per_tensor_meta = sum(
        2 + len(name) + 1 + 4 * p.data.ndim for name, p in model.named_params()
    )
    assert len(raw) == header + per_tensor_meta + 4 * model.param_count()


def test_bad_magic_rejected(ckpt):
    save_checkpoint(build_net("tiny8", seed=0), ckpt)
    raw = bytearray(Path(ckpt).read_bytes())
    raw[:4] = b"NOPE"
    Path(ckpt).write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(ckpt)


def test_bad_version_rejected(ckpt):
    save_checkpoint(build_net("tiny8", seed=0), ckpt)
    raw = bytearray(Path(ckpt).read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    Path(ckpt).write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("keep", [3, 10, 60])
def test_truncation_rejected(ckpt, keep):
    save_checkpoint(build_net("tiny8", seed=0), ckpt)
    raw = Path(ckpt).read_bytes()
    Path(ckpt).write_bytes(raw[: len(raw) * keep // 100])
    with pytest.raises(CheckpointError):
        load_checkpoint(ckpt)


def test_trailing_bytes_rejected(ckpt):
    save_checkpoint(build_net("tiny8", seed=0), ckpt)
    with open(ckpt, "ab") as fh:
        fh.write(b"\x00\x00\x00\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(ckpt)


def test_unknown_arch_rejected(ckpt):
    model = build_net("tiny8", seed=0)
    save_checkpoint(model, ckpt)
    raw = bytearray(Path(ckpt).read_bytes())
    assert raw[9:14] == b"tiny8"
    raw[9:14] = b"tiny9"
    Path(ckpt).write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(ckpt)


def test_magic_constant():
    assert CHECKPOINT_MAGIC == b"USPL"

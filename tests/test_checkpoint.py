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
    build_part,
    layout,
    load_checkpoint,
    save_checkpoint,
)

from helpers import count_constructions


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


def test_save_that_fails_midway_keeps_the_previous_checkpoint(ckpt, monkeypatch):
    save_checkpoint(build_net("tiny8", seed=5), ckpt)
    before = Path(ckpt).read_bytes()
    real_open = open

    class Torn:
        """A file that takes half of a write and then fails, as on a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr("builtins.open", lambda *a, **k: Torn(real_open(*a, **k)))
    with pytest.raises(OSError):
        save_checkpoint(build_net("tiny8", seed=6), ckpt)
    monkeypatch.undo()
    assert Path(ckpt).read_bytes() == before
    assert sorted(p.name for p in Path(ckpt).parent.iterdir()) == ["model.ckpt"]
    loaded = load_checkpoint(ckpt)
    for pa, pb in zip(loaded.params(), build_net("tiny8", seed=5).params()):
        assert pa.data.tobytes() == pb.data.tobytes()


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
    header = 4 + 4 + 1 + len(model.arch) + 4 + 8 + 8 + 4 + 4 * len(model.index) + 4
    per_tensor_meta = sum(
        2 + len(name) + 1 + 4 * p.data.ndim for name, p in model.named_params()
    )
    data = 4 * sum(p.data.size for p in model.params())
    assert len(raw) == header + per_tensor_meta + data


def test_part_round_trip_keeps_net_indices(ckpt):
    part = build_part("tiny8", 4, [(0, 1), (6, 8)], split_depth=1)
    part.step_count = 3
    save_checkpoint(part, ckpt)
    loaded = load_checkpoint(ckpt)
    assert loaded.index == [0, 6, 7]
    assert [l.kind for l in loaded.layers] == ["conv2d", "fc", "softmax"]
    assert loaded.step_count == 3
    for (na, pa), (nb, pb) in zip(part.named_params(), loaded.named_params()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)


def test_load_constructs_only_the_held_layers(ckpt, monkeypatch):
    save_checkpoint(build_part("mnist", 0, [(0, 2), (7, 13)]), ckpt)
    layout("mnist")
    made = count_constructions(monkeypatch, "mnist")
    assert load_checkpoint(ckpt).index == made == [0, 1, *range(7, 13)]


def _index_offset(model) -> int:
    """Byte offset of a checkpoint's layer count."""
    return 4 + 4 + 1 + len(model.arch) + 4 + 8 + 8


@pytest.mark.parametrize("index, problem", [
    ([1, 8], "not ascending, distinct and below 8"),  # out of range
    ([1, 1], "not ascending, distinct and below 8"),  # duplicated
    ([2, 1], "not ascending, distinct and below 8"),  # unsorted
    ([1, 2], "2 tensors, but layers \\[1, 2\\] of 'tiny8' have 0"),  # pool, relu
    ([1, 6], "unexpected or repeated tensor '4.weight'"),  # the fc's index changed
])
def test_bad_layer_index_rejected(ckpt, index, problem):
    """A two-layer part (layers 1 and 4: pool and fc) with its list rewritten."""
    part = build_part("tiny8", 0, [(1, 2), (4, 5)])
    save_checkpoint(part, ckpt)
    raw = bytearray(Path(ckpt).read_bytes())
    at = _index_offset(part)
    assert struct.unpack_from("<3I", raw, at) == (2, 1, 4)
    struct.pack_into("<2I", raw, at + 4, *index)
    Path(ckpt).write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=problem):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("count", [0, 9, 2**32 - 1])
def test_bad_layer_count_rejected(ckpt, count):
    model = build_net("tiny8", seed=0)
    save_checkpoint(model, ckpt)
    raw = bytearray(Path(ckpt).read_bytes())
    struct.pack_into("<I", raw, _index_offset(model), count)
    Path(ckpt).write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="layers listed"):
        load_checkpoint(ckpt)


def test_tensor_named_for_another_layer_rejected(ckpt):
    part = build_part("tiny8", 0, [(4, 5)])
    save_checkpoint(part, ckpt)
    raw = Path(ckpt).read_bytes()
    Path(ckpt).write_bytes(raw.replace(b"4.weight", b"6.weight"))
    with pytest.raises(CheckpointError, match="unexpected or repeated tensor '6.weight'"):
        load_checkpoint(ckpt)


def test_repeated_tensor_rejected(ckpt):
    part = build_part("tiny8", 0, [(4, 5), (6, 7)])
    save_checkpoint(part, ckpt)
    raw = Path(ckpt).read_bytes()
    Path(ckpt).write_bytes(raw.replace(b"6.weight", b"4.weight"))
    with pytest.raises(CheckpointError, match="unexpected or repeated tensor '4.weight'"):
        load_checkpoint(ckpt)


def test_version_1_rejected(ckpt):
    save_checkpoint(build_net("tiny8", seed=0), ckpt)
    raw = bytearray(Path(ckpt).read_bytes())
    raw[4:8] = struct.pack("<I", 1)
    Path(ckpt).write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="unsupported version 1"):
        load_checkpoint(ckpt)


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

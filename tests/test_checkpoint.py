"""Checkpoint serialization round trips and corruption handling."""

import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitlab import wire
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

from helpers import count_constructions, params_by_index


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
    assert params_by_index(loaded) == params_by_index(model)


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


@st.composite
def _parts(draw):
    """A part of tiny8 or mnist: a random non-empty set of its layers,
    seed, split depth and step count."""
    arch = draw(st.sampled_from(["tiny8", "mnist"]))
    held = sorted(draw(st.sets(st.integers(0, len(layout(arch)) - 1), min_size=1)))
    part = build_part(arch, draw(st.integers(0, 2**64 - 1)), [(i, i + 1) for i in held],
                      split_depth=draw(st.integers(0, 2**32 - 1)))
    part.step_count = draw(st.integers(0, 2**64 - 1))
    return part


@given(part=_parts())
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_round_trip_any_part(ckpt, part):
    """A header, the index list, and the parameters as one wire tensor list."""
    save_checkpoint(part, ckpt)
    header = 4 + 4 + 1 + len(part.arch) + 4 + 8 + 8 + 4
    body = wire.encode_tensor_list([p.data for p in part.params()])
    assert Path(ckpt).stat().st_size == header + 4 * len(part.index) + len(body)
    loaded = load_checkpoint(ckpt)
    assert (loaded.arch, loaded.seed, loaded.split_depth, loaded.step_count) == (
        part.arch, part.seed, part.split_depth, part.step_count)
    assert loaded.index == part.index
    assert params_by_index(loaded) == params_by_index(part)


def test_part_round_trip_keeps_net_indices(ckpt):
    part = build_part("tiny8", 4, [(0, 1), (6, 8)], split_depth=1)
    part.step_count = 3
    save_checkpoint(part, ckpt)
    loaded = load_checkpoint(ckpt)
    assert loaded.index == [0, 6, 7]
    assert [l.kind for l in loaded.layers] == ["conv2d", "fc", "softmax"]
    assert loaded.step_count == 3
    assert params_by_index(loaded) == params_by_index(part)


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


@pytest.mark.parametrize("index, tensors", [
    ([4, 6], lambda t: [*t, t[-1]]),  # one tensor too many
    ([4, 6], lambda t: t[:-1]),  # one too few
    ([4, 6], lambda t: [t[0].T, *t[1:]]),  # the first fc's weight transposed
    ([1, 2], lambda t: t),  # the fcs' tensors under a pool and a relu
    ([1, 6], lambda t: t[:2]),  # the first fc's tensors under the second fc
], ids=["too-many", "too-few", "wrong-shape", "no-params-held", "another-layer"])
def test_tensors_that_disagree_with_the_layers_rejected(ckpt, index, tensors):
    """A part of tiny8's two fcs (layers 4 and 6) with its index list or its
    tensor list rewritten: the shapes, in net order, must be the layers'."""
    part = build_part("tiny8", 0, [(4, 5), (6, 7)])
    save_checkpoint(part, ckpt)
    params = [p.data for p in part.params()]
    raw = Path(ckpt).read_bytes()
    head = bytearray(raw[: len(raw) - len(wire.encode_tensor_list(params))])
    struct.pack_into("<2I", head, _index_offset(part) + 4, *index)
    Path(ckpt).write_bytes(bytes(head) + wire.encode_tensor_list(tensors(params)))
    with pytest.raises(CheckpointError, match="tensors of shapes .* but layers"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_rejected(ckpt, value):
    part = build_part("tiny8", 0, [(4, 5)])
    part.layers[0].bias.data[3] = value
    save_checkpoint(part, ckpt)
    with pytest.raises(CheckpointError, match="NaN or infinite"):
        load_checkpoint(ckpt)


def test_every_prefix_and_byte_flip_loads_or_is_checkpoint_error(ckpt):
    """Every strict prefix, and every one-byte flip of the first 400 bytes,
    of a part checkpoint loads or raises CheckpointError, nothing else."""
    save_checkpoint(build_part("tiny8", 0, [(0, 1), (4, 8)]), ckpt)
    raw = Path(ckpt).read_bytes()
    flips = [raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1:] for i in range(400)]
    for case in [raw[:k] for k in range(len(raw))] + flips:
        Path(ckpt).write_bytes(case)
        try:
            load_checkpoint(ckpt)
        except CheckpointError:
            pass


def test_version_1_rejected(ckpt):
    save_checkpoint(build_net("tiny8", seed=0), ckpt)
    raw = bytearray(Path(ckpt).read_bytes())
    raw[4:8] = struct.pack("<I", 1)
    Path(ckpt).write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="unsupported version 1"):
        load_checkpoint(ckpt)


def test_version_2_rejected(ckpt):
    """A version 2 file, with its named tensors, has no reader."""
    save_checkpoint(build_net("tiny8", seed=0), ckpt)
    raw = bytearray(Path(ckpt).read_bytes())
    raw[4:8] = struct.pack("<I", 2)
    Path(ckpt).write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="unsupported version 2"):
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

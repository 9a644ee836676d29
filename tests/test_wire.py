"""Wire codec round trips and malformed-input behaviour."""

import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from splitlab import wire
from splitlab.errors import ProtocolError
from splitlab.protocol import CODECS
from splitlab.wire import MsgType


class TestFrames:
    @pytest.mark.parametrize("mtype", list(MsgType))
    def test_round_trip(self, mtype):
        got_type, payload = wire.decode_frame(wire.encode_frame(mtype, b"abc"))
        assert got_type is mtype
        assert payload == b"abc"

    def test_empty_payload(self):
        got_type, payload = wire.decode_frame(wire.encode_frame(MsgType.ACK))
        assert got_type is MsgType.ACK
        assert payload == b""

    def test_bad_magic(self):
        frame = bytearray(wire.encode_frame(MsgType.ACK))
        frame[0] = ord("X")
        with pytest.raises(ProtocolError):
            wire.decode_frame(bytes(frame))

    def test_unknown_type(self):
        frame = bytearray(wire.encode_frame(MsgType.ACK))
        frame[4] = 200
        with pytest.raises(ProtocolError):
            wire.decode_frame(bytes(frame))

    def test_length_mismatch(self):
        frame = wire.encode_frame(MsgType.LOSS, b"abcd")
        with pytest.raises(ProtocolError):
            wire.decode_frame(frame + b"x")
        with pytest.raises(ProtocolError):
            wire.decode_frame(frame[:-1])

    def test_short_frame(self):
        with pytest.raises(ProtocolError):
            wire.decode_frame(b"SPL")


class TestTensorCodec:
    @pytest.mark.parametrize(
        "shape", [(3,), (2, 5), (1, 8, 14, 14), (2, 3, 4, 5), ()]
    )
    def test_round_trip_bit_exact(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**31)
        arr = rng.normal(size=shape).astype(np.float32)
        out, consumed = wire.decode_tensor(wire.encode_tensor(arr))
        assert consumed == len(wire.encode_tensor(arr))
        assert out.shape == arr.shape
        np.testing.assert_array_equal(
            out.view(np.uint32), arr.view(np.uint32)
        )

    def test_tensor_list_round_trip(self):
        rng = np.random.default_rng(1)
        arrs = [
            rng.normal(size=s).astype(np.float32)
            for s in [(1, 4, 4, 4), (10, 64), (10,), ()]
        ]
        out = wire.decode_tensor_list(wire.encode_tensor_list(arrs))
        assert len(out) == len(arrs)
        for a, b in zip(arrs, out):
            np.testing.assert_array_equal(a, b)

    def test_encode_copies_the_data_once(self):
        # A 2 MiB cifar cut activation: 4.0 MiB above the start when the
        # data was copied by tobytes() and again by the concatenation.
        arr = np.random.default_rng(2).normal(size=(8, 64, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            buf = wire.encode_tensor(arr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert buf[1 + 4 * 4 :] == arr.tobytes()
        assert peak - start <= 2.1 * 2**20

    def test_rank_limit(self):
        arr = np.zeros((1,) * 9, dtype=np.float32)
        with pytest.raises(ProtocolError):
            wire.encode_tensor(arr)

    def test_truncated_data(self):
        buf = wire.encode_tensor(np.ones(5, dtype=np.float32))
        with pytest.raises(ProtocolError):
            wire.decode_tensor(buf[:-2])

    def test_truncated_dims(self):
        with pytest.raises(ProtocolError):
            wire.decode_tensor(b"\x04\x01\x00")

    def test_empty_buffer(self):
        with pytest.raises(ProtocolError):
            wire.decode_tensor(b"")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        buf = wire.encode_tensor(np.array([1.0, value, 2.0], dtype=np.float32))
        with pytest.raises(ProtocolError, match="NaN or infinite"):
            wire.decode_tensor(buf)

    def test_tensor_list_rejects_empty_payload(self):
        with pytest.raises(ProtocolError, match="empty"):
            wire.decode_tensor_list(b"")


class TestScalarAndLabels:
    def test_scalar_round_trip(self):
        assert wire.decode_scalar(wire.encode_scalar(2.5)) == 2.5

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_scalar_rejects_non_finite(self, value):
        with pytest.raises(ProtocolError, match="NaN or infinite"):
            wire.decode_scalar(wire.encode_scalar(value))

    def test_scalar_rejects_vector(self):
        with pytest.raises(ProtocolError):
            wire.decode_scalar(wire.encode_tensor(np.ones(2, dtype=np.float32)))

    def test_labels_round_trip(self):
        y = np.array([0, 3, 9, 9, 1], dtype=np.uint8)
        out = wire.decode_labels(wire.encode_labels(y))
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, y)

    def test_labels_reject_fractional(self):
        buf = wire.encode_tensor(np.array([1.5], dtype=np.float32))
        with pytest.raises(ProtocolError):
            wire.decode_labels(buf)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0, 1e30])
    def test_labels_reject_non_class_values(self, value):
        buf = wire.encode_tensor(np.array([value, 3], dtype=np.float32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProtocolError):
                wire.decode_labels(buf)

    def test_labels_reject_matrix(self):
        buf = wire.encode_tensor(np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(ProtocolError):
            wire.decode_labels(buf)

    @pytest.mark.parametrize("mtype, value", [
        (MsgType.SMASHED, np.ones((2, 3), np.float32)),
        (MsgType.LABELS, np.array([0, 3, 9])),
        (MsgType.LOSS, 1.5),
    ])
    def test_one_tensor_payloads_reject_trailing_bytes(self, mtype, value):
        """SMASHED, LABELS and LOSS carry one tensor and nothing after it."""
        encode, decode = CODECS[mtype]
        buf = encode(value)
        decode(buf)
        with pytest.raises(ProtocolError, match="1 bytes after"):
            decode(buf + b"\0")

    def test_json_round_trip(self):
        obj = {"arch": "mnist", "depth": 3, "lr": 0.001}
        assert wire.decode_json(wire.encode_json(obj)) == obj

    def test_json_malformed(self):
        with pytest.raises(ProtocolError):
            wire.decode_json(b"{nope")
        with pytest.raises(ProtocolError):
            wire.decode_json(b"\xff\xfe")

    def test_hello_version_check(self):
        wire.check_hello(wire.encode_hello())
        with pytest.raises(ProtocolError):
            wire.check_hello(b"\x63\x00\x00\x00")
        with pytest.raises(ProtocolError):
            wire.check_hello(b"\x01")


class TestFuzz:
    """Malformed bytes must never raise anything except ProtocolError."""

    @given(st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_decode_frame_never_crashes(self, blob):
        try:
            wire.decode_frame(blob)
        except ProtocolError:
            pass

    @given(st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_decode_tensor_list_never_crashes(self, blob):
        try:
            wire.decode_tensor_list(blob)
        except ProtocolError:
            pass

    @given(st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_decode_labels_never_crashes(self, blob):
        try:
            wire.decode_labels(blob)
        except ProtocolError:
            pass

    @given(st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_decode_json_never_crashes(self, blob):
        try:
            wire.decode_json(blob)
        except ProtocolError:
            pass


# Values a decoder treats differently: signed zeros, class indices and
# values just off them, the float32 extremes, NaN and the infinities.
_EDGE_VALUES = [0.0, -0.0, 1.0, 9.0, 2.5, -1.0, 2.0**24 - 1, 2.0**24, 1e-45,
                3.4028235e38, 1e30, np.nan, np.inf, -np.inf]
_VALUES = (st.integers(0, 12).map(float), st.sampled_from(_EDGE_VALUES),
           st.floats(width=32))
_SHAPES = [(), (1,), (1, 1), (0,), (5,), (2, 3), (2, 1, 3)]


@st.composite
def _payloads(draw, shapes):
    """Raw bytes, or one or two tensors as encoded, each of one of
    ``shapes``, perhaps cut short, extended, or with its rank byte
    replaced."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=64))
    tensors = []
    for _ in range(draw(st.sampled_from([1, 1, 2]))):
        shape = draw(st.sampled_from(shapes))
        values = draw(st.sampled_from(_VALUES))
        data = draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))
        tensors.append(np.array(data, np.float32).reshape(shape))
    buf = bytearray(wire.encode_tensor_list(tensors))
    edit = draw(st.sampled_from(["none", "none", "cut", "extend", "rank"]))
    if edit == "cut":
        del buf[draw(st.integers(0, len(buf) - 1)):]
    elif edit == "extend":
        buf += draw(st.binary(min_size=1, max_size=8))
    elif edit == "rank":
        buf[0] = draw(st.integers(0, 255))
    return bytes(buf)


def _outcome(decode, buf):
    """What ``decode(buf)`` gives: ("ok", value bits) or ("raise", class)."""
    try:
        value = decode(bytearray(buf))
    except Exception as exc:  # the class is the outcome compared
        return "raise", type(exc)
    if isinstance(value, float):
        return "ok", struct.pack("<d", value)
    if isinstance(value, tuple):  # a header's (type, length)
        return "ok", value
    arrays = value if isinstance(value, list) else [value]
    return "ok", [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


class TestDecodersMatchOracles:
    """Each decoder accepts and rejects what the decoders as first written
    did, with the same value bits and the same exception class."""

    @pytest.mark.parametrize("decode, oracle, shapes", [
        (wire.decode_one_tensor, helpers.decode_one_tensor_oracle, _SHAPES),
        (wire.decode_tensor_list, helpers.decode_tensor_list_oracle, _SHAPES),
        (wire.decode_labels, helpers.decode_labels_oracle, [(0,), (1,), (5,), (2, 3)]),
        (wire.decode_scalar, helpers.decode_scalar_oracle, [(), (1,), (1, 1), (5,)]),
    ], ids=["one_tensor", "tensor_list", "labels", "scalar"])
    @given(data=st.data())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_payload_decoders(self, decode, oracle, shapes, data):
        buf = data.draw(_payloads(shapes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(decode, buf) == _outcome(oracle, buf)

    @pytest.mark.parametrize("decode, oracle", [
        (wire.decode_one_tensor, helpers.decode_one_tensor_oracle),
        (wire.decode_labels, helpers.decode_labels_oracle),
        (wire.decode_scalar, helpers.decode_scalar_oracle),
    ], ids=["one_tensor", "labels", "scalar"])
    @pytest.mark.parametrize("value", _EDGE_VALUES)
    def test_each_edge_value(self, decode, oracle, value):
        buf = wire.encode_tensor(np.array([value], np.float32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(decode, buf) == _outcome(oracle, buf)

    def test_every_type_byte(self):
        for mtype in range(256):
            for buf in (wire.HEADER.pack(wire.MAGIC, mtype, 7),
                        b"SPLX" + wire.HEADER.pack(wire.MAGIC, mtype, 0)[4:]):
                assert (_outcome(wire.decode_header, buf)
                        == _outcome(helpers.decode_header_oracle, buf))

    @given(buf=st.binary(max_size=12) | st.builds(
        lambda mtype, length, tail: wire.HEADER.pack(wire.MAGIC, mtype, length) + tail,
        st.integers(0, 255), st.integers(0, 2**32 - 1), st.binary(max_size=3)))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_header(self, buf):
        assert _outcome(wire.decode_header, buf) == _outcome(helpers.decode_header_oracle, buf)

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1), (1, 1, 1, 1, 1, 1, 1, 1)])
    def test_scalar_of_any_rank(self, shape):
        buf = wire.encode_tensor(np.full(shape, -2.75, np.float32))
        assert wire.decode_scalar(buf) == helpers.decode_scalar_oracle(buf) == -2.75

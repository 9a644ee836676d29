"""Wire codec round trips and malformed-input behaviour."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitlab import wire
from splitlab.errors import ProtocolError
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


class TestScalarAndLabels:
    def test_scalar_round_trip(self):
        assert wire.decode_scalar(wire.encode_scalar(2.5)) == 2.5

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

"""Framed binary wire format for split-training sessions.

Frame layout (little-endian):

    "SPLT" | u8 msg_type | u32 payload length | payload

Tensor payload encoding, used by SMASHED / LABELS / GRAD / LOSS:

    u8 ndim | u32 dims ... | f32 data (little-endian)

Tensors are self-delimiting, so a payload may carry several back to back
(a GRAD message carries the cut gradient first, optionally followed by
client-side parameter gradients); SMASHED, LABELS and LOSS carry exactly
one and nothing after it. Decoding is exact: the f32 bits on the
wire are the f32 bits in memory. A peer's NaN or infinity is rejected at
decode, before it reaches any arithmetic; the check takes a bounded block
at a time, so it allocates little however large the tensor. A LOSS
scalar is read straight from its bytes, with no array made.
"""

from __future__ import annotations

import json
import math
import struct
from enum import IntEnum

import numpy as np

from .errors import ProtocolError

MAGIC = b"SPLT"
PROTOCOL_VERSION = 1
MAX_TENSOR_NDIM = 8
HEADER = struct.Struct("<4sBI")


class MsgType(IntEnum):
    HELLO = 1
    CONFIG = 2
    SMASHED = 3
    LABELS = 4
    GRAD = 5
    LOSS = 6
    ACK = 7
    END = 8


def encode_frame(msg_type: MsgType, payload: bytes = b"") -> bytes:
    return HEADER.pack(MAGIC, int(msg_type), len(payload)) + payload


_TYPES = {int(m): m for m in MsgType}  # type byte -> MsgType


def decode_header(buf: bytes, offset: int = 0) -> tuple[MsgType, int]:
    """Check the header at ``offset`` in ``buf``; returns (type, payload
    length).

    Needs only the header's bytes, so a reader can reject a bad frame
    before it waits for, or allocates, the body.
    """
    if len(buf) - offset < HEADER.size:
        raise ProtocolError(f"frame too short: {len(buf) - offset} bytes")
    magic, mtype, length = HEADER.unpack_from(buf, offset)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    msg_type = _TYPES.get(mtype)
    if msg_type is None:
        raise ProtocolError(f"unknown message type {mtype}")
    return msg_type, length


def decode_frame(buf: bytes) -> tuple[MsgType, bytes]:
    """Decode one complete frame from ``buf``; rejects trailing bytes."""
    mtype, length = decode_header(buf)
    if len(buf) != HEADER.size + length:
        raise ProtocolError(
            f"frame length field {length} does not match payload "
            f"{len(buf) - HEADER.size}"
        )
    return mtype, buf[HEADER.size :]


# "<B{n}I": a tensor's rank and dims, for every rank the wire allows.
_DIMS = tuple(struct.Struct(f"<B{n}I") for n in range(MAX_TENSOR_NDIM + 1))
_F32 = np.dtype("<f4")
_ONE_F32 = struct.Struct("<f")
_SCALAR = struct.Struct("<Bf")  # a rank-0 tensor: its rank, then its value
_FINITE_BLOCK = 1 << 16  # elements per finiteness check: a 64 KiB mask


def encode_tensor(arr: np.ndarray) -> bytes:
    return b"".join(_tensor_parts(arr))


def _tensor_parts(arr) -> tuple[bytes, memoryview]:
    """A tensor's rank-and-dims head and a view of its data, as sent."""
    arr = np.asarray(arr, dtype=_F32)
    if arr.ndim > MAX_TENSOR_NDIM:
        raise ProtocolError(f"tensor rank {arr.ndim} exceeds wire limit")
    if not arr.flags.c_contiguous:
        arr = arr.copy()
    return _DIMS[arr.ndim].pack(arr.ndim, *arr.shape), memoryview(arr)


def _tensor_head(buf, offset: int) -> tuple[tuple[int, ...], int, int]:
    """The dims of the tensor at ``offset``, where its data starts and the
    offset after it."""
    size = len(buf)
    if offset >= size:
        raise ProtocolError("tensor payload truncated before ndim")
    ndim = buf[offset]
    if ndim > MAX_TENSOR_NDIM:
        raise ProtocolError(f"tensor rank {ndim} exceeds wire limit")
    head = _DIMS[ndim]
    if offset + head.size > size:
        raise ProtocolError("tensor payload truncated in dims")
    dims = head.unpack_from(buf, offset)[1:]
    start = offset + head.size
    end = start + 4 * math.prod(dims)
    if end > size:
        raise ProtocolError(
            f"tensor payload truncated: dims {dims} need {end - start} data bytes"
        )
    return dims, start, end


def _tensor_view(buf, offset: int) -> tuple[np.ndarray, int]:
    """The tensor at ``offset`` as a view of ``buf``, and the offset after it."""
    dims, start, end = _tensor_head(buf, offset)
    return np.ndarray(dims, _F32, buf, start), end


def _check_finite(arr: np.ndarray) -> None:
    """Reject NaN and infinity, ``_FINITE_BLOCK`` elements at a time."""
    flat = arr.ravel()
    for start in range(0, flat.size, _FINITE_BLOCK):
        block = flat[start:start + _FINITE_BLOCK]
        if np.count_nonzero(np.isfinite(block)) != block.size:
            raise ProtocolError("tensor payload holds NaN or infinite values")


def decode_tensor(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """The tensor at ``offset`` and the offset after it. The array is a view
    of ``buf`` when ``buf`` is writable (a received ``bytearray``) and the
    data is aligned, else a copy."""
    arr, offset = _tensor_view(buf, offset)
    if not arr.flags.behaved:  # aligned and writeable
        arr = arr.copy()
    _check_finite(arr)
    return arr, offset


def _check_consumed(buf, offset: int) -> None:
    if offset != len(buf):
        raise ProtocolError(f"{len(buf) - offset} bytes after the payload's tensor")


def decode_one_tensor(buf: bytes) -> np.ndarray:
    """The one tensor a payload carries; rejects bytes after it."""
    arr, offset = decode_tensor(buf)
    _check_consumed(buf, offset)
    return arr


def encode_tensor_list(arrays) -> bytes:
    return b"".join([part for a in arrays for part in _tensor_parts(a)])


def decode_tensor_list(buf: bytes) -> list[np.ndarray]:
    if not buf:  # no message carries an empty list
        raise ProtocolError("empty tensor list payload")
    out, offset = [], 0
    while offset < len(buf):
        arr, offset = decode_tensor(buf, offset)
        out.append(arr)
    return out


def encode_labels(labels: np.ndarray) -> bytes:
    return encode_tensor(np.asarray(labels, dtype=np.float32))


def decode_labels(buf: bytes) -> np.ndarray:
    arr, offset = _tensor_view(buf, 0)
    _check_consumed(buf, offset)
    if arr.ndim != 1:
        raise ProtocolError("malformed labels payload")
    # The range check comes first and also rejects NaN and inf: a value
    # out of int64's range does not cast cleanly.
    if not (np.minimum.reduce(arr, initial=0) >= 0
            and np.maximum.reduce(arr, initial=0) < 2**24):
        raise ProtocolError("labels payload holds values that are not class indices")
    labels = arr.astype(np.int64)
    if np.count_nonzero(labels != arr):
        raise ProtocolError("labels payload holds values that are not class indices")
    return labels


def encode_scalar(value: float) -> bytes:
    """``encode_tensor(np.float32(value))``: a rank-0 tensor, packed at once."""
    return _SCALAR.pack(0, np.float32(value))


def decode_scalar(buf: bytes) -> float:
    """The value of a payload holding one single-element tensor, of any
    rank, read straight from its bytes."""
    _, start, end = _tensor_head(buf, 0)
    _check_consumed(buf, end)
    if end - start != 4:
        raise ProtocolError("malformed scalar payload")
    (value,) = _ONE_F32.unpack_from(buf, start)
    if not math.isfinite(value):
        raise ProtocolError("tensor payload holds NaN or infinite values")
    return value


def encode_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def decode_json(buf: bytes):
    try:
        return json.loads(buf.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON payload: {exc}") from None


def encode_hello() -> bytes:
    """The HELLO payload: this side's protocol version."""
    return struct.pack("<I", PROTOCOL_VERSION)


def check_hello(payload: bytes) -> None:
    if len(payload) != 4:
        raise ProtocolError("malformed HELLO payload")
    (version,) = struct.unpack("<I", payload)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"peer protocol version {version}, expected {PROTOCOL_VERSION}")

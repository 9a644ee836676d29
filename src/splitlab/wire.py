"""Framed binary wire format for split-training sessions.

Frame layout (little-endian):

    "SPLT" | u8 msg_type | u32 payload length | payload

Tensor payload encoding, used by SMASHED / LABELS / GRAD / LOSS:

    u8 ndim | u32 dims ... | f32 data (little-endian)

Tensors are self-delimiting, so a payload may carry several back to back
(a GRAD message carries the cut gradient first, optionally followed by
client-side parameter gradients). Decoding is exact: the f32 bits on the
wire are the f32 bits in memory.
"""

from __future__ import annotations

import json
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


def decode_header(buf: bytes) -> tuple[MsgType, int]:
    """Check the header at the start of ``buf``; returns (type, payload length).

    Needs only the header's bytes, so a reader can reject a bad frame
    before it waits for, or allocates, the body.
    """
    if len(buf) < HEADER.size:
        raise ProtocolError(f"frame too short: {len(buf)} bytes")
    magic, mtype, length = HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    try:
        mtype = MsgType(mtype)
    except ValueError:
        raise ProtocolError(f"unknown message type {mtype}") from None
    return mtype, length


def decode_frame(buf: bytes) -> tuple[MsgType, bytes]:
    """Decode one complete frame from ``buf``; rejects trailing bytes."""
    mtype, length = decode_header(buf)
    if len(buf) != HEADER.size + length:
        raise ProtocolError(
            f"frame length field {length} does not match payload "
            f"{len(buf) - HEADER.size}"
        )
    return mtype, buf[HEADER.size :]


def encode_tensor(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=np.float32)
    if arr.ndim > MAX_TENSOR_NDIM:
        raise ProtocolError(f"tensor rank {arr.ndim} exceeds wire limit")
    head = struct.pack("<B", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.astype("<f4", copy=False).tobytes()


def decode_tensor(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    if offset + 1 > len(buf):
        raise ProtocolError("tensor payload truncated before ndim")
    ndim = buf[offset]
    offset += 1
    if ndim > MAX_TENSOR_NDIM:
        raise ProtocolError(f"tensor rank {ndim} exceeds wire limit")
    need = 4 * ndim
    if offset + need > len(buf):
        raise ProtocolError("tensor payload truncated in dims")
    dims = struct.unpack_from(f"<{ndim}I", buf, offset)
    offset += need
    count = 1
    for d in dims:
        count *= d
    need = 4 * count
    if offset + need > len(buf):
        raise ProtocolError(
            f"tensor payload truncated: dims {dims} need {need} data bytes"
        )
    arr = np.frombuffer(buf, dtype="<f4", count=count, offset=offset)
    offset += need
    return arr.reshape(dims).copy(), offset


def encode_tensor_list(arrays) -> bytes:
    return b"".join(encode_tensor(a) for a in arrays)


def decode_tensor_list(buf: bytes) -> list[np.ndarray]:
    out, offset = [], 0
    while offset < len(buf):
        arr, offset = decode_tensor(buf, offset)
        out.append(arr)
    return out


def encode_labels(labels: np.ndarray) -> bytes:
    return encode_tensor(np.asarray(labels, dtype=np.float32))


def decode_labels(buf: bytes) -> np.ndarray:
    arr, offset = decode_tensor(buf)
    if offset != len(buf) or arr.ndim != 1:
        raise ProtocolError("malformed labels payload")
    # Checked before any cast: NaN, inf and huge values do not cast cleanly.
    if not np.all((arr >= 0) & (arr < 2**24) & (arr == np.floor(arr))):
        raise ProtocolError("labels payload holds values that are not class indices")
    return arr.astype(np.int64)


def encode_scalar(value: float) -> bytes:
    return encode_tensor(np.float32(value))


def decode_scalar(buf: bytes) -> float:
    arr, offset = decode_tensor(buf)
    if offset != len(buf) or arr.size != 1:
        raise ProtocolError("malformed scalar payload")
    return float(arr.reshape(()))


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

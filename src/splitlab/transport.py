"""Framed byte streams over sockets.

Every session runs on one class, ``Transport``. ``inproc_pair``
returns the two ends of a ``socket.socketpair()`` for roles in one
process; ``tcp_listen`` and ``tcp_connect`` return one end of a TCP
connection. In-process and TCP runs therefore share the framing, the
chunked reads, the timeouts and the close: closing an end gives its
peer EOF, so a peer blocked in ``recv`` fails at once. Whoever opens a
pair or a connection closes it; a transport is a context manager for
that. Either end may record a transcript of the raw frames in order,
for the honest-but-curious neutrality checks.
"""

from __future__ import annotations

import socket
import time

from .errors import ProtocolError
from .wire import HEADER, MsgType, decode_header, encode_frame


class Transport:
    """One endpoint of a reliable, ordered frame stream over a socket."""

    RECV_CHUNK = 1 << 20  # largest single recv: memory grows with bytes received

    def __init__(self, sock: socket.socket, record_transcript: bool = False):
        self._sock = sock
        self.transcript: list[tuple[str, bytes]] | None = (
            [] if record_transcript else None
        )

    def send(self, msg_type: MsgType, payload: bytes = b"") -> None:
        frame = encode_frame(msg_type, payload)
        if self.transcript is not None:
            self.transcript.append(("send", frame))
        self._send_bytes(frame)

    def recv(self) -> tuple[MsgType, bytes]:
        head = self._recv_bytes(HEADER.size)
        mtype, length = decode_header(head)  # reject a bad header before the body
        payload = self._recv_bytes(length) if length else b""
        if self.transcript is not None:
            self.transcript.append(("recv", head + payload))
        return mtype, payload

    def _send_bytes(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ProtocolError(f"send failed: {exc}") from None

    def _recv_bytes(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            try:
                chunk = self._sock.recv(min(remaining, self.RECV_CHUNK))
            except OSError as exc:
                raise ProtocolError(f"recv failed: {exc}") from None
            if not chunk:
                raise ProtocolError("connection closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def inproc_pair(record_transcript: bool = False,
                timeout: float = 60.0) -> tuple[Transport, Transport]:
    """Both ends of a connected local socket pair; the caller closes both.

    A frame larger than the socket buffer blocks its sender until the
    peer reads, so the two ends belong on different threads.
    """
    ends = socket.socketpair()
    for sock in ends:
        sock.settimeout(timeout)
    return tuple(Transport(sock, record_transcript) for sock in ends)


def tcp_listen(host: str, port: int, record_transcript: bool = False,
               timeout: float = 60.0) -> Transport:
    """Accept exactly one peer connection."""
    srv = socket.create_server((host, port))
    srv.settimeout(timeout)
    try:
        conn, _ = srv.accept()
    except socket.timeout:
        raise ProtocolError(f"no peer connected to {host}:{port}") from None
    finally:
        srv.close()
    conn.settimeout(timeout)
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return Transport(conn, record_transcript)


def tcp_connect(host: str, port: int, record_transcript: bool = False,
                timeout: float = 60.0, retry_for: float = 10.0) -> Transport:
    deadline = time.monotonic() + retry_for
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            break
        except OSError:
            if time.monotonic() >= deadline:
                raise ProtocolError(f"could not connect to {host}:{port}") from None
            time.sleep(0.05)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return Transport(sock, record_transcript)

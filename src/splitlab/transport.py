"""Byte-stream transports carrying wire frames.

Both transports move the exact same encoded frames: the in-process pair
pushes them through queues, the TCP transport through a socket. Either
side may enable transcript recording, which captures the raw bytes in
order for the honest-but-curious neutrality checks.
"""

from __future__ import annotations

import queue
import socket
import time

from .errors import ProtocolError
from .wire import HEADER, MsgType, decode_header, encode_frame


class Transport:
    """One endpoint of a reliable, ordered frame stream."""

    def __init__(self, record_transcript: bool = False):
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
        raise NotImplementedError

    def _recv_bytes(self, n: int) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        pass


class InProcTransport(Transport):
    def __init__(self, inbox: "queue.Queue[bytes | None]", outbox: "queue.Queue[bytes | None]",
                 record_transcript: bool = False, timeout: float = 60.0):
        super().__init__(record_transcript)
        self._inbox = inbox
        self._outbox = outbox
        self._timeout = timeout
        self._residual = b""

    def _send_bytes(self, data: bytes) -> None:
        self._outbox.put(data)

    def _recv_bytes(self, n: int) -> bytes:
        buf = self._residual
        while len(buf) < n:
            try:
                chunk = self._inbox.get(timeout=self._timeout)
            except queue.Empty:
                raise ProtocolError("in-process peer timed out") from None
            if chunk is None:
                self._inbox.put(None)  # every later recv fails too
                raise ProtocolError("in-process peer closed the connection")
            buf += chunk
        self._residual = buf[n:]
        return buf[:n]

    def close(self) -> None:
        self._outbox.put(None)  # wakes a peer blocked in recv


def inproc_pair(record_transcript: bool = False,
                timeout: float = 60.0) -> tuple[InProcTransport, InProcTransport]:
    a_to_b: "queue.Queue[bytes | None]" = queue.Queue()
    b_to_a: "queue.Queue[bytes | None]" = queue.Queue()
    a = InProcTransport(b_to_a, a_to_b, record_transcript, timeout)
    b = InProcTransport(a_to_b, b_to_a, record_transcript, timeout)
    return a, b


class TcpTransport(Transport):
    RECV_CHUNK = 1 << 20  # largest single recv: memory grows with bytes received

    def __init__(self, sock: socket.socket, record_transcript: bool = False):
        super().__init__(record_transcript)
        self._sock = sock
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

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


def tcp_listen(host: str, port: int, record_transcript: bool = False,
               timeout: float = 60.0) -> TcpTransport:
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
    return TcpTransport(conn, record_transcript)


def tcp_connect(host: str, port: int, record_transcript: bool = False,
                timeout: float = 60.0, retry_for: float = 10.0) -> TcpTransport:
    deadline = time.monotonic() + retry_for
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            return TcpTransport(sock, record_transcript)
        except OSError:
            if time.monotonic() >= deadline:
                raise ProtocolError(f"could not connect to {host}:{port}") from None
            time.sleep(0.05)

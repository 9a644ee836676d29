"""Framed byte streams over sockets.

Every session runs on one class, ``Transport``. ``inproc_pair``
returns the two ends of a ``socket.socketpair()`` for roles in one
process; ``tcp_listen`` and ``tcp_connect`` return one end of a TCP
connection. In-process and TCP runs therefore share the framing, the
buffered reads, the timeouts and the close: closing an end gives its
peer EOF, so a peer blocked in ``recv`` fails at once. Whoever opens a
pair or a connection closes it; a transport is a context manager for
that. Either end may record a transcript of the raw frames in order,
for the honest-but-curious neutrality checks.

Inside ``coalesced`` (a role's turn-taking loop) ``send`` only queues a
frame: the queue goes out in one scatter-gather write before the next
``recv`` and when the block ends, so a role's turn costs one write
however many frames it sends (up to IOV_MAX buffers, two a frame, per
write). Elsewhere ``send`` writes at once. ``recv`` reads through a
buffer, so one read may bring in several frames, and a frame already
there costs no socket call and one copy. A body that is not all there
yet grows as its bytes arrive, never by much past its declared length.
"""

from __future__ import annotations

import os
import socket
import time

from .errors import ProtocolError
from .wire import HEADER, MAGIC, MsgType, decode_header, encode_frame

# A body is read LEAD bytes into a fresh bytearray whose front is then cut
# off, which in CPython only moves the array's start. A tensor payload's
# data, after its 1 + 4*ndim header bytes, then starts 4-byte aligned,
# and ``wire.decode_tensor`` can return it without a copy.
_LEAD = 3
# The most buffers one ``sendmsg`` takes: 1024 on Linux. Where sysconf
# says -1, no limit, POSIX's least, 16, serves.
_IOV_MAX = max(16, os.sysconf("SC_IOV_MAX"))


class Transport:
    """One endpoint of a reliable, ordered frame stream over a socket."""

    RECV_CHUNK = 1 << 20  # largest single read into a body
    READ_AHEAD = 1 << 16  # bytes one header read may take in, later frames included

    def __init__(self, sock: socket.socket, record_transcript: bool = False):
        self._sock = sock
        self.transcript: list[tuple[str, bytes]] | None = (
            [] if record_transcript else None
        )
        self._ahead = memoryview(bytearray(self.READ_AHEAD))
        self._lo = self._hi = 0  # the received bytes not yet returned
        self._queue: list | None = None  # unwritten buffers, inside ``coalesced``

    def send(self, msg_type: MsgType, payload: bytes = b"") -> None:
        if self.transcript is not None:
            self.transcript.append(("send", encode_frame(msg_type, payload)))
        head = HEADER.pack(MAGIC, msg_type, len(payload))
        if self._queue is None:
            self._send_bytes(head, payload)
        else:
            self._queue += (head, payload)

    def coalesced(self) -> "_Coalesced":
        """Queue what ``send`` sends in this block: it goes out in one write
        before the next ``recv``, and when the block ends without an error."""
        return _Coalesced(self)

    def _flush(self) -> None:
        if self._queue:
            parts, self._queue = self._queue, []
            self._send_bytes(*parts)

    def recv(self) -> tuple[MsgType, bytearray]:
        """The next frame's type and payload. Waits up to the socket's
        timeout for each read of the header; once the header is in, the
        whole body must arrive within one timeout."""
        if self._queue:
            self._flush()
        while self._hi - self._lo < HEADER.size:
            self._fill()
        mtype, length = decode_header(self._ahead, self._lo)
        self._lo += HEADER.size
        payload = self._read_body(length)
        if self.transcript is not None:
            self.transcript.append(("recv", encode_frame(mtype, payload)))
        return mtype, payload

    def _fill(self) -> None:
        """Read at least one byte after the unread ones, as many as the
        socket has and the read-ahead buffer holds."""
        unread = self._hi - self._lo
        if self._lo:  # fewer than a header's bytes: move them to the front
            self._ahead[:unread] = self._ahead[self._lo:self._hi]
            self._lo, self._hi = 0, unread
        self._hi += self._recv_into(self._ahead[unread:])

    def _read_body(self, length: int) -> bytearray:
        """The body of ``length`` bytes after the header just read. A body
        already in the read-ahead buffer is copied out at once, with the
        header's last LEAD bytes. Any other grows only as its bytes arrive,
        doubling when full, and to its declared length rather than past it:
        it starts at that length halved, rounding up, until one read can
        fill it, so k doublings end under 2**k bytes beyond it."""
        lo, have = self._lo, self._hi - self._lo
        if have >= length:
            self._lo = lo + length
            body = bytearray(self._ahead[lo - _LEAD:lo + length])
            del body[:_LEAD]
            return body
        self._lo = self._hi
        size = _LEAD + length
        while size > _LEAD + have + self.RECV_CHUNK:
            size = -(-size // 2)
        body = bytearray(size)
        body[_LEAD:_LEAD + have] = self._ahead[lo:lo + have]
        got = _LEAD + have
        timeout = self._sock.gettimeout()
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            while got < _LEAD + length:
                if got == len(body):  # full: double it, without a temporary
                    body *= 2
                    del body[_LEAD + length:]
                if deadline is not None:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        raise ProtocolError(f"frame body incomplete after {timeout:g} s")
                    self._sock.settimeout(left)
                with memoryview(body) as view:
                    got += self._recv_into(view[got:got + self.RECV_CHUNK])
        finally:
            if deadline is not None:
                self._sock.settimeout(timeout)
        del body[:_LEAD]
        return body

    def _recv_into(self, view: memoryview) -> int:
        try:
            n = self._sock.recv_into(view)
        except OSError as exc:
            raise ProtocolError(f"recv failed: {exc}") from None
        if not n:
            raise ProtocolError("connection closed mid-frame")
        return n

    def _send_bytes(self, *parts) -> None:
        """Write ``parts`` in order: each ``sendmsg`` call takes at most
        ``_IOV_MAX`` of them, and the next resumes where it stopped."""
        try:
            while parts:
                batch = parts[:_IOV_MAX]
                sent = self._sock.sendmsg(batch)
                if sent == sum(map(len, batch)):
                    parts = parts[len(batch):]
                    continue
                i = 0
                while sent >= len(parts[i]):
                    sent -= len(parts[i])
                    i += 1
                parts = (memoryview(parts[i]).cast("B")[sent:], *parts[i + 1:])
        except OSError as exc:
            raise ProtocolError(f"send failed: {exc}") from None

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Coalesced:
    """The block of ``Transport.coalesced``."""

    __slots__ = ("_transport",)

    def __init__(self, transport: Transport):
        self._transport = transport

    def __enter__(self) -> None:
        self._transport._queue = []

    def __exit__(self, exc_type, *exc) -> None:
        try:
            if exc_type is None:
                self._transport._flush()
        finally:
            self._transport._queue = None


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

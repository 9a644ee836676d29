"""Frame transports: in-process socket pair and TCP loopback."""

import socket
import threading
import time
import tracemalloc

import numpy as np
import pytest

from splitlab import wire
from splitlab.errors import ProtocolError
from splitlab.transport import Transport, inproc_pair, tcp_connect, tcp_listen
from splitlab.wire import MsgType


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestInProc:
    def test_send_recv(self):
        a, b = inproc_pair()
        with a, b:
            a.send(MsgType.SMASHED, wire.encode_tensor(np.arange(4, dtype=np.float32)))
            mtype, payload = b.recv()
        assert mtype is MsgType.SMASHED
        out, _ = wire.decode_tensor(payload)
        np.testing.assert_array_equal(out, [0, 1, 2, 3])

    def test_bidirectional_ordering(self):
        a, b = inproc_pair()
        with a, b:
            a.send(MsgType.HELLO)
            a.send(MsgType.CONFIG, b"{}")
            assert b.recv()[0] is MsgType.HELLO
            assert b.recv()[0] is MsgType.CONFIG
            b.send(MsgType.ACK)
            assert a.recv()[0] is MsgType.ACK

    def test_timeout(self):
        a, b = inproc_pair(timeout=0.05)
        with a, b, pytest.raises(ProtocolError, match="timed out"):
            a.recv()

    def test_transcript_records_raw_frames(self):
        a, b = inproc_pair(record_transcript=True)
        with a, b:
            a.send(MsgType.LOSS, wire.encode_scalar(1.5))
            b.recv()
        assert len(a.transcript) == 1 and len(b.transcript) == 1
        (dira, frame_a), (dirb, frame_b) = a.transcript[0], b.transcript[0]
        assert (dira, dirb) == ("send", "recv")
        assert frame_a == frame_b
        mtype, payload = wire.decode_frame(frame_a)
        assert mtype is MsgType.LOSS
        assert wire.decode_scalar(payload) == 1.5

    @pytest.mark.parametrize("magic, mtype, match", [
        (b"EVIL", int(MsgType.GRAD), "magic b'EVIL'"),
        (wire.MAGIC, 99, "message type 99"),
    ])
    def test_bad_header_rejected_before_body(self, magic, mtype, match):
        a, b = inproc_pair(timeout=5)
        with a, b:
            # A header declaring a 100-byte body that never comes.
            a._send_bytes(wire.HEADER.pack(magic, mtype, 100))
            t0 = time.monotonic()
            with pytest.raises(ProtocolError, match=match):
                b.recv()
            assert time.monotonic() - t0 < 1.0

    def test_frame_larger_than_socket_buffer(self):
        # The sender blocks until the peer reads, so it runs on its own thread.
        blob = np.arange(1 << 20, dtype=np.float32)  # a 4 MiB frame
        a, b = inproc_pair(timeout=5)
        with a, b:
            th = threading.Thread(
                target=a.send, args=(MsgType.GRAD, wire.encode_tensor(blob)))
            th.start()
            mtype, payload = b.recv()
            th.join(timeout=5)
        assert not th.is_alive()
        assert mtype is MsgType.GRAD
        np.testing.assert_array_equal(wire.decode_tensor(payload)[0], blob)

    def test_no_transcript_by_default(self):
        a, b = inproc_pair()
        with a, b:
            assert a.transcript is None


class TestTcp:
    def test_loopback_round_trip(self):
        port = _free_port()
        server_side = {}

        def serve():
            with tcp_listen("127.0.0.1", port) as t:
                mtype, payload = t.recv()
                server_side["got"] = (mtype, payload)
                t.send(MsgType.ACK)

        th = threading.Thread(target=serve, daemon=True)
        th.start()
        blob = wire.encode_tensor(np.ones((2, 3), dtype=np.float32))
        with tcp_connect("127.0.0.1", port) as client:
            client.send(MsgType.GRAD, blob)
            assert client.recv()[0] is MsgType.ACK
        th.join(timeout=5)
        assert server_side["got"][0] is MsgType.GRAD
        assert server_side["got"][1] == blob

    def test_connect_nobody_listening(self):
        with pytest.raises(ProtocolError):
            tcp_connect("127.0.0.1", _free_port(), retry_for=0.2)

    def test_peer_disconnect_mid_frame(self):
        port = _free_port()

        def serve():
            with tcp_listen("127.0.0.1", port) as t:
                # Send only part of a frame header, then drop the connection.
                t._sock.sendall(b"SP")

        th = threading.Thread(target=serve, daemon=True)
        th.start()
        with tcp_connect("127.0.0.1", port) as client, pytest.raises(ProtocolError):
            client.recv()
        th.join(timeout=5)

    def test_huge_declared_length_reads_in_chunks(self):
        peer, conn = socket.socketpair()
        # A valid header declaring a 4 GiB body, then a few bytes and EOF.
        with peer:
            peer.sendall(wire.HEADER.pack(wire.MAGIC, int(MsgType.GRAD), 0xFFFFFFFF)
                         + b"x" * 64)
        tracemalloc.start()
        try:
            with Transport(conn) as receiver, \
                    pytest.raises(ProtocolError, match="closed mid-frame"):
                receiver.recv()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * Transport.RECV_CHUNK

"""Frame transports: in-process queue pair and TCP loopback."""

import socket
import threading
import time
import tracemalloc

import numpy as np
import pytest

from splitlab import wire
from splitlab.errors import ProtocolError
from splitlab.transport import TcpTransport, inproc_pair, tcp_connect, tcp_listen
from splitlab.wire import MsgType


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestInProc:
    def test_send_recv(self):
        a, b = inproc_pair()
        a.send(MsgType.SMASHED, wire.encode_tensor(np.arange(4, dtype=np.float32)))
        mtype, payload = b.recv()
        assert mtype is MsgType.SMASHED
        out, _ = wire.decode_tensor(payload)
        np.testing.assert_array_equal(out, [0, 1, 2, 3])

    def test_bidirectional_ordering(self):
        a, b = inproc_pair()
        a.send(MsgType.HELLO)
        a.send(MsgType.CONFIG, b"{}")
        assert b.recv()[0] is MsgType.HELLO
        assert b.recv()[0] is MsgType.CONFIG
        b.send(MsgType.ACK)
        assert a.recv()[0] is MsgType.ACK

    def test_timeout(self):
        a, _ = inproc_pair(timeout=0.05)
        with pytest.raises(ProtocolError):
            a.recv()

    def test_transcript_records_raw_frames(self):
        a, b = inproc_pair(record_transcript=True)
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
        # A header declaring a 100-byte body that never comes.
        a._send_bytes(wire.HEADER.pack(magic, mtype, 100))
        t0 = time.monotonic()
        with pytest.raises(ProtocolError, match=match):
            b.recv()
        assert time.monotonic() - t0 < 1.0

    def test_no_transcript_by_default(self):
        a, _ = inproc_pair()
        assert a.transcript is None


class TestTcp:
    def test_loopback_round_trip(self):
        port = _free_port()
        server_side = {}

        def serve():
            t = tcp_listen("127.0.0.1", port)
            mtype, payload = t.recv()
            server_side["got"] = (mtype, payload)
            t.send(MsgType.ACK)
            t.close()

        th = threading.Thread(target=serve, daemon=True)
        th.start()
        client = tcp_connect("127.0.0.1", port)
        blob = wire.encode_tensor(np.ones((2, 3), dtype=np.float32))
        client.send(MsgType.GRAD, blob)
        assert client.recv()[0] is MsgType.ACK
        client.close()
        th.join(timeout=5)
        assert server_side["got"][0] is MsgType.GRAD
        assert server_side["got"][1] == blob

    def test_connect_nobody_listening(self):
        with pytest.raises(ProtocolError):
            tcp_connect("127.0.0.1", _free_port(), retry_for=0.2)

    def test_peer_disconnect_mid_frame(self):
        port = _free_port()

        def serve():
            t = tcp_listen("127.0.0.1", port)
            # Send only part of a frame header, then drop the connection.
            t._sock.sendall(b"SP")
            t.close()

        th = threading.Thread(target=serve, daemon=True)
        th.start()
        client = tcp_connect("127.0.0.1", port)
        with pytest.raises(ProtocolError):
            client.recv()
        client.close()
        th.join(timeout=5)

    def test_huge_declared_length_reads_in_chunks(self):
        with socket.create_server(("127.0.0.1", 0)) as srv:
            peer = socket.create_connection(srv.getsockname())
            conn, _ = srv.accept()
        receiver = TcpTransport(conn)
        # A valid header declaring a 4 GiB body, then a few bytes and EOF.
        peer.sendall(wire.HEADER.pack(wire.MAGIC, int(MsgType.GRAD), 0xFFFFFFFF) + b"x" * 64)
        peer.close()
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError, match="closed mid-frame"):
                receiver.recv()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            receiver.close()
        assert peak < 8 * TcpTransport.RECV_CHUNK

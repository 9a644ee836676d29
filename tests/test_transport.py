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


class _CountingSocket:
    """A socket that counts the writes and reads made on it."""

    def __init__(self, sock):
        self._sock = sock
        self.writes = self.reads = 0

    def sendmsg(self, buffers):
        self.writes += 1
        return self._sock.sendmsg(buffers)

    def recv_into(self, view):
        self.reads += 1
        return self._sock.recv_into(view)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestCoalescedWrites:
    # Role turns per step: a turn is what a role sends before it waits.
    TURNS = {"label_sharing": 2, "server_data": 2, "client_labels": 4}

    @pytest.mark.parametrize("topology", list(TURNS))
    def test_one_write_per_turn(self, topology):
        from splitlab.data import synth_dataset
        from splitlab.protocol import SessionConfig, run_session

        ds = synth_dataset(24, (1, 8, 8), seed=0)
        cfg = SessionConfig(arch="tiny8", topology=topology, batch_size=8,
                            epochs=1).validate()
        a, b = inproc_pair(timeout=5)
        with a, b:
            a._sock, b._sock = _CountingSocket(a._sock), _CountingSocket(b._sock)
            run_session(cfg, ds.images, ds.labels, (a, b))
            writes = a._sock.writes + b._sock.writes
        # The handshake (HELLO, HELLO, CONFIG, ACK) and END write at once.
        assert writes - 5 == 3 * self.TURNS[topology]

    def test_queued_frames_leave_before_recv_in_one_read(self):
        a, b = inproc_pair(timeout=5)
        with a, b:
            a._sock, b._sock = _CountingSocket(a._sock), _CountingSocket(b._sock)
            b.send(MsgType.GRAD, wire.encode_tensor_list([np.zeros(3, np.float32)]))
            with a.coalesced():
                a.send(MsgType.SMASHED, wire.encode_tensor(np.ones(3, np.float32)))
                a.send(MsgType.LABELS, wire.encode_labels(np.array([1, 2, 3])))
                assert a._sock.writes == 0
                assert a.recv()[0] is MsgType.GRAD  # the queue goes out first
                assert a._sock.writes == 1
            assert [b.recv()[0], b.recv()[0]] == [MsgType.SMASHED, MsgType.LABELS]
            assert b._sock.reads == 1

    def test_more_frames_than_one_sendmsg_takes(self):
        # Two buffers a frame: 600 frames are more buffers than IOV_MAX
        # (1024 on Linux), where one sendmsg of them all failed. At about
        # 600 KB they also overfill the socket buffer, so writes stop part
        # way through a frame and a batch, and resume there.
        rng = np.random.default_rng(1)
        payloads = [rng.bytes(int(n)) for n in rng.integers(0, 2000, 600)]
        a, b = inproc_pair(timeout=5)
        with a, b:
            got = []
            reader = threading.Thread(target=lambda: got.extend(b.recv() for _ in payloads))
            reader.start()
            with a.coalesced():
                for payload in payloads:
                    a.send(MsgType.CONFIG, payload)
            reader.join(timeout=5)
        assert not reader.is_alive()
        assert all(mtype is MsgType.CONFIG for mtype, _ in got)
        assert [bytes(payload) for _, payload in got] == payloads

    def test_error_in_block_drops_the_queue(self):
        a, b = inproc_pair(timeout=0.2)
        with a, b:
            with pytest.raises(RuntimeError), a.coalesced():
                a.send(MsgType.ACK)
                raise RuntimeError("role failed")
            a.send(MsgType.END)  # outside the block: written at once
            assert b.recv()[0] is MsgType.END


class TestReader:
    def test_dripped_body_fails_within_one_timeout(self):
        peer, conn = socket.socketpair()
        conn.settimeout(0.5)
        stop = threading.Event()

        def drip():  # a header, then one body byte every 0.2 s
            peer.sendall(wire.HEADER.pack(wire.MAGIC, int(MsgType.GRAD), 100))
            while not stop.wait(0.2):
                try:
                    peer.sendall(b"x")
                except OSError:
                    return

        th = threading.Thread(target=drip, daemon=True)
        th.start()
        try:
            with Transport(conn) as receiver:
                t0 = time.monotonic()
                with pytest.raises(ProtocolError):
                    receiver.recv()
                elapsed = time.monotonic() - t0
        finally:
            stop.set()
            th.join(timeout=5)
            peer.close()
        assert elapsed < 1.0

    def test_body_keeps_its_bytes_across_reads(self):
        # Bodies larger than the read-ahead buffer and than one read.
        rng = np.random.default_rng(0)
        blobs = [rng.bytes(n) for n in (0, 5, Transport.READ_AHEAD + 7,
                                        Transport.RECV_CHUNK * 2 + 3)]
        a, b = inproc_pair(timeout=5)
        with a, b:
            def send_all():
                with a.coalesced():
                    for blob in blobs:
                        a.send(MsgType.CONFIG, blob)

            th = threading.Thread(target=send_all)
            th.start()
            got = [b.recv()[1] for _ in blobs]
            th.join(timeout=5)
        assert [bytes(g) for g in got] == blobs

    def test_received_tensor_is_a_writable_view(self):
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        a, b = inproc_pair(timeout=5)
        with a, b:
            a.send(MsgType.SMASHED, wire.encode_tensor(arr))
            _, payload = b.recv()
        out = wire.decode_one_tensor(payload)
        assert out.flags.writeable and np.shares_memory(out, np.frombuffer(payload, np.uint8))
        np.testing.assert_array_equal(out, arr)
        copy = wire.decode_one_tensor(bytes(payload))
        assert copy.flags.writeable and not np.shares_memory(copy, out)
        np.testing.assert_array_equal(copy, arr)

    def test_cut_activation_is_copied_once(self):
        # One cifar cut activation, encoded and sent from a thread, received
        # and decoded: one encoded payload plus one receive buffer (2 MiB each).
        arr = np.random.default_rng(3).normal(size=(8, 64, 32, 32)).astype(np.float32)
        a, b = inproc_pair(timeout=5)
        with a, b:
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                th = threading.Thread(
                    target=lambda: a.send(MsgType.SMASHED, wire.encode_tensor(arr)))
                th.start()
                out = wire.decode_one_tensor(b.recv()[1])
                th.join(timeout=5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        np.testing.assert_array_equal(out, arr)
        assert (peak - start) / 2**20 <= 4.5

    @staticmethod
    def _receive_peak_mib(send) -> float:
        """tracemalloc's peak, above its start, while one cifar cut activation
        is sent by ``send(transport, array)`` on a thread, received and
        decoded."""
        arr = np.random.default_rng(3).normal(size=(8, 64, 32, 32)).astype(np.float32)
        a, b = inproc_pair(timeout=5)
        with a, b:
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                th = threading.Thread(target=send, args=(a, arr))
                th.start()
                out = wire.decode_one_tensor(b.recv()[1])
                th.join(timeout=5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert not th.is_alive()
        np.testing.assert_array_equal(out, arr)
        return (peak - start) / 2**20

    def test_decode_while_the_sender_holds_its_payload(self):
        # The finiteness check's mask is bounded: a mask of the whole
        # tensor read 4.63 MiB here.
        def send(transport, arr):
            payload = wire.encode_tensor(arr)
            transport.send(MsgType.SMASHED, payload)
            time.sleep(0.3)  # payload still held while the peer decodes

        assert self._receive_peak_mib(send) <= 4.5

    def test_body_after_its_header_grows_to_its_length_only(self):
        # With no body bytes behind the header the body doubles from 1 MiB;
        # a second doubling past its length read 4.50 MiB here.
        def send(transport, arr):
            payload = wire.encode_tensor(arr)
            transport._send_bytes(wire.HEADER.pack(wire.MAGIC, MsgType.SMASHED, len(payload)))
            time.sleep(0.05)
            transport._send_bytes(payload)

        assert self._receive_peak_mib(send) <= 4.5

"""Split-training protocol: topologies, equivalence oracles, wire roles."""

import threading
import time

import numpy as np
import pytest

from splitlab import autograd as ag
from splitlab import protocol
from splitlab.autograd import Tensor
from splitlab.data import load_idx, synth_dataset
from splitlab.errors import ConfigError, ProtocolError
from splitlab.models import build_net, split_at
from splitlab.optim import SGD
from splitlab.protocol import (
    ServerTap,
    SessionConfig,
    backprop_part,
    build_parts,
    epoch_order,
    loss_forward_backward,
    part_forward,
    run_client,
    run_server,
    run_session,
    train_local,
    train_monolithic,
    train_step,
)
from splitlab.transport import inproc_pair, tcp_connect, tcp_listen
from splitlab.wire import MsgType

from helpers import max_param_diff, mnist_dir, params_equal


def small_cfg(**kw):
    base = dict(arch="tiny8", split_depth=2, topology="label_sharing",
                seed=0, optimizer="adam", lr=0.001, batch_size=8, epochs=1)
    base.update(kw)
    return SessionConfig(**base).validate()


@pytest.fixture(scope="module")
def synth():
    return synth_dataset(64, (1, 8, 8), seed=0)


class TestSessionConfig:
    @pytest.mark.parametrize("bad", [
        dict(arch="vgg"), dict(topology="ring"), dict(optimizer="rmsprop"),
        dict(batch_size=0), dict(lr=0.0), dict(tail_depth=0),
    ])
    def test_invalid_values(self, bad):
        with pytest.raises(ConfigError):
            small_cfg(**bad)


class TestStepArithmetic:
    def test_untrained_loss_near_ln10(self, synth):
        cfg = small_cfg()
        model, client, server = build_parts(cfg)
        loss = train_step(cfg.topology, client, server,
                          (synth.images[:8], synth.labels[:8]))
        assert abs(loss - np.log(10.0)) < 0.2

    def test_overfit_fixed_batch(self, synth):
        cfg = small_cfg(lr=0.01)
        model, client, server = build_parts(cfg)
        batch = (synth.images[:8], synth.labels[:8])
        losses = [train_step(cfg.topology, client, server, batch)
                  for _ in range(50)]
        assert losses[-1] < losses[0] * 0.5

    def test_grad_at_cut_matches_finite_differences(self):
        model = build_net("tiny8", seed=2)
        _, f2 = split_at(model, 4)  # flatten boundary: f2 = fc,relu,fc,softmax
        y = np.array([3, 7], dtype=np.int64)
        rng = np.random.default_rng(0)
        # Resample until no ReLU pre-activation sits near the kink.
        while True:
            smashed = rng.uniform(0, 1, size=(2, 64)).astype(np.float32)
            pre = f2.layers[0].forward(Tensor(smashed)).data
            if np.min(np.abs(pre)) > 0.03:
                break
        _, gcut, _ = loss_forward_backward(f2, smashed, y, opt=None)

        def f(t):
            return ag.cross_entropy(f2.forward(t), y)

        want = ag.finite_diff_grad(f, Tensor(smashed), h=1e-2).data
        np.testing.assert_allclose(gcut, want, rtol=1e-3, atol=1e-4)

    def test_zero_cut_grad_sgd_no_client_update(self, synth):
        model = build_net("tiny8", seed=1)
        f1, _ = split_at(model, 2)
        opt = SGD(f1.params(), lr=0.1)
        before = [p.data.copy() for p in f1.params()]
        out = part_forward(f1, synth.images[:4])
        backprop_part(f1, out, np.zeros_like(out.data), opt)
        for p, b in zip(f1.params(), before):
            np.testing.assert_array_equal(p.data, b)

    def test_cut_grad_shape_mismatch(self, synth):
        model = build_net("tiny8", seed=1)
        f1, _ = split_at(model, 2)
        out = part_forward(f1, synth.images[:4])
        with pytest.raises(ProtocolError):
            backprop_part(f1, out, np.zeros((1, 2), dtype=np.float32), None)

    def test_descent_direction_small_lr(self, synth):
        cfg = small_cfg(optimizer="sgd", lr=0.05)
        model, client, server = build_parts(cfg)
        batch = (synth.images[:8], synth.labels[:8])
        first = train_step(cfg.topology, client, server, batch)
        second = train_step(cfg.topology, client, server, batch)
        assert second < first


class TestTopologies:
    @pytest.mark.parametrize("topology", ["label_sharing", "server_data",
                                          "client_labels"])
    def test_local_training_runs(self, synth, topology):
        cfg = small_cfg(topology=topology)
        model, losses, _, _ = train_local(cfg, synth.images, synth.labels)
        assert len(losses) == 8
        assert all(np.isfinite(losses))
        assert model.step_count == 8

    def test_tap_contents_label_sharing(self, synth):
        cfg = small_cfg()
        tap = ServerTap()
        train_local(cfg, synth.images[:16], synth.labels[:16], tap=tap)
        assert len(tap) == 2
        entry = tap.entries[0]
        assert entry.labels is not None
        assert len(entry.grad) == 1
        assert entry.grad[0].shape == entry.smashed.shape

    @pytest.mark.parametrize("topology", ["server_data", "client_labels"])
    def test_tap_contents_client_loss(self, synth, topology):
        cfg = small_cfg(topology=topology, batch_size=1)
        tap = ServerTap()
        _, _, client, _ = train_local(cfg, synth.images[:4], synth.labels[:4],
                                      tap=tap)
        entry = tap.entries[0]
        assert entry.labels is None  # labels never cross the wire
        n_tail_params = len(client.tail.params())
        assert len(entry.grad) == 1 + n_tail_params
        for g, p in zip(entry.grad[1:], client.tail.params()):
            assert g.shape == p.data.shape

    @pytest.mark.parametrize("topology", ["label_sharing", "server_data",
                                          "client_labels"])
    def test_all_parts_actually_learn(self, synth, topology):
        cfg = small_cfg(topology=topology, epochs=2, lr=0.01)
        model, client, server = build_parts(cfg)
        before = [p.data.copy() for p in model.params()]
        for start in range(0, 32, cfg.batch_size):
            train_step(cfg.topology, client, server,
                       (synth.images[start : start + 8],
                        synth.labels[start : start + 8]))
        changed = [not np.array_equal(p.data, b)
                   for p, b in zip(model.params(), before)]
        assert all(changed)


class TestEquivalence:
    """Split and monolithic training walk the same parameter trajectory."""

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_split_vs_monolithic_100_steps(self, optimizer):
        ds = synth_dataset(100, (1, 8, 8), seed=3)
        cfg = small_cfg(batch_size=5, epochs=5, optimizer=optimizer)
        split_model, split_losses, _, _ = train_local(cfg, ds.images, ds.labels)
        mono_model, mono_losses = train_monolithic(cfg, ds.images, ds.labels)
        assert split_model.step_count == mono_model.step_count == 100
        assert max_param_diff(split_model, mono_model) <= 1e-6
        np.testing.assert_allclose(split_losses, mono_losses, atol=1e-6)

    @pytest.mark.parametrize("topology", ["server_data", "client_labels"])
    def test_client_loss_topologies_match_monolithic(self, topology):
        ds = synth_dataset(40, (1, 8, 8), seed=4)
        cfg = small_cfg(topology=topology, batch_size=4, epochs=2)
        split_model, _, _, _ = train_local(cfg, ds.images, ds.labels)
        mono_model, _ = train_monolithic(cfg, ds.images, ds.labels)
        assert max_param_diff(split_model, mono_model) <= 1e-6

    def test_tap_neutrality_on_trajectory(self, synth):
        cfg = small_cfg(epochs=2)
        plain, _, _, _ = train_local(cfg, synth.images, synth.labels)
        tapped, _, _, _ = train_local(cfg, synth.images, synth.labels,
                                      tap=ServerTap())
        assert params_equal(plain, tapped)


class TestWireSessions:
    @pytest.mark.parametrize("topology", ["label_sharing", "server_data",
                                          "client_labels"])
    def test_inproc_session_matches_local(self, synth, topology):
        cfg = small_cfg(topology=topology)
        ct, st = inproc_pair()
        with ct, st:
            client_res, server_res = run_session(cfg, synth.images, synth.labels,
                                                 (ct, st))
        local_model, local_losses, _, _ = train_local(cfg, synth.images,
                                                      synth.labels)
        # The two roles hold disjoint authoritative parts of one logical
        # model; recombine them and compare against the local run.
        merged = _merge(client_res, server_res, cfg)
        assert params_equal(merged, local_model)
        np.testing.assert_allclose(server_res.losses, local_losses, atol=0)

    def test_inproc_vs_tcp_bit_identical(self, synth):
        cfg = small_cfg()
        ct, st = inproc_pair()
        with ct, st:
            inproc_client, inproc_server = run_session(
                cfg, synth.images, synth.labels, (ct, st)
            )
        port = _free_port()
        result = {}

        def serve():
            with tcp_listen("127.0.0.1", port) as t:
                result["server"] = run_server(t, cfg)

        th = threading.Thread(target=serve, daemon=True)
        th.start()
        with tcp_connect("127.0.0.1", port) as t:
            tcp_client = run_client(t, cfg, synth.images, synth.labels)
        th.join(timeout=30)
        merged_inproc = _merge(inproc_client, inproc_server, cfg)
        merged_tcp = _merge(tcp_client, result["server"], cfg)
        assert params_equal(merged_inproc, merged_tcp)

    # The server end's frames per step, after the handshake.
    STEP_FRAMES = {
        "label_sharing": [("recv", MsgType.SMASHED), ("recv", MsgType.LABELS),
                          ("send", MsgType.GRAD), ("send", MsgType.LOSS)],
        "server_data": [("send", MsgType.SMASHED), ("recv", MsgType.GRAD),
                        ("recv", MsgType.LOSS)],
        "client_labels": [("recv", MsgType.SMASHED), ("send", MsgType.SMASHED),
                          ("recv", MsgType.GRAD), ("recv", MsgType.LOSS),
                          ("send", MsgType.GRAD)],
    }

    @pytest.mark.parametrize("topology", list(STEP_FRAMES))
    def test_message_sequence(self, topology):
        ds = synth_dataset(2, (1, 8, 8), seed=0)
        cfg = small_cfg(topology=topology, batch_size=1, epochs=1)
        ct, st = inproc_pair(record_transcript=True)
        with ct, st:
            run_session(cfg, ds.images, ds.labels, (ct, st))
        from splitlab.wire import decode_frame

        seq = [(d, decode_frame(f)[0]) for d, f in st.transcript]
        end = ("send" if topology == "server_data" else "recv", MsgType.END)
        want = [
            ("recv", MsgType.HELLO), ("send", MsgType.HELLO),
            ("recv", MsgType.CONFIG), ("send", MsgType.ACK),
            *self.STEP_FRAMES[topology], *self.STEP_FRAMES[topology], end,
        ]
        assert seq == want

    # sha256 of the server end's frames from the first SMASHED through END:
    # tiny8, 64 synth examples, seed 0, batch 8, 2 epochs, split depth 1.
    # CONFIG and the rest of the handshake are left out on purpose.
    WIRE_DIGESTS = {
        "label_sharing": (65, "94d070316ddf388777e784953cf0b6a4"
                              "8585d9810fa3683f2687c902041c7a42"),
        "server_data": (49, "1c0e9fa27189e64de431c29f6cd68caf"
                            "1ce4f8c753e08a86ea91e27849396f9f"),
        "client_labels": (81, "1bee1ff0a0ef984350909c4abd8a72a7"
                              "99e91b90d9f4769c366212ca43ebbe43"),
    }

    @pytest.mark.parametrize("topology", list(WIRE_DIGESTS))
    def test_wire_bytes_pinned(self, synth, topology):
        import hashlib

        from splitlab.wire import decode_frame

        cfg = SessionConfig(arch="tiny8", topology=topology, seed=0,
                            batch_size=8, epochs=2).validate()
        ct, st = inproc_pair(record_transcript=True)
        with ct, st:
            run_session(cfg, synth.images, synth.labels, (ct, st))
        types = [decode_frame(f)[0] for _, f in st.transcript]
        frames = [f for _, f in st.transcript[types.index(MsgType.SMASHED):]]
        count, digest = self.WIRE_DIGESTS[topology]
        assert len(frames) == count
        assert hashlib.sha256(b"".join(frames)).hexdigest() == digest

    def test_out_of_order_message_aborts(self):
        cfg = small_cfg()
        ct, st = inproc_pair()
        errors = {}

        def rogue_client():
            from splitlab import wire

            try:
                ct.send(MsgType.HELLO, wire.encode_hello())
                ct.recv()  # HELLO back
                ct.send(MsgType.CONFIG, wire.encode_json(cfg.to_dict()))
                ct.recv()  # ACK
                # Labels before smashed data: out of order.
                ct.send(MsgType.LABELS, wire.encode_labels(np.array([1])))
            except ProtocolError as exc:
                errors["client"] = exc

        th = threading.Thread(target=rogue_client, daemon=True)
        with ct, st:
            th.start()
            with pytest.raises(ProtocolError):
                run_server(st, cfg)
            th.join(timeout=5)

    def test_out_of_range_labels_are_protocol_error(self, synth):
        cfg = small_cfg()
        ct, st = inproc_pair(timeout=5)
        smashed = split_at(build_net("tiny8", seed=0), 2)[0].forward(
            Tensor(synth.images[:2])).data

        def rogue_client():  # honest handshake and activations, label 11 of 10
            from splitlab import wire

            ct.send(MsgType.HELLO, wire.encode_hello())
            ct.recv()  # HELLO back
            ct.send(MsgType.CONFIG, wire.encode_json({**cfg.to_dict(), "examples": 2}))
            ct.recv()  # ACK
            ct.send(MsgType.SMASHED, wire.encode_tensor(smashed))
            ct.send(MsgType.LABELS, wire.encode_labels(np.array([11, 3])))

        th = threading.Thread(target=rogue_client, daemon=True)
        with ct, st:
            th.start()
            with pytest.raises(ProtocolError, match="label 11 for 10 classes"):
                run_server(st, cfg)
            th.join(timeout=5)
        assert not th.is_alive()

    def test_config_mismatch_handshake(self, synth):
        ct, st = inproc_pair()
        cfg_a, cfg_b = small_cfg(seed=1), small_cfg(seed=2)
        errs = {}

        def client_main():
            try:
                run_client(ct, cfg_a, synth.images, synth.labels)
            except ProtocolError as exc:
                errs["client"] = exc

        th = threading.Thread(target=client_main, daemon=True)
        with ct, st:
            th.start()
            with pytest.raises(ProtocolError, match="mismatch"):
                run_server(st, cfg_b)
            th.join(timeout=5)
        assert "client" in errs

    def test_session_surfaces_role_failure(self, synth):
        # Split depth 2 leaves the fc layers on the server, so 4x4 inputs
        # fail there; the client, waiting on GRAD, must not wait out 5 s.
        cfg = small_cfg()
        bad_images = synth.images[:, :, :4, :4]  # wrong input shape
        ct, st = inproc_pair(timeout=5)
        t0 = time.monotonic()
        with ct, st, pytest.raises(ProtocolError,
                                   match=r"^server role failed: ShapeError"):
            run_session(cfg, bad_images, synth.labels, (ct, st))
        assert time.monotonic() - t0 < 1.0

    @pytest.mark.parametrize("n_labels", [70, 60])
    def test_server_data_example_count_mismatch(self, synth, n_labels):
        ds = synth_dataset(n_labels, (1, 8, 8), seed=0)
        cfg = small_cfg(topology="server_data")
        ct, st = inproc_pair(timeout=5)
        with ct, st, pytest.raises(ProtocolError,
                                   match=f"client holds {n_labels}, server 64"):
            run_session(cfg, synth.images, ds.labels, (ct, st))

    def test_smashed_rows_must_match_labels(self, synth):
        cfg = small_cfg(topology="server_data")
        ct, st = inproc_pair(timeout=5)

        def rogue_server():  # honest handshake, then 7 rows for a batch of 8
            from splitlab import wire

            st.recv()  # HELLO
            st.send(MsgType.HELLO, wire.encode_hello())
            st.recv()  # CONFIG
            st.send(MsgType.ACK)
            st.send(MsgType.SMASHED, wire.encode_tensor(np.zeros((7, 32))))

        th = threading.Thread(target=rogue_server, daemon=True)
        with ct, st:
            th.start()
            with pytest.raises(ProtocolError, match="for 8 labels"):
                run_client(ct, cfg, None, synth.labels)
            th.join(timeout=5)
        assert not th.is_alive()

    def test_session_names_a_stalled_role(self, synth, monkeypatch):
        monkeypatch.setattr(protocol, "SESSION_TIMEOUT", 0.5)
        ct, st = inproc_pair(timeout=5)
        release = threading.Event()
        server_recv = st.recv

        def stall_on_end():  # the server hangs once the client has finished
            mtype, payload = server_recv()
            if mtype == MsgType.END:
                release.wait(timeout=30)
            return mtype, payload

        st.recv = stall_on_end
        with ct, st:
            try:
                with pytest.raises(ProtocolError, match="^server role still running"):
                    run_session(small_cfg(), synth.images, synth.labels, (ct, st))
            finally:
                release.set()


class TestEpochOrder:
    def test_permutation(self):
        order = epoch_order(10, seed=0, epoch=0)
        assert sorted(order.tolist()) == list(range(10))

    def test_deterministic_and_epoch_dependent(self):
        a = epoch_order(32, seed=5, epoch=1)
        b = epoch_order(32, seed=5, epoch=1)
        c = epoch_order(32, seed=5, epoch=2)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestLearning:
    def test_synth_trainable(self):
        ds = synth_dataset(512, (1, 8, 8), seed=0)
        cfg = small_cfg(batch_size=32, epochs=3, lr=0.005)
        model, losses, _, _ = train_local(cfg, ds.images, ds.labels)
        probs = model.forward(Tensor(ds.images)).data
        acc = float((probs.argmax(axis=1) == ds.labels).mean())
        assert acc > 0.5

    @pytest.mark.skipif(mnist_dir() is None,
                        reason="MNIST IDX files not present")
    def test_mnist_1k_subset_two_epochs(self):
        import os

        path = mnist_dir()
        ds = load_idx(os.path.join(path, "train-images-idx3-ubyte"),
                      os.path.join(path, "train-labels-idx1-ubyte"),
                      name="mnist")
        ds = ds.subset(np.arange(1000))
        cfg = SessionConfig(arch="mnist", split_depth=3, seed=0,
                            batch_size=64, epochs=2).validate()
        model, _, _, _ = train_local(cfg, ds.images, ds.labels)
        probs = model.forward(Tensor(ds.images)).data
        acc = float((probs.argmax(axis=1) == ds.labels).mean())
        assert acc > 0.8


def _merge(client_res, server_res, cfg):
    """Recombine the authoritative parts each role actually trained."""
    from splitlab.layers import LayerStack

    if cfg.topology == "label_sharing":
        layers = client_res.client.head.layers + server_res.server.part.layers
    elif cfg.topology == "server_data":
        layers = server_res.server.part.layers + client_res.client.tail.layers
    else:
        layers = (client_res.client.head.layers + server_res.server.part.layers
                  + client_res.client.tail.layers)
    return LayerStack(layers)


def _free_port():
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]

"""Split-training protocol: topologies, equivalence oracles, wire roles."""

import hashlib
import os
import platform
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from splitlab import autograd as ag
from splitlab import models, protocol, wire
from splitlab.autograd import Tensor
from splitlab.data import load_idx, synth_dataset
from splitlab.errors import ConfigError, ProtocolError
from splitlab.layers import FullyConnected, LayerStack
from splitlab.models import ARCHS, build_layers, build_net, merge, split_at
from splitlab.optim import SGD, make_optimizer
from splitlab.protocol import (
    TOPOLOGIES,
    ServerTap,
    SessionConfig,
    backprop_part,
    build_parts,
    epoch_order,
    loss_forward_backward,
    run_client,
    run_server,
    run_session,
    train_local,
    train_step,
)
from splitlab.transport import inproc_pair, tcp_connect, tcp_listen
from splitlab.wire import MsgType

from helpers import (count_calls, finite_diff_grad, max_param_diff, mnist_dir,
                     params_equal, session_peak_mib, train_monolithic)


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
        client, server = build_parts(cfg)
        loss = train_step(cfg.topology, client, server,
                          (synth.images[:8], synth.labels[:8]))
        assert abs(loss - np.log(10.0)) < 0.2

    def test_overfit_fixed_batch(self, synth):
        cfg = small_cfg(lr=0.01)
        client, server = build_parts(cfg)
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
        _, gcut = loss_forward_backward(f2, Tensor(smashed, requires_grad=True), y)

        def f(t):
            return ag.cross_entropy(f2.forward(t), y)

        want = finite_diff_grad(f, Tensor(smashed), h=1e-2).data
        np.testing.assert_allclose(gcut, want, rtol=1e-3, atol=1e-4)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_returned_gradients_keep_their_bytes(self, synth, optimizer):
        """The cut gradient loss_forward_backward returns and the parameter
        gradients it leaves are the arrays backward stored: neither the
        update after it nor the part's next step writes into them."""
        _, f2 = split_at(build_net("tiny8", seed=2), 4)
        opt = make_optimizer(optimizer, f2.params(), 0.01)
        smashed = np.random.default_rng(0).uniform(0, 1, (8, 64)).astype(np.float32)

        def step(sm, y):
            opt.zero_grad()
            _, gcut = loss_forward_backward(f2, Tensor(sm, requires_grad=True), y)
            opt.step()
            return [gcut, *(p.grad for p in opt.params)]

        grads = step(smashed, synth.labels[:8])
        kept = [g.tobytes() for g in grads]
        step(smashed[::-1].copy(), synth.labels[8:16])
        assert [g.tobytes() for g in grads] == kept

    def test_zero_cut_grad_sgd_no_client_update(self, synth):
        model = build_net("tiny8", seed=1)
        f1, _ = split_at(model, 2)
        opt = SGD(f1.params(), lr=0.1)
        before = [p.data.copy() for p in f1.params()]
        out = f1.forward(Tensor(synth.images[:4]))
        backprop_part(f1, out, np.zeros_like(out.data), opt)
        for p, b in zip(f1.params(), before):
            np.testing.assert_array_equal(p.data, b)

    def test_cut_grad_shape_mismatch(self, synth):
        model = build_net("tiny8", seed=1)
        f1, _ = split_at(model, 2)
        out = f1.forward(Tensor(synth.images[:4]))
        with pytest.raises(ProtocolError):
            backprop_part(f1, out, np.zeros((1, 2), dtype=np.float32),
                          SGD(f1.params(), lr=0.1))

    def test_descent_direction_small_lr(self, synth):
        cfg = small_cfg(optimizer="sgd", lr=0.05)
        client, server = build_parts(cfg)
        batch = (synth.images[:8], synth.labels[:8])
        first = train_step(cfg.topology, client, server, batch)
        second = train_step(cfg.topology, client, server, batch)
        assert second < first


class TestLayout:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_build_parts_cuts_by_one_rule(self, arch, topology):
        """Every split and tail depth: a ConfigError exactly where the
        topology has no such cut, else head + server part + tail are
        bit-equal to slices of ``build_net(arch, seed)``, in net order,
        and compose to its forward bit for bit."""
        model = build_net(arch, seed=0)
        layers = model.layers
        fc = [i for i, layer in enumerate(layers) if isinstance(layer, FullyConnected)]
        x = np.random.default_rng(0).uniform(
            size=(2, *ARCHS[arch].input_shape)).astype(np.float32)
        full = model.forward(Tensor(x)).data
        for depth in range(len(layers) + 1):
            for tail_depth in range(1, len(fc) + 2):
                cfg = SessionConfig(arch=arch, topology=topology, split_depth=depth,
                                    tail_depth=tail_depth)
                tail_at = fc[-tail_depth] if tail_depth <= len(fc) else None
                valid = {"label_sharing": 1 <= depth < len(layers),
                         "server_data": tail_at is not None,
                         "client_labels": tail_at is not None and 1 <= depth < tail_at,
                         }[topology]
                if not valid:
                    with pytest.raises(ConfigError):
                        build_parts(cfg)
                    continue
                client, server = build_parts(cfg)
                assert (client.head is None) == (topology == "server_data")
                assert (client.tail is None) == (topology == "label_sharing")
                assert sorted(client.model.index + server.part.index) == list(range(len(layers)))
                parts = [p for p in (client.head, server.part, client.tail) if p is not None]
                assert [layer.kind for p in parts for layer in p.layers] == [
                    layer.kind for layer in layers]
                got = [p.data for part in parts for p in part.params()]
                want = [p.data for p in model.params()]
                assert len(got) == len(want)
                assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
                a1 = x if client.head is None else client.head.forward(Tensor(x)).data
                a2 = server.part.forward(Tensor(a1)).data
                out = a2 if client.tail is None else client.tail.forward(Tensor(a2)).data
                np.testing.assert_array_equal(out, full)
                assert server.rows == (None if client.head is None else a1.shape[1:])
                assert client.rows == (None if client.tail is None else a2.shape[1:])

    @pytest.mark.parametrize("arch,topology,depths,batch_size,epochs", [
        ("tiny8", "label_sharing", range(1, 8), 8, 2),
        ("tiny8", "client_labels", range(1, 6), 8, 2),
        # The batch-64 first fc is the product whose bits follow the BLAS
        # thread count; both depths run under the same count here.
        ("mnist", "label_sharing", (1, 7), 64, 1),
    ], ids=["tiny8-label_sharing", "tiny8-client_labels", "mnist-label_sharing"])
    def test_trained_net_does_not_depend_on_the_cut(self, arch, topology, depths,
                                                    batch_size, epochs):
        """``train_local`` ends with the same bytes in every parameter, and
        the same losses, at every split depth: the depth sweep trains once
        and cuts that one net at each depth."""
        ds = synth_dataset(128, ARCHS[arch].input_shape, seed=5)
        runs = []
        for depth in depths:
            cfg = SessionConfig(arch=arch, topology=topology, split_depth=depth,
                                batch_size=batch_size, epochs=epochs).validate()
            model, losses, _, _ = train_local(cfg, ds.images, ds.labels)
            runs.append(([p.data.tobytes() for p in model.params()], losses))
        assert len(runs[0][1]) == epochs * 128 // batch_size
        assert all(run == runs[0] for run in runs[1:])


class TestRoleIsolation:
    """A role initializes only its own layers of the net: the server never
    holds the client's head or tail at their initial weights, nor the
    client the server's part."""

    @pytest.mark.parametrize("kind", ["inproc", "tcp"])
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_each_role_builds_only_its_cut(self, synth, monkeypatch, topology, kind):
        cfg = small_cfg(topology=topology)
        role = threading.local()
        built = {"client": [], "server": []}
        build_layers_unspied = models.build_layers

        def spy(arch, seed=0, start=0, stop=None):
            layers = build_layers_unspied(arch, seed, start, stop)
            built[role.name] += range(start, start + len(layers))
            return layers

        def as_role(name, run):
            def play(*args, **kwargs):
                role.name = name
                return run(*args, **kwargs)
            return play

        def build_net(*args, **kwargs):
            raise AssertionError("a role built the whole net")

        monkeypatch.setattr(models, "build_layers", spy)
        monkeypatch.setattr(models, "build_net", build_net)
        monkeypatch.setattr(protocol, "run_client", as_role("client", protocol.run_client))
        monkeypatch.setattr(protocol, "run_server", as_role("server", protocol.run_server))
        client_x, server_x = protocol.held_examples(topology, synth.images)
        if kind == "inproc":
            ct, st = inproc_pair()
            with ct, st:
                cres, sres = run_session(cfg, synth.images, synth.labels, (ct, st))
        else:
            port, result = _free_port(), {}

            def serve():
                with tcp_listen("127.0.0.1", port) as t:
                    result["server"] = protocol.run_server(t, cfg, server_x)

            th = threading.Thread(target=serve, daemon=True)
            th.start()
            with tcp_connect("127.0.0.1", port) as t:
                cres = protocol.run_client(t, cfg, client_x, synth.labels)
            th.join(timeout=30)
            sres = result["server"]
        a, b, n = protocol.cut(cfg)
        assert built == {"client": [*range(a), *range(b, n)], "server": [*range(a, b)]}
        assert cres.model.index == built["client"] and sres.model.index == built["server"]
        assert not set(cres.model.index) & set(sres.model.index)
        assert cres.model.step_count == sres.model.step_count == len(cres.losses) == 8


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
        client, server = build_parts(cfg)
        model = merge(client.model, server.part)
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

    @pytest.mark.parametrize("topology", ["label_sharing", "server_data",
                                          "client_labels"])
    def test_tap_neutrality_on_trajectory(self, synth, topology):
        cfg = small_cfg(topology=topology, epochs=2)
        plain, _, _, _ = train_local(cfg, synth.images, synth.labels)
        tapped, _, _, _ = train_local(cfg, synth.images, synth.labels,
                                      tap=ServerTap())
        assert params_equal(plain, tapped)


class TestLockstep:
    def test_out_of_order_message(self):
        def sender():
            yield MsgType.LABELS, np.array([1])

        def receiver():
            yield MsgType.SMASHED

        with pytest.raises(ProtocolError, match="^unexpected LABELS, expected SMASHED$"):
            protocol._lockstep(sender(), receiver())

    def test_programs_waiting_on_each_other(self):
        def waiter():
            yield MsgType.GRAD

        with pytest.raises(ProtocolError, match="^role programs wait on each other$"):
            protocol._lockstep(waiter(), waiter())


def _cifar_step():
    """One batch-8 cifar label_sharing step at depth 1: (config, dataset)."""
    cfg = SessionConfig(arch="cifar", topology="label_sharing", split_depth=1,
                        batch_size=8, epochs=1, seed=0).validate()
    return cfg, synth_dataset(8, (3, 32, 32), seed=0)


def _tap_digest(tap) -> str:
    """sha256 over every tap entry's step and arrays, labels as int64."""
    h = hashlib.sha256()
    for e in tap.entries:
        h.update(str(e.step).encode())
        labels = None if e.labels is None else e.labels.astype(np.int64)
        for a in (e.smashed, labels, *e.grad, e.tail_input):
            h.update(b"-" if a is None else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestCutLifetime:
    """A role holds no cut activation past its last reader."""

    @pytest.mark.parametrize("wire_run", [False, True], ids=["train_step", "inproc"])
    def test_cut_activations_die_before_server_backward(self, monkeypatch, wire_run):
        # The client's conv1 output (sent) and, over a wire, the server's
        # decoded copy: the server's ReLU reads it and saves only a mask.
        refs, alive = [], []
        conv2d, decode, backward = ag.conv2d, wire.decode_one_tensor, protocol.backward

        def watched_conv2d(x, *args):
            out = conv2d(x, *args)
            if x.shape[:2] == (8, 3):  # the client's head on the batch
                refs.append(weakref.ref(out.data))
            return out

        def watched_decode(buf):
            arr = decode(buf)
            if arr.ndim == 4:  # SMASHED
                refs.append(weakref.ref(arr))
            return arr

        def watched_backward(*args, **kwargs):
            alive.append([r() is not None for r in refs])
            return backward(*args, **kwargs)

        monkeypatch.setattr(ag, "conv2d", watched_conv2d)
        monkeypatch.setattr(wire, "decode_one_tensor", watched_decode)
        monkeypatch.setattr(protocol, "backward", watched_backward)
        cfg, ds = _cifar_step()
        if wire_run:
            ct, st = inproc_pair()
            with ct, st:
                run_session(cfg, ds.images, ds.labels, (ct, st))
        else:
            train_local(cfg, ds.images, ds.labels)
        # Two backward walks: the server's, then the client's head.
        assert alive == [[False] * (1 + wire_run)] * 2

    # sha256 of the tap entries of a one-epoch session: tiny8 at batch 8
    # over 16 examples, cifar at batch 8 over 8; recorded before the roles
    # let go of their cut activations.
    TAP_DIGESTS = {
        ("tiny8", "label_sharing"):
            "29c4ecd47b24948a9c8d0feeb6de50036740328facf4a0ba73bfd0e07efe98a7",
        ("tiny8", "server_data"):
            "1b1f5e76e359f488f1fa75f414f24d7a2f4cc308cd956b698f781f8b8f290a8c",
        ("tiny8", "client_labels"):
            "da3aded236b0398a5faf055cec2c979930b91a3d1d912903f74508ac8bc34826",
        ("cifar", "label_sharing"):
            "df2caed2ae1a4a4d0c31cfeb1922e5d03ec5d6d8d08d8ac8d5cbe82a0fe1525d",
    }

    @pytest.mark.parametrize("arch, topology", list(TAP_DIGESTS))
    def test_tap_entries_keep_their_bytes(self, arch, topology):
        shape = ARCHS[arch].input_shape
        n = 16 if arch == "tiny8" else 8
        ds = synth_dataset(n, shape, seed=0)
        cfg = SessionConfig(arch=arch, topology=topology, batch_size=8, epochs=1,
                            seed=0).validate()
        local, wired = ServerTap(), ServerTap()
        train_local(cfg, ds.images, ds.labels, tap=local)
        ct, st = inproc_pair()
        with ct, st:
            run_session(cfg, ds.images, ds.labels, (ct, st), tap=wired)
        assert _tap_digest(local) == _tap_digest(wired) == self.TAP_DIGESTS[(arch, topology)]

    def test_session_peak(self):
        # tracemalloc, not RSS: glibc's allocation order moves the resident
        # peak by megabytes that no step holds. 37.4 MiB when both roles kept
        # the cut activations and conv backward held the patches next to
        # their gradient; 28.5 MiB without.
        cfg, ds = _cifar_step()
        assert session_peak_mib(cfg, ds.images, ds.labels) <= 31.0


class TestCallCounts:
    """A small step's fixed cost, as the calls splitlab's code makes
    (``helpers.count_calls``), which repeat exactly. Each bound is the
    count when it was set; the code before it made 439 and 102."""

    def test_tiny8_label_sharing_train_step(self, synth):
        cfg = SessionConfig(arch="tiny8", batch_size=8).validate()
        client, server = build_parts(cfg)
        batch = (synth.images[:8], synth.labels[:8])
        train_step("label_sharing", client, server, batch)  # not the first step

        assert count_calls(lambda: train_step("label_sharing", client, server, batch)) <= 347

    def test_four_frames_sent_received_and_decoded(self):
        rng = np.random.default_rng(0)
        cut = rng.normal(size=(8, 4, 8, 8)).astype(np.float32)
        frames = [(mtype, protocol.CODECS[mtype][0](value)) for mtype, value in (
            (MsgType.SMASHED, cut), (MsgType.LABELS, np.arange(8) % 10),
            (MsgType.GRAD, [cut]), (MsgType.LOSS, 2.25))]
        a, b = inproc_pair(timeout=5)

        def step():
            with a.coalesced():
                for mtype, payload in frames:
                    a.send(mtype, payload)
            for _ in frames:
                mtype, payload = b.recv()
                protocol.CODECS[mtype][1](payload)

        with a, b:
            step()
            assert count_calls(step) <= 86


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
        merged = merge(client_res.model, server_res.model)
        assert params_equal(merged, local_model)
        np.testing.assert_allclose(server_res.losses, local_losses, atol=0)

    def test_tap_entries_match_local_with_int64_labels(self):
        # train_local hands the server the dataset's uint8 labels, a wire
        # session the decoded int64 ones: the tap records one dtype for both.
        ds = synth_dataset(16, ARCHS["tiny8"].input_shape, seed=0)
        assert ds.labels.dtype == np.uint8
        cfg = SessionConfig(arch="tiny8", topology="label_sharing", batch_size=8,
                            epochs=1, seed=0).validate()
        local, wired = ServerTap(), ServerTap()
        train_local(cfg, ds.images, ds.labels, tap=local)
        ct, st = inproc_pair()
        with ct, st:
            run_session(cfg, ds.images, ds.labels, (ct, st), tap=wired)
        assert len(local) == len(wired) == 2
        for a, b in zip(local.entries, wired.entries):
            assert a.step == b.step
            assert a.labels.dtype == b.labels.dtype == np.int64
            assert a.labels.tobytes() == b.labels.tobytes()
            for x, y in zip((a.smashed, *a.grad), (b.smashed, *b.grad), strict=True):
                assert x.tobytes() == y.tobytes()

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
        merged_inproc = merge(inproc_client.model, inproc_server.model)
        merged_tcp = merge(tcp_client.model, result["server"].model)
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

    @pytest.mark.parametrize("topology", list(STEP_FRAMES))
    def test_tap_records_only_what_crossed_the_wire(self, synth, topology):
        """A tap changes no frame on either end and no parameter, and every
        array it records is a tensor (or the labels) of a frame of its step."""
        decoders = {MsgType.SMASHED: lambda p: [wire.decode_one_tensor(p)],
                    MsgType.LABELS: lambda p: [wire.decode_labels(p)],
                    MsgType.GRAD: wire.decode_tensor_list}
        cfg = small_cfg(topology=topology)
        runs = []
        for tap in (None, ServerTap()):
            ct, st = inproc_pair(record_transcript=True)
            with ct, st:
                cres, sres = run_session(cfg, synth.images, synth.labels, (ct, st), tap=tap)
            runs.append((ct.transcript, st.transcript, merge(cres.model, sres.model)))
        (plain_c, plain_s, plain), (tapped_c, tapped_s, tapped) = runs
        assert plain_c == tapped_c and plain_s == tapped_s
        assert params_equal(plain, tapped)
        frames = [wire.decode_frame(f) for _, f in tapped_s]
        first = [m for m, _ in frames].index(MsgType.SMASHED)
        per_step = len(self.STEP_FRAMES[topology])
        assert len(tap) == (len(frames) - first - 1) // per_step == 8
        for e in tap.entries:
            step = frames[first + (e.step - 1) * per_step : first + e.step * per_step]
            crossed = {(a.dtype, a.shape, a.tobytes()) for m, p in step if m in decoders
                       for a in decoders[m](p)}
            for a in (e.smashed, e.labels, *e.grad, e.tail_input):
                assert a is None or (a.dtype, a.shape, a.tobytes()) in crossed

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

        def rogue_client():
            ct.send(MsgType.HELLO, wire.encode_hello())
            ct.recv()  # HELLO back
            ct.send(MsgType.CONFIG, wire.encode_json({**cfg.to_dict(), "examples": 8}))
            ct.recv()  # ACK
            # Labels before smashed data: out of order.
            ct.send(MsgType.LABELS, wire.encode_labels(np.array([1])))

        th = threading.Thread(target=rogue_client, daemon=True)
        with ct, st:
            th.start()
            with pytest.raises(ProtocolError, match="^unexpected LABELS, expected SMASHED$"):
                run_server(st, cfg)
            th.join(timeout=5)
        assert not th.is_alive()

    @pytest.mark.parametrize("topology", ["label_sharing", "client_labels"])
    def test_cut_grad_with_extra_tensor_is_protocol_error(self, synth, topology):
        cfg = small_cfg(topology=topology)
        ct, st = inproc_pair(timeout=5)
        g = np.zeros((8, 4, 4, 4), dtype=np.float32)

        def rogue_server():  # honest handshake, then a cut GRAD of two tensors
            st.recv()  # HELLO
            st.send(MsgType.HELLO, wire.encode_hello())
            st.recv()  # CONFIG
            st.send(MsgType.ACK)
            st.recv()  # SMASHED
            if topology == "client_labels":
                st.send(MsgType.SMASHED, wire.encode_tensor(np.zeros((8, 32), np.float32)))
                st.recv()  # the tail's GRAD
            st.recv()  # LABELS, or the tail's LOSS
            st.send(MsgType.GRAD, wire.encode_tensor_list([g, g]))

        th = threading.Thread(target=rogue_server, daemon=True)
        with ct, st:
            th.start()
            with pytest.raises(ProtocolError, match="^GRAD of 2 tensors, expected 1"):
                run_client(ct, cfg, synth.images[:8], synth.labels[:8])
            th.join(timeout=5)
        assert not th.is_alive()

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
        # fail its cut's row check; the client, waiting on GRAD, must not
        # wait out 5 s.
        cfg = small_cfg()
        bad_images = synth.images[:, :, :4, :4]  # wrong input shape
        ct, st = inproc_pair(timeout=5)
        t0 = time.monotonic()
        with ct, st, pytest.raises(
                ProtocolError, match=r"^server role failed: ProtocolError\('activations "
                                     r"\(8, 4, 2, 2\) for rows of \(4, 4, 4\)'\)$"):
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

    @staticmethod
    def _serve_rogue(monkeypatch, cfg, rogue, images=None):
        """Run ``run_server`` against ``rogue(transport)`` after an honest
        client handshake; returns the server's model once it has raised
        ``ProtocolError``."""
        built = []

        def spy(*args):
            built.append(build_parts(*args))
            return built[-1]

        monkeypatch.setattr(protocol, "build_parts", spy)
        ct, st = inproc_pair(timeout=5)

        def client():
            try:
                ct.send(MsgType.HELLO, wire.encode_hello())
                ct.recv()  # HELLO back
                ct.send(MsgType.CONFIG, wire.encode_json({**cfg.to_dict(), "examples": 8}))
                ct.recv()  # ACK
                rogue(ct)
            except (ProtocolError, OSError):
                pass  # the server has given up on us

        th = threading.Thread(target=client, daemon=True)
        with ct, st:
            th.start()
            with pytest.raises(ProtocolError) as info:
                run_server(st, cfg, images)
            th.join(timeout=5)
        assert not th.is_alive()
        (server,) = built[0]
        return server.part, info.value

    @pytest.mark.parametrize("bad", ["grad", "loss"])
    def test_non_finite_values_are_protocol_error(self, monkeypatch, bad):
        cfg = small_cfg(topology="client_labels")

        def rogue(ct):  # client_labels: honest cut activations, then NaN
            ct.send(MsgType.SMASHED, wire.encode_tensor(np.zeros((8, 4, 4, 4))))
            ct.recv()  # the server's activations
            g2 = np.full((8, 32), np.nan if bad == "grad" else 0.0)
            ct.send(MsgType.GRAD, wire.encode_tensor_list(
                [g2, np.zeros((10, 32)), np.zeros(10)]))
            ct.send(MsgType.LOSS, wire.encode_scalar(np.nan if bad == "loss" else 2.3))

        model, exc = self._serve_rogue(monkeypatch, cfg, rogue)
        assert "NaN or infinite" in str(exc)
        assert all(np.isfinite(p.data).all() for p in model.params())

    @pytest.mark.parametrize("topology", ["server_data", "client_labels"])
    def test_empty_grad_is_protocol_error(self, synth, monkeypatch, topology):
        cfg = small_cfg(topology=topology)

        def rogue(ct):
            if topology == "client_labels":
                ct.send(MsgType.SMASHED, wire.encode_tensor(np.zeros((8, 4, 4, 4))))
            ct.recv()  # the server's activations
            ct.send(MsgType.GRAD, wire.encode_tensor_list([]))
            ct.send(MsgType.LOSS, wire.encode_scalar(2.3))

        images = synth.images[:8] if topology == "server_data" else None
        model, exc = self._serve_rogue(monkeypatch, cfg, rogue, images)
        assert "empty tensor list" in str(exc)
        assert all(np.isfinite(p.data).all() for p in model.params())

    @pytest.mark.parametrize("topology", ["label_sharing", "client_labels"])
    def test_wrong_shape_smashed_from_client(self, monkeypatch, topology):
        cfg = small_cfg(topology=topology)

        def rogue(ct):  # 8 rows, but not of the (4, 4, 4) the cut makes
            ct.send(MsgType.SMASHED, wire.encode_tensor(np.ones((8, 3))))

        model, exc = self._serve_rogue(monkeypatch, cfg, rogue)
        assert str(exc) == "activations (8, 3) for rows of (4, 4, 4)"
        fresh = build_layers("tiny8", 0, model.index[0], model.index[-1] + 1)
        assert params_equal(model, LayerStack(fresh))

    def test_wrong_shape_smashed_from_server(self, synth):
        cfg = small_cfg(topology="server_data")
        ct, st = inproc_pair(timeout=5)

        def rogue_server():  # honest handshake, then rows the tail cannot take
            st.recv()  # HELLO
            st.send(MsgType.HELLO, wire.encode_hello())
            st.recv()  # CONFIG
            st.send(MsgType.ACK)
            st.send(MsgType.SMASHED, wire.encode_tensor(np.ones((8, 4, 4, 4))))

        th = threading.Thread(target=rogue_server, daemon=True)
        with ct, st:
            th.start()
            with pytest.raises(ProtocolError,
                               match=r"^activations \(8, 4, 4, 4\) for rows of \(32,\)$"):
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


# Runs sessions in a fresh process, then writes glibc's malloc_info XML
# (one <heap nr=...> element per arena) to the file named by argv[1].
_ARENA_PROBE = """
import ctypes, sys
from splitlab.data import synth_dataset
from splitlab.protocol import SessionConfig, run_session
from splitlab.transport import inproc_pair

ds = synth_dataset(16, (1, 8, 8), seed=0)
cfg = SessionConfig(arch="tiny8", topology="label_sharing", split_depth=2,
                    batch_size=8, epochs=1).validate()
for _ in range(4):
    ct, st = inproc_pair()
    with ct, st:
        run_session(cfg, ds.images, ds.labels, (ct, st))
libc = ctypes.CDLL(None)
libc.fopen.restype = ctypes.c_void_p
libc.fopen.argtypes = [ctypes.c_char_p, ctypes.c_char_p]
libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
libc.fclose.argtypes = [ctypes.c_void_p]
fp = libc.fopen(sys.argv[1].encode(), b"w")
libc.malloc_info(0, fp)
libc.fclose(fp)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_role_threads_share_one_malloc_arena(tmp_path):
    """Session threads allocate from the main arena, so a process's memory
    does not depend on which role an earlier thread's arena served."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = tmp_path / "malloc_info.xml"
    subprocess.run([sys.executable, "-c", _ARENA_PROBE, str(out)], check=True,
                   env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert out.read_text().count("<heap nr=") == 1


# Runs 4 mnist sessions of 2 batch-32 steps each in a fresh process, and
# prints the minor page faults each session took.
_FAULT_PROBE = """
import resource
from splitlab.data import synth_dataset
from splitlab.protocol import SessionConfig, run_session
from splitlab.transport import inproc_pair

ds = synth_dataset(64, (1, 28, 28), seed=0)
cfg = SessionConfig(arch="mnist", topology="label_sharing", split_depth=1,
                    batch_size=32, epochs=1).validate()
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    ct, st = inproc_pair()
    with ct, st:
        run_session(cfg, ds.images, ds.labels, (ct, st))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_sessions_reuse_freed_memory():
    """Once a session has run, the next ones reuse the pages it freed instead
    of handing them back to the kernel and faulting them in again (about
    2,500 faults a session without the malloc policy)."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", _FAULT_PROBE], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    faults = [int(line) for line in out.stdout.split()]
    assert len(faults) == 4
    assert faults[-1] < 256, faults


@pytest.mark.parametrize("role", [run_client, run_server])
def test_tcp_roles_apply_the_malloc_policy(monkeypatch, role):
    """A role run on its own, as ``splitlab train --role`` runs it over TCP,
    sets the malloc policy before it builds anything."""
    class Applied(Exception):
        pass

    def spy():
        raise Applied

    monkeypatch.setattr(protocol, "_apply_malloc_policy", spy)
    monkeypatch.setattr(protocol, "build_parts", None)  # fails if called first
    with pytest.raises(Applied):
        role(None, small_cfg(), None, None)


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


def _free_port():
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]

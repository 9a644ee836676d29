"""Gradient-matching label inference: closed-form oracles, agreement with
direct per-candidate probing, end-to-end protocol path, invariances,
failure modes, and the clone-training (Fig. 5 analogue) curves."""

import numpy as np
import pytest

from splitlab.attacks import labels as label_attack
from splitlab.attacks.labels import (
    infer_from_tap_entry,
    infer_label,
    make_tail_clone,
    tail_accuracy,
)
from splitlab.autograd import Tensor
from splitlab.data import synth_dataset
from splitlab.errors import ConfigError, TieError
from splitlab.harness import label_inference_accuracy
from splitlab.layers import Flatten, LayerStack
from splitlab.models import build_net, tail_start_index
from splitlab.optim import Adam
from splitlab.protocol import ServerTap, SessionConfig, epoch_order, run_session, train_local
from splitlab.transport import inproc_pair

from helpers import fc_distances_oracle, fit_epoch, probe_distances, tail_param_gradients


def smashed_for(arch, tail_depth, images):
    model = build_net(arch, seed=0)
    k = tail_start_index(arch, tail_depth)
    prefix = LayerStack(model.layers[:k])
    out = [
        prefix.forward(Tensor(images[i : i + 64])).data
        for i in range(0, images.shape[0], 64)
    ]
    return np.concatenate(out)


class TestAnalyticGradients:
    """Depth-1 tail is fc+softmax+cross-entropy, so the stochastic
    gradients have the closed form dW = (p - onehot(y)) a^T, db = p - onehot."""

    @pytest.mark.parametrize("arch", ["tiny8", "mnist"])
    def test_closed_form(self, arch):
        tail = make_tail_clone(arch, 1, seed=3)
        shape = {"tiny8": (1, 8, 8), "mnist": (1, 28, 28)}[arch]
        sm = smashed_for(arch, 1, synth_dataset(1, shape, seed=1).images)
        y = 4
        p = tail.forward(Tensor(sm)).data[0]
        a = sm.reshape(-1)
        resid = p.copy()
        resid[y] -= 1.0
        grads = tail_param_gradients(tail, sm, y)
        dw, db = grads
        np.testing.assert_allclose(dw, np.outer(resid, a), rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(db, resid, rtol=1e-5, atol=1e-7)

    def test_true_label_minimizes_distance_against_itself(self):
        # Probing with the *same* parameters as the sender: the true
        # candidate reproduces the reference gradient, up to the rounding
        # of the float64 closed form.
        tail = make_tail_clone("tiny8", 1, seed=0)
        sm = smashed_for("tiny8", 1, synth_dataset(1, (1, 8, 8), seed=2).images)
        ref = tail_param_gradients(tail, sm, 7)
        result = infer_label(ref, sm, tail)
        assert result.label == 7
        assert result.distances[7] <= 1e-12 * np.delete(result.distances, 7).min()
        assert result.margin > 0


ARCH_SHAPES = {"tiny8": (1, 8, 8), "mnist": (1, 28, 28), "cifar": (3, 32, 32)}
TAILS = [(arch, t) for arch, n in (("tiny8", 2), ("mnist", 3), ("cifar", 2))
         for t in range(1, n + 1)]


class TestClosedFormAgainstProbing:
    """The one-pass distances against the direct per-candidate probe."""

    def assert_same_inference(self, ref, sm, clone):
        got = infer_label(ref, sm, clone)
        want = probe_distances(ref, sm, clone)
        np.testing.assert_allclose(got.distances, want, rtol=1e-5)
        order = np.argsort(want, kind="stable")
        assert got.label == int(order[0])
        assert got.tie == bool(want[order[0]] == want[order[1]])

    @pytest.mark.parametrize("arch,tail_depth", TAILS)
    def test_every_tail(self, arch, tail_depth):
        ds = synth_dataset(3, ARCH_SHAPES[arch], seed=tail_depth)
        sms = smashed_for(arch, tail_depth, ds.images)
        sender = make_tail_clone(arch, tail_depth, seed=1)
        for j, y in enumerate((0, 4, 9)):
            sm = sms[j : j + 1]
            ref = tail_param_gradients(sender, sm, y)
            self.assert_same_inference(ref, sm, make_tail_clone(arch, tail_depth, seed=2 + j))

    @pytest.mark.parametrize("arch,tail_depth", TAILS)
    def test_saturated_clone(self, arch, tail_depth):
        # Past cross_entropy's 1e-12 clip the probe's seed is clipped too.
        # Lowering one class's bias sinks that class, alone, below the clip.
        sm = smashed_for(arch, tail_depth, synth_dataset(1, ARCH_SHAPES[arch], seed=5).images)
        ref = tail_param_gradients(make_tail_clone(arch, tail_depth, seed=1), sm, 3)
        for sunk in (3, 6):
            for log_p in (-46.0, -69.0):  # about 1e-20 and 1e-30
                clone = make_tail_clone(arch, tail_depth, seed=2)
                z = LayerStack(clone.layers[:-1]).forward(Tensor(sm)).data[0]
                clone.params()[-1].data[sunk] += np.float32(log_p - (z[sunk] - z.max()))
                p = np.sort(clone.forward(Tensor(sm)).data[0])
                assert 0.0 < p[0] < 1e-12 <= p[1]
                self.assert_same_inference(ref, sm, clone)


class TestBlasDistancesAgainstEinsum:
    """The closed form on BLAS products against the float64 einsum form it
    replaced: only the distances' low bits may differ."""

    @pytest.mark.parametrize("tail_depth", [1, 2, 3])
    def test_mnist_tails(self, monkeypatch, tail_depth):
        ds = synth_dataset(4, ARCH_SHAPES["mnist"], seed=tail_depth)
        sms = smashed_for("mnist", tail_depth, ds.images)
        sender = make_tail_clone("mnist", tail_depth, seed=1)
        for j, y in enumerate((0, 3, 7, 9)):
            sm = sms[j : j + 1]
            ref = tail_param_gradients(sender, sm, y)
            for seed in (11, 12, 13):
                clone = make_tail_clone("mnist", tail_depth, seed=seed)
                got = infer_label(ref, sm, clone)
                with monkeypatch.context() as m:
                    m.setattr(label_attack, "_fc_distances", fc_distances_oracle)
                    want = infer_label(ref, sm, clone)
                np.testing.assert_allclose(got.distances, want.distances, rtol=1e-12)
                assert (got.label, got.tie) == (want.label, want.tie)


class TestInferLabel:
    def test_result_shape_and_argmin(self):
        tail = make_tail_clone("tiny8", 1, seed=1)
        clone = make_tail_clone("tiny8", 1, seed=2)
        sm = smashed_for("tiny8", 1, synth_dataset(1, (1, 8, 8), seed=3).images)
        ref = tail_param_gradients(tail, sm, 2)
        r = infer_label(ref, sm, clone)
        assert r.distances.shape == (10,)
        assert r.label == int(np.argmin(r.distances))
        assert r.margin >= 0.0

    def test_rejects_batched_step(self):
        clone = make_tail_clone("tiny8", 1, seed=0)
        sm = smashed_for("tiny8", 1, synth_dataset(2, (1, 8, 8), seed=0).images)
        with pytest.raises(ConfigError):
            infer_label([np.zeros(1, np.float32)], sm, clone)

    def test_rejects_mismatched_clone(self):
        tail = make_tail_clone("mnist", 1, seed=0)
        clone = make_tail_clone("tiny8", 1, seed=0)
        sm_m = smashed_for("mnist", 1, synth_dataset(1, (1, 28, 28), seed=0).images)
        sm_t = smashed_for("tiny8", 1, synth_dataset(1, (1, 8, 8), seed=0).images)
        ref = tail_param_gradients(tail, sm_m, 0)
        with pytest.raises(ConfigError):
            infer_label(ref, sm_t, clone)

    def test_rejects_tail_without_closed_form(self):
        # A layer kind with no backward rule, and a tail without softmax.
        clone = make_tail_clone("tiny8", 1, seed=0)
        sm = smashed_for("tiny8", 1, synth_dataset(1, (1, 8, 8), seed=0).images)
        ref = [np.zeros_like(p.data) for p in clone.params()]
        for layers in ([Flatten(), *clone.layers], clone.layers[:-1]):
            with pytest.raises(ConfigError):
                infer_label(ref, sm, LayerStack(layers))

    def test_degenerate_tie_raises(self):
        clone = make_tail_clone("tiny8", 1, seed=0)
        for p in clone.params():
            p.data[...] = 0.0
        in_dim = clone.params()[0].data.shape[1]
        sm = np.zeros((1, in_dim), dtype=np.float32)
        ref = [np.zeros_like(p.data) for p in clone.params()]
        with pytest.raises(TieError):
            infer_label(ref, sm, clone)

    def test_depth2_clone_structure(self):
        clone = make_tail_clone("tiny8", 2, seed=0)
        kinds = [type(l).__name__ for l in clone.layers]
        assert kinds[-1] == "Softmax"
        assert sum(k == "FullyConnected" for k in kinds) == 2
        assert "ReLU" in kinds


class TestEndToEnd:
    def test_tap_entries_recover_epoch_labels(self):
        """server_data session at batch size 1: every step's label falls
        out of the gradients the client sent back."""
        ds = synth_dataset(20, (1, 8, 8), seed=4)
        cfg = SessionConfig(arch="tiny8", topology="server_data", tail_depth=1,
                            batch_size=1, epochs=1, seed=11).validate()
        tap = ServerTap()
        train_local(cfg, ds.images, ds.labels, tap=tap)
        assert len(tap) == 20
        order = epoch_order(20, 11, 0)
        for j, entry in enumerate(tap.entries):
            clone = make_tail_clone("tiny8", 1, seed=100 + j)
            r = infer_from_tap_entry(entry, clone)
            assert r.label == int(ds.labels[order[j]])

    def test_label_sharing_tap_unusable(self):
        ds = synth_dataset(4, (1, 8, 8), seed=5)
        cfg = SessionConfig(arch="tiny8", topology="label_sharing",
                            split_depth=1, batch_size=1, epochs=1,
                            seed=0).validate()
        tap = ServerTap()
        train_local(cfg, ds.images, ds.labels, tap=tap)
        clone = make_tail_clone("tiny8", 1, seed=0)
        with pytest.raises(ConfigError):
            infer_from_tap_entry(tap.entries[0], clone)

    def test_lr_invariance_of_distances(self):
        """Distances are computed on gradients, not updates, so the
        client's learning rate cannot matter on the first step."""
        ds = synth_dataset(8, (1, 8, 8), seed=6)
        results = []
        for lr in (0.001, 0.5):
            cfg = SessionConfig(arch="tiny8", topology="server_data",
                                tail_depth=1, batch_size=1, epochs=1,
                                seed=2, lr=lr).validate()
            tap = ServerTap()
            train_local(cfg, ds.images, ds.labels, tap=tap)
            clone = make_tail_clone("tiny8", 1, seed=42)
            results.append(infer_from_tap_entry(tap.entries[0], clone))
        np.testing.assert_array_equal(results[0].distances, results[1].distances)


class TestAccuracySweep:
    def test_depth1_fresh_client_is_exact(self):
        ds = synth_dataset(128, (1, 8, 8), seed=7)
        model = build_net("tiny8", seed=1)
        assert label_inference_accuracy(model, ds, 1, 50, seed=0) == 1.0

    def test_deterministic(self):
        ds = synth_dataset(64, (1, 8, 8), seed=8)
        model = build_net("tiny8", seed=2)
        a = label_inference_accuracy(model, ds, 2, 20, seed=3)
        b = label_inference_accuracy(model, ds, 2, 20, seed=3)
        assert a == b

    @pytest.mark.parametrize("arch,tail_depth", [(a, t) for a in ("tiny8", "mnist")
                                                 for t in (1, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_a_probe_loop_of_its_own(self, monkeypatch, arch, tail_depth, seed):
        """Bit for bit, every inference and the accuracy equal a loop over
        the oracle's gradients (``helpers.tail_param_gradients``) and
        ``infer_label`` on the same picks and clones."""
        from splitlab import harness
        from splitlab.attacks import attacker_seed

        ds = synth_dataset(16, ARCH_SHAPES[arch], seed=seed)
        model = build_net(arch, seed=seed)
        got = []
        monkeypatch.setattr(harness, "infer_from_tap_entry", lambda entry, clone: (
            got.append(infer_from_tap_entry(entry, clone)), got[-1])[1])
        acc = label_inference_accuracy(model, ds, tail_depth, 6, seed=seed)

        k = tail_start_index(arch, tail_depth)
        prefix, tail = LayerStack(model.layers[:k]), LayerStack(model.layers[k:])
        want, hits = [], 0
        for step, i in enumerate(np.random.default_rng(seed).integers(0, len(ds), size=6)):
            clone = make_tail_clone(arch, tail_depth, attacker_seed(seed, "label-clone", step))
            sm = prefix.forward(Tensor(ds.images[i : i + 1])).data
            y = int(ds.labels[i])
            want.append(infer_label(tail_param_gradients(tail, sm, y), sm, clone))
            hits += want[-1].label == y
        assert [r.distances.tobytes() for r in got] == [r.distances.tobytes() for r in want]
        assert acc == hits / 6


def tail_curve(tail, smashed, labels, epochs, lr, seed, eval_labels=None):
    """Adam training of ``tail`` on (smashed, labels) at batch 32; returns
    the accuracy on ``smashed`` after each epoch, against ``eval_labels``
    (the training labels when none are given)."""
    opt = Adam(tail.params(), lr)
    labels = labels.astype(np.int64)
    eval_labels = labels if eval_labels is None else eval_labels
    accs = []
    for epoch in range(epochs):
        fit_epoch(tail, opt, smashed, labels, 32, seed, epoch)
        accs.append(tail_accuracy(tail, smashed, eval_labels))
    return accs


class TestCloneTraining:
    """Fig. 5 analogue: a clone tail trained on correctly inferred labels
    follows the original tail's accuracy curve."""

    def fixture(self):
        ds = synth_dataset(512, (1, 8, 8), seed=0)
        sm = smashed_for("tiny8", 1, ds.images)
        return sm, ds.labels

    def test_curves_track_after_first_epoch(self):
        sm, labels = self.fixture()
        orig = tail_curve(make_tail_clone("tiny8", 1, seed=1), sm, labels,
                          epochs=8, lr=0.05, seed=5)
        clone = tail_curve(make_tail_clone("tiny8", 1, seed=2), sm, labels,
                           epochs=8, lr=0.05, seed=5)
        # epoch 1 reflects the differing random inits; from epoch 2 on the
        # curves agree to < 3 points
        for a, b in zip(orig[1:], clone[1:]):
            assert abs(a - b) < 0.03
        assert orig[-1] > 0.9 and clone[-1] > 0.9

    def test_shuffled_labels_stay_near_chance(self):
        sm, labels = self.fixture()
        shuffled = np.random.default_rng(9).permutation(labels)
        curve = tail_curve(make_tail_clone("tiny8", 1, seed=3), sm, shuffled,
                           epochs=8, lr=0.05, seed=5,
                           eval_labels=labels.astype(np.int64))
        assert curve[-1] < 0.3

    def test_same_seed_same_curve(self):
        sm, labels = self.fixture()
        a = tail_curve(make_tail_clone("tiny8", 1, seed=4), sm, labels,
                       epochs=2, lr=0.05, seed=6)
        b = tail_curve(make_tail_clone("tiny8", 1, seed=4), sm, labels,
                       epochs=2, lr=0.05, seed=6)
        assert a == b

    def test_tail_accuracy_counts_hits(self):
        tail = make_tail_clone("tiny8", 1, seed=0)
        sm, labels = self.fixture()
        acc = tail_accuracy(tail, sm, labels.astype(np.int64))
        assert 0.0 <= acc <= 1.0


class TestProbeGradients:
    def test_gradients_keep_their_bytes_across_calls(self):
        """The stand-in client's GRAD holds the arrays backward stored; the
        next call on the same tail stores new ones."""
        tail = make_tail_clone("tiny8", 2, seed=0)
        sm = np.random.default_rng(1).uniform(0, 1, (1, 64)).astype(np.float32)
        first = label_attack.tail_param_gradients(tail, sm, 3)
        kept = [g.tobytes() for g in first]
        second = label_attack.tail_param_gradients(tail, sm, 7)
        assert [g.tobytes() for g in first] == kept
        assert [g.tobytes() for g in second] != kept

    @pytest.mark.parametrize("tail_depth", [1, 2])
    def test_stand_in_client_sends_the_oracle_gradients(self, tail_depth):
        """The stand-in client's GRAD is the cut gradient, then the tail's
        parameter gradients, bit for bit those of the oracle's step."""
        tail = make_tail_clone("tiny8", tail_depth, seed=0)
        sm = smashed_for("tiny8", tail_depth, synth_dataset(1, (1, 8, 8), seed=1).images)
        sent = label_attack.tail_param_gradients(tail, sm, 4)
        assert sent[0].shape == sm.shape
        assert [g.tobytes() for g in sent[1:]] == [
            g.tobytes() for g in tail_param_gradients(tail, sm, 4)]


class TestClientLabelsTap:
    def test_tap_entries_recover_epoch_labels(self):
        """client_labels session at batch size 1 and tail depth 1: the
        server's tap holds the activations it sent to the tail, and every
        step's label falls out of them and the gradients sent back."""
        ds = synth_dataset(20, (1, 8, 8), seed=4)
        cfg = SessionConfig(arch="tiny8", topology="client_labels", split_depth=1,
                            tail_depth=1, batch_size=1, epochs=1, seed=11).validate()
        tap = ServerTap()
        ct, st = inproc_pair()
        with ct, st:
            run_session(cfg, ds.images, ds.labels, (ct, st), tap=tap)
        assert len(tap) == 20
        order = epoch_order(20, 11, 0)
        for j, entry in enumerate(tap.entries):
            assert entry.smashed.shape == (1, 4, 8, 8)  # the head's output it received
            assert entry.tail_input.shape == (1, 32)  # its own output
            clone = make_tail_clone("tiny8", 1, seed=100 + j)
            r = infer_from_tap_entry(entry, clone)
            assert r.label == int(ds.labels[order[j]])

    def test_server_data_tap_keeps_one_copy(self):
        ds = synth_dataset(2, (1, 8, 8), seed=4)
        cfg = SessionConfig(arch="tiny8", topology="server_data", batch_size=1,
                            epochs=1).validate()
        tap = ServerTap()
        train_local(cfg, ds.images, ds.labels, tap=tap)
        assert all(e.tail_input is e.smashed for e in tap.entries)


class TestAttackerClones:
    def test_label_clones_are_not_the_client_tail(self, monkeypatch):
        """label_inference_accuracy draws each clone from the attacker's
        stream: given the session's seed, no clone is the client's tail."""
        from splitlab import harness

        clones = []

        def spy(arch, tail_depth, seed):
            clones.append(make_tail_clone(arch, tail_depth, seed))
            return clones[-1]

        monkeypatch.setattr(harness, "make_tail_clone", spy)
        model = build_net("tiny8", seed=5)
        label_inference_accuracy(model, synth_dataset(16, (1, 8, 8), seed=5), 2, 4, seed=5)
        tail = model.layers[tail_start_index("tiny8", 2):]
        assert len(clones) == 4
        for clone in clones:
            for c, t in zip(clone.params(), LayerStack(tail).params()):
                assert not np.array_equal(c.data, t.data)

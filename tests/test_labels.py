"""Gradient-matching label inference: closed-form oracle, end-to-end
protocol path, invariances, failure modes, and the clone-training
(Fig. 5 analogue) curves."""

import numpy as np
import pytest

from splitlab.attacks.labels import (
    infer_from_tap_entry,
    infer_label,
    make_tail_clone,
    tail_accuracy,
    tail_param_gradients,
)
from splitlab.autograd import Tensor
from splitlab.data import synth_dataset
from splitlab.errors import ConfigError, TieError
from splitlab.harness import label_inference_accuracy
from splitlab.layers import LayerStack
from splitlab.models import build_net, tail_start_index
from splitlab.optim import Adam, fit_epoch
from splitlab.protocol import ServerTap, SessionConfig, epoch_order, train_local


def smashed_for(arch, tail_depth, images):
    model = build_net(arch, seed=0)
    k = tail_start_index(model, tail_depth)
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
        # candidate reproduces the reference gradient exactly.
        tail = make_tail_clone("tiny8", 1, seed=0)
        sm = smashed_for("tiny8", 1, synth_dataset(1, (1, 8, 8), seed=2).images)
        ref = tail_param_gradients(tail, sm, 7)
        result = infer_label(ref, sm, tail)
        assert result.label == 7
        assert result.distances[7] == 0.0
        assert result.margin > 0


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

"""Acceptance gate. One test per criterion, each printing an explicit
PASS/FAIL/SKIP line to the terminal. Criteria needing the real MNIST
files skip when the files are absent (no downloads here); everything
else runs on synthetic data.

Criterion 1 measures label inference over stochastic steps taken from
training onset, where the protocol's gradients are unsaturated; criterion
2 measures a converged client, where the received gradients vanish and
the candidate ranking degenerates to the clone's own preference. Both
regimes occur within one training run; the regime split is deliberate
and documented in the project notes.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from splitlab.attacks.inversion import InversionConfig, unsplit_invert
from splitlab.attacks.labels import infer_from_tap_entry, make_tail_clone, tail_accuracy
from splitlab.data import load_idx, sample_class_balanced, synth_dataset
from splitlab.harness import (
    epoch_attack_curve,
    label_inference_accuracy,
    mse_images,
    snapshot_tap,
    stitch_and_train_head,
)
from splitlab.models import build_net, split_at
from splitlab.protocol import (
    ServerTap,
    SessionConfig,
    epoch_order,
    run_client,
    run_server,
    run_session,
    train_local,
    train_monolithic,
)
from splitlab.transport import inproc_pair, tcp_connect, tcp_listen

from helpers import gradcheck_suite, max_param_diff, mnist_dir, params_equal

MODULE_T0 = time.monotonic()

ARCH_SHAPES = {"tiny8": (1, 8, 8), "mnist": (1, 28, 28), "cifar": (3, 32, 32)}
TABLE2_MSE = {1: 0.054, 2: 0.056, 3: 0.060}


def report(capsys, line):
    with capsys.disabled():
        print(f"\n{line}")


@pytest.fixture(scope="module")
def mnist_setup():
    """Trained desk-scale MNIST client shared by criteria 3-5."""
    path = mnist_dir()
    if path is None:
        return None
    train = load_idx(os.path.join(path, "train-images-idx3-ubyte"),
                     os.path.join(path, "train-labels-idx1-ubyte"),
                     name="mnist", split="train")
    test = load_idx(os.path.join(path, "t10k-images-idx3-ubyte"),
                    os.path.join(path, "t10k-labels-idx1-ubyte"),
                    name="mnist", split="test")
    subset = train.subset(np.arange(10000))
    cfg = SessionConfig(arch="mnist", split_depth=1, seed=0, batch_size=64,
                        epochs=5).validate()
    model, _, _, _ = train_local(cfg, subset.images, subset.labels)
    sample = sample_class_balanced(test, 1, seed=0).subset(np.arange(3))
    return {"train": subset, "test": test, "model": model, "sample": sample}


class TestAcceptance:
    def test_criterion1_depth1_label_inference_exact(self, capsys):
        t0 = time.monotonic()
        per_arch = {}
        for arch, shape in ARCH_SHAPES.items():
            ds = synth_dataset(200, shape, seed=4)
            cfg = SessionConfig(arch=arch, topology="server_data",
                                tail_depth=1, batch_size=1, epochs=1,
                                seed=11).validate()
            tap = ServerTap()
            train_local(cfg, ds.images, ds.labels, tap=tap)
            order = epoch_order(200, cfg.seed, 0)
            hits = 0
            for j, entry in enumerate(tap.entries):
                clone = make_tail_clone(arch, 1, seed=500 + j)
                r = infer_from_tap_entry(entry, clone)
                hits += int(r.label == int(ds.labels[order[j]]))
            per_arch[arch] = hits
        elapsed = time.monotonic() - t0
        ok = all(h == 200 for h in per_arch.values()) and elapsed < 60
        report(capsys,
               f"ACCEPTANCE 1 [{'PASS' if ok else 'FAIL'}] depth-1 label "
               f"inference over 200 steps: "
               + ", ".join(f"{a}={h}/200" for a, h in per_arch.items())
               + f" ({elapsed:.1f}s)")
        assert per_arch == {a: 200 for a in ARCH_SHAPES}
        assert elapsed < 60

    def test_criterion2_depth2_label_inference_chance(self, capsys):
        t0 = time.monotonic()
        ds = synth_dataset(2000, (1, 28, 28), seed=0)
        cfg = SessionConfig(arch="mnist", split_depth=3, seed=0,
                            batch_size=64, epochs=3).validate()
        model, losses, _, _ = train_local(cfg, ds.images, ds.labels)
        assert losses[-1] < 0.2  # converged client, the Table 3 regime
        acc = label_inference_accuracy(model, ds, 2, 200, seed=0)
        elapsed = time.monotonic() - t0
        ok = 0.02 <= acc <= 0.25 and elapsed < 120
        report(capsys,
               f"ACCEPTANCE 2 [{'PASS' if ok else 'FAIL'}] depth-2 label "
               f"inference on converged client: {acc:.1%} in [2%, 25%] "
               f"({elapsed:.1f}s)")
        assert 0.02 <= acc <= 0.25
        assert elapsed < 120

    def test_criterion3_mnist_inversion_table2(self, capsys, mnist_setup):
        if mnist_setup is None:
            report(capsys, "ACCEPTANCE 3 [SKIP] MNIST inversion vs Table 2: "
                           "local MNIST files not present")
            pytest.skip("needs local MNIST data")
        model, sample = mnist_setup["model"], mnist_setup["sample"]
        inv = InversionConfig(max_rounds=20, plateau_rounds=5, seed=0)
        results = {}
        for depth in (1, 2, 3):
            f1, _ = split_at(model, depth)
            entries = snapshot_tap(f1, sample.images)
            res = unsplit_invert(entries, "mnist", depth, inv,
                                 ground_truth=sample.images)
            results[depth] = mse_images(res.x_est, sample.images)
        ok = all(results[d] <= 1.5 * TABLE2_MSE[d] for d in results)
        report(capsys,
               f"ACCEPTANCE 3 [{'PASS' if ok else 'FAIL'}] trained-client "
               f"inversion MSE: "
               + ", ".join(f"d{d}={v:.4f}<={1.5 * TABLE2_MSE[d]:.3f}"
                           for d, v in results.items()))
        for d, v in results.items():
            assert v <= 1.5 * TABLE2_MSE[d]

    def test_criterion4_trained_beats_untrained(self, capsys, mnist_setup):
        if mnist_setup is None:
            report(capsys, "ACCEPTANCE 4 [SKIP] trained-vs-untrained MSE "
                           "ordering: local MNIST files not present")
            pytest.skip("needs local MNIST data")
        from scipy.stats import spearmanr

        model, sample = mnist_setup["model"], mnist_setup["sample"]
        inv = InversionConfig(max_rounds=10, plateau_rounds=11, seed=0)
        after, before = [], []
        for depth in (1, 2, 3):
            f1_t, _ = split_at(model, depth)
            f1_u, _ = split_at(build_net("mnist", seed=0), depth)
            for f1, acc in ((f1_t, after), (f1_u, before)):
                res = unsplit_invert(snapshot_tap(f1, sample.images),
                                     "mnist", depth, inv,
                                     ground_truth=sample.images)
                acc.append(mse_images(res.x_est, sample.images))
        cfg = SessionConfig(arch="mnist", split_depth=1, seed=0,
                            batch_size=64, epochs=5).validate()
        curve = epoch_attack_curve(cfg, mnist_setup["train"],
                                   sample.images, inv)
        rho = spearmanr(np.arange(1, len(curve) + 1), curve).statistic
        ok = np.mean(after) <= np.mean(before) and rho <= 0
        report(capsys,
               f"ACCEPTANCE 4 [{'PASS' if ok else 'FAIL'}] mean MSE "
               f"after={np.mean(after):.4f} <= before={np.mean(before):.4f}; "
               f"epoch-trend Spearman {rho:.2f} <= 0")
        assert np.mean(after) <= np.mean(before)
        assert rho <= 0

    def test_criterion5_model_stealing_head_retrain(self, capsys, mnist_setup):
        if mnist_setup is None:
            report(capsys, "ACCEPTANCE 5 [SKIP] model stealing accuracy gap: "
                           "local MNIST files not present")
            pytest.skip("needs local MNIST data")
        model, sample = mnist_setup["model"], mnist_setup["sample"]
        test = mnist_setup["test"]
        orig_acc = tail_accuracy(model, test.images, test.labels)
        f1, _ = split_at(model, 1)
        inv = InversionConfig(max_rounds=20, plateau_rounds=5, seed=0)
        res = unsplit_invert(snapshot_tap(f1, sample.images), "mnist", 1, inv)
        clone_acc = stitch_and_train_head(res.clone, "mnist", 1,
                                          mnist_setup["train"], test,
                                          epochs=3)
        ok = clone_acc >= orig_acc - 0.10
        report(capsys,
               f"ACCEPTANCE 5 [{'PASS' if ok else 'FAIL'}] stolen clone + "
               f"retrained head {clone_acc:.1%} vs original {orig_acc:.1%} "
               f"(gap <= 10 points)")
        assert clone_acc >= orig_acc - 0.10

    def test_criterion6_split_equals_monolithic(self, capsys):
        t0 = time.monotonic()
        ds = synth_dataset(800, (1, 8, 8), seed=0)
        cfg = SessionConfig(arch="tiny8", split_depth=2, seed=3,
                            batch_size=8, epochs=1).validate()  # 100 steps
        mono, mono_losses = train_monolithic(cfg, ds.images, ds.labels)
        local, local_losses, _, _ = train_local(cfg, ds.images, ds.labels)
        diff = max_param_diff(mono, local)
        np.testing.assert_allclose(mono_losses, local_losses, atol=1e-6)

        ct, st = inproc_pair()
        with ct, st:
            inproc_client, inproc_server = run_session(
                cfg, ds.images, ds.labels, (ct, st)
            )
        import socket
        import threading

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        result = {}

        def serve():
            with tcp_listen("127.0.0.1", port) as t:
                result["server"] = run_server(t, cfg)

        th = threading.Thread(target=serve, daemon=True)
        th.start()
        with tcp_connect("127.0.0.1", port) as t:
            tcp_client = run_client(t, cfg, ds.images, ds.labels)
        th.join(timeout=30)
        transports_equal = (
            params_equal(inproc_client.model, tcp_client.model)
            and params_equal(inproc_server.model, result["server"].model)
        )
        elapsed = time.monotonic() - t0
        ok = diff <= 1e-6 and transports_equal
        report(capsys,
               f"ACCEPTANCE 6 [{'PASS' if ok else 'FAIL'}] split vs "
               f"monolithic over 100 steps: max|diff|={diff:.2e} <= 1e-6; "
               f"inproc vs tcp bit-identical={transports_equal} "
               f"({elapsed:.1f}s)")
        assert diff <= 1e-6
        assert transports_equal

    def test_criterion7_gradcheck_suite(self, capsys):
        t0 = time.monotonic()
        n = gradcheck_suite(200, seed=0)
        elapsed = time.monotonic() - t0
        ok = n == 200 and elapsed < 60
        report(capsys,
               f"ACCEPTANCE 7 [{'PASS' if ok else 'FAIL'}] {n}/200 randomized "
               f"finite-difference gradient cases (rtol 1e-3, atol 1e-4) "
               f"({elapsed:.1f}s)")
        assert n == 200
        assert elapsed < 60

    def test_criterion8_attack_neutrality(self, capsys):
        def transcripts(cfg, ds, attack):
            ct, st = inproc_pair(record_transcript=True)
            tap = ServerTap() if attack else None
            with ct, st:
                run_session(cfg, ds.images, ds.labels, (ct, st), tap=tap)
            if attack:
                if cfg.topology == "label_sharing":
                    inv = InversionConfig(input_steps=3, model_steps=3,
                                          max_rounds=2, plateau_rounds=3)
                    unsplit_invert(tap.entries, cfg.arch, cfg.split_depth, inv)
                else:
                    for j, e in enumerate(tap.entries):
                        infer_from_tap_entry(
                            e, make_tail_clone(cfg.arch, cfg.tail_depth, j))
            return [ct.transcript, st.transcript]

        ds = synth_dataset(8, (1, 8, 8), seed=5)
        neutral = True
        for cfg in (
            SessionConfig(arch="tiny8", topology="label_sharing",
                          split_depth=1, batch_size=1, epochs=1,
                          seed=1).validate(),
            SessionConfig(arch="tiny8", topology="server_data", tail_depth=1,
                          batch_size=1, epochs=1, seed=1).validate(),
        ):
            off = transcripts(cfg, ds, attack=False)
            on = transcripts(cfg, ds, attack=True)
            neutral = neutral and off == on
        report(capsys,
               f"ACCEPTANCE 8 [{'PASS' if neutral else 'FAIL'}] transcripts "
               f"bit-identical with attacks enabled vs disabled "
               f"(label_sharing + server_data)")
        assert neutral

    def test_criterion9_ci_suite_budget(self, capsys):
        if os.environ.get("SPLITLAB_ACCEPTANCE_INNER"):
            pytest.skip("inner run")
        t0 = time.monotonic()
        env = dict(os.environ, SPLITLAB_ACCEPTANCE_INNER="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--ignore",
             os.path.abspath(__file__)],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env, capture_output=True, text=True, timeout=900,
        )
        suite_elapsed = time.monotonic() - t0
        own_elapsed = time.monotonic() - MODULE_T0
        total = suite_elapsed + own_elapsed
        ok = proc.returncode == 0 and total < 600
        report(capsys,
               f"ACCEPTANCE 9 [{'PASS' if ok else 'FAIL'}] full synthetic "
               f"suite green: rc={proc.returncode}, rest-of-suite "
               f"{suite_elapsed:.0f}s + acceptance {own_elapsed:.0f}s "
               f"= {total:.0f}s < 600s")
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        assert total < 600

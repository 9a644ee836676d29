"""Harness-level metrics, image artifacts, CSV reporting, and a small
end-to-end depth sweep."""

import csv
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from splitlab.attacks.inversion import InversionConfig, unsplit_invert
from splitlab.attacks.labels import tail_accuracy
from splitlab.autograd import Tensor
from splitlab.data import sample_class_balanced, synth_dataset
from splitlab.errors import ConfigError, ShapeError
from splitlab.harness import (
    CSV_FIELDS,
    ReportWriter,
    SweepConfig,
    SweepRow,
    dump_image,
    epoch_attack_curve,
    image_grid,
    label_inference_accuracy,
    mse_images,
    run_depth_sweep,
    snapshot_tap,
    stitch_and_train_head,
)
from splitlab.models import build_net, split_at
from splitlab.protocol import SessionConfig, train_local

from helpers import epoch_attack_curve_oracle, fit_epoch, parse_pnm


class TestMetrics:
    def test_mse_images_value(self):
        a = np.zeros((2, 1, 2, 2), np.float32)
        b = np.full((2, 1, 2, 2), 0.5, np.float32)
        assert mse_images(a, b) == 0.25

    def test_mse_images_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_images(np.zeros((1, 2)), np.zeros((2, 2)))

    def test_eval_accuracy_against_own_predictions(self):
        model = build_net("tiny8", seed=0)
        ds = synth_dataset(64, (1, 8, 8), seed=0)
        preds = model.forward(Tensor(ds.images)).data.argmax(axis=1)
        relabeled = type(ds)(ds.images, preds.astype(np.uint8), name="t")
        assert tail_accuracy(model, relabeled.images, relabeled.labels) == 1.0

    def test_eval_accuracy_chance_for_random_labels(self):
        model = build_net("tiny8", seed=1)
        ds = synth_dataset(400, (1, 8, 8), seed=1)
        acc = tail_accuracy(model, ds.images, ds.labels)
        assert 0.0 <= acc <= 0.35


class TestImages:
    def test_pgm_round_trip(self, tmp_path):
        img = np.linspace(0, 1, 24, dtype=np.float32).reshape(1, 4, 6)
        path = str(tmp_path / "x.pgm")
        dump_image(img, path)
        back = parse_pnm(path)
        assert back.shape == (1, 4, 6)
        np.testing.assert_allclose(back, img, atol=0.5 / 255)

    def test_half_gray_is_128(self, tmp_path):
        path = str(tmp_path / "g.pgm")
        dump_image(np.full((1, 1, 1), 0.5, np.float32), path)
        assert Path(path).read_bytes()[-1] == 128

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(3, 5, 4)).astype(np.float32)
        path = str(tmp_path / "c.ppm")
        dump_image(img, path)
        back = parse_pnm(path)
        assert back.shape == (3, 5, 4)
        np.testing.assert_allclose(back, img, atol=0.5 / 255)

    def test_two_dim_input_accepted(self, tmp_path):
        dump_image(np.zeros((3, 3), np.float32), str(tmp_path / "d.pgm"))

    def test_bad_channel_count_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            dump_image(np.zeros((2, 3, 3), np.float32), str(tmp_path / "e.pgm"))

    def test_grid_geometry(self):
        rows = [np.zeros((10, 1, 8, 8), np.float32),
                np.zeros((10, 1, 8, 8), np.float32)]
        grid = image_grid(rows)
        assert grid.shape == (1, 8 + 2 + 8, 10 * 8 + 9 * 2)

    def test_grid_content_and_gutter(self):
        a = np.full((2, 1, 2, 2), 0.25, np.float32)
        grid = image_grid([a])
        assert grid.shape == (1, 2, 6)
        np.testing.assert_array_equal(grid[0, :, 2:4], np.ones((2, 2)))
        np.testing.assert_array_equal(grid[0, :, :2], np.full((2, 2), 0.25))
        np.testing.assert_array_equal(grid[0, :, 4:], np.full((2, 2), 0.25))


class TestAttackPlumbing:
    def test_snapshot_tap_shapes(self):
        model = build_net("tiny8", seed=0)
        f1, _ = split_at(model, 1)
        images = synth_dataset(5, (1, 8, 8), seed=0).images
        entries = snapshot_tap(f1, images)
        assert [e.step for e in entries] == [1, 2, 3, 4, 5]
        for e in entries:
            assert e.smashed.shape[0] == 1
            assert e.labels is None and e.grad == []

    def test_stitch_and_train_head(self):
        train = synth_dataset(128, (1, 8, 8), seed=2)
        test = synth_dataset(64, (1, 8, 8), seed=3)
        clone_f1, _ = split_at(build_net("tiny8", seed=9), 1)
        before = [p.data.copy() for p in clone_f1.params()]
        acc = stitch_and_train_head(clone_f1, SessionConfig(arch="tiny8"), train, test,
                                    epochs=1)
        assert 0.0 <= acc <= 1.0
        # the stolen part itself must stay frozen
        for p, b in zip(clone_f1.params(), before):
            np.testing.assert_array_equal(p.data, b)
            assert p.requires_grad

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_stitched_head_matches_an_epoch_loop_of_its_own(self, monkeypatch, optimizer):
        """Same accuracy, and the same head bytes, as the oracle's epochs
        (``helpers.fit_epoch``) over a head of the same layers."""
        from splitlab import harness
        from splitlab.attacks import attacker_seed
        from splitlab.layers import LayerStack
        from splitlab.models import build_layers
        from splitlab.optim import make_optimizer

        train = synth_dataset(40, (1, 8, 8), seed=2)
        test = synth_dataset(32, (1, 8, 8), seed=3)
        cfg = SessionConfig(arch="tiny8", optimizer=optimizer, lr=0.01, batch_size=16,
                            seed=6)
        heads = []
        monkeypatch.setattr(harness, "build_layers", lambda *args: (
            heads.append(build_layers(*args)), heads[-1])[1])
        clone_f1, _ = split_at(build_net("tiny8", seed=9), 2)
        acc = stitch_and_train_head(clone_f1, cfg, train, test, epochs=2)

        head = build_layers("tiny8", attacker_seed(6, "stitched-head"), 2)
        stitched = LayerStack(list(clone_f1.layers) + head)
        for p in clone_f1.params():
            p.requires_grad = False
        opt = make_optimizer(optimizer, LayerStack(head).params(), 0.01)
        for epoch in range(2):
            fit_epoch(stitched, opt, train.images, train.labels, 16, 6, epoch)
        assert acc == tail_accuracy(stitched, test.images, test.labels)
        assert [p.data.tobytes() for layer in heads[0] for p in layer.params()] == [
            p.data.tobytes() for layer in head for p in layer.params()]

    @pytest.mark.parametrize("split_depth", [2, 1])
    def test_stitched_head_does_not_start_as_the_client(self, monkeypatch, split_depth):
        """The fresh head comes from the attacker's stream, not the session's,
        and starts where the clone ends, whatever the config's split depth."""
        from splitlab import harness
        from splitlab.models import build_layers

        starts = []  # the head's parameters as each step begins
        step = harness.loss_forward_backward
        monkeypatch.setattr(harness, "loss_forward_backward", lambda stack, *args: (
            starts.append([p.data.copy() for layer in stack.layers[2:]
                           for p in layer.params()]), step(stack, *args))[1])
        clone_f1, _ = split_at(build_net("tiny8", seed=4), 2)
        ds = synth_dataset(16, (1, 8, 8), seed=4)
        stitch_and_train_head(clone_f1, SessionConfig(arch="tiny8", split_depth=split_depth,
                                                      seed=4), ds, ds, epochs=1)
        session = [p.data for layer in build_layers("tiny8", 4, 2) for p in layer.params()]
        assert len(starts[0]) == len(session) == 4
        for head_p, session_p in zip(starts[0], session):
            assert not np.array_equal(head_p, session_p)

    def test_epoch_attack_curve_length(self):
        ds = synth_dataset(32, (1, 8, 8), seed=4)
        cfg = SessionConfig(arch="tiny8", split_depth=1, batch_size=8,
                            epochs=2, seed=0).validate()
        inv = InversionConfig(input_steps=5, model_steps=5, max_rounds=2,
                              plateau_rounds=3)
        curve = epoch_attack_curve(cfg, ds, ds.images[:2], inv)
        assert len(curve) == 2
        assert all(np.isfinite(v) and v >= 0 for v in curve)

    @pytest.mark.parametrize("topology", ["label_sharing", "client_labels"])
    def test_epoch_attack_curve_matches_a_loop_of_its_own(self, topology):
        """The curve, taken through ``train_local``'s per-epoch callback,
        has the bits of a plain epoch loop's, and moves as training does."""
        ds = synth_dataset(20, (1, 8, 8), seed=6)
        cfg = SessionConfig(arch="tiny8", split_depth=2, topology=topology,
                            batch_size=8, epochs=3, seed=6).validate()
        inv = InversionConfig(input_steps=3, model_steps=3, max_rounds=1,
                              plateau_rounds=2)
        curve = epoch_attack_curve(cfg, ds, ds.images[:2], inv)
        want = epoch_attack_curve_oracle(cfg, ds, ds.images[:2], inv)
        assert np.array(curve).tobytes() == np.array(want).tobytes()
        assert len(set(curve)) == 3


class TestReportWriter:
    def row(self, trained=0, chash="abc"):
        return SweepRow("synth", 1, trained, mse_before=0.1, seconds=1.0,
                        seed=0, config_hash=chash)

    def test_creates_header(self, tmp_path):
        path = str(tmp_path / "r.csv")
        ReportWriter(path)
        with open(path, newline="") as fh:
            assert next(csv.reader(fh)) == CSV_FIELDS

    def test_append_and_resume(self, tmp_path):
        path = str(tmp_path / "r.csv")
        w = ReportWriter(path)
        assert not w.has("synth", 1, 0, "abc")
        w.append(self.row())
        assert w.has("synth", 1, 0, "abc")
        # a fresh writer over the same file resumes the done set
        w2 = ReportWriter(path)
        assert w2.has("synth", 1, 0, "abc")
        assert not w2.has("synth", 1, 1, "abc")
        assert not w2.has("synth", 1, 0, "other")

    def test_none_fields_written_empty(self, tmp_path):
        path = str(tmp_path / "r.csv")
        w = ReportWriter(path)
        w.append(self.row())
        with open(path, newline="") as fh:
            rec = list(csv.DictReader(fh))[0]
        assert rec["mse_after"] == ""
        assert rec["mse_before"] == "0.1"


    @pytest.mark.parametrize("fields", [len(CSV_FIELDS) - 1, len(CSV_FIELDS) + 2])
    def test_rows_without_every_column_are_not_done(self, tmp_path, fields):
        path = tmp_path / "r.csv"
        w = ReportWriter(str(path))
        w.append(self.row(trained=0))
        w.append(self.row(trained=1))
        lines = path.read_text().splitlines()
        rec = next(csv.reader(lines[1:2]))  # the trained=0 row
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join([lines[0], lines[2]]) + "\r\n")
            csv.writer(fh).writerow((rec + ["x", "y"])[:fields])
        w = ReportWriter(str(path))
        assert w.has("synth", 1, 1, "abc")
        assert not w.has("synth", 1, 0, "abc")

    @pytest.mark.parametrize("header", [CSV_FIELDS[:8], CSV_FIELDS[::-1], []],
                             ids=["first-eight", "reversed", "blank"])
    def test_other_columns_are_refused_unchanged(self, tmp_path, header):
        path = tmp_path / "r.csv"
        old = (",".join(header) + "\r\nsynth,1,0,0.1\r\nsynth,1").encode()
        path.write_bytes(old)
        with pytest.raises(ConfigError, match="r.csv has the columns"):
            ReportWriter(str(path))
        assert path.read_bytes() == old


class TestSweep:
    def small_sweep(self, tmp_path, **session):
        return SweepConfig(
            session=SessionConfig(arch="tiny8", epochs=1, **session),
            depths=[1], train_subset=64, sample_per_class=1, label_samples=5,
            head_epochs=1,
            inversion=InversionConfig(input_steps=5, model_steps=5,
                                      max_rounds=2, plateau_rounds=3),
            out_dir=str(tmp_path / "out"),
        )

    def test_config_hash_tracks_content(self, tmp_path):
        a = self.small_sweep(tmp_path)
        b = self.small_sweep(tmp_path)
        assert a.config_hash() == b.config_hash()
        b.session.epochs = 2
        assert a.config_hash() != b.config_hash()

    def test_end_to_end_and_resume(self, tmp_path):
        sweep = self.small_sweep(tmp_path)
        train = synth_dataset(128, (1, 8, 8), seed=0)
        test = synth_dataset(64, (1, 8, 8), seed=1)
        rows = run_depth_sweep(sweep, train, test)
        assert [(r.trained, r.depth) for r in rows] == [(0, 1), (1, 1)]
        assert rows[0].mse_before is not None and rows[1].mse_after is not None
        assert 0.0 <= rows[1].clone_acc <= 1.0
        assert 0.0 <= rows[1].label_inf_acc <= 1.0
        report = os.path.join(sweep.out_dir, "report.csv")
        with open(report, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 2
        grid = os.path.join(sweep.out_dir, train.name, "1", "after", "grid.pgm")
        assert os.path.exists(grid)
        # identical rerun: everything is already in the report
        again = run_depth_sweep(sweep, train, test)
        assert again == []
        with open(report, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 2

    def test_resume_after_a_cut_anywhere_in_the_last_row(self, tmp_path):
        """A run killed while writing its last row leaves a prefix of it; the
        resume drops it and writes the row again, whole, on its own line."""
        sweep = self.small_sweep(tmp_path)
        train = synth_dataset(128, (1, 8, 8), seed=0)
        test = synth_dataset(64, (1, 8, 8), seed=1)
        run_depth_sweep(sweep, train, test)
        report = Path(sweep.out_dir) / "report.csv"
        whole = report.read_bytes()

        def rows():
            with open(report, newline="") as fh:
                return [{**rec, "seconds": ""} for rec in csv.DictReader(fh)]

        want = rows()
        assert len(want) == 2
        start = whole.rstrip(b"\r\n").rfind(b"\n") + 1  # the last row's first byte
        for cut in range(start, len(whole)):
            report.write_bytes(whole[:cut])
            again = run_depth_sweep(sweep, train, test)
            assert [(r.depth, r.trained) for r in again] == [(1, 1)]
            assert rows() == want
            assert report.read_bytes().endswith(b"\r\n")

    def test_untrained_row_inverts_the_seeded_client(self, tmp_path):
        sweep = self.small_sweep(tmp_path, seed=3)
        sweep.depths = [2]
        train = synth_dataset(128, (1, 8, 8), seed=0)
        test = synth_dataset(64, (1, 8, 8), seed=0, split="test")
        rows = run_depth_sweep(sweep, train, test)
        assert (rows[0].depth, rows[0].trained) == (2, 0)
        assert rows[0].mse_after is rows[0].orig_acc is rows[0].clone_acc is None
        sample = sample_class_balanced(test, sweep.sample_per_class, 3)
        f1, _ = split_at(build_net("tiny8", seed=3), 2)
        res = unsplit_invert(snapshot_tap(f1, sample.images), "tiny8", 2,
                             sweep.inversion, ground_truth=sample.images)
        assert rows[0].mse_before == mse_images(res.x_est, sample.images)

    def test_client_labels_rows_measure_the_trained_model(self, tmp_path):
        sweep = self.small_sweep(tmp_path, topology="client_labels", batch_size=8)
        sweep.train_subset = 128
        train = synth_dataset(128, (1, 8, 8), seed=0)
        test = synth_dataset(64, (1, 8, 8), seed=0, split="test")
        rows = run_depth_sweep(sweep, train, test)
        cfg = SessionConfig(arch="tiny8", split_depth=1, topology="client_labels",
                            seed=0, batch_size=8, epochs=1).validate()
        model, _, _, _ = train_local(cfg, train.images, train.labels)
        assert rows[1].orig_acc == tail_accuracy(model, test.images, test.labels)

    def test_client_labels_rows_train_the_attacked_tail(self, tmp_path):
        """Every trained row carries the columns of a net trained at its own depth."""
        sweep = self.small_sweep(tmp_path, topology="client_labels", batch_size=8,
                                 tail_depth=2)
        sweep.train_subset = 128
        sweep.depths = [1, 2, 3]
        train = synth_dataset(128, (1, 8, 8), seed=0)
        test = synth_dataset(64, (1, 8, 8), seed=0, split="test")
        trained = [row for row in run_depth_sweep(sweep, train, test) if row.trained]
        assert [row.depth for row in trained] == [1, 2, 3]
        for row in trained:
            cfg = SessionConfig(arch="tiny8", split_depth=row.depth, topology="client_labels",
                                seed=0, batch_size=8, epochs=1, tail_depth=2).validate()
            model, _, _, _ = train_local(cfg, train.images, train.labels)
            assert row.orig_acc == tail_accuracy(model, test.images, test.labels)
            assert row.label_inf_acc == label_inference_accuracy(model, train, 2, 5, 0)

    def test_each_state_trains_once(self, tmp_path, monkeypatch):
        """One net per state, cut at every depth: a sweep trains the seeded
        init and the trained net once each and runs label inference once; a
        rerun trains only the states of its missing rows."""
        from splitlab import harness

        calls = {"train_local": 0, "label_inference_accuracy": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(harness, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(harness, name, counted)
        sweep = self.small_sweep(tmp_path)
        sweep.depths = [1, 2, 3]
        train = synth_dataset(128, (1, 8, 8), seed=0)
        test = synth_dataset(64, (1, 8, 8), seed=1)
        rows = run_depth_sweep(sweep, train, test)
        assert [(r.depth, r.trained) for r in rows] == [
            (d, t) for d in (1, 2, 3) for t in (0, 1)]
        assert calls == {"train_local": 2, "label_inference_accuracy": 1}
        assert run_depth_sweep(sweep, train, test) == []
        assert calls == {"train_local": 2, "label_inference_accuracy": 1}

        report = Path(sweep.out_dir) / "report.csv"
        lines = report.read_text().splitlines(keepends=True)
        report.write_text("".join(lines[:-2]))  # drop the depth-3 rows
        again = run_depth_sweep(sweep, train, test)
        assert calls == {"train_local": 4, "label_inference_accuracy": 2}
        assert [replace(r, seconds=0.0) for r in again] == [
            replace(r, seconds=0.0) for r in rows[4:]]
        assert len(report.read_text().splitlines()) == 7

    def test_wider_depth_list_adds_only_its_new_rows(self, tmp_path):
        """The depth list names rows and sets none: widening it keeps every
        written row and adds the new depth's, as a fresh run writes them."""
        train = synth_dataset(128, (1, 8, 8), seed=0)
        test = synth_dataset(64, (1, 8, 8), seed=1)
        sweep = self.small_sweep(tmp_path)
        first = run_depth_sweep(sweep, train, test)
        sweep.depths = [1, 2]
        added = run_depth_sweep(sweep, train, test)
        assert [(r.depth, r.trained) for r in added] == [(2, 0), (2, 1)]
        assert len({r.config_hash for r in first + added}) == 1
        fresh = self.small_sweep(tmp_path / "fresh")
        fresh.depths = [1, 2]
        assert [replace(r, seconds=0.0) for r in first + added] == [
            replace(r, seconds=0.0) for r in run_depth_sweep(fresh, train, test)]

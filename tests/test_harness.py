"""Harness-level metrics, image artifacts, CSV reporting, and a small
end-to-end depth sweep."""

import csv
import os
from pathlib import Path

import numpy as np
import pytest

from splitlab.attacks.inversion import InversionConfig
from splitlab.attacks.labels import tail_accuracy
from splitlab.autograd import Tensor
from splitlab.data import synth_dataset
from splitlab.errors import ShapeError
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

from helpers import parse_pnm


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
        grid = image_grid(rows, gutter=2)
        assert grid.shape == (1, 8 + 2 + 8, 10 * 8 + 9 * 2)

    def test_grid_content_and_gutter(self):
        a = np.full((2, 1, 2, 2), 0.25, np.float32)
        grid = image_grid([a], gutter=1, gutter_value=1.0)
        assert grid.shape == (1, 2, 5)
        np.testing.assert_array_equal(grid[0, :, 2], [1.0, 1.0])
        np.testing.assert_array_equal(grid[0, :, :2], np.full((2, 2), 0.25))
        np.testing.assert_array_equal(grid[0, :, 3:], np.full((2, 2), 0.25))


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
        acc = stitch_and_train_head(clone_f1, "tiny8", 1, train, test, epochs=1)
        assert 0.0 <= acc <= 1.0
        # the stolen part itself must stay frozen
        for p, b in zip(clone_f1.params(), before):
            np.testing.assert_array_equal(p.data, b)
            assert p.requires_grad

    def test_epoch_attack_curve_length(self):
        ds = synth_dataset(32, (1, 8, 8), seed=4)
        cfg = SessionConfig(arch="tiny8", split_depth=1, batch_size=8,
                            epochs=2, seed=0).validate()
        inv = InversionConfig(input_steps=5, model_steps=5, max_rounds=2,
                              plateau_rounds=3)
        curve = epoch_attack_curve(cfg, ds, ds.images[:2], inv)
        assert len(curve) == 2
        assert all(np.isfinite(v) and v >= 0 for v in curve)


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
        sweep = self.small_sweep(tmp_path, topology="client_labels", batch_size=8,
                                 tail_depth=2)
        sweep.train_subset = 128
        train = synth_dataset(128, (1, 8, 8), seed=0)
        test = synth_dataset(64, (1, 8, 8), seed=0, split="test")
        rows = run_depth_sweep(sweep, train, test)
        cfg = SessionConfig(arch="tiny8", split_depth=1, topology="client_labels",
                            seed=0, batch_size=8, epochs=1, tail_depth=2).validate()
        model, _, _, _ = train_local(cfg, train.images, train.labels)
        assert rows[1].orig_acc == tail_accuracy(model, test.images, test.labels)
        assert rows[1].label_inf_acc == label_inference_accuracy(model, train, 2, 5, 0)

"""Experiment orchestration: metrics, artifact emission, depth sweeps.

A sweep walks (depth, trained-state) cells for one dataset: attack the
untrained client, train the split model in memory, attack again,
retrain a head on the stolen clone, and run label inference. Results go
to an append-only CSV (one flush per row) plus PGM/PPM reconstruction
grids, keyed by the seed and a hash of the effective configuration.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .attacks.inversion import InversionConfig, unsplit_invert
from .attacks.labels import (infer_label, make_tail_clone, tail_accuracy,
                             tail_param_gradients)
from .autograd import Tensor
from .data import Dataset, epoch_batches, sample_class_balanced
from .errors import ConfigError, ShapeError
from .layers import LayerStack
from .models import SplitModel, build_net, split_at, tail_start_index
from .optim import fit_epoch, make_optimizer
from .protocol import SessionConfig, TapEntry, build_parts, train_local, train_step

CSV_FIELDS = [
    "dataset", "depth", "trained", "mse_before", "mse_after", "clone_acc",
    "orig_acc", "label_inf_acc", "seconds", "seed", "config_hash",
]


def mse_images(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ShapeError(f"mse_images: shape mismatch {a.shape} vs {b.shape}")
    return float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))


# ---------------------------------------------------------------------------
# image artifacts (binary PGM/PPM)

def _to_bytes(x: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(x * 255.0 + 0.5), 0, 255).astype(np.uint8)


def dump_image(x: np.ndarray, path: str) -> None:
    """Write one [0,1] image as binary PGM (1 channel) or PPM (3 channels)."""
    if x.ndim == 2:
        x = x[None]
    if x.ndim != 3 or x.shape[0] not in (1, 3):
        raise ShapeError(f"dump_image: expected (H,W), (1,H,W) or (3,H,W), got {x.shape}")
    c, h, w = x.shape
    pixels = _to_bytes(x)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as fh:
        if c == 1:
            fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
            fh.write(pixels[0].tobytes())
        else:
            fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
            fh.write(pixels.transpose(1, 2, 0).tobytes())


def image_grid(rows: list[np.ndarray], gutter: int = 2,
               gutter_value: float = 1.0) -> np.ndarray:
    """Assemble row batches (each (B,C,H,W)) into one grid image (C,H',W')."""
    assembled = []
    for batch in rows:
        b, c, h, w = batch.shape
        row = np.full((c, h, b * w + (b - 1) * gutter), gutter_value, dtype=np.float32)
        for i in range(b):
            row[:, :, i * (w + gutter) : i * (w + gutter) + w] = batch[i]
        assembled.append(row)
    c = assembled[0].shape[0]
    width = max(r.shape[2] for r in assembled)
    total_h = sum(r.shape[1] for r in assembled) + gutter * (len(assembled) - 1)
    grid = np.full((c, total_h, width), gutter_value, dtype=np.float32)
    y = 0
    for row in assembled:
        grid[:, y : y + row.shape[1], : row.shape[2]] = row
        y += row.shape[1] + gutter
    return grid


# ---------------------------------------------------------------------------
# attack plumbing shared by sweep and CLI

def snapshot_tap(client_part: LayerStack, images: np.ndarray) -> list[TapEntry]:
    """Batch-1 cut activations for a fixed sample set, as tap entries."""
    entries = []
    for i in range(images.shape[0]):
        smashed = client_part.forward(Tensor(images[i : i + 1])).data
        entries.append(TapEntry(i + 1, smashed, None, []))
    return entries


def stitch_and_train_head(
    clone_f1: LayerStack, arch: str, depth: int, train_ds: Dataset,
    test_ds: Dataset, epochs: int = 3, lr: float = 0.001,
    optimizer: str = "adam", batch_size: int = 64, seed: int = 0,
) -> float:
    """Evaluate a stolen client part: freeze it, train a fresh head on top,
    return test accuracy of the stitched model."""
    head_donor = build_net(arch, seed=seed + 1)
    stitched = LayerStack(list(clone_f1.layers) + head_donor.layers[depth:])
    for p in clone_f1.params():
        p.requires_grad = False
    head_params = [p for layer in head_donor.layers[depth:] for p in layer.params()]
    opt = make_optimizer(optimizer, head_params, lr)
    try:
        for epoch in range(epochs):
            fit_epoch(stitched, opt, train_ds.images, train_ds.labels,
                      batch_size, seed, epoch)
    finally:
        for p in clone_f1.params():
            p.requires_grad = True
    return tail_accuracy(stitched, test_ds.images, test_ds.labels)


def label_inference_accuracy(
    model: SplitModel, ds: Dataset, tail_depth: int, n_samples: int,
    seed: int = 0,
) -> float:
    """Accuracy of the gradient-matching attack over stochastic steps.

    The true tail produces the gradients the client would send; each
    inference probes the candidates with its own freshly initialized
    clone, matching the attack's per-step random restart.
    """
    if n_samples < 1:
        raise ConfigError(f"label inference needs at least one sample, got {n_samples}")
    k = tail_start_index(model, tail_depth)
    prefix = LayerStack(model.layers[:k])
    true_tail = LayerStack(model.layers[k:])
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(ds), size=n_samples)
    hits = 0
    for step, i in enumerate(picks):
        clone = make_tail_clone(model.arch, tail_depth, seed + 7919 + step)
        smashed = prefix.forward(Tensor(ds.images[int(i) : int(i) + 1])).data
        sent = tail_param_gradients(true_tail, smashed, int(ds.labels[int(i)]))
        result = infer_label(sent, smashed, clone, model.num_classes)
        hits += int(result.label == int(ds.labels[int(i)]))
    return hits / n_samples


def epoch_attack_curve(
    cfg: SessionConfig, train_ds: Dataset, sample_images: np.ndarray,
    inv_cfg: InversionConfig,
) -> list[float]:
    """Mean reconstruction MSE against a fixed sample set after each
    training epoch of the client."""
    model, client, server = build_parts(cfg)
    curve = []
    for epoch in range(cfg.epochs):
        for idx in epoch_batches(len(train_ds), cfg.batch_size, cfg.seed, epoch):
            train_step(cfg.topology, client, server,
                       (train_ds.images[idx], train_ds.labels[idx]))
        entries = snapshot_tap(client.head, sample_images)
        res = unsplit_invert(entries, cfg.arch, cfg.split_depth, inv_cfg,
                             ground_truth=sample_images)
        curve.append(mse_images(res.x_est, sample_images))
    return curve


# ---------------------------------------------------------------------------
# depth sweep

@dataclass
class SweepConfig:
    session: SessionConfig = field(default_factory=SessionConfig)  # split at each depth
    depths: list[int] = field(default_factory=lambda: [1, 2, 3])
    train_subset: int = 1000
    sample_per_class: int = 1
    label_samples: int = 50
    head_epochs: int = 2
    inversion: InversionConfig = field(default_factory=InversionConfig)
    out_dir: str = "out"

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha1(blob.encode()).hexdigest()[:12]


@dataclass
class SweepRow:
    dataset: str
    depth: int
    trained: int
    mse_before: float | None = None
    mse_after: float | None = None
    clone_acc: float | None = None
    orig_acc: float | None = None
    label_inf_acc: float | None = None
    seconds: float = 0.0
    seed: int = 0
    config_hash: str = ""


class ReportWriter:
    """Append-only CSV writer with config-hash based resume."""

    def __init__(self, path: str):
        self.path = path
        self.done: set[tuple[str, int, int, str]] = set()
        exists = os.path.exists(path)
        if exists:
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    self.done.add((row["dataset"], int(row["depth"]),
                                   int(row["trained"]), row["config_hash"]))
        else:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerow(CSV_FIELDS)

    def has(self, dataset: str, depth: int, trained: int, config_hash: str) -> bool:
        return (dataset, depth, trained, config_hash) in self.done

    def append(self, row: SweepRow) -> None:
        rec = asdict(row)
        with open(self.path, "a", newline="") as fh:
            csv.writer(fh).writerow(
                ["" if rec[k] is None else rec[k] for k in CSV_FIELDS]
            )
        self.done.add((row.dataset, row.depth, row.trained, row.config_hash))


def run_depth_sweep(sweep: SweepConfig, train_ds: Dataset,
                    test_ds: Dataset) -> list[SweepRow]:
    """Run the full before/after attack grid over the configured depths.
    Each depth trains ``sweep.session`` split at that depth."""
    session = sweep.session
    if session.topology == "server_data":
        raise ConfigError("the depth sweep inverts the client's first layers; "
                          "in server_data the server holds them")
    chash = sweep.config_hash()
    writer = ReportWriter(os.path.join(sweep.out_dir, "report.csv"))
    sample = sample_class_balanced(test_ds, sweep.sample_per_class, session.seed)
    subset = train_ds.subset(
        np.arange(min(sweep.train_subset, len(train_ds)))
    )
    rows: list[SweepRow] = []

    for depth in sweep.depths:
        img_dir = os.path.join(sweep.out_dir, train_ds.name, str(depth))
        # --- untrained client ---------------------------------------------
        if not writer.has(train_ds.name, depth, 0, chash):
            t0 = time.monotonic()
            model0 = build_net(session.arch, seed=session.seed, split_depth=depth)
            f1_0, _ = split_at(model0, depth)
            entries = snapshot_tap(f1_0, sample.images)
            res = unsplit_invert(entries, session.arch, depth, sweep.inversion,
                                 ground_truth=sample.images)
            _dump_pair(sample.images, res.x_est, os.path.join(img_dir, "before"))
            row = SweepRow(train_ds.name, depth, 0,
                           mse_before=mse_images(res.x_est, sample.images),
                           seconds=time.monotonic() - t0, seed=session.seed,
                           config_hash=chash)
            writer.append(row)
            rows.append(row)

        # --- trained client ------------------------------------------------
        if writer.has(train_ds.name, depth, 1, chash):
            continue
        t0 = time.monotonic()
        # The model holds every trained layer, whichever role trained it.
        model, _, client, _ = train_local(replace(session, split_depth=depth),
                                          subset.images, subset.labels)
        orig_acc = tail_accuracy(model, test_ds.images, test_ds.labels)
        entries = snapshot_tap(client.head, sample.images)
        res = unsplit_invert(entries, session.arch, depth, sweep.inversion,
                             ground_truth=sample.images)
        _dump_pair(sample.images, res.x_est, os.path.join(img_dir, "after"))
        clone_acc = stitch_and_train_head(
            res.clone, session.arch, depth, subset, test_ds, epochs=sweep.head_epochs,
            lr=session.lr, optimizer=session.optimizer, batch_size=session.batch_size,
            seed=session.seed,
        )
        label_acc = label_inference_accuracy(model, subset, session.tail_depth,
                                             sweep.label_samples, session.seed)
        row = SweepRow(train_ds.name, depth, 1,
                       mse_after=mse_images(res.x_est, sample.images),
                       clone_acc=clone_acc, orig_acc=orig_acc,
                       label_inf_acc=label_acc,
                       seconds=time.monotonic() - t0, seed=session.seed,
                       config_hash=chash)
        writer.append(row)
        rows.append(row)
    return rows


def _dump_pair(originals: np.ndarray, estimates: np.ndarray, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    grid = image_grid([originals, estimates])
    ext = "pgm" if grid.shape[0] == 1 else "ppm"
    dump_image(grid, os.path.join(out_dir, f"grid.{ext}"))
    for i in range(estimates.shape[0]):
        dump_image(estimates[i], os.path.join(out_dir, f"est_{i:02d}.{ext}"))

"""Experiment orchestration: metrics, artifact emission, depth sweeps.

A sweep walks (depth, trained-state) cells for one dataset. It trains
one net per state in memory (zero epochs when untrained), cuts it at each
depth and inverts the client part; a trained cell also retrains a head on
the stolen clone and carries the net's accuracy and label inference.
Results go to an append-only CSV (one flush per row) plus PGM/PPM
reconstruction grids, keyed by the seed and a hash of the effective config.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field, fields, asdict, replace

import numpy as np

from .attacks import attacker_seed
from .attacks.inversion import InversionConfig, InversionResult, unsplit_invert
from .attacks.labels import infer_from_tap_entry, make_tail_clone, tail_accuracy
from .autograd import Tensor
from .data import Dataset, epoch_batches, sample_class_balanced, write_atomic
from .errors import ConfigError, ShapeError
from .layers import LayerStack
from .models import SplitModel, build_layers, merge, split_at
from .optim import make_optimizer
from .protocol import (ServerTap, SessionConfig, TapEntry, build_parts, cut,
                       loss_forward_backward, train_local, train_step)

def mse_images(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ShapeError(f"mse_images: shape mismatch {a.shape} vs {b.shape}")
    return float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))


# ---------------------------------------------------------------------------
# image artifacts (binary PGM/PPM)

def dump_image(x: np.ndarray, path: str) -> None:
    """Write one [0,1] image as binary PGM (1 channel) or PPM (3 channels)."""
    if x.ndim == 2:
        x = x[None]
    if x.ndim != 3 or x.shape[0] not in (1, 3):
        raise ShapeError(f"dump_image: expected (H,W), (1,H,W) or (3,H,W), got {x.shape}")
    c, h, w = x.shape
    pixels = np.clip(np.floor(x * 255.0 + 0.5), 0, 255).astype(np.uint8)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    kind, raster = ("P5", pixels[0]) if c == 1 else ("P6", pixels.transpose(1, 2, 0))
    write_atomic(path, f"{kind}\n{w} {h}\n255\n".encode("ascii") + raster.tobytes())


GUTTER = 2  # pixels between the images of a grid
GUTTER_VALUE = 1.0  # white


def image_grid(rows: list[np.ndarray]) -> np.ndarray:
    """Assemble row batches (each (B,C,H,W)) into one grid image (C,H',W')."""
    assembled = []
    for batch in rows:
        b, c, h, w = batch.shape
        row = np.full((c, h, b * w + (b - 1) * GUTTER), GUTTER_VALUE, dtype=np.float32)
        for i in range(b):
            row[:, :, i * (w + GUTTER) : i * (w + GUTTER) + w] = batch[i]
        assembled.append(row)
    c = assembled[0].shape[0]
    width = max(r.shape[2] for r in assembled)
    total_h = sum(r.shape[1] for r in assembled) + GUTTER * (len(assembled) - 1)
    grid = np.full((c, total_h, width), GUTTER_VALUE, dtype=np.float32)
    y = 0
    for row in assembled:
        grid[:, y : y + row.shape[1], : row.shape[2]] = row
        y += row.shape[1] + GUTTER
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


def invert_cut(model: SplitModel, depth: int, images: np.ndarray, inv: InversionConfig,
               out_dir: str) -> tuple[InversionResult, float]:
    """Invert ``model``'s client part [0, depth) from its batch-1 cut
    activations of ``images``; write the grid and per-image estimates under
    ``out_dir`` and return the result and its MSE against ``images``."""
    f1, _ = split_at(model, depth)
    res = unsplit_invert(snapshot_tap(f1, images), model.arch, depth, inv,
                         ground_truth=images)
    grid = image_grid([images, res.x_est])
    ext = "pgm" if grid.shape[0] == 1 else "ppm"
    dump_image(grid, os.path.join(out_dir, f"grid.{ext}"))
    for i in range(res.x_est.shape[0]):
        dump_image(res.x_est[i], os.path.join(out_dir, f"est_{i:02d}.{ext}"))
    return res, mse_images(res.x_est, images)


def stitch_and_train_head(clone_f1: LayerStack, cfg: SessionConfig, train_ds: Dataset,
                          test_ds: Dataset, epochs: int) -> float:
    """Evaluate a client part stolen from the session ``cfg``: freeze it,
    train a fresh head of the session's architecture on top with the
    session's optimizer, lr, batch size and seed, and return the test
    accuracy of the stitched model. The head starts where the clone ends;
    its initial weights come from the attacker's stream, not the session's."""
    head_layers = build_layers(cfg.arch, attacker_seed(cfg.seed, "stitched-head"),
                               len(clone_f1))
    stitched = LayerStack(list(clone_f1.layers) + head_layers)
    for p in clone_f1.params():
        p.requires_grad = False
    opt = make_optimizer(cfg.optimizer, LayerStack(head_layers).params(), cfg.lr)
    try:
        for epoch in range(epochs):
            for idx in epoch_batches(len(train_ds), cfg.batch_size, cfg.seed, epoch):
                opt.zero_grad()
                loss_forward_backward(stitched, Tensor(train_ds.images[idx]),
                                      train_ds.labels[idx])
                opt.step()
    finally:
        for p in clone_f1.params():
            p.requires_grad = True
    return tail_accuracy(stitched, test_ds.images, test_ds.labels)


def label_inference_accuracy(
    model: SplitModel, ds: Dataset, tail_depth: int, n_samples: int,
    seed: int = 0,
) -> float:
    """Accuracy of the gradient-matching attack over stochastic steps.

    Each pick is one batch-1 ``server_data`` step (``train_step``) from a
    copy of ``model``'s weights, which must cover its net; its server tap
    entry is scored on a fresh clone, the attack's per-step random restart.
    """
    if n_samples < 1:
        raise ConfigError(f"label inference needs at least one sample, got {n_samples}")
    # Each step's update is overwritten before the next: SGD is the cheapest.
    client, server = build_parts(SessionConfig(model.arch, topology="server_data", optimizer="sgd",
                                               batch_size=1, tail_depth=tail_depth))
    pairs = list(zip(merge(client.model, server.part).params(), merge(model).params()))
    tap = ServerTap()
    picks = np.random.default_rng(seed).integers(0, len(ds), size=n_samples)
    hits = 0
    for step, i in enumerate(picks):
        for p, q in pairs:
            np.copyto(p.data, q.data)
        train_step("server_data", client, server, (ds.images[[i]], ds.labels[[i]]), tap)
        clone = make_tail_clone(model.arch, tail_depth, attacker_seed(seed, "label-clone", step))
        hits += int(infer_from_tap_entry(tap.entries.pop(), clone).label == ds.labels[i])
    return hits / n_samples


def epoch_attack_curve(
    cfg: SessionConfig, train_ds: Dataset, sample_images: np.ndarray,
    inv_cfg: InversionConfig,
) -> list[float]:
    """Mean reconstruction MSE against a fixed sample set after each
    training epoch of the client."""
    curve = []

    def attack(client, _server):
        res = unsplit_invert(snapshot_tap(client.head, sample_images), cfg.arch,
                             cfg.split_depth, inv_cfg, ground_truth=sample_images)
        curve.append(mse_images(res.x_est, sample_images))

    train_local(cfg, train_ds.images, train_ds.labels, on_epoch=attack)
    return curve


# ---------------------------------------------------------------------------
# depth sweep

@dataclass
class SweepConfig:
    # Trained once per state, cut at each depth: its split_depth sets no row.
    session: SessionConfig = field(default_factory=SessionConfig)
    depths: list[int] = field(default_factory=lambda: [1, 2, 3])
    train_subset: int = 10000
    sample_per_class: int = 1
    label_samples: int = 200
    head_epochs: int = 2
    inversion: InversionConfig = field(default_factory=InversionConfig)
    out_dir: str = "out"

    def config_hash(self) -> str:
        """Hash of the settings a row's numbers depend on: not ``depths``,
        the split depth or ``out_dir``, which only name rows and where they go."""
        rec = asdict(self)
        del rec["depths"], rec["session"]["split_depth"], rec["out_dir"]
        blob = json.dumps(rec, sort_keys=True, default=str)
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


CSV_FIELDS = [f.name for f in fields(SweepRow)]


class ReportWriter:
    """Append-only CSV writer with config-hash based resume. Opening drops a
    killed run's partial last line; only rows with every column are done.
    A file with other columns is refused before anything is written."""

    def __init__(self, path: str):
        self.path = path
        self.done: set[tuple[str, int, int, str]] = set()
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "a+b") as fh:
            fh.seek(0)
            text = fh.read()
            text = text[: text.rfind(b"\n") + 1]
            rows = csv.DictReader(io.StringIO(text.decode(errors="replace")))
            if text and rows.fieldnames != CSV_FIELDS:
                raise ConfigError(f"{path} has the columns {rows.fieldnames}, not "
                                  f"{CSV_FIELDS}; move it aside or use another out dir")
            fh.truncate(len(text))
        if not text:
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerow(CSV_FIELDS)
        for row in rows:
            if None not in row and None not in row.values():
                self.done.add((row["dataset"], int(row["depth"]),
                               int(row["trained"]), row["config_hash"]))

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
    """Run the full before/after attack grid over the configured depths. Each
    state (seeded init, trained) trains one net, only if a row of it is missing,
    and cuts it at each depth; trained rows share one ``orig_acc`` and ``label_inf_acc``."""
    session = sweep.session
    if session.topology == "server_data":
        raise ConfigError("the depth sweep inverts the client's first layers; "
                          "in server_data the server holds them")
    if not sweep.depths:
        raise ConfigError("the depth sweep needs at least one depth")
    for depth in sweep.depths:
        cut(replace(session, split_depth=depth))
    if sweep.label_samples < 1:
        raise ConfigError(f"label_samples must be >= 1, got {sweep.label_samples}")
    if sweep.sample_per_class < 1:
        raise ConfigError(f"sample_per_class must be >= 1, got {sweep.sample_per_class}")
    n_train = min(sweep.train_subset, len(train_ds))
    if n_train < 1:
        raise ConfigError(f"empty training subset: train_subset={sweep.train_subset} "
                          f"of {len(train_ds)} examples")
    chash = sweep.config_hash()
    sample = sample_class_balanced(test_ds, sweep.sample_per_class, session.seed)
    writer = ReportWriter(os.path.join(sweep.out_dir, "report.csv"))
    subset = train_ds.subset(np.arange(n_train))
    nets: dict[int, tuple[SplitModel, dict]] = {}  # state -> net, its columns
    rows: list[SweepRow] = []

    for depth in sweep.depths:
        for trained in (0, 1):
            if writer.has(train_ds.name, depth, trained, chash):
                continue
            t0 = time.monotonic()
            if trained not in nets:
                # Zero epochs leave the seeded init; the model holds both roles' layers.
                cfg = replace(session, split_depth=depth, epochs=session.epochs * trained)
                model = train_local(cfg, subset.images, subset.labels)[0]
                nets[trained] = model, dict(
                    orig_acc=tail_accuracy(model, test_ds.images, test_ds.labels),
                    label_inf_acc=label_inference_accuracy(
                        model, subset, session.tail_depth, sweep.label_samples,
                        session.seed),
                ) if trained else {}
            model, columns = nets[trained]
            res, mse = invert_cut(model, depth, sample.images, sweep.inversion, os.path.join(
                sweep.out_dir, train_ds.name, str(depth), ("before", "after")[trained]))
            metrics = dict(
                mse_after=mse, **columns,
                clone_acc=stitch_and_train_head(res.clone, session, subset, test_ds,
                                                sweep.head_epochs),
            ) if trained else dict(mse_before=mse)
            row = SweepRow(train_ds.name, depth, trained, **metrics,
                           seconds=time.monotonic() - t0, seed=session.seed,
                           config_hash=chash)
            writer.append(row)
            rows.append(row)
    return rows

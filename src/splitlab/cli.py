"""Command-line front end: train, attack-invert, attack-labels, report.

Configuration comes from an optional key=value file plus flag overrides
(flags win). Every run is deterministic given the effective config and
seed, on one host: the bits also depend on the BLAS thread count (an
fc forward at batch 64 already differs between one and two OpenBLAS
threads), which nothing pins yet. The effective config is echoed at
startup and hashed into report rows.

Exit codes: 0 success, 2 config error, 3 protocol error, 4 numeric
failure, 5 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .attacks.inversion import InversionConfig, default_tv_lambda
from .data import (Dataset, load_cifar_bin, load_idx, sample_class_balanced, synth_dataset,
                   write_atomic)
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    NumericError,
    ProtocolError,
    SplitLabError,
)
from .harness import SweepConfig, invert_cut, label_inference_accuracy, run_depth_sweep
from .models import ARCHS, SplitModel, build_net, load_checkpoint, merge, save_checkpoint
from .optim import OPTIMIZERS
from .protocol import (TOPOLOGIES, SessionConfig, _apply_malloc_policy, held_examples,
                       run_client, run_server, run_session)
from .transport import inproc_pair, tcp_connect, tcp_listen

# Each dataset's images fit exactly one arch, so the arch is not a knob.
DATASET_ARCH = {"synth": "tiny8", "mnist": "mnist", "fmnist": "mnist", "cifar": "cifar"}

# Every run knob: its config-file key, its --flag (underscores become
# dashes) and its type, which is the type of its default. A knob that
# sets a library field takes that field's default.
DEFAULTS = {
    "dataset": "synth",
    "data_dir": "data",
    "split_depth": SessionConfig.split_depth,
    "topology": SessionConfig.topology,
    "transport": "inproc",
    "role": "both",
    "seed": SessionConfig.seed,
    "epochs": SessionConfig.epochs,
    "batch_size": SessionConfig.batch_size,
    "lr": SessionConfig.lr,
    "optimizer": SessionConfig.optimizer,
    "tail_depth": SessionConfig.tail_depth,
    "lambda": -1.0,  # <0 -> per-depth default
    "input_steps": InversionConfig.input_steps,
    "model_steps": InversionConfig.model_steps,
    "rounds": InversionConfig.max_rounds,
    "samples": SweepConfig.label_samples,
    "train_subset": SweepConfig.train_subset,
    "sample_per_class": SweepConfig.sample_per_class,
    "depths": "1,2,3",
    "out_dir": SweepConfig.out_dir,
    "checkpoint": "",
}

CHOICES = {
    "dataset": sorted(DATASET_ARCH),
    "topology": list(TOPOLOGIES),
    "role": ["client", "server", "both"],
    "optimizer": list(OPTIMIZERS),
}


def _typed(key: str, value):
    """``value`` as the type of ``key``'s default, checked for range and choice.
    Every int knob is a count, depth or seed, from 0 to a checkpoint's u64."""
    kind = type(DEFAULTS[key])
    try:
        typed = kind(value)
    except ValueError:
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}") from None
    if (kind is int and not 0 <= typed < 2**64) or (kind is float and not math.isfinite(typed)):
        raise ConfigError(f"{key} out of range: {value!r}")
    if key in CHOICES and typed not in CHOICES[key]:
        raise ConfigError(f"{key} must be one of {CHOICES[key]}, got {value!r}")
    return typed


def read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    out = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def effective_config(args: argparse.Namespace) -> dict:
    """Flag, else config file, else default; SPLITLAB_DATA_DIR sets data_dir's default."""
    cfg = dict(DEFAULTS, data_dir=os.environ.get("SPLITLAB_DATA_DIR") or DEFAULTS["data_dir"])
    if args.config:
        cfg.update(read_config_file(args.config))
    cfg.update((key, flag) for key, flag in vars(args).items()
               if key in DEFAULTS and flag is not None)
    cfg = {key: _typed(key, value) for key, value in cfg.items()}
    cfg["arch"] = DATASET_ARCH[cfg["dataset"]]
    return cfg


def load_dataset(cfg: dict, split: str) -> Dataset:
    """``split`` of the configured dataset, checked against the configured
    arch's input shape before anything runs on it."""
    ds = _read_dataset(cfg, split)
    shape = ARCHS[cfg["arch"]].input_shape
    if ds.images.shape[1:] != shape:
        raise ConfigError(
            f"dataset {cfg['dataset']} has images of shape {ds.images.shape[1:]}, "
            f"but arch {cfg['arch']} takes {shape}"
        )
    return ds


def _read_dataset(cfg: dict, split: str) -> Dataset:
    name, root = cfg["dataset"], cfg["data_dir"]
    if name == "synth":
        n = 512 if split == "train" else 256
        return synth_dataset(n, (1, 8, 8), seed=cfg["seed"], name="synth", split=split)
    if name in ("mnist", "fmnist"):
        sub = os.path.join(root, "mnist" if name == "mnist" else "fashion")
        prefix = "train" if split == "train" else "t10k"
        return load_idx(
            os.path.join(sub, f"{prefix}-images-idx3-ubyte"),
            os.path.join(sub, f"{prefix}-labels-idx1-ubyte"),
            name=name, split=split,
        )
    sub = os.path.join(root, "cifar")
    if split == "train":
        paths = [os.path.join(sub, f"data_batch_{i}") for i in range(1, 6)]
    else:
        paths = [os.path.join(sub, "test_batch")]
    return load_cifar_bin(paths, name=name, split=split)


def session_config(cfg: dict) -> SessionConfig:
    return SessionConfig(**{f.name: cfg[f.name] for f in fields(SessionConfig)}).validate()


def inversion_config(cfg: dict) -> InversionConfig:
    """The attack's settings; a negative ``lambda`` leaves the per-depth default."""
    return InversionConfig(
        tv_lambda=cfg["lambda"] if cfg["lambda"] >= 0 else None,
        input_steps=cfg["input_steps"], model_steps=cfg["model_steps"],
        max_rounds=cfg["rounds"], seed=cfg["seed"],
    ).validate()


def _parse_tcp(spec: str) -> tuple[str, int]:
    parts = spec.split(":")
    if len(parts) != 3 or parts[0] != "tcp":
        raise ConfigError(f"transport must be 'inproc' or 'tcp:host:port', got {spec!r}")
    try:
        if 1 <= int(parts[2]) <= 65535:
            return parts[1], int(parts[2])
    except ValueError:
        pass
    raise ConfigError(f"port in transport {spec!r} must be an integer in 1-65535")


def _write_csv(path: str, rows) -> None:
    """``rows`` as a CSV file, written whole (``write_atomic``)."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    write_atomic(path, text.getvalue().encode("utf-8"))


def _write_curve(path: str, losses: list[float]) -> None:
    _write_csv(path, [["step", "loss"], *([i, loss] for i, loss in enumerate(losses, 1))])


def cmd_train(cfg: dict) -> int:
    scfg = session_config(cfg)
    inproc = cfg["transport"] == "inproc"
    host, port = (None, 0) if inproc else _parse_tcp(cfg["transport"])
    if inproc != (cfg["role"] == "both"):
        raise ConfigError("inproc transport requires role=both, tcp role=client or server")
    train = load_dataset(cfg, "train")
    subset = train.subset(np.arange(min(cfg["train_subset"], len(train))))
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)

    if inproc:
        ct, st = inproc_pair()
        with ct, st:
            client_res, server_res = run_session(
                scfg, subset.images, subset.labels, (ct, st))
        save_checkpoint(client_res.model, os.path.join(out, "client.ckpt"))
        save_checkpoint(server_res.model, os.path.join(out, "server.ckpt"))
        save_checkpoint(merge(client_res.model, server_res.model),
                        os.path.join(out, "model.ckpt"))
        _write_curve(os.path.join(out, "train_curve.csv"), client_res.losses)
        print(f"trained {len(client_res.losses)} steps; "
              f"final loss {client_res.losses[-1]:.4f}" if client_res.losses
              else "trained 0 steps")
        return 0

    client_images, server_images = held_examples(scfg.topology, subset.images)
    if cfg["role"] == "server":
        with tcp_listen(host, port) as transport:
            res = run_server(transport, scfg, images=server_images)
    else:
        with tcp_connect(host, port) as transport:
            res = run_client(transport, scfg, client_images, subset.labels)
    save_checkpoint(res.model, os.path.join(out, f"{cfg['role']}.ckpt"))
    _write_curve(os.path.join(out, "train_curve.csv"), res.losses)
    print(f"trained {res.model.step_count} steps over {cfg['transport']}")
    return 0


def _attack_checkpoint(cfg: dict) -> SplitModel:
    """The ``--checkpoint`` model, if it is of the arch ``--dataset`` selects."""
    model = load_checkpoint(cfg["checkpoint"])
    if model.arch != cfg["arch"]:
        raise ConfigError(
            f"checkpoint {cfg['checkpoint']} holds a {model.arch!r} net, but "
            f"dataset {cfg['dataset']!r} needs {cfg['arch']!r}"
        )
    return model


def cmd_attack_invert(cfg: dict) -> int:
    if not cfg["checkpoint"]:
        raise ConfigError("attack-invert requires --checkpoint from a training run")
    model = _attack_checkpoint(cfg)
    depth = cfg["split_depth"]
    test = load_dataset(cfg, "test")
    sample = sample_class_balanced(test, cfg["sample_per_class"], cfg["seed"])
    inv = inversion_config(cfg)
    out = cfg["out_dir"]
    res, mse = invert_cut(model, depth, sample.images, inv, os.path.join(out, "inversion"))
    _write_csv(os.path.join(out, "inversion", "metrics.csv"), [
        ["round", "objective", "tv", "mse_truth"],
        *([m.round, m.objective, m.tv, "" if m.mse_truth is None else m.mse_truth]
          for m in res.history)])
    save_checkpoint(SplitModel(res.clone.layers, model.arch, cfg["seed"], depth),
                    os.path.join(out, "inversion", "clone.ckpt"))
    lam = default_tv_lambda(depth) if inv.tv_lambda is None else inv.tv_lambda
    print(f"inversion: depth={depth} lambda={lam} rounds={len(res.history)} "
          f"mse={mse:.4f}")
    return 0


def cmd_attack_labels(cfg: dict) -> int:
    if cfg["topology"] not in ("server_data", "client_labels"):
        raise ConfigError(
            "label inference needs a topology where the client owns the loss "
            "(server_data or client_labels)"
        )
    if cfg["batch_size"] != 1:
        raise ConfigError(
            "label inference requires batch_size=1: the attack matches the "
            "gradients of a single stochastic step, batch gradients average "
            "label information away"
        )
    model = (_attack_checkpoint(cfg) if cfg["checkpoint"]
             else build_net(cfg["arch"], seed=cfg["seed"]))
    ds = load_dataset(cfg, "train")
    acc = label_inference_accuracy(model, ds, cfg["tail_depth"], cfg["samples"],
                                   cfg["seed"])
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    write_atomic(os.path.join(out, "label_inference.json"), json.dumps(
        {"dataset": cfg["dataset"], "arch": model.arch,
         "tail_depth": cfg["tail_depth"], "samples": cfg["samples"],
         "accuracy": acc, "seed": cfg["seed"]}, indent=2).encode("utf-8"))
    print(f"label inference: tail_depth={cfg['tail_depth']} "
          f"samples={cfg['samples']} accuracy={acc:.1%}")
    return 0


def cmd_report(cfg: dict) -> int:
    try:
        depths = [int(d) for d in cfg["depths"].split(",") if d]
    except ValueError:
        raise ConfigError(f"depths must be comma-separated integers, "
                          f"got {cfg['depths']!r}") from None
    sweep = SweepConfig(
        session=session_config(cfg), depths=depths,
        train_subset=cfg["train_subset"], sample_per_class=cfg["sample_per_class"],
        label_samples=cfg["samples"], inversion=inversion_config(cfg),
        out_dir=cfg["out_dir"],
    )
    train = load_dataset(cfg, "train")
    test = load_dataset(cfg, "test")
    rows = run_depth_sweep(sweep, train, test)
    print(f"report: wrote {len(rows)} new rows to "
          f"{os.path.join(cfg['out_dir'], 'report.csv')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="splitlab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file")
        for key, default in DEFAULTS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                           choices=CHOICES.get(key))
    return parser


COMMANDS = {
    "train": cmd_train,
    "attack-invert": cmd_attack_invert,
    "attack-labels": cmd_attack_labels,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _apply_malloc_policy()  # every command, the attacks' clone loops too
    try:
        cfg = effective_config(args)
        print(f"config: {json.dumps(cfg, sort_keys=True)}")
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (OSError, DataError, CheckpointError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5
    except SplitLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

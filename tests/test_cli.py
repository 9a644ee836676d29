"""CLI surface: exit codes, artifacts, config file plus flag precedence,
and a TCP end-to-end run. Commands run in-process through main()."""

import argparse
import csv
import json
import os
import threading

import pytest

from splitlab.cli import DEFAULTS, build_parser, effective_config, main

from helpers import parse_pnm


def run(argv):
    return main(argv)


def train_args(out, extra=()):
    return ["train", "--dataset", "synth", "--epochs", "1",
            "--batch-size", "16", "--train-subset", "64",
            "--out-dir", out, *extra]


class TestTrain:
    def test_inproc_train_writes_artifacts(self, tmp_path):
        out = str(tmp_path / "out")
        assert run(train_args(out)) == 0
        for name in ("client.ckpt", "server.ckpt", "model.ckpt"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "train_curve.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "loss"]
        assert len(rows) == 1 + 64 // 16
        assert float(rows[1][1]) > 0

    def test_no_merged_checkpoint_for_client_loss_topology(self, tmp_path):
        out = str(tmp_path / "out")
        assert run(train_args(out, ["--topology", "server_data"])) == 0
        assert os.path.exists(os.path.join(out, "client.ckpt"))
        assert not os.path.exists(os.path.join(out, "model.ckpt"))

    def test_inproc_needs_role_both(self, tmp_path):
        assert run(train_args(str(tmp_path), ["--role", "client"])) == 2

    def test_tcp_needs_explicit_role(self, tmp_path):
        args = train_args(str(tmp_path), ["--transport", "tcp:127.0.0.1:1"])
        assert run(args) == 2

    def test_bad_transport_spec(self, tmp_path):
        args = train_args(str(tmp_path), ["--transport", "carrier-pigeon",
                                          "--role", "server"])
        assert run(args) == 2

    def test_tcp_round_trip(self, tmp_path):
        import socket

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        spec = f"tcp:127.0.0.1:{port}"
        sout, cout = str(tmp_path / "s"), str(tmp_path / "c")
        rc = {}

        def serve():
            rc["server"] = run(train_args(sout, ["--transport", spec,
                                                 "--role", "server"]))

        th = threading.Thread(target=serve, daemon=True)
        th.start()
        rc["client"] = run(train_args(cout, ["--transport", spec,
                                             "--role", "client"]))
        th.join(timeout=30)
        assert rc == {"server": 0, "client": 0}
        assert os.path.exists(os.path.join(sout, "server.ckpt"))
        assert os.path.exists(os.path.join(cout, "client.ckpt"))

    def test_tcp_config_mismatch_is_protocol_error(self, tmp_path):
        import socket

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        spec = f"tcp:127.0.0.1:{port}"
        rc = {}

        def serve():
            rc["server"] = run(train_args(str(tmp_path / "s"),
                                          ["--transport", spec,
                                           "--role", "server", "--seed", "1"]))

        th = threading.Thread(target=serve, daemon=True)
        th.start()
        rc["client"] = run(train_args(str(tmp_path / "c"),
                                      ["--transport", spec,
                                       "--role", "client", "--seed", "2"]))
        th.join(timeout=30)
        assert rc == {"server": 3, "client": 3}


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        file_out = str(tmp_path / "from_file")
        flag_out = str(tmp_path / "from_flag")
        cfg.write_text(
            "# comment line\n"
            "epochs = 1\n"
            f"out_dir = {file_out}\n"
            "batch_size = 16\n"
            "train_subset = 64\n"
        )
        assert run(["train", "--dataset", "synth", "--config", str(cfg),
                    "--out-dir", flag_out]) == 0
        assert os.path.exists(os.path.join(flag_out, "model.ckpt"))
        assert not os.path.exists(file_out)

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_knob = 1\n")
        assert run(["train", "--config", str(cfg)]) == 2

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs\n")
        assert run(["train", "--config", str(cfg)]) == 2

    LABELS = ["attack-labels", "--topology", "server_data", "--batch-size", "1"]

    @pytest.mark.parametrize("argv,config", [
        (["train"], "epochs = abc\n"),
        (["train", "--seed", "-1"], None),
        (["report", "--depths", "1", "--sample-per-class", "-1"], None),
        ([*LABELS, "--samples", "-3"], None),
        (["report", "--depths", "1,x"], None),
        ([*LABELS, "--samples", "0"], None),
        (["train", "--lr", "nan"], None),
    ], ids=["file-epochs-abc", "seed-neg", "sample-per-class-neg", "samples-neg",
            "depths-x", "labels-samples-0", "lr-nan"])
    def test_malformed_value_is_config_error(self, tmp_path, argv, config):
        extra = ["--out-dir", str(tmp_path / "out")]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            extra += ["--config", str(tmp_path / "run.cfg")]
        assert run([*argv, "--dataset", "synth", *extra]) == 2
        assert not (tmp_path / "out").exists()

    def test_config_file_of_defaults_changes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SPLITLAB_DATA_DIR", raising=False)
        path = tmp_path / "defaults.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in DEFAULTS.items()))
        parser = build_parser()
        from_file = effective_config(parser.parse_args(["train", "--config", str(path)]))
        assert from_file == effective_config(parser.parse_args(["train"]))

    def test_missing_dataset_files_is_io_error(self, tmp_path):
        assert run(["train", "--dataset", "mnist",
                    "--data-dir", str(tmp_path / "empty"),
                    "--out-dir", str(tmp_path / "o")]) == 5


class TestAttackLabels:
    def test_happy_path_fresh_model(self, tmp_path):
        out = str(tmp_path / "out")
        rc = run(["attack-labels", "--dataset", "synth",
                  "--topology", "server_data", "--batch-size", "1",
                  "--tail-depth", "1", "--samples", "20",
                  "--out-dir", out])
        assert rc == 0
        with open(os.path.join(out, "label_inference.json")) as fh:
            rec = json.load(fh)
        assert rec["accuracy"] == 1.0
        assert rec["tail_depth"] == 1 and rec["samples"] == 20

    def test_refuses_label_sharing_topology(self, tmp_path):
        rc = run(["attack-labels", "--dataset", "synth",
                  "--batch-size", "1", "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_refuses_batched_steps(self, tmp_path):
        rc = run(["attack-labels", "--dataset", "synth",
                  "--topology", "server_data", "--batch-size", "8",
                  "--out-dir", str(tmp_path)])
        assert rc == 2


class TestAttackInvert:
    def test_requires_checkpoint(self, tmp_path):
        assert run(["attack-invert", "--dataset", "synth",
                    "--out-dir", str(tmp_path)]) == 2

    def test_missing_checkpoint_is_io_error(self, tmp_path):
        assert run(["attack-invert", "--dataset", "synth",
                    "--checkpoint", str(tmp_path / "nope.ckpt"),
                    "--out-dir", str(tmp_path)]) == 5

    def test_end_to_end_from_training_checkpoint(self, tmp_path):
        out = str(tmp_path / "out")
        assert run(train_args(out)) == 0
        rc = run(["attack-invert", "--dataset", "synth",
                  "--checkpoint", os.path.join(out, "model.ckpt"),
                  "--split-depth", "1", "--rounds", "2",
                  "--input-steps", "5", "--model-steps", "5",
                  "--out-dir", out])
        assert rc == 0
        inv = os.path.join(out, "inversion")
        grid = parse_pnm(os.path.join(inv, "grid.pgm"))
        assert grid.shape[0] == 1
        assert os.path.exists(os.path.join(inv, "clone.ckpt"))
        with open(os.path.join(inv, "metrics.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["mse_truth"]) > 0


class TestReport:
    def test_quick_report_and_resume(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        args = ["report", "--dataset", "synth", "--depths", "1",
                "--epochs", "1", "--train-subset", "64",
                "--batch-size", "16", "--samples", "5",
                "--rounds", "2", "--input-steps", "5", "--model-steps", "5",
                "--out-dir", out]
        assert run(args) == 0
        with open(os.path.join(out, "report.csv"), newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 2
        capsys.readouterr()
        assert run(args) == 0
        assert "wrote 0 new rows" in capsys.readouterr().out
        with open(os.path.join(out, "report.csv"), newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 2

    def test_server_data_report_rejected_before_any_row(self, tmp_path):
        out = tmp_path / "out"
        assert run(["report", "--dataset", "synth", "--topology", "server_data",
                    "--depths", "1", "--out-dir", str(out)]) == 2
        assert not (out / "report.csv").exists()


# Every subcommand's options, as the hand-written parser declared them:
# (flag, dest, type, choices). A flag without a type parses as str.
OPTIONS = [
    ("--config", "config", str, None),
    ("--dataset", "dataset", str, ["cifar", "fmnist", "mnist", "synth"]),
    ("--data-dir", "data_dir", str, None),
    ("--arch", "arch", str, None),
    ("--split-depth", "split_depth", int, None),
    ("--topology", "topology", str, ["label_sharing", "server_data", "client_labels"]),
    ("--transport", "transport", str, None),
    ("--role", "role", str, ["client", "server", "both"]),
    ("--seed", "seed", int, None),
    ("--epochs", "epochs", int, None),
    ("--batch-size", "batch_size", int, None),
    ("--lr", "lr", float, None),
    ("--optimizer", "optimizer", str, ["sgd", "adam"]),
    ("--tail-depth", "tail_depth", int, None),
    ("--lambda", "lambda", float, None),
    ("--input-steps", "input_steps", int, None),
    ("--model-steps", "model_steps", int, None),
    ("--rounds", "rounds", int, None),
    ("--samples", "samples", int, None),
    ("--train-subset", "train_subset", int, None),
    ("--sample-per-class", "sample_per_class", int, None),
    ("--depths", "depths", str, None),
    ("--out-dir", "out_dir", str, None),
    ("--checkpoint", "checkpoint", str, None),
]


def test_parser_surface_pinned():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["train", "attack-invert", "attack-labels", "report"]
    for name, parser in sub.choices.items():
        got = [(a.option_strings[0], a.dest, a.type or str,
                None if a.choices is None else list(a.choices))
               for a in parser._actions if a.dest != "help"]
        assert got == OPTIONS, name

"""CLI surface: exit codes, artifacts, config file plus flag precedence,
and a TCP end-to-end run. Commands run in-process through main()."""

import argparse
import csv
import json
import os
import struct
import threading
from pathlib import Path

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

    def test_merged_checkpoint_for_every_topology(self, tmp_path):
        """Each role's checkpoint holds only its own layers; model.ckpt
        holds both, so every layer once, with the role's tensors."""
        from splitlab.models import load_checkpoint

        for topology in ("label_sharing", "server_data", "client_labels"):
            out = str(tmp_path / topology)
            assert run(train_args(out, ["--topology", topology])) == 0
            client, server, model = (load_checkpoint(os.path.join(out, f"{name}.ckpt"))
                                     for name in ("client", "server", "model"))
            assert not set(client.index) & set(server.index)
            assert model.index == sorted(client.index + server.index) == list(range(8))
            held = dict(client.named_params()) | dict(server.named_params())
            assert sorted(name for name, _ in model.named_params()) == sorted(held)
            for name, p in model.named_params():
                assert p.data.tobytes() == held[name].data.tobytes()
            assert client.step_count == server.step_count == model.step_count == 4

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

    def test_tcp_server_facing_wrong_shape_smashed_exits_3(self, tmp_path):
        import numpy as np

        from splitlab import wire

        # SMASHED rows of (3,) where tiny8's depth-1 cut makes (4, 8, 8).
        payload = wire.encode_tensor(np.ones((16, 3)))
        assert server_facing_smashed(tmp_path, payload) == {"server": 3}

    def test_tcp_server_facing_smashed_with_trailing_bytes_exits_3(self, tmp_path):
        import numpy as np

        from splitlab import wire

        # The cut's shape, one byte after the tensor: the server hangs up
        # rather than wait for the LABELS that would follow.
        payload = wire.encode_tensor(np.ones((16, 4, 8, 8))) + b"\0"
        assert server_facing_smashed(tmp_path, payload) == {"server": 3}


def server_facing_smashed(tmp_path, payload: bytes) -> dict:
    """Exit code of ``train --role server`` over TCP facing a rogue client
    that sends the server's own config, then ``payload`` as SMASHED."""
    import socket

    from splitlab import wire
    from splitlab.protocol import SessionConfig
    from splitlab.transport import tcp_connect
    from splitlab.wire import MsgType

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    rc = {}

    def serve():
        rc["server"] = run(train_args(str(tmp_path / "s"),
                                      ["--transport", f"tcp:127.0.0.1:{port}",
                                       "--role", "server"]))

    th = threading.Thread(target=serve, daemon=True)
    th.start()
    cfg = SessionConfig(arch="tiny8", batch_size=16, epochs=1).to_dict()
    with tcp_connect("127.0.0.1", port, timeout=10) as ct:
        ct.send(MsgType.HELLO, wire.encode_hello())
        ct.recv()  # HELLO back
        ct.send(MsgType.CONFIG, wire.encode_json({**cfg, "examples": 64}))
        assert ct.recv()[0] == MsgType.ACK
        ct.send(MsgType.SMASHED, payload)
        th.join(timeout=30)
    return rc


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
        # A sweep with a depth past the tail or the net, or no label
        # samples, fails before its first row.
        (["report", "--topology", "client_labels", "--depths", "1,7"], None),
        (["report", "--depths", "1,9"], None),
        (["report", "--samples", "0", "--depths", "1,2"], None),
        (["report", "--depths", ","], None),
        # A train run checks its transport, role and port before it writes
        # or loads anything.
        (["train", "--transport", "tcp:127.0.0.1:70000", "--role", "server"], None),
        (["train", "--transport", "tcp:127.0.0.1:-5", "--role", "client"], None),
        (["train", "--transport", "inproc", "--role", "server"], None),
        # A checkpoint stores the seed as a u64: a larger one fails before
        # any training or inversion, not at the save.
        (["train", "--seed", str(2**64)], None),
        (["attack-invert", "--seed", str(2**64)], "checkpoint = {model}\n"),
    ], ids=["file-epochs-abc", "seed-neg", "sample-per-class-neg", "samples-neg",
            "depths-x", "labels-samples-0", "lr-nan", "report-depth-past-tail",
            "report-depth-past-net", "report-samples-0", "report-no-depths",
            "train-port-70000", "train-port-neg", "train-inproc-role-server",
            "train-seed-2**64", "invert-seed-2**64"])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, argv, config):
        from splitlab.models import build_net, save_checkpoint

        extra = ["--out-dir", str(tmp_path / "out")]
        if config is not None:
            model = tmp_path / "model.ckpt"
            save_checkpoint(build_net("tiny8"), str(model))
            (tmp_path / "run.cfg").write_text(config.format(model=model))
            extra += ["--config", str(tmp_path / "run.cfg")]
        assert run([*argv, "--dataset", "synth", *extra]) == 2
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_config_file_of_defaults_changes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SPLITLAB_DATA_DIR", raising=False)
        path = tmp_path / "defaults.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in DEFAULTS.items()))
        parser = build_parser()
        from_file = effective_config(parser.parse_args(["train", "--config", str(path)]))
        assert from_file == effective_config(parser.parse_args(["train"]))

    def test_data_dir_env_sets_only_the_default(self, tmp_path, monkeypatch):
        """data_dir comes from the flag, else the config file, else
        SPLITLAB_DATA_DIR, else ``data``."""
        monkeypatch.setenv("SPLITLAB_DATA_DIR", "/from/env")
        path = tmp_path / "run.cfg"
        path.write_text("data_dir = /from/file\n")
        parser = build_parser()

        def data_dir(*argv):
            return effective_config(parser.parse_args(["train", *argv]))["data_dir"]

        assert data_dir() == "/from/env"
        assert data_dir("--config", str(path)) == "/from/file"
        assert data_dir("--config", str(path), "--data-dir", "/from/flag") == "/from/flag"
        monkeypatch.delenv("SPLITLAB_DATA_DIR")
        assert data_dir() == "data"

    @pytest.mark.parametrize("depth", ["1", "4"])
    def test_dataset_that_does_not_fit_the_arch_is_config_error(self, tmp_path, capsys,
                                                                 depth):
        # 8x8 IDX files under --dataset mnist cannot feed the 28x28 mnist net.
        sub = tmp_path / "data" / "mnist"
        sub.mkdir(parents=True)
        (sub / "train-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", 0x803, 4, 8, 8) + bytes(4 * 8 * 8))
        (sub / "train-labels-idx1-ubyte").write_bytes(struct.pack(">II", 0x801, 4) + bytes(4))
        out = tmp_path / "out"
        assert run(["train", "--dataset", "mnist", "--data-dir", str(tmp_path / "data"),
                    "--split-depth", depth, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "(1, 8, 8)" in err and "(1, 28, 28)" in err
        assert not out.exists()  # no session ran, so nothing was written

    def test_missing_dataset_files_is_io_error(self, tmp_path):
        assert run(["train", "--dataset", "mnist",
                    "--data-dir", str(tmp_path / "empty"),
                    "--out-dir", str(tmp_path / "o")]) == 5
        assert not (tmp_path / "o").exists()


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

    def test_from_training_checkpoint(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run(train_args(out)) == 0
        labels = ["attack-labels", "--dataset", "synth", "--topology", "server_data",
                  "--batch-size", "1", "--samples", "5", "--out-dir", out]
        assert run([*labels, "--checkpoint", os.path.join(out, "model.ckpt")]) == 0
        with open(os.path.join(out, "label_inference.json")) as fh:
            assert json.load(fh)["samples"] == 5
        capsys.readouterr()
        # The client's part alone cannot stand in for the whole net.
        assert run([*labels, "--checkpoint", os.path.join(out, "client.ckpt")]) == 2
        assert "parts hold layers [0]," in capsys.readouterr().err

    def test_checkpoint_of_another_arch_is_config_error(self, tmp_path, capsys):
        from splitlab.models import build_net, save_checkpoint

        path = str(tmp_path / "mnist.ckpt")
        save_checkpoint(build_net("mnist"), path)
        capsys.readouterr()
        assert run(["attack-labels", "--dataset", "synth", "--topology", "server_data",
                    "--batch-size", "1", "--samples", "2", "--checkpoint", path,
                    "--out-dir", str(tmp_path)]) == 2
        assert "holds a 'mnist' net, but dataset 'synth' needs 'tiny8'" in \
            capsys.readouterr().err

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


    @pytest.mark.parametrize("depth", [1, 2])
    def test_checkpoint_without_the_client_layers_is_config_error(self, tmp_path, capsys,
                                                                   depth):
        """server.ckpt of a label_sharing run holds layers [1, 8): it has no
        client part to invert, and the clone it would start is not there."""
        out = str(tmp_path / "out")
        assert run(train_args(out)) == 0
        capsys.readouterr()
        rc = run(["attack-invert", "--dataset", "synth",
                  "--checkpoint", os.path.join(out, "server.ckpt"),
                  "--split-depth", str(depth), "--out-dir", out])
        assert rc == 2
        assert "not layer 0 of the client part" in capsys.readouterr().err

    def test_checkpoint_of_another_arch_is_config_error(self, tmp_path, capsys):
        from splitlab.models import build_net, save_checkpoint

        path = str(tmp_path / "mnist.ckpt")
        save_checkpoint(build_net("mnist"), path)
        capsys.readouterr()
        assert run(["attack-invert", "--dataset", "synth", "--checkpoint", path,
                    "--rounds", "1", "--out-dir", str(tmp_path)]) == 2
        assert "holds a 'mnist' net, but dataset 'synth' needs 'tiny8'" in \
            capsys.readouterr().err

    def test_client_checkpoint_serves_its_depth(self, tmp_path):
        """client.ckpt holds only the head [0, 1), which is all the attack
        needs; clone.ckpt then holds only the clone's [0, 1)."""
        from splitlab.models import load_checkpoint

        out = str(tmp_path / "out")
        assert run(train_args(out)) == 0
        assert run(["attack-invert", "--dataset", "synth",
                    "--checkpoint", os.path.join(out, "client.ckpt"),
                    "--split-depth", "1", "--rounds", "1",
                    "--input-steps", "2", "--model-steps", "2",
                    "--out-dir", out]) == 0
        assert load_checkpoint(os.path.join(out, "inversion", "clone.ckpt")).index == [0]

    @pytest.mark.parametrize("index", [[0, 8], [0, 0], [1, 0]])
    def test_bad_layer_index_is_io_error(self, tmp_path, capsys, index):
        from splitlab.models import build_part, save_checkpoint

        path = str(tmp_path / "bad.ckpt")
        save_checkpoint(build_part("tiny8", 0, [(0, 2)]), path)
        raw = bytearray(Path(path).read_bytes())
        struct.pack_into("<2I", raw, 4 + 4 + 1 + 5 + 4 + 8 + 8 + 4, *index)
        Path(path).write_bytes(bytes(raw))
        capsys.readouterr()
        assert run(["attack-invert", "--dataset", "synth", "--checkpoint", path,
                    "--out-dir", str(tmp_path)]) == 5
        assert "not ascending, distinct and below 8" in capsys.readouterr().err

    def test_sample_larger_than_a_class_is_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run(train_args(out)) == 0
        capsys.readouterr()
        assert run(["attack-invert", "--dataset", "synth",
                    "--checkpoint", os.path.join(out, "model.ckpt"),
                    "--sample-per-class", "100", "--out-dir", out]) == 2
        assert "examples, need 100" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "inversion"))


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

    def test_report_csv_of_other_columns_is_left_as_it_was(self, tmp_path, capsys):
        """A report.csv whose header is not this version's columns (here the
        first eight) is refused before it is truncated or appended to."""
        from splitlab.harness import CSV_FIELDS

        out = tmp_path / "out"
        out.mkdir()
        old = (",".join(CSV_FIELDS[:8]) + "\r\nsynth,1,0,0.1,,,,\r\nsynth,1,1")
        (out / "report.csv").write_bytes(old.encode())
        assert run(["report", "--dataset", "synth", "--depths", "1",
                    "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(out / "report.csv") in err
        assert (out / "report.csv").read_bytes() == old.encode()
        assert os.listdir(out) == ["report.csv"]

    def test_server_data_report_rejected_before_any_row(self, tmp_path):
        out = tmp_path / "out"
        assert run(["report", "--dataset", "synth", "--topology", "server_data",
                    "--depths", "1", "--out-dir", str(out)]) == 2
        assert not (out / "report.csv").exists()

    def test_empty_train_subset_rejected_before_any_row(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["report", "--dataset", "synth", "--train-subset", "0",
                    "--depths", "1", "--out-dir", str(out)]) == 2
        assert "empty training subset" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_sample_larger_than_a_class_rejected_before_any_row(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["report", "--dataset", "synth", "--sample-per-class", "100",
                    "--depths", "1", "--out-dir", str(out)]) == 2
        assert "examples, need 100" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_no_sample_per_class_rejected_before_any_row(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["report", "--dataset", "synth", "--sample-per-class", "0",
                    "--depths", "1", "--out-dir", str(out)]) == 2
        assert "sample_per_class must be >= 1" in capsys.readouterr().err
        assert not (out / "report.csv").exists()


# Every subcommand's options, as the hand-written parser declared them:
# (flag, dest, type, choices). A flag without a type parses as str.
OPTIONS = [
    ("--config", "config", str, None),
    ("--dataset", "dataset", str, ["cifar", "fmnist", "mnist", "synth"]),
    ("--data-dir", "data_dir", str, None),
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


@pytest.mark.parametrize("command", ["train", "attack-invert", "attack-labels", "report"])
def test_every_command_runs_under_the_malloc_policy(monkeypatch, command):
    """main sets the role processes' malloc policy before any command runs,
    so the attacks' clone loops reuse freed pages as a session does."""
    from splitlab import cli

    calls = []
    monkeypatch.setattr(cli, "_apply_malloc_policy", lambda: calls.append("policy"))
    monkeypatch.setitem(cli.COMMANDS, command, lambda cfg: calls.append(command) or 0)
    assert main([command]) == 0
    assert calls == ["policy", command]

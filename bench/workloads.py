"""The benchmark's four workloads.

Each one makes its inputs from the workload seed and drives splitlab only
through its public functions, the paths the CLI runs. Operation ``i``
belongs to variant ``i % len(variants)`` and its inputs depend only on
``i``, so two windows that run the same operation indices compute the
same bits. Calls go through module attributes (``protocol.run_session``)
so that the tracer's patches see them.

Why these four:

* ``cifar_train``: conv backward is almost all of a batch-8 step and the
  wire almost nothing (2 MB SMASHED frames against a one-second step).
* ``tiny8_wire``: compute is a third of a millisecond-scale step, so the
  protocol, transport and codec dominate; every topology over both
  transports, checked against ``train_local``.
* ``mnist_labels``: batch-1 fc work, ``build_net`` per clone and ten
  candidate probes per inference, with little conv backward.
* ``mnist_invert``: autograd at batch 10 with gradients w.r.t. the input
  (the ``col2im`` path), the TV penalty and Adam on the input.
"""

from __future__ import annotations

import hashlib
import socket
import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from splitlab import autograd, data, harness, models, protocol, transport
from splitlab.attacks import inversion
from splitlab.attacks import labels as label_attack
from splitlab.errors import ProtocolError
from splitlab.wire import MsgType


@dataclass
class OpResult:
    times: list[float]  # seconds per timed unit
    units: int  # timed units done: training steps, inferences or rounds
    items: int  # examples processed
    fingerprint: str  # digest of every output the op produced
    problems: list[str] = field(default_factory=list)  # failed output checks
    outcome: object = None  # what run-level checks need


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (bytes, bytearray)):
            h.update(part)
        else:
            h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _param_arrays(*stacks) -> list[np.ndarray]:
    return [p.data for s in stacks if s is not None for p in s.params()]


class Workload:
    name = ""
    op = ""  # report name of one timed unit
    unit = "ms"  # unit the report uses for that unit's time
    variants: tuple[str, ...] = ()

    def __init__(self, seed: int, small: bool, record: bool):
        self.seed = seed
        self.record = record  # record wire transcripts (traced runs)

    def setup(self) -> None:
        """Make the inputs; repeatable, timed as ``setup_s``."""

    def open(self) -> None:
        """One-time preparation after set-up: connections, check references."""

    def run(self, i: int) -> OpResult:
        raise NotImplementedError

    def final_checks(self, results: list[tuple[int, OpResult]]) -> list[tuple[str, bool, str]]:
        return []

    def local_baseline(self) -> None:
        """Run the in-memory trainer once (traced runs time its steps)."""

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# training sessions

def tcp_pair(record: bool, timeout: float):
    """One loopback TCP connection; returns (client end, server end)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    box: dict = {}

    def accept():
        try:
            box["server"] = transport.tcp_listen("127.0.0.1", port, record, timeout)
        except Exception as exc:
            box["error"] = exc

    th = threading.Thread(target=accept)
    th.start()
    try:
        client = transport.tcp_connect("127.0.0.1", port, record, timeout,
                                       retry_for=timeout)
    finally:
        th.join(timeout + 1.0)
    if "server" not in box:
        client.close()
        raise ProtocolError(f"loopback accept failed: {box.get('error')!r}")
    return client, box["server"]


class _Training(Workload):
    op = "train_step"
    timeout = 5.0  # recv timeout: how long a role may wait on its peer

    def _pair(self, kind: str):
        if kind == "tcp":
            return tcp_pair(self.record, self.timeout)
        return transport.inproc_pair(self.record, self.timeout)

    def open(self) -> None:
        kinds = {v.split(".")[1] for v in self.variants}
        self.pairs = {kind: self._pair(kind) for kind in sorted(kinds)}

    def close(self) -> None:
        for pair in getattr(self, "pairs", {}).values():
            for end in pair:
                end.close()

    def session(self, i: int):
        """One ``run_session``; returns (client, server results, step times).

        A step is timed between consecutive SMASHED frames sent by the role
        that holds the examples; the last one ends when the session returns.
        """
        topology, kind = self.variants[i % len(self.variants)].split(".")
        cfg = self.cfgs[topology]
        ends = self.pairs[kind]
        for end in ends:
            if end.transcript is not None:
                end.transcript.clear()
        stamper = ends[1] if topology == "server_data" else ends[0]
        stamps: list[float] = []

        def send(msg_type, payload=b""):
            if msg_type == MsgType.SMASHED:
                stamps.append(perf_counter())
            type(stamper).send(stamper, msg_type, payload)

        stamper.send = send
        try:
            cres, sres = protocol.run_session(cfg, self.images, self.labels, ends)
        except BaseException:
            # A failed session can leave frames or a live peer behind.
            for end in ends:
                end.close()
            self.pairs[kind] = self._pair(kind)
            raise
        finally:
            del stamper.send
        stamps.append(perf_counter())
        return cres, sres, list(np.diff(stamps))

    def state_digest(self, losses, client, server) -> str:
        return _digest(np.asarray(losses, dtype=np.float64),
                       *_param_arrays(client.head, client.tail, server.part))

    def transcript_digest(self, kind: str) -> bytes:
        h = hashlib.sha256()
        for end in self.pairs[kind]:
            for direction, frame in end.transcript or ():
                h.update(direction.encode())
                h.update(frame)
        return h.digest()

    def run(self, i: int) -> OpResult:
        topology, kind = self.variants[i % len(self.variants)].split(".")
        cres, sres, times = self.session(i)
        state = self.state_digest(cres.losses, cres.client, sres.server)
        fingerprint = _digest(state.encode(), self.transcript_digest(kind))
        problems = self.check(topology, cres.losses, state)
        return OpResult(times, len(times), len(times) * self.cfgs[topology].batch_size,
                        fingerprint, problems)


class CifarTrain(_Training):
    """``cifar``, label_sharing, split depth 1, batch 8, over ``inproc_pair``.

    Batch 8 rather than the training default of 64: conv backward takes
    the same share of the step (about 89%), and a one-second step gives
    a run about twenty of them instead of three seven-second ones.
    """

    name = "cifar_train"
    variants = ("label_sharing.inproc",)
    timeout = 10.0  # a role waits out its peer's whole step, slow host included

    def __init__(self, seed, small, record):
        super().__init__(seed, small, record)
        self.batch = 2 if small else 8
        self.steps = 1  # one step per session keeps warm-up and each op to one step

    def setup(self):
        ds = data.synth_dataset(self.batch * self.steps, (3, 32, 32), seed=self.seed)
        self.images, self.labels = ds.images, ds.labels
        self.cfgs = {"label_sharing": protocol.SessionConfig(
            arch="cifar", topology="label_sharing", split_depth=1,
            batch_size=self.batch, epochs=1, seed=self.seed).validate()}

    def open(self):
        super().open()
        # Reference: a monolithic forward of the session's first batch.
        cfg = self.cfgs["label_sharing"]
        model = models.build_net("cifar", seed=cfg.seed, split_depth=1)
        idx = protocol.epoch_order(len(self.labels), cfg.seed, 0)[: self.batch]
        probs = model.forward(autograd.Tensor(self.images[idx]))
        loss = autograd.cross_entropy(probs, self.labels[idx].astype(np.int64))
        self.first_loss = float(loss.data)

    def check(self, topology, losses, state):
        problems = []
        if not np.all(np.isfinite(losses)):
            problems.append(f"non-finite loss in {losses}")
        if losses[0] != self.first_loss:
            problems.append(f"first-step loss {losses[0]!r} != monolithic "
                            f"{self.first_loss!r}")
        return problems


class Tiny8Wire(_Training):
    """``tiny8``, batch 8, every topology over in-process and TCP pairs."""

    name = "tiny8_wire"
    variants = tuple(f"{t}.{k}" for t in protocol.TOPOLOGIES for k in ("inproc", "tcp"))

    def __init__(self, seed, small, record):
        super().__init__(seed, small, record)
        self.steps = 8 if small else 256

    def setup(self):
        ds = data.synth_dataset(8 * self.steps, (1, 8, 8), seed=self.seed)
        self.images, self.labels = ds.images, ds.labels
        self.cfgs = {t: protocol.SessionConfig(
            arch="tiny8", topology=t, batch_size=8, epochs=1,
            seed=self.seed).validate() for t in protocol.TOPOLOGIES}

    def local_baseline(self):
        self.reference = {}
        for topology, cfg in self.cfgs.items():
            _, losses, client, server = protocol.train_local(cfg, self.images, self.labels)
            self.reference[topology] = self.state_digest(losses, client, server)

    def open(self):
        super().open()
        self.local_baseline()

    def check(self, topology, losses, state):
        if state != self.reference[topology]:
            return [f"{topology}: losses or parameters differ from train_local"]
        return []


# ---------------------------------------------------------------------------
# attacks

class MnistLabels(Workload):
    """Gradient-matching label inference on ``mnist`` tails of depth 1-3.

    Set-up collects a ``ServerTap`` of batch-1 ``server_data`` steps per
    tail depth; one operation is ``make_tail_clone`` plus
    ``infer_from_tap_entry`` on one tap entry, with a fresh clone seed.
    """

    name = "mnist_labels"
    op = "label_infer"
    variants = ("tail1", "tail2", "tail3")
    accuracy_floor = 0.9  # measured 100% at every tail depth

    def __init__(self, seed, small, record):
        super().__init__(seed, small, record)
        self.tap_size = 3 if small else 32

    def setup(self):
        ds = data.synth_dataset(self.tap_size, (1, 28, 28), seed=self.seed)
        order = protocol.epoch_order(self.tap_size, self.seed, 0)
        self.taps = []
        for tail in (1, 2, 3):
            cfg = protocol.SessionConfig(arch="mnist", topology="server_data",
                                         batch_size=1, epochs=1, tail_depth=tail,
                                         seed=self.seed).validate()
            tap = protocol.ServerTap()
            protocol.train_local(cfg, ds.images, ds.labels, tap=tap)
            self.taps.append([(e, int(ds.labels[order[e.step - 1]])) for e in tap.entries])

    def run(self, i):
        v = i % 3
        entry, truth = self.taps[v][(i // 3) % self.tap_size]
        t0 = perf_counter()
        clone = label_attack.make_tail_clone("mnist", v + 1, self.seed + 7919 + i)
        res = label_attack.infer_from_tap_entry(entry, clone)
        elapsed = perf_counter() - t0
        return OpResult([elapsed], 1, 1, _digest(res.distances),
                        outcome=res.label == truth)

    def final_checks(self, results):
        checks = []
        for v, tail in enumerate(self.variants):
            hits = [r.outcome for i, r in results if i % 3 == v]
            acc = sum(hits) / len(hits) if hits else 0.0
            checks.append((f"accuracy.{tail}", acc >= self.accuracy_floor,
                           f"{acc:.3f} over {len(hits)} (floor {self.accuracy_floor})"))
        return checks


class MnistInvert(Workload):
    """Inversion of 10 class-balanced images from an untrained ``mnist``
    client at split depths 1 and 4; one operation is ``unsplit_invert``
    over a fixed number of rounds, timed per round.

    A round here is 10 input steps and 10 model steps, not the CLI's
    default 100 + 100: the steps are identical, and the shorter round
    gives a run dozens of operations instead of a handful, so that its
    fastest one is not set by how loaded the host was for the whole run.
    """

    name = "mnist_invert"
    op = "invert_round"
    unit = "s"
    variants = ("depth1", "depth4")
    rounds = 2

    def __init__(self, seed, small, record):
        super().__init__(seed, small, record)
        self.steps = 3 if small else 10

    def setup(self):
        ds = data.synth_dataset(200, (1, 28, 28), seed=self.seed)
        self.sample = data.sample_class_balanced(ds, 1, seed=self.seed)
        model = models.build_net("mnist", seed=self.seed)
        self.entries = [harness.snapshot_tap(models.split_at(model, d)[0],
                                             self.sample.images) for d in (1, 4)]

    def run(self, i):
        v = i % 2
        depth = (1, 4)[v]
        cfg = inversion.InversionConfig(
            input_steps=self.steps, model_steps=self.steps, max_rounds=self.rounds,
            plateau_rounds=self.rounds + 1,  # never stop early
            seed=self.seed + i)
        t0 = perf_counter()
        res = inversion.unsplit_invert(self.entries[v], "mnist", depth, cfg,
                                       ground_truth=self.sample.images)
        elapsed = perf_counter() - t0
        objective = np.array([m.objective for m in res.history])
        problems = []
        if len(objective) != self.rounds or not np.all(np.isfinite(objective)):
            problems.append(f"objective history {objective.tolist()}")
        elif not objective[-1] < objective[0]:
            problems.append(f"objective did not fall: {objective.tolist()}")
        n = len(self.sample.images)
        return OpResult([elapsed / self.rounds], self.rounds, n * self.rounds,
                        _digest(res.x_est, objective, *_param_arrays(res.clone)),
                        problems)


WORKLOADS = {w.name: w for w in (CifarTrain, Tiny8Wire, MnistLabels, MnistInvert)}

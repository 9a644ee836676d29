"""Split training between a client and a server role.

Three topologies are supported:

  * ``label_sharing``  — client holds examples and labels, sends both the
    cut activations and the labels; server computes the loss.
  * ``server_data``    — server holds the examples and runs the first
    part; client holds the labels and runs the tail plus the loss.
  * ``client_labels``  — model in three parts; client runs the head and
    the tail (loss included), server runs the middle.

Each topology's step is written once, in ``ROLES``, as a client and a
server program: generators that own their part's arithmetic (and the
server's tap record) and do no I/O. A program yields ``(MsgType,
value)`` to send and a bare ``MsgType`` to receive, and gets the
received value back. ``train_step`` runs both programs in one thread
and hands values across as they are; ``run_client`` and ``run_server``
each run one program over a ``Transport``, through the ``CODECS``
table. The codec is bit-exact, so both ways walk the same trajectory.

The server's honest-but-curious vantage point is a ``ServerTap``: an
append-only record of everything the server legitimately observes.
Recording never alters any message.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import wire
from .autograd import Tensor, backward, cross_entropy
from .data import epoch_batches, epoch_order  # noqa: F401  (re-exported)
from .errors import ConfigError, ProtocolError
from .layers import LayerStack
from .models import ARCHS, SplitModel, build_net, split_at, split_three, tail_start_index
from .optim import OPTIMIZERS, Optimizer, fit_epoch, make_optimizer
from .transport import Transport
from .wire import MsgType

SESSION_TIMEOUT = 300.0  # seconds run_session waits for both roles to finish


@dataclass
class SessionConfig:
    arch: str = "tiny8"
    split_depth: int = 1
    topology: str = "label_sharing"
    seed: int = 0
    optimizer: str = "adam"
    lr: float = 0.001
    batch_size: int = 64
    epochs: int = 1
    tail_depth: int = 1  # client tail size for server_data / client_labels

    def validate(self) -> "SessionConfig":
        if self.arch not in ARCHS:
            raise ConfigError(f"unknown architecture {self.arch!r}")
        if self.topology not in TOPOLOGIES:
            raise ConfigError(f"unknown topology {self.topology!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.batch_size < 1 or self.epochs < 0 or self.lr <= 0:
            raise ConfigError("batch_size >= 1, epochs >= 0, lr > 0 required")
        if self.tail_depth < 1:
            raise ConfigError("tail_depth >= 1 required")
        return self

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TapEntry:
    step: int
    smashed: np.ndarray
    labels: np.ndarray | None
    grad: list[np.ndarray]


class ServerTap:
    """Append-only log of the server's legitimate observations."""

    def __init__(self):
        self.entries: list[TapEntry] = []

    def record(self, step: int, smashed: np.ndarray,
               labels: np.ndarray | None, grad: list[np.ndarray]) -> None:
        self.entries.append(
            TapEntry(
                step,
                np.array(smashed, copy=True),
                None if labels is None else np.array(labels, copy=True),
                [np.array(g, copy=True) for g in grad],
            )
        )

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# shared step arithmetic

def part_forward(part: LayerStack, x: np.ndarray) -> Tensor:
    """Forward through a model part, keeping the graph for backprop."""
    return part.forward(Tensor(x))


def loss_forward_backward(
    part: LayerStack, smashed: np.ndarray, labels: np.ndarray,
    opt: Optimizer | None, collect_param_grads: bool = False,
) -> tuple[float, np.ndarray, list[np.ndarray]]:
    """Run the loss-owning part: forward from the cut, cross-entropy,
    backward, optimizer update. Returns (loss, grad at cut, param grads)."""
    labels = np.asarray(labels, dtype=np.int64)
    if np.shape(smashed)[:1] != labels.shape:
        raise ProtocolError(f"activations {np.shape(smashed)} for {labels.size} labels")
    sm = Tensor(smashed, requires_grad=True)
    probs = part.forward(sm)
    if labels.max(initial=0) >= probs.data.shape[1]:
        raise ProtocolError(f"label {labels.max()} for {probs.data.shape[1]} classes")
    loss = cross_entropy(probs, labels)
    for p in part.params():
        p.grad = None
    backward(loss)
    param_grads = (
        [p.grad.copy() for p in part.params()] if collect_param_grads else []
    )
    if opt is not None:
        opt.step()
    return float(loss.data), sm.grad.copy(), param_grads


def backprop_part(part: LayerStack, out: Tensor, grad_out: np.ndarray,
                  opt: Optimizer | None) -> None:
    """Backprop a received cut gradient through a part and update it."""
    if grad_out.shape != out.data.shape:
        raise ProtocolError(
            f"cut gradient shape {grad_out.shape} != activation {out.data.shape}"
        )
    for p in part.params():
        p.grad = None
    backward(out, seed_grad=grad_out)
    if opt is not None:
        opt.step()


@dataclass
class ClientState:
    head: LayerStack | None = None
    tail: LayerStack | None = None
    head_opt: Optimizer | None = None
    tail_opt: Optimizer | None = None


@dataclass
class ServerState:
    part: LayerStack | None = None
    opt: Optimizer | None = None
    tap: ServerTap | None = None
    step: int = 0

    def observe(self, smashed: np.ndarray, labels: np.ndarray | None,
                grad: list[np.ndarray]) -> None:
        """Count a step and log what the server saw in it."""
        self.step += 1
        if self.tap is not None:
            self.tap.record(self.step, smashed, labels, grad)


def build_parts(cfg: SessionConfig, model: SplitModel | None = None
                ) -> tuple[SplitModel, ClientState, ServerState]:
    """Build the full model and distribute its parts per the topology."""
    cfg.validate()
    if model is None:
        model = build_net(cfg.arch, seed=cfg.seed, split_depth=cfg.split_depth)
    client = ClientState()
    server = ServerState(tap=None)

    def opt(part: LayerStack) -> Optimizer:
        return make_optimizer(cfg.optimizer, part.params(), cfg.lr)

    if cfg.topology == "label_sharing":
        f1, f2 = split_at(model, cfg.split_depth)
        client.head, client.head_opt = f1, opt(f1)
        server.part, server.opt = f2, opt(f2)
    elif cfg.topology == "server_data":
        k = tail_start_index(model, cfg.tail_depth)
        head, tail = LayerStack(model.layers[:k]), LayerStack(model.layers[k:])
        server.part, server.opt = head, opt(head)
        client.tail, client.tail_opt = tail, opt(tail)
    else:  # client_labels
        f1, f2, f3 = split_three(model, cfg.split_depth, cfg.tail_depth)
        client.head, client.head_opt = f1, opt(f1)
        client.tail, client.tail_opt = f3, opt(f3)
        server.part, server.opt = f2, opt(f2)
    return model, client, server


# ---------------------------------------------------------------------------
# role programs: each topology's step, written once
#
# A client program takes (state, examples or None, labels), a server
# program (state, examples or None); both return the step's loss.

def _label_sharing_client(client: ClientState, x, y):
    smashed = part_forward(client.head, x)
    yield MsgType.SMASHED, smashed.data
    yield MsgType.LABELS, y
    (gcut,) = yield MsgType.GRAD
    loss = yield MsgType.LOSS
    backprop_part(client.head, smashed, gcut, client.head_opt)
    return loss


def _label_sharing_server(server: ServerState, x):
    smashed = yield MsgType.SMASHED
    y = yield MsgType.LABELS
    loss, gcut, _ = loss_forward_backward(server.part, smashed, y, server.opt)
    server.observe(smashed, y, [gcut])
    yield MsgType.GRAD, [gcut]
    yield MsgType.LOSS, loss
    return loss


def _server_data_client(client: ClientState, x, y):
    smashed = yield MsgType.SMASHED
    loss, gcut, pgrads = loss_forward_backward(
        client.tail, smashed, y, client.tail_opt, collect_param_grads=True
    )
    yield MsgType.GRAD, [gcut, *pgrads]
    yield MsgType.LOSS, loss
    return loss


def _server_data_server(server: ServerState, x):
    smashed = part_forward(server.part, x)
    yield MsgType.SMASHED, smashed.data
    grads = yield MsgType.GRAD
    loss = yield MsgType.LOSS
    server.observe(smashed.data, None, grads)
    backprop_part(server.part, smashed, grads[0], server.opt)
    return loss


def _client_labels_client(client: ClientState, x, y):
    a1 = part_forward(client.head, x)
    yield MsgType.SMASHED, a1.data
    a2 = yield MsgType.SMASHED
    loss, g2, pgrads = loss_forward_backward(
        client.tail, a2, y, client.tail_opt, collect_param_grads=True
    )
    yield MsgType.GRAD, [g2, *pgrads]
    yield MsgType.LOSS, loss
    (g1,) = yield MsgType.GRAD
    backprop_part(client.head, a1, g1, client.head_opt)
    return loss


def _client_labels_server(server: ServerState, x):
    a1 = yield MsgType.SMASHED
    sm1 = Tensor(a1, requires_grad=True)
    a2 = server.part.forward(sm1)
    yield MsgType.SMASHED, a2.data
    grads = yield MsgType.GRAD
    loss = yield MsgType.LOSS
    server.observe(a1, None, grads)
    backprop_part(server.part, a2, grads[0], server.opt)
    yield MsgType.GRAD, [sm1.grad]
    return loss


ROLES = {  # topology -> (client program, server program)
    "label_sharing": (_label_sharing_client, _label_sharing_server),
    "server_data": (_server_data_client, _server_data_server),
    "client_labels": (_client_labels_client, _client_labels_server),
}
TOPOLOGIES = tuple(ROLES)


def held_examples(topology: str, images):
    """(client's, server's) share of the examples; the client holds the labels."""
    return (None, images) if topology == "server_data" else (images, None)


def session_batches(cfg: SessionConfig, n: int):
    """Every index batch of a session over ``n`` examples, epoch by epoch."""
    for epoch in range(cfg.epochs):
        yield from epoch_batches(n, cfg.batch_size, cfg.seed, epoch)


# ---------------------------------------------------------------------------
# local (in-memory) execution

def _lockstep(*programs) -> list:
    """Run a client and a server program to completion in this thread. A
    sent value goes straight into the peer's inbox; a program waiting on
    an empty inbox lets the other one run."""
    inbox, results = ([], []), [None, None]
    events = [next(p) for p in programs]
    i = idle = 0
    while events != [None, None]:
        event, value = events[i], None
        if isinstance(event, tuple):
            inbox[1 - i].append(event)
        elif event is not None and inbox[i]:
            mtype, value = inbox[i].pop(0)
            if mtype != event:
                raise ProtocolError(f"unexpected {mtype.name}, expected {event.name}")
        else:  # finished, or waiting on an empty inbox: the other one runs
            i, idle = 1 - i, idle + 1
            if idle > 2:
                raise ProtocolError("role programs wait on each other")
            continue
        idle = 0
        try:
            events[i] = programs[i].send(value)
        except StopIteration as stop:
            events[i], results[i] = None, stop.value
    return results


def train_step(topology: str, client: ClientState, server: ServerState,
               batch: tuple[np.ndarray, np.ndarray]) -> float:
    """One forward-backward-update pass of both role programs, no wire in
    between. Numerically identical to the wire-driven path: the codec is
    bit-exact, so skipping it changes nothing."""
    x, y = batch
    client_x, server_x = held_examples(topology, x)
    client_program, server_program = ROLES[topology]
    loss, _ = _lockstep(client_program(client, client_x, y),
                        server_program(server, server_x))
    return loss


def train_local(cfg: SessionConfig, images: np.ndarray, labels: np.ndarray,
                model: SplitModel | None = None, tap: ServerTap | None = None
                ) -> tuple[SplitModel, list[float], ClientState, ServerState]:
    """Run the whole training loop in-memory via ``train_step``."""
    model, client, server = build_parts(cfg, model)
    server.tap = tap
    losses = []
    for idx in session_batches(cfg, len(labels)):
        losses.append(train_step(cfg.topology, client, server,
                                 (images[idx], labels[idx])))
        model.step_count += 1
    return model, losses, client, server


def train_monolithic(cfg: SessionConfig, images: np.ndarray, labels: np.ndarray,
                     model: SplitModel | None = None
                     ) -> tuple[SplitModel, list[float]]:
    """Unsplit reference trainer: same data order, one optimizer over all
    parameters. The oracle for split-training equivalence."""
    cfg.validate()
    if model is None:
        model = build_net(cfg.arch, seed=cfg.seed, split_depth=cfg.split_depth)
    opt = make_optimizer(cfg.optimizer, model.params(), cfg.lr)
    losses = []
    for epoch in range(cfg.epochs):
        losses += fit_epoch(model, opt, images, labels, cfg.batch_size, cfg.seed, epoch)
    model.step_count += len(losses)
    return model, losses


# ---------------------------------------------------------------------------
# wire-driven roles

CODECS = {  # message type -> (encode, decode), each looked up in wire per call
    MsgType.SMASHED: (lambda a: wire.encode_tensor(a), lambda b: wire.decode_tensor(b)[0]),
    MsgType.LABELS: (lambda y: wire.encode_labels(y), lambda b: wire.decode_labels(b)),
    MsgType.GRAD: (lambda g: wire.encode_tensor_list(g), lambda b: wire.decode_tensor_list(b)),
    MsgType.LOSS: (lambda v: wire.encode_scalar(v), lambda b: wire.decode_scalar(b)),
}


def _expect(transport: Transport, *allowed: MsgType) -> tuple[MsgType, bytes]:
    mtype, payload = transport.recv()
    if mtype not in allowed:
        names = "/".join(m.name for m in allowed)
        raise ProtocolError(f"unexpected {mtype.name}, expected {names}")
    return mtype, payload


def _play(transport: Transport, program):
    """Run one role program over ``transport``; returns its result."""
    value = None
    while True:
        try:
            event = program.send(value)
        except StopIteration as stop:
            return stop.value
        if isinstance(event, MsgType):
            value = CODECS[event][1](_expect(transport, event)[1])
        else:
            mtype, value = event
            transport.send(mtype, CODECS[mtype][0](value))
            value = None


def _client_handshake(transport: Transport, cfg: SessionConfig, examples: int) -> None:
    transport.send(MsgType.HELLO, wire.encode_hello())
    _, payload = _expect(transport, MsgType.HELLO)
    wire.check_hello(payload)
    transport.send(MsgType.CONFIG, wire.encode_json({**cfg.to_dict(), "examples": examples}))
    mtype, payload = _expect(transport, MsgType.ACK, MsgType.END)
    if mtype == MsgType.END:
        raise ProtocolError(f"server rejected config: {payload.decode('utf-8', 'replace')}")


def _server_handshake(transport: Transport, cfg: SessionConfig,
                      examples: int | None) -> int:
    """Check the client's config, and its example count against
    ``examples`` when this side holds them; returns that count."""
    _, payload = _expect(transport, MsgType.HELLO)
    wire.check_hello(payload)
    transport.send(MsgType.HELLO, wire.encode_hello())
    _, payload = _expect(transport, MsgType.CONFIG)
    peer = wire.decode_json(payload)
    peer = peer if isinstance(peer, dict) else {}
    n, mine = peer.pop("examples", None), cfg.to_dict()
    if peer != mine:
        error = "config mismatch with peer: " + repr({
            k: (peer.get(k), mine.get(k)) for k in set(peer) | set(mine)
            if peer.get(k) != mine.get(k)})
    elif type(n) is not int or n < 0 or examples not in (None, n):
        error = f"example count mismatch: client holds {n!r}, server {examples}"
    else:
        transport.send(MsgType.ACK)
        return n
    transport.send(MsgType.END, wire.encode_json({"error": error}))
    raise ProtocolError(error)


def _finish(transport: Transport, holds_examples: bool) -> None:
    """The role that holds the examples ends the session."""
    if holds_examples:
        transport.send(MsgType.END)
    else:
        _expect(transport, MsgType.END)


@dataclass
class RoleResult:
    losses: list[float] = field(default_factory=list)
    model: SplitModel | None = None
    client: ClientState | None = None
    server: ServerState | None = None


def run_client(transport: Transport, cfg: SessionConfig,
               images: np.ndarray | None, labels: np.ndarray) -> RoleResult:
    """Client role. Holds the labels, and the examples (``images``) in
    every topology but ``server_data``."""
    cfg.validate()
    _client_handshake(transport, cfg, len(labels))
    model, client, _ = build_parts(cfg)
    program = ROLES[cfg.topology][0]
    losses: list[float] = []
    for idx in session_batches(cfg, len(labels)):
        x = None if images is None else images[idx]
        losses.append(_play(transport, program(client, x, labels[idx])))
        model.step_count += 1
    _finish(transport, images is not None)
    return RoleResult(losses=losses, model=model, client=client)


def run_server(transport: Transport, cfg: SessionConfig,
               images: np.ndarray | None = None, tap: ServerTap | None = None
               ) -> RoleResult:
    """Server role. Holds the examples (``images``) only in ``server_data``;
    otherwise it runs as many steps as the client's example count makes."""
    cfg.validate()
    n = _server_handshake(transport, cfg, None if images is None else len(images))
    model, _, server = build_parts(cfg)
    server.tap = tap
    program = ROLES[cfg.topology][1]
    losses: list[float] = []
    # Without examples only the step count matters: allocate nothing by the peer's word.
    for idx in (range(cfg.epochs * -(-n // cfg.batch_size)) if images is None
                else session_batches(cfg, n)):
        x = None if images is None else images[idx]
        losses.append(_play(transport, program(server, x)))
        model.step_count += 1
    _finish(transport, images is not None)
    return RoleResult(losses=losses, model=model, server=server)


def run_session(cfg: SessionConfig, images: np.ndarray, labels: np.ndarray,
                transport_pair, tap: ServerTap | None = None
                ) -> tuple[RoleResult, RoleResult]:
    """Run both roles on two threads over an already-connected transport
    pair; returns (client result, server result). The caller owns the pair
    and closes it. A role that fails closes its own end, so the peer's next
    recv fails at once; the first failure is reported as the cause."""
    ct, st = transport_pair
    client_images, server_images = held_examples(cfg.topology, images)
    results: dict[str, RoleResult] = {}
    errors: dict[str, BaseException] = {}

    def play(role, run, transport, *args):
        try:
            results[role] = run(transport, cfg, *args)
        except BaseException as exc:  # surface in the caller's thread
            errors[role] = exc  # recorded before the close wakes the peer
            transport.close()

    threads = {role: threading.Thread(target=play, args=(role, *args), daemon=True)
               for role, args in (("client", (run_client, ct, client_images, labels)),
                                  ("server", (run_server, st, server_images, tap)))}
    for t in threads.values():
        t.start()
    deadline = time.monotonic() + SESSION_TIMEOUT
    for t in threads.values():
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    hung = [role for role, t in threads.items() if t.is_alive()]
    reasons = [f"{' and '.join(hung)} role still running after {SESSION_TIMEOUT:g} s"
               ] if hung else []
    role, cause = next(iter(errors.items()), (None, None))
    if cause is not None:
        reasons.append(f"{role} role failed: {cause!r}")
    if reasons:
        raise ProtocolError("; ".join(reasons)) from cause
    return results["client"], results["server"]

"""Split training between a client and a server role.

Three topologies are supported:

  * ``label_sharing``  — client holds examples and labels, sends both the
    cut activations and the labels; server computes the loss.
  * ``server_data``    — server holds the examples and runs the first
    part; client holds the labels and runs the tail plus the loss.
  * ``client_labels``  — model in three parts; client runs the head and
    the tail (loss included), server runs the middle.

Each topology's step is written once, in ``ROLES``, as a client and a
server program: generators that own their part's arithmetic and do no
I/O. The part that owns the loss runs ``loss_forward_backward``, the one
cross-entropy step, which updates nothing: its role zeroes and steps the
part's optimizer around it. A part before a cut backprops the gradient
it receives and updates itself (``backprop_part``). A program yields
``(MsgType, value)`` to send and a bare ``MsgType`` to receive, and gets
back a one-item list holding the received value, which it takes out: no
frame of ``_lockstep`` or ``_play`` then holds the value while the
program runs. A role holds no cut activation past its last reader: once
sent, a part's output keeps only its shape and graph node for
``backprop_part``, and a received one lets go of its array once the
part's forward has read it; a VJP that reads the array keeps it.
``train_step`` runs both programs in one thread and hands values across
as they are; ``run_client`` and ``run_server`` each run one program over
a ``Transport``, through the ``CODECS`` table. The codec is bit-exact,
so both ways walk the same trajectory.

The server's honest-but-curious vantage point is a ``ServerTap``: an
append-only record of the messages the server sends and receives.
Given a tap, ``_lockstep`` and ``_play`` note a step's messages and hand
them to ``ServerTap.record`` when the server's program returns; without
one they keep none. Recording never alters any message.
"""

from __future__ import annotations

import ctypes
import functools
import threading
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import wire
from .autograd import Tensor, backward, cross_entropy
from .data import epoch_batches, epoch_order  # noqa: F401  (re-exported)
from .errors import ConfigError, ProtocolError, ShapeError
from .layers import LayerStack
from .models import ARCHS, SplitModel, build_part, layout, merge, tail_start_index
from .optim import OPTIMIZERS, Optimizer, make_optimizer
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
    smashed: np.ndarray  # the first cut activations of the step, either way
    labels: np.ndarray | None
    grad: list[np.ndarray]  # the first GRAD of the step, either way
    tail_input: np.ndarray | None = None  # activations the server sent


class ServerTap:
    """Append-only log of the server's legitimate observations."""

    def __init__(self):
        self.entries: list[TapEntry] = []

    def record(self, messages: list[tuple[bool, MsgType, object]]) -> None:
        """Log one step from its messages, ``(sent by the server, MsgType,
        value)`` in order: the first SMASHED and GRAD either way, the LABELS
        as int64, and the SMASHED the server sent, each copied once."""
        first, sent = {}, None
        for by_server, mtype, value in messages:
            first.setdefault(mtype, value)
            if by_server and mtype == MsgType.SMASHED:
                sent = value
        smashed, labels = first[MsgType.SMASHED], first.get(MsgType.LABELS)
        kept = np.array(smashed, copy=True)
        self.entries.append(TapEntry(
            len(self.entries) + 1, kept,
            None if labels is None else np.array(labels, dtype=np.int64, copy=True),
            [np.array(g, copy=True) for g in first.get(MsgType.GRAD, [])],
            kept if sent is smashed else None if sent is None else np.array(sent, copy=True)))

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# shared step arithmetic

_ZERO = bytes(4)  # the one float32 +0.0 behind every released tensor

def _release(t: Tensor) -> None:
    """Swap ``t``'s array for a read-only zero-byte stand-in of its shape:
    after the forward pass ``backward`` reads only that and the node."""
    shape = t.data.shape
    t.data = np.ndarray(shape, np.float32, _ZERO, strides=(0,) * len(shape))


def loss_forward_backward(part: LayerStack, sm: Tensor,
                          labels: np.ndarray) -> tuple[float, np.ndarray | None]:
    """The one cross-entropy step: forward ``part`` from the leaf ``sm``,
    which lets go of its array (``_release``) once read, the loss against
    ``labels``, and backward. Returns the loss and the gradient at ``sm``
    as stored; the parameters keep theirs for the caller's optimizer."""
    labels = np.asarray(labels, dtype=np.int64)
    if sm.shape[:1] != labels.shape:
        raise ProtocolError(f"activations {sm.shape} for {labels.size} labels")
    probs = part.forward(sm)
    _release(sm)
    try:
        loss = cross_entropy(probs, labels)
    except ShapeError:  # the rows match: a label out of range is the peer's
        k = probs.data.shape[-1]
        bad = labels[(labels < 0) | (labels >= k)]
        if not bad.size:
            raise
        raise ProtocolError(f"label {bad[0]} for {k} classes") from None
    backward(loss)
    return float(loss.data), sm.grad


def backprop_part(part: LayerStack, out: Tensor, grad_out: np.ndarray,
                  opt: Optimizer) -> None:
    """Backprop a received cut gradient through a part and update it."""
    if grad_out.shape != out.data.shape:
        raise ProtocolError(
            f"cut gradient shape {grad_out.shape} != activation {out.data.shape}"
        )
    opt.zero_grad()
    backward(out, seed_grad=grad_out)
    opt.step()


@dataclass
class ClientState:
    model: SplitModel  # the client's own layers: the head's, then the tail's
    head: LayerStack | None = None
    tail: LayerStack | None = None
    head_opt: Optimizer | None = None
    tail_opt: Optimizer | None = None
    rows: tuple[int, ...] | None = None  # row shape of the SMASHED it receives


@dataclass
class ServerState:
    part: SplitModel  # the server's own layers
    opt: Optimizer | None = None
    rows: tuple[int, ...] | None = None  # row shape of the SMASHED it receives


def cut(cfg: SessionConfig) -> tuple[int, int, int]:
    """Where every topology cuts the ``n`` layers of its net: at ``a`` (the
    split depth, 0 in server_data) and ``b`` (the tail's start, ``n`` in
    label_sharing). The client's head is layers [0, a), the server's part
    [a, b) and the client's tail [b, n)."""
    cfg.validate()
    n = len(layout(cfg.arch))
    a = 0 if cfg.topology == "server_data" else cfg.split_depth
    b = n if cfg.topology == "label_sharing" else tail_start_index(cfg.arch, cfg.tail_depth)
    if not (cfg.topology == "server_data" or 1 <= a < b):
        raise ConfigError(f"split depth {a} out of range [1, {b - 1}] in {cfg.topology}")
    return a, b, n


def build_parts(cfg: SessionConfig, roles=("client", "server")) -> tuple:
    """The state of each of ``roles``, in order. A role builds only its own
    layers of the net cut at ``cut(cfg)``, each initialized as the same
    layer of ``build_net(cfg.arch, cfg.seed)``; an empty part is None. A
    role that receives SMASHED gets its cut's row shape, read from the
    net's layout."""
    a, b, n = cut(cfg)
    rows = layout(cfg.arch).shapes

    def opt(stack: LayerStack | None) -> Optimizer | None:
        return None if stack is None else make_optimizer(cfg.optimizer, stack.params(), cfg.lr)

    states = []
    for role in roles:
        if role == "client":
            model = build_part(cfg.arch, cfg.seed, ((0, a), (b, n)), cfg.split_depth)
            head = LayerStack(model.layers[:a]) if a else None
            tail = LayerStack(model.layers[a:]) if b < n else None
            states.append(ClientState(model, head, tail, opt(head), opt(tail),
                                      None if tail is None else rows[b]))
        else:
            part = build_part(cfg.arch, cfg.seed, ((a, b),), cfg.split_depth)
            states.append(ServerState(part, opt(part), rows=rows[a] if a else None))
    return tuple(states)


def _cut_input(smashed: np.ndarray, rows: tuple[int, ...]) -> Tensor:
    """A peer's cut activations as the leaf a part starts from, if their
    rows have the cut's shape."""
    if np.shape(smashed)[1:] != rows:
        raise ProtocolError(f"activations {np.shape(smashed)} for rows of {rows}")
    return Tensor(smashed, requires_grad=True)


def _sent(out: Tensor) -> np.ndarray:
    """A part's output ``out``, to send: its array, which ``out`` lets go
    of, keeping what ``backprop_part`` reads."""
    data = out.data
    _release(out)
    return data


def _cut_grad(grads: list[np.ndarray]) -> np.ndarray:
    """The one tensor of a GRAD that carries only a cut gradient."""
    if len(grads) != 1:
        raise ProtocolError(f"GRAD of {len(grads)} tensors, expected 1 (the cut gradient)")
    return grads[0]


# ---------------------------------------------------------------------------
# role programs: each topology's step, written once
#
# A client program takes (state, examples or None, labels), a server
# program (state, examples or None); both return the step's loss.

def _label_sharing_client(client: ClientState, x, y):
    smashed = client.head.forward(Tensor(x))
    yield MsgType.SMASHED, _sent(smashed)
    yield MsgType.LABELS, y
    gcut = _cut_grad((yield MsgType.GRAD).pop())
    loss = (yield MsgType.LOSS).pop()
    backprop_part(client.head, smashed, gcut, client.head_opt)
    return loss


def _label_sharing_server(server: ServerState, x):
    sm = _cut_input((yield MsgType.SMASHED).pop(), server.rows)
    y = (yield MsgType.LABELS).pop()
    server.opt.zero_grad()
    loss, gcut = loss_forward_backward(server.part, sm, y)
    server.opt.step()
    yield MsgType.GRAD, [gcut]
    yield MsgType.LOSS, loss
    return loss


def _server_data_client(client: ClientState, x, y):
    sm = _cut_input((yield MsgType.SMASHED).pop(), client.rows)
    client.tail_opt.zero_grad()
    loss, gcut = loss_forward_backward(client.tail, sm, y)
    client.tail_opt.step()
    yield MsgType.GRAD, [gcut, *[p.grad for p in client.tail_opt.params]]
    yield MsgType.LOSS, loss
    return loss


def _server_data_server(server: ServerState, x):
    smashed = server.part.forward(Tensor(x))
    yield MsgType.SMASHED, _sent(smashed)
    grads = (yield MsgType.GRAD).pop()
    loss = (yield MsgType.LOSS).pop()
    backprop_part(server.part, smashed, grads[0], server.opt)
    return loss


def _client_labels_client(client: ClientState, x, y):
    a1 = client.head.forward(Tensor(x))
    yield MsgType.SMASHED, _sent(a1)
    sm2 = _cut_input((yield MsgType.SMASHED).pop(), client.rows)
    client.tail_opt.zero_grad()
    loss, g2 = loss_forward_backward(client.tail, sm2, y)
    client.tail_opt.step()
    yield MsgType.GRAD, [g2, *[p.grad for p in client.tail_opt.params]]
    yield MsgType.LOSS, loss
    g1 = _cut_grad((yield MsgType.GRAD).pop())
    backprop_part(client.head, a1, g1, client.head_opt)
    return loss


def _client_labels_server(server: ServerState, x):
    sm1 = _cut_input((yield MsgType.SMASHED).pop(), server.rows)
    a2 = server.part.forward(sm1)
    _release(sm1)
    yield MsgType.SMASHED, _sent(a2)
    grads = (yield MsgType.GRAD).pop()
    loss = (yield MsgType.LOSS).pop()
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

def _lockstep(*programs, tap: ServerTap | None = None) -> list:
    """Run a client and a server program to completion in this thread. A
    sent value goes straight into the peer's inbox; a program waiting on
    an empty inbox lets the other one run. ``tap`` records the step's
    messages when the server's program returns."""
    inbox, results = ([], []), [None, None]
    messages = []
    events = [next(p) for p in programs]
    i = idle = 0
    while events != [None, None]:
        event, value = events[i], None
        if isinstance(event, tuple):
            inbox[1 - i].append(event)
            if tap is not None:
                messages.append((i == 1, *event))
        elif event is not None and inbox[i]:
            mtype, value = inbox[i].pop(0)
            if mtype != event:
                raise ProtocolError(f"unexpected {mtype.name}, expected {event.name}")
            value = [value]
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
            if i == 1 and tap is not None:
                tap.record(messages)
    return results


def train_step(topology: str, client: ClientState, server: ServerState,
               batch: tuple[np.ndarray, np.ndarray], tap: ServerTap | None = None
               ) -> float:
    """One forward-backward-update pass of both role programs, no wire in
    between, recorded on ``tap`` if given. Numerically identical to the
    wire-driven path: the codec is bit-exact, so skipping it changes
    nothing."""
    x, y = batch
    client_x, server_x = held_examples(topology, x)
    client_program, server_program = ROLES[topology]
    loss, _ = _lockstep(client_program(client, client_x, y),
                        server_program(server, server_x), tap=tap)
    return loss


def train_local(cfg: SessionConfig, images: np.ndarray, labels: np.ndarray,
                tap: ServerTap | None = None, on_epoch=None
                ) -> tuple[SplitModel, list[float], ClientState, ServerState]:
    """Run the whole training loop in-memory via ``train_step``; returns
    the whole net (both roles' layers, merged), the losses and the two
    role states. ``on_epoch(client, server)``, if given, runs after each
    epoch's last step."""
    client, server = build_parts(cfg)
    losses = []
    for epoch in range(cfg.epochs):
        losses += [train_step(cfg.topology, client, server, (images[idx], labels[idx]), tap)
                   for idx in epoch_batches(len(labels), cfg.batch_size, cfg.seed, epoch)]
        if on_epoch is not None:
            on_epoch(client, server)
    model = merge(client.model, server.part)
    model.step_count = len(losses)
    return model, losses, client, server


# ---------------------------------------------------------------------------
# wire-driven roles

CODECS = {  # message type -> (encode, decode), each looked up in wire per call
    MsgType.SMASHED: (lambda a: wire.encode_tensor(a), lambda b: wire.decode_one_tensor(b)),
    MsgType.LABELS: (lambda y: wire.encode_labels(y), lambda b: wire.decode_labels(b)),
    MsgType.GRAD: (lambda g: wire.encode_tensor_list(g), lambda b: wire.decode_tensor_list(b)),
    MsgType.LOSS: (lambda v: wire.encode_scalar(v), lambda b: wire.decode_scalar(b)),
}


def _expect(transport: Transport, *allowed: MsgType) -> tuple[MsgType, bytearray]:
    mtype, payload = transport.recv()
    if mtype not in allowed:
        names = "/".join(m.name for m in allowed)
        raise ProtocolError(f"unexpected {mtype.name}, expected {names}")
    return mtype, payload


def _play(transport: Transport, program, tap: ServerTap | None = None):
    """Run one role program over ``transport``; returns its result. The
    frames of each of the role's turns go out in one write. ``tap``, given
    only for the server, records the step's messages when it returns."""
    value = None
    messages = []
    with transport.coalesced():
        while True:
            try:
                event = program.send(value)
            except StopIteration as stop:
                if tap is not None:
                    tap.record(messages)
                return stop.value
            if isinstance(event, MsgType):
                value = [CODECS[event][1](_expect(transport, event)[1])]
                if tap is not None:
                    messages.append((False, event, value[0]))
            else:  # drop the value once encoded: the payload is all the queue keeps
                if tap is not None:
                    messages.append((True, *event))
                mtype, payload = event[0], CODECS[event[0]][0](event[1])
                event = None
                transport.send(mtype, payload)
                payload = value = None


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
    model: SplitModel | None = None  # this role's own layers
    client: ClientState | None = None
    server: ServerState | None = None


def run_client(transport: Transport, cfg: SessionConfig,
               images: np.ndarray | None, labels: np.ndarray) -> RoleResult:
    """Client role. Holds the labels, and the examples (``images``) in
    every topology but ``server_data``."""
    _apply_malloc_policy()
    (client,) = build_parts(cfg, ("client",))
    _client_handshake(transport, cfg, len(labels))
    program = ROLES[cfg.topology][0]
    losses: list[float] = []
    for idx in session_batches(cfg, len(labels)):
        x = None if images is None else images[idx]
        losses.append(_play(transport, program(client, x, labels[idx])))
    _finish(transport, images is not None)
    client.model.step_count = len(losses)
    return RoleResult(losses=losses, model=client.model, client=client)


def run_server(transport: Transport, cfg: SessionConfig,
               images: np.ndarray | None = None, tap: ServerTap | None = None
               ) -> RoleResult:
    """Server role. Holds the examples (``images``) only in ``server_data``;
    otherwise it runs as many steps as the client's example count makes."""
    _apply_malloc_policy()
    (server,) = build_parts(cfg, ("server",))
    n = _server_handshake(transport, cfg, None if images is None else len(images))
    program = ROLES[cfg.topology][1]
    losses: list[float] = []
    # Without examples only the step count matters: allocate nothing by the peer's word.
    for idx in (range(cfg.epochs * -(-n // cfg.batch_size)) if images is None
                else session_batches(cfg, n)):
        x = None if images is None else images[idx]
        losses.append(_play(transport, program(server, x), tap))
    _finish(transport, images is not None)
    server.part.step_count = len(losses)
    return RoleResult(losses=losses, model=server.part, server=server)


# glibc's mallopt parameters, and the values every role and CLI command sets.
_M_ARENA_MAX, _M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -8, -1, -3
_MALLOC_POLICY = ((_M_ARENA_MAX, 1), (_M_TRIM_THRESHOLD, 1 << 30),
                  (_M_MMAP_THRESHOLD, 32 << 20))


@functools.cache
def _apply_malloc_policy() -> None:
    """Set glibc's process-wide malloc policy, once: one arena, no heap
    trimming below 1 GiB, and mmap only for blocks above 32 MiB.

    With an arena per thread, a role thread takes whichever arena an exited
    thread left free, and an arena keeps the pages of the largest role that
    ever used it, so peak memory would depend on thread timing. Role threads
    allocate in lockstep, so they do not contend for one arena. By default
    glibc hands a step's freed temporaries back to the kernel (trimming the
    heap's top, or unmapping blocks above its dynamic mmap threshold) and
    the next step faults every page in again. Setting either threshold
    turns the dynamic one off, which alone is worse than neither, so both
    are set. Not glibc: nothing to do.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version
    except (OSError, TypeError, AttributeError):
        return
    for param, value in _MALLOC_POLICY:
        libc.mallopt(param, value)


def run_session(cfg: SessionConfig, images: np.ndarray, labels: np.ndarray,
                transport_pair, tap: ServerTap | None = None
                ) -> tuple[RoleResult, RoleResult]:
    """Run both roles on two threads over an already-connected transport
    pair; returns (client result, server result). The caller owns the pair
    and closes it. A role that fails closes its own end, so the peer's next
    recv fails at once; the first failure is reported as the cause."""
    _apply_malloc_policy()
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

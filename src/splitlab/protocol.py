"""Split training between a client and a server role.

Three topologies are supported:

  * ``label_sharing``  — client holds examples and labels, sends both the
    cut activations and the labels; server computes the loss.
  * ``server_data``    — server holds the examples and runs the first
    part; client holds the labels and runs the tail plus the loss.
  * ``client_labels``  — model in three parts; client runs the head and
    the tail (loss included), server runs the middle.

The same step arithmetic backs two execution modes: a local in-memory
``train_step`` and wire-driven roles exchanging framed messages over any
transport. The tensor codec is bit-exact, so both modes produce identical
parameter trajectories for identical seeds.

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
from .errors import ConfigError, ProtocolError
from .layers import LayerStack
from .models import ARCHS, SplitModel, build_net, split_at, split_three
from .optim import Optimizer, make_optimizer
from .transport import Transport
from .wire import MsgType

TOPOLOGIES = ("label_sharing", "server_data", "client_labels")
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
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.batch_size < 1 or self.epochs < 0 or self.lr <= 0:
            raise ConfigError("batch_size >= 1, epochs >= 0, lr > 0 required")
        if self.tail_depth < 1:
            raise ConfigError("tail_depth >= 1 required")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SessionConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        return cls(**d).validate()


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
    sm = Tensor(smashed, requires_grad=True)
    probs = part.forward(sm)
    loss = cross_entropy(probs, np.asarray(labels, dtype=np.int64))
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
                  opt: Optimizer | None) -> np.ndarray | None:
    """Backprop a received cut gradient through a part and update it.

    Returns the gradient at the part's own input if the forward started
    from a requires_grad leaf, else None.
    """
    if grad_out.shape != out.data.shape:
        raise ProtocolError(
            f"cut gradient shape {grad_out.shape} != activation {out.data.shape}"
        )
    for p in part.params():
        p.grad = None
    backward(out, seed_grad=grad_out)
    if opt is not None:
        opt.step()
    return None


def middle_forward(part: LayerStack, smashed: np.ndarray) -> tuple[Tensor, Tensor]:
    """Forward a middle part from a leaf input; returns (input leaf, output)."""
    sm = Tensor(smashed, requires_grad=True)
    return sm, part.forward(sm)


# ---------------------------------------------------------------------------
# local (in-memory) execution

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
        from .models import tail_start_index

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


def train_step(topology: str, client: ClientState, server: ServerState,
               batch: tuple[np.ndarray, np.ndarray]) -> float:
    """One synchronous forward-backward-update pass, no wire in between.

    Numerically identical to the wire-driven path: the codec is bit-exact,
    so skipping it changes nothing.
    """
    x, y = batch
    server.step += 1
    if topology == "label_sharing":
        smashed = part_forward(client.head, x)
        loss, gcut, _ = loss_forward_backward(server.part, smashed.data, y, server.opt)
        if server.tap is not None:
            server.tap.record(server.step, smashed.data, y, [gcut])
        backprop_part(client.head, smashed, gcut, client.head_opt)
        return loss
    if topology == "server_data":
        smashed = part_forward(server.part, x)
        loss, gcut, pgrads = loss_forward_backward(
            client.tail, smashed.data, y, client.tail_opt, collect_param_grads=True
        )
        if server.tap is not None:
            server.tap.record(server.step, smashed.data, None, [gcut, *pgrads])
        backprop_part(server.part, smashed, gcut, server.opt)
        return loss
    if topology == "client_labels":
        a1 = part_forward(client.head, x)
        sm1, a2 = middle_forward(server.part, a1.data)
        loss, g2, pgrads = loss_forward_backward(
            client.tail, a2.data, y, client.tail_opt, collect_param_grads=True
        )
        if server.tap is not None:
            server.tap.record(server.step, a1.data, None, [g2, *pgrads])
        backprop_part(server.part, a2, g2, server.opt)
        backprop_part(client.head, a1, sm1.grad, client.head_opt)
        return loss
    raise ConfigError(f"unknown topology {topology!r}")


def epoch_order(n: int, seed: int, epoch: int) -> np.ndarray:
    """Shuffle shared by both parties so examples and labels stay aligned."""
    order = np.arange(n)
    np.random.default_rng([seed, epoch]).shuffle(order)
    return order


def train_local(cfg: SessionConfig, images: np.ndarray, labels: np.ndarray,
                model: SplitModel | None = None, tap: ServerTap | None = None
                ) -> tuple[SplitModel, list[float], ClientState, ServerState]:
    """Run the whole training loop in-memory via ``train_step``."""
    model, client, server = build_parts(cfg, model)
    server.tap = tap
    losses = []
    n = images.shape[0]
    for epoch in range(cfg.epochs):
        order = epoch_order(n, cfg.seed, epoch)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
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
    n = images.shape[0]
    for epoch in range(cfg.epochs):
        order = epoch_order(n, cfg.seed, epoch)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            opt.zero_grad()
            probs = model.forward(Tensor(images[idx]))
            loss = cross_entropy(probs, labels[idx].astype(np.int64))
            backward(loss)
            opt.step()
            losses.append(float(loss.data))
            model.step_count += 1
    return model, losses


# ---------------------------------------------------------------------------
# wire-driven roles

def _expect(transport: Transport, *allowed: MsgType) -> tuple[MsgType, bytes]:
    mtype, payload = transport.recv()
    if mtype not in allowed:
        names = "/".join(m.name for m in allowed)
        raise ProtocolError(f"unexpected {mtype.name}, expected {names}")
    return mtype, payload


def _client_handshake(transport: Transport, cfg: SessionConfig) -> None:
    transport.send(MsgType.HELLO, wire.encode_hello()[wire.HEADER.size :])
    _, payload = _expect(transport, MsgType.HELLO)
    wire.check_hello(payload)
    transport.send(MsgType.CONFIG, wire.encode_json(cfg.to_dict()))
    mtype, payload = _expect(transport, MsgType.ACK, MsgType.END)
    if mtype == MsgType.END:
        raise ProtocolError(f"server rejected config: {payload.decode('utf-8', 'replace')}")


def _server_handshake(transport: Transport, cfg: SessionConfig) -> None:
    _, payload = _expect(transport, MsgType.HELLO)
    wire.check_hello(payload)
    transport.send(MsgType.HELLO, wire.encode_hello()[wire.HEADER.size :])
    _, payload = _expect(transport, MsgType.CONFIG)
    peer = wire.decode_json(payload)
    if peer != cfg.to_dict():
        diff = {
            k: (peer.get(k), cfg.to_dict().get(k))
            for k in set(peer) | set(cfg.to_dict())
            if peer.get(k) != cfg.to_dict().get(k)
        }
        transport.send(MsgType.END, wire.encode_json({"config_mismatch": repr(diff)}))
        raise ProtocolError(f"config mismatch with peer: {diff}")
    transport.send(MsgType.ACK)


@dataclass
class RoleResult:
    losses: list[float] = field(default_factory=list)
    model: SplitModel | None = None
    client: ClientState | None = None
    server: ServerState | None = None
    tap: ServerTap | None = None


def run_client(transport: Transport, cfg: SessionConfig,
               images: np.ndarray | None, labels: np.ndarray | None) -> RoleResult:
    """Client role. Needs images+labels except in ``server_data``, where it
    only holds the labels."""
    cfg.validate()
    _client_handshake(transport, cfg)
    model, client, _ = build_parts(cfg)
    losses: list[float] = []

    if cfg.topology == "label_sharing":
        for epoch in range(cfg.epochs):
            order = epoch_order(images.shape[0], cfg.seed, epoch)
            for start in range(0, images.shape[0], cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                smashed = part_forward(client.head, images[idx])
                transport.send(MsgType.SMASHED, wire.encode_tensor(smashed.data))
                transport.send(MsgType.LABELS, wire.encode_labels(labels[idx]))
                _, payload = _expect(transport, MsgType.GRAD)
                (gcut,) = wire.decode_tensor_list(payload)
                _, payload = _expect(transport, MsgType.LOSS)
                losses.append(wire.decode_scalar(payload))
                backprop_part(client.head, smashed, gcut, client.head_opt)
                model.step_count += 1
        transport.send(MsgType.END)

    elif cfg.topology == "server_data":
        n = labels.shape[0]
        epoch = step_in_epoch = 0
        order = epoch_order(n, cfg.seed, 0) if cfg.epochs else None
        while True:
            mtype, payload = _expect(transport, MsgType.SMASHED, MsgType.END)
            if mtype == MsgType.END:
                break
            smashed, _ = wire.decode_tensor(payload)
            idx = order[step_in_epoch : step_in_epoch + cfg.batch_size]
            loss, gcut, pgrads = loss_forward_backward(
                client.tail, smashed, labels[idx], client.tail_opt,
                collect_param_grads=True,
            )
            transport.send(MsgType.GRAD, wire.encode_tensor_list([gcut, *pgrads]))
            transport.send(MsgType.LOSS, wire.encode_scalar(loss))
            losses.append(loss)
            model.step_count += 1
            step_in_epoch += cfg.batch_size
            if step_in_epoch >= n:
                epoch += 1
                step_in_epoch = 0
                if epoch < cfg.epochs:
                    order = epoch_order(n, cfg.seed, epoch)

    else:  # client_labels
        for epoch in range(cfg.epochs):
            order = epoch_order(images.shape[0], cfg.seed, epoch)
            for start in range(0, images.shape[0], cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                a1 = part_forward(client.head, images[idx])
                transport.send(MsgType.SMASHED, wire.encode_tensor(a1.data))
                _, payload = _expect(transport, MsgType.SMASHED)
                a2, _ = wire.decode_tensor(payload)
                loss, g2, pgrads = loss_forward_backward(
                    client.tail, a2, labels[idx], client.tail_opt,
                    collect_param_grads=True,
                )
                transport.send(MsgType.GRAD, wire.encode_tensor_list([g2, *pgrads]))
                transport.send(MsgType.LOSS, wire.encode_scalar(loss))
                _, payload = _expect(transport, MsgType.GRAD)
                (g1,) = wire.decode_tensor_list(payload)
                backprop_part(client.head, a1, g1, client.head_opt)
                losses.append(loss)
                model.step_count += 1
        transport.send(MsgType.END)

    return RoleResult(losses=losses, model=model, client=client)


def run_server(transport: Transport, cfg: SessionConfig,
               images: np.ndarray | None = None,
               labels: np.ndarray | None = None,
               tap: ServerTap | None = None) -> RoleResult:
    """Server role. Needs images only in the ``server_data`` topology."""
    cfg.validate()
    _server_handshake(transport, cfg)
    model, _, server = build_parts(cfg)
    server.tap = tap
    losses: list[float] = []

    if cfg.topology == "label_sharing":
        while True:
            mtype, payload = _expect(transport, MsgType.SMASHED, MsgType.END)
            if mtype == MsgType.END:
                break
            smashed, _ = wire.decode_tensor(payload)
            _, payload = _expect(transport, MsgType.LABELS)
            y = wire.decode_labels(payload)
            server.step += 1
            loss, gcut, _ = loss_forward_backward(server.part, smashed, y, server.opt)
            if tap is not None:
                tap.record(server.step, smashed, y, [gcut])
            transport.send(MsgType.GRAD, wire.encode_tensor_list([gcut]))
            transport.send(MsgType.LOSS, wire.encode_scalar(loss))
            losses.append(loss)
            model.step_count += 1

    elif cfg.topology == "server_data":
        n = images.shape[0]
        for epoch in range(cfg.epochs):
            order = epoch_order(n, cfg.seed, epoch)
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                smashed = part_forward(server.part, images[idx])
                transport.send(MsgType.SMASHED, wire.encode_tensor(smashed.data))
                _, payload = _expect(transport, MsgType.GRAD)
                grads = wire.decode_tensor_list(payload)
                _, payload = _expect(transport, MsgType.LOSS)
                loss = wire.decode_scalar(payload)
                server.step += 1
                if tap is not None:
                    tap.record(server.step, smashed.data, None, grads)
                backprop_part(server.part, smashed, grads[0], server.opt)
                losses.append(loss)
                model.step_count += 1
        transport.send(MsgType.END)

    else:  # client_labels
        while True:
            mtype, payload = _expect(transport, MsgType.SMASHED, MsgType.END)
            if mtype == MsgType.END:
                break
            a1, _ = wire.decode_tensor(payload)
            sm1, a2 = middle_forward(server.part, a1)
            transport.send(MsgType.SMASHED, wire.encode_tensor(a2.data))
            _, payload = _expect(transport, MsgType.GRAD)
            grads = wire.decode_tensor_list(payload)
            _, payload = _expect(transport, MsgType.LOSS)
            loss = wire.decode_scalar(payload)
            server.step += 1
            if tap is not None:
                tap.record(server.step, a1, None, grads)
            backprop_part(server.part, a2, grads[0], server.opt)
            transport.send(MsgType.GRAD, wire.encode_tensor_list([sm1.grad]))
            losses.append(loss)
            model.step_count += 1

    return RoleResult(losses=losses, model=model, server=server, tap=tap)


def run_session(cfg: SessionConfig, images: np.ndarray, labels: np.ndarray,
                transport_pair, tap: ServerTap | None = None
                ) -> tuple[RoleResult, RoleResult]:
    """Run both roles on two threads over an already-connected transport
    pair; returns (client result, server result)."""
    ct, st = transport_pair
    if cfg.topology == "server_data":
        client_args, server_kwargs = (None, labels), {"images": images}
    else:
        client_args, server_kwargs = (images, labels), {}

    results: dict[str, RoleResult] = {}
    errors: dict[str, BaseException] = {}

    def client_main():
        try:
            results["client"] = run_client(ct, cfg, *client_args)
        except BaseException as exc:  # surface in the caller's thread
            errors["client"] = exc

    def server_main():
        try:
            results["server"] = run_server(st, cfg, tap=tap, **server_kwargs)
        except BaseException as exc:
            errors["server"] = exc

    threads = {"client": threading.Thread(target=client_main, daemon=True),
               "server": threading.Thread(target=server_main, daemon=True)}
    for t in threads.values():
        t.start()
    deadline = time.monotonic() + SESSION_TIMEOUT
    for t in threads.values():
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    hung = [role for role, t in threads.items() if t.is_alive()]
    if hung or errors:
        reasons, cause = [], None
        if hung:
            reasons.append(f"{' and '.join(hung)} role still running after "
                           f"{SESSION_TIMEOUT:g} s")
        if errors:
            role, cause = next(iter(errors.items()))
            reasons.append(f"{role} role failed: {cause!r}")
        raise ProtocolError("; ".join(reasons)) from cause
    for role in threads:
        if role not in results:
            raise ProtocolError(f"{role} role returned no result")
    return results["client"], results["server"]

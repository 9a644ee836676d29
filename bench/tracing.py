"""Spans and counters around splitlab's public functions, patched in from
outside the package.

A function is replaced at every name it is looked up by: a module that
did ``from .autograd import backward`` holds its own reference, so
``Tracer.install`` walks every loaded ``splitlab`` module and swaps each
attribute that *is* the original object. Each autograd op's output also
gets its VJP closure wrapped, which gives per-op backward time.

A span is ``[name, start, end, parent index]`` on a per-thread list, with
one open-span stack per thread. Self time is a span's duration minus the
durations of its children. Nothing here changes an argument or a return
value, so a traced run computes the same bits as an untraced one.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter

AUTOGRAD_OPS = ("conv2d", "maxpool2x2", "linear", "softmax", "cross_entropy",
                "relu", "sigmoid", "mse_loss", "tv_penalty")
WIRE_ENCODERS = ("encode_frame", "encode_tensor", "encode_tensor_list",
                 "encode_labels", "encode_scalar", "encode_json", "encode_hello")
WIRE_DECODERS = ("decode_frame", "decode_tensor", "decode_tensor_list",
                 "decode_labels", "decode_scalar", "decode_json")
ROLE_SPANS = {"protocol.client": "client", "protocol.server": "server"}


class _ThreadLog:
    __slots__ = ("spans", "stack", "counts", "generation")

    def __init__(self, generation: int):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.generation = generation


class Tracer:
    """Collects spans and counters from every thread until ``drain``."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._generation = 0
        self._undo: list[tuple[object, str, object]] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None or log.generation != self._generation:
            log = _ThreadLog(self._generation)
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def drain(self) -> list[_ThreadLog]:
        """Hand over everything recorded so far; call it with no span open."""
        with self._lock:
            logs, self._logs = self._logs, []
            self._generation += 1
        return logs

    def count(self, key: str, n: int = 1) -> None:
        counts = self._log().counts
        counts[key] = counts.get(key, 0) + n

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(result, args)`` runs once it returns."""

        def traced(*args, **kwargs):
            log = self._log()
            stack = log.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(log.spans))
            log.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(out, args)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = sys.modules
        ag = mods["splitlab.autograd"]
        wire = mods["splitlab.wire"]
        protocol = mods["splitlab.protocol"]
        labels = mods["splitlab.attacks.labels"]
        inversion = mods["splitlab.attacks.inversion"]
        tensor_cls = ag.Tensor

        def vjp_wrapper(bwd_name):
            def after(out, _args):
                if isinstance(out, tensor_cls) and out._vjp is not None:
                    out._vjp = self.wrap(out._vjp, bwd_name)
            return after

        def count_rounds(result, _args):
            self.count("attacks.inversion.rounds", len(result.history))

        def count_frame(_out, args):
            mtype = wire.MsgType(args[1]).name
            payload = args[2] if len(args) > 2 else b""
            self.count(f"wire.bytes.{mtype}", wire.HEADER.size + len(payload))
            self.count(f"wire.frames.{mtype}", 1)

        spans = {}  # original function -> (span name, after hook)
        for op in AUTOGRAD_OPS:
            spans[getattr(ag, op)] = (f"autograd.{op}.fwd",
                                      vjp_wrapper(f"autograd.{op}.bwd"))
        spans[ag.backward] = ("autograd.backward", None)
        spans[mods["splitlab.models"].build_net] = ("models.build_net", None)
        spans[labels.make_tail_clone] = ("attacks.labels.clone", None)
        spans[labels.tail_param_gradients] = ("attacks.labels.probe", None)
        spans[inversion.unsplit_invert] = ("attacks.inversion.invert", count_rounds)
        for fname in WIRE_ENCODERS:
            spans[getattr(wire, fname)] = ("wire.encode", None)
        for fname in WIRE_DECODERS:
            spans[getattr(wire, fname)] = ("wire.decode", None)
        spans[protocol.run_client] = ("protocol.client", None)
        spans[protocol.run_server] = ("protocol.server", None)
        spans[protocol.train_step] = ("protocol.train_step", None)

        by_id = {id(fn): (fn, self.wrap(fn, name, after))
                 for fn, (name, after) in spans.items()}
        for name, mod in list(mods.items()):
            if mod is None or not (name == "splitlab" or name.startswith("splitlab.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])

        tr = mods["splitlab.transport"].Transport
        self._patch(tr, "send", self.wrap(tr.send, "transport.send", count_frame))
        self._patch(tr, "recv", self.wrap(tr.recv, "transport.recv"))
        optim = mods["splitlab.optim"]
        for cls in (optim.SGD, optim.Adam):
            self._patch(cls, "step", self.wrap(cls.step, "optim.step"))

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class SpanStats:
    """Per-name call count, self time and inclusive time, plus counters and
    per-role busy time (role thread time not spent blocked in recv)."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.busy_s = {"client": 0.0, "server": 0.0}
        self.durations: dict[str, list[float]] = {}

    def add(self, logs: list[_ThreadLog], keep: tuple[str, ...] = ()) -> None:
        for log in logs:
            for key, n in log.counts.items():
                self.counts[key] = self.counts.get(key, 0) + n
            spans = log.spans
            own = [end - start for _, start, end, _ in spans]
            for _, start, end, parent in spans:
                if parent >= 0:
                    own[parent] -= end - start
            role = None
            for i, (name, start, end, parent) in enumerate(spans):
                dur = end - start
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + own[i]
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
                if name in keep:
                    self.durations.setdefault(name, []).append(dur)
                if parent < 0 and name in ROLE_SPANS:
                    role = ROLE_SPANS[name]
            if role is not None:
                self.busy_s[role] += sum(
                    own[i] for i, rec in enumerate(spans) if rec[0] != "transport.recv"
                )

"""splitlab benchmark: one workload per call, timed end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0
    python3 bench/run.py --smoke

Run from the repository root. Each workload runs its set-up at least
five times and for at least half a second (``setup_s`` is the median),
one untimed warm-up operation per variant, then whole cycles of
operations (one per variant each) for at least ``--seconds``.
Operations run closed loop: one caller, each waiting for the previous
result; a training session is one client and one server thread in
lockstep. BLAS is pinned to one thread, and the process to one CPU: no
workload can use a second one, and on a virtual machine a hand-off
between the session's threads that wakes the other, idle vCPU goes
through the hypervisor, which made tiny8 steps 25% slower and twice as
variable.

``--trace 0`` reports the end-to-end metrics, the same three for every
workload:

* ``op_ms_min``: shortest time of one timed unit (training step, label
  inference or inversion round), averaged over the workload's variants;
* ``setup_s``: median time to make the workload's inputs;
* ``peak_rss_mb``: the process's peak resident set.

The bounded latency is the minimum, as ``timeit`` advises, rather than
the median: on a small shared host other tenants slow every operation
by up to 1.6x (in CPU time, not only wall time) for stretches of one to
tens of seconds. The fastest operation of a run tracks the program's
own cost; the median and any throughput over the window track the
neighbours. The median, p90 and samples per second are still on the
report line, unbounded.

``--trace 1`` runs the same operations untraced for half the time and
traced for the other half, reports the per-layer metrics (per timed
unit) and the tracing overhead, and checks that tracing changed no
output bit. Every run prints a report line (per-variant min/p50/p90 under the
workload's own names, output checks, failures and the environment) and
then, as its last line, ``{"correct", "attempted", "failed", "metrics"}``.
``attempted`` counts operations and output checks; ``failed`` those that
raised or failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS pin)

from tracing import AUTOGRAD_OPS, SpanStats, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5  # set-up runs at least this often per run
SETUP_MIN_S = 0.5  # and, up to SETUP_MAX_REPEATS, until this long
SETUP_MAX_REPEATS = 100
STOP_S = 140.0  # no operation starts after this many seconds of a run
DEADLINE_S = 160.0  # an operation still running then is interrupted and counted failed


def _import_splitlab():
    """Import splitlab from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import splitlab
    except ImportError as exc:
        sys.exit(f"bench: cannot import splitlab from {src}: {exc}")
    if not Path(splitlab.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"bench: splitlab imported from {splitlab.__file__}, not {src}")


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S:.0f} s")


def environment(seed: int) -> dict:
    import ctypes
    import platform

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads if threads is not None
            else os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "cpus_used": sorted(os.sched_getaffinity(0)),
            "seed": seed}


# ---------------------------------------------------------------------------
# measurement

class Window:
    """The operations of one measured stretch and what they produced."""

    def __init__(self, n_variants: int):
        self.n = n_variants
        self.results = []  # (op index, OpResult)
        self.errors = []  # (op index, message)
        self.stats = [SpanStats() for _ in range(n_variants)]
        self.wire_counts = []  # (op index, wire counters of that op)
        self.wall = 0.0

    def times(self, v: int) -> list[float]:
        return [t for i, r in self.results if i % self.n == v for t in r.times]

    def units(self, v: int) -> int:
        return sum(r.units for i, r in self.results if i % self.n == v)


def run_op(wl, i: int, window: Window, tracer=None) -> None:
    if tracer is not None:
        tracer.drain()
    try:
        window.results.append((i, wl.run(i)))
    except Exception as exc:  # a failed operation is counted, not fatal
        window.errors.append((i, f"{type(exc).__name__}: {exc}"))
    if tracer is not None:
        logs = tracer.drain()
        window.stats[i % len(wl.variants)].add(logs)
        wire = {}
        for log in logs:
            for key, n in log.counts.items():
                if key.startswith("wire."):
                    wire[key] = wire.get(key, 0) + n
        window.wire_counts.append((i, wire))


def measure(wl, seconds: float, stop_at: float, tracer=None) -> Window:
    """Whole cycles (one operation per variant) until ``seconds`` have
    passed, or until ``stop_at`` when the run is out of time."""
    n = len(wl.variants)
    window = Window(n)
    t0 = perf_counter()
    i = 0
    while perf_counter() < stop_at:
        for _ in range(n):
            run_op(wl, i, window, tracer)
            i += 1
        if perf_counter() - t0 >= seconds:
            break
    window.wall = perf_counter() - t0
    return window


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def op_ms(window: Window, q: float) -> float:
    """The ``q``-th percentile time of one timed unit, averaged over the
    variants."""
    qs = [_pct(window.times(v), q) for v in range(window.n) if window.times(v)]
    return 1e3 * statistics.fmean(qs) if qs else 0.0


def samples_per_s(window: Window) -> float:
    """Examples processed per second of the window, session set-up included."""
    items = sum(r.items for _, r in window.results)
    return items / window.wall if window.wall else 0.0


def per_layer(window: Window, local_steps: list[float], overhead_pct: float) -> dict:
    """Per-layer metrics of the traced window, per timed unit (training
    step, inference or round) and averaged over the variants. Times are
    self times, except the label attack's clone and probe spans, which
    include their callees."""
    from splitlab.wire import MsgType

    def self_s(key):
        return lambda s: s.self_s.get(key, 0.0)

    def total_s(key):
        return lambda s: s.total_s.get(key, 0.0)

    def calls(key):
        return lambda s: s.calls.get(key, 0)

    def count(key):
        return lambda s: s.counts.get(key, 0)

    defs = []  # (name, unit, one variant's window total, divided below by its units)
    for op in AUTOGRAD_OPS:
        defs += [(f"autograd.{op}.fwd_s", "s/op", self_s(f"autograd.{op}.fwd")),
                 (f"autograd.{op}.bwd_s", "s/op", self_s(f"autograd.{op}.bwd")),
                 (f"autograd.{op}.calls", "count/op", calls(f"autograd.{op}.fwd"))]
    defs += [
        ("autograd.backward.walk_s", "s/op", self_s("autograd.backward")),
        ("optim.step_s", "s/op", self_s("optim.step")),
        ("models.build_net_s", "s/op", self_s("models.build_net")),
        ("models.build_net.calls", "count/op", calls("models.build_net")),
        ("attacks.labels.clone_s", "s/op", total_s("attacks.labels.clone")),
        ("attacks.labels.probe_s", "s/op", total_s("attacks.labels.probe")),
        ("attacks.labels.probes_per_inference", "count", calls("attacks.labels.probe")),
        ("wire.encode_s", "s/op", self_s("wire.encode")),
        ("wire.decode_s", "s/op", self_s("wire.decode")),
    ]
    for mt in MsgType:
        defs += [(f"wire.bytes_per_step.{mt.name}", "B/step", count(f"wire.bytes.{mt.name}")),
                 (f"wire.frames_per_step.{mt.name}", "count/step",
                  count(f"wire.frames.{mt.name}"))]
    defs += [
        ("transport.send_s", "s/op", self_s("transport.send")),
        ("transport.recv_wait_s", "s/op", self_s("transport.recv")),
        ("protocol.client_busy_s", "s/op", lambda s: s.busy_s["client"]),
        ("protocol.server_busy_s", "s/op", lambda s: s.busy_s["server"]),
    ]
    live = [v for v in range(window.n) if window.units(v)]
    metrics = {}
    for name, unit, fn in defs:
        vals = [fn(window.stats[v]) / window.units(v) for v in live]
        metrics[name] = (statistics.fmean(vals) if vals else 0.0, unit)
    invert_calls = sum(s.calls.get("attacks.inversion.invert", 0) for s in window.stats)
    rounds = sum(s.counts.get("attacks.inversion.rounds", 0) for s in window.stats)
    metrics["attacks.inversion.rounds"] = (rounds / invert_calls if invert_calls else 0.0,
                                           "count")
    metrics["protocol.local_step_ms_p50"] = (1e3 * _pct(local_steps, 50), "ms")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def report_line(wl, window: Window, extra: dict) -> dict:
    """The per-variant latencies under the names the workload's users read."""
    n = len(wl.variants)
    scale = 1e3 if wl.unit == "ms" else 1.0
    key = f"{wl.op}_{wl.unit}"
    rep = {}
    pooled = [t for v in range(n) for t in window.times(v)]
    for q, stat in ((0, "min"), (50, "p50"), (90, "p90")):
        rep[f"{key}_{stat}"] = {"value": scale * _pct(pooled, q), "unit": wl.unit,
                                "n": len(pooled)}
        if n > 1:
            for v, label in enumerate(wl.variants):
                ts = window.times(v)
                rep[f"{key}_{stat}.{label}"] = {"value": scale * _pct(ts, q), "unit": wl.unit,
                                                "n": len(ts)}
    name = "train_samples_per_s" if wl.op == "train_step" else "samples_per_s"
    rep[name] = {"value": samples_per_s(window), "unit": "1/s"}
    rep.update(extra)
    return rep


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """Returns (report dict, result dict) for one workload."""
    import resource

    from workloads import WORKLOADS

    stop_at = perf_counter() + STOP_S
    wl = WORKLOADS[name](seed, small, record=trace)
    checks = []  # (name, ok, detail)
    setups = []
    while not setups or not small and (
            len(setups) < SETUP_REPEATS
            or sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS):
        t0 = perf_counter()
        wl.setup()
        setups.append(perf_counter() - t0)
    try:
        wl.open()
        warm = Window(len(wl.variants))
        for i in range(len(wl.variants)):
            run_op(wl, i, warm)
        if not trace:
            window = measure(wl, seconds, stop_at)
            windows = [warm, window]
        else:
            base = measure(wl, seconds / 2, stop_at)
            tracer = Tracer()
            tracer.install()
            try:
                window = measure(wl, seconds / 2, stop_at, tracer)
                tracer.drain()
                wl.local_baseline()
                local = SpanStats()
                local.add(tracer.drain(), keep=("protocol.train_step",))
            finally:
                tracer.uninstall()
            windows = [warm, base, window]
            untraced = dict(base.results)
            for i, r in window.results:
                if i in untraced:
                    checks.append((f"neutral.op{i}", r.fingerprint == untraced[i].fingerprint,
                                   "traced and untraced outputs identical"))
            first = {}
            for i, counts in window.wire_counts:
                v = i % len(wl.variants)
                if counts and i not in dict(window.errors):
                    first.setdefault(v, counts)
                    checks.append((f"wire_repeat.op{i}", counts == first[v],
                                   "per-MsgType bytes and frames match the variant's first op"))
    finally:
        wl.close()

    results = [(i, r) for w in windows[1:] for i, r in w.results]
    errors = [(i, e) for w in windows for i, e in w.errors]
    for w in windows:
        for i, r in w.results:
            checks.append((f"output.op{i}", not r.problems, "; ".join(r.problems)))
    checks += wl.final_checks(results)
    attempted = sum(len(w.results) + len(w.errors) for w in windows) + len(checks)
    failed = len(errors) + sum(not ok for _, ok, _ in checks)

    extra = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
             "ops_failed_frac": {"value": failed / attempted, "unit": "1"}}
    if trace:
        untraced_ms, traced_ms = op_ms(base, 0), op_ms(window, 0)
        overhead = 100.0 * (traced_ms / untraced_ms - 1.0) if untraced_ms else 0.0
        metrics = per_layer(window, local.durations.get("protocol.train_step", []),
                            overhead)
        extra["trace.overhead_pct"] = {"value": overhead, "unit": "%",
                                       "untraced_ms": untraced_ms, "traced_ms": traced_ms}
        if name == "cifar_train" and window.times(0):
            share = metrics["autograd.conv2d.bwd_s"][0] / statistics.fmean(window.times(0))
            extra["conv2d_bwd_share_of_step"] = {"value": share, "unit": "1"}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "op_ms_min": (op_ms(window, 0), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        extra["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}

    report = {
        "workload": name, "trace": int(trace), "env": environment(seed),
        "report": report_line(wl, window, extra),
        "checks": {"passed": sum(ok for _, ok, _ in checks), "total": len(checks),
                   "failing": [f"{c}: {d}" for c, ok, d in checks if not ok][:10]},
        "errors": [f"op{i}: {e}" for i, e in errors][:10],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return report, result


# ---------------------------------------------------------------------------
# entry points

def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=2 * DEADLINE_S)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(summary))
    return 0


def smoke() -> int:
    """Every workload at a small size, both modes: every metric named in
    BENCHMARK.json is emitted with its unit, every check passes, and a
    failing role is counted as a failed operation within seconds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            report, result = run_workload(w["name"], 0, 0.05, bool(trace), small=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{w['name']} trace={trace}: metrics "
                                f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            if not result["correct"]:
                problems.append(f"{w['name']} trace={trace}: {report['checks']} "
                                f"{report['errors']}")
    problems += _check_bounded_failure()
    for p in problems:
        print(f"smoke: FAIL {p}")
    print(f"smoke: {'FAIL' if problems else 'ok'} ({len(spec['workloads'])} workloads)")
    return 1 if problems else 0


def _check_bounded_failure() -> list[str]:
    """A server role that dies mid-session: the session must fail, and be
    counted, within a few recv timeouts rather than hang the benchmark."""
    from workloads import Tiny8Wire

    from splitlab.wire import MsgType

    wl = Tiny8Wire(0, small=True, record=False)
    wl.timeout = 0.5
    wl.setup()
    wl.open()
    try:
        server_end = wl.pairs["inproc"][1]

        def broken_send(msg_type, payload=b""):
            if msg_type == MsgType.GRAD:
                raise RuntimeError("injected server failure")
            type(server_end).send(server_end, msg_type, payload)

        server_end.send = broken_send
        window = Window(len(wl.variants))
        t0 = perf_counter()
        run_op(wl, 0, window)
        elapsed = perf_counter() - t0
    finally:
        wl.close()
    if len(window.errors) != 1 or elapsed > 10 * wl.timeout:
        return [f"injected failure: errors={window.errors} after {elapsed:.2f} s"]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes, every workload and mode; checks metric names")
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    _import_splitlab()
    from workloads import WORKLOADS

    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

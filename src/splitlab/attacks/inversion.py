"""Model inversion and stealing from captured cut activations.

Alternating block optimization from the server's vantage point: the
attacker holds an input estimate per captured activation and one shared
clone of the client architecture with random parameters. Each round runs
a fixed number of gradient steps on the input estimates (matching loss
plus a total-variation smoothness term) with the clone frozen, then a
fixed number of steps on the clone parameters (matching loss only) with
the inputs frozen. Only the activations and the architecture are used;
the true client parameters are never touched, and the clone and the
first estimates are drawn from the attacker's own streams, never from
the session's (see ``splitlab.attacks``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..autograd import Tensor, assert_finite, backward, tv_penalty
from ..errors import ConfigError, NumericError
from ..layers import LayerStack, _uniform_f32
from ..models import ARCHS, build_layers
from ..optim import Adam
from . import attacker_seed


def default_tv_lambda(depth: int) -> float:
    """Smoothness weight: 0.1 for the first three split depths, 1 beyond."""
    return 0.1 if depth <= 3 else 1.0


# Fixed settings of the attack: Adam on both blocks, estimates kept in
# the image range, and the epsilon inside the TV term's square root.
OPTIMIZER = Adam
INPUT_LR = MODEL_LR = 0.001
CLAMP = (0.0, 1.0)
TV_EPS = 1e-8


@dataclass
class InversionConfig:
    tv_lambda: float | None = None  # None -> default_tv_lambda(depth)
    input_steps: int = 100
    model_steps: int = 100
    max_rounds: int = 20
    plateau_rel: float = 1e-4
    plateau_rounds: int = 5
    seed: int = 0  # the attacker's, from which its streams are derived

    def validate(self) -> "InversionConfig":
        if self.tv_lambda is not None and self.tv_lambda < 0:
            raise ConfigError("tv_lambda must be >= 0")
        if min(self.input_steps, self.model_steps, self.max_rounds) < 1:
            raise ConfigError("step counts and rounds must be >= 1")
        return self


@dataclass
class RoundMetrics:
    round: int
    objective: float
    tv: float
    mse_truth: float | None = None


@dataclass
class InversionResult:
    x_est: np.ndarray  # (B, C, H, W), best-objective input estimates
    clone: LayerStack  # final parameter clone of the client part
    history: list[RoundMetrics] = field(default_factory=list)


def _finite_objective(diff: np.ndarray, tv: Tensor | None, lam: float) -> bool:
    """Whether ``mean(diff**2) + lam * tv`` is finite as ``mse_loss`` and a
    float32 add compute it. A float32 sum of n squares is at least the exact
    sum times (1 - 2**-24)**(n + 1), in any order, so it proves both terms
    below 1e38 in most steps; the rest compute the objective itself."""
    flat = diff.reshape(-1)
    with np.errstate(over="ignore"):
        sq = float(np.dot(flat, flat))
    if sq < 1e38 * flat.size * (1 - 2.0**-24) ** (flat.size + 1) and (
            tv is None or float(tv.data) * lam < 1e38):
        return True
    with np.errstate(all="ignore"):
        obj = np.float32(np.mean(flat.astype(np.float64) ** 2))
        if tv is not None:
            obj = obj + tv.data * np.float32(lam)
    return bool(np.isfinite(obj))


def invert(
    targets: np.ndarray,
    clone: LayerStack,
    input_shape: tuple[int, ...],
    cfg: InversionConfig,
    ground_truth: np.ndarray | None = None,
) -> InversionResult:
    """Recover input estimates for a batch of captured cut activations.

    ``targets`` is (B, ...) of activations, ``clone`` a randomly
    initialized copy of the client part, ``input_shape`` the per-example
    (C, H, W).

    Each step runs one clone forward and one backward walk: an input step
    seeds it at the clone's output with the matching loss's gradient and,
    when ``tv_lambda`` > 0, at the TV term with ``tv_lambda``. A round's
    objective is read from the forward that opens the next round, so R
    rounds of I input and M model steps make R*(I+M) + 1 clone forwards
    and R*(I+M) walks. The clone is returned with its parameters needing
    gradients, as its last model step left them.
    """
    lam = cfg.validate().tv_lambda
    if lam is None:
        raise ConfigError("tv_lambda unset; set one or use unsplit_invert")
    rng = np.random.default_rng(attacker_seed(cfg.seed, "inversion-input"))
    b = targets.shape[0]
    lo, hi = CLAMP
    x = Tensor(_uniform_f32(rng, lo, hi, (b, *input_shape)), requires_grad=True)
    target_t = Tensor(targets)
    params = clone.params()
    opt_x = OPTIMIZER([x], INPUT_LR)
    opt_m = OPTIMIZER(params, MODEL_LR)

    history: list[RoundMetrics] = []
    best = np.inf
    stale = 0
    best_x = x.data.copy()
    diff = np.empty(targets.shape, np.float32)  # each step's output - target

    def set_phase(phase: str) -> None:
        # Input phase: clone parameters frozen, only x moves, under the TV
        # term too. Model phase: x frozen, only the clone parameters move.
        x.requires_grad = phase == "input"
        for p in params:
            p.requires_grad = phase == "model"

    def step_forward(tv_lam: float) -> tuple[Tensor, Tensor | None]:
        out = clone.forward(x)
        np.subtract(out.data, target_t.data, out=diff)
        return out, tv_penalty(x, TV_EPS) if tv_lam > 0 else None

    set_phase("input")
    ahead = step_forward(lam)  # the next input step's forward, built ahead
    for rnd in range(1, cfg.max_rounds + 1):
        for phase, steps, opt, tv_lam in (("input", cfg.input_steps, opt_x, lam),
                                          ("model", cfg.model_steps, opt_m, 0.0)):
            if phase == "model":
                set_phase(phase)
            for _ in range(steps):
                opt.zero_grad()
                out, tv = ahead or step_forward(tv_lam)
                ahead = None
                if not _finite_objective(diff, tv, tv_lam):
                    raise NumericError(
                        f"inversion round {rnd}: non-finite objective in {phase} phase"
                    )
                # One walk, seeded with the gradient mse_loss passes the
                # clone's output and, at the TV term, with its weight.
                # 2*diff/n rounded once, as diff/(n/2): the doubling is exact
                # below the bound _finite_objective proves.
                tv_root = () if tv is None else ((tv, np.float32(tv_lam)),)
                backward(out, np.divide(diff, np.float32(diff.size / 2), out=diff), *tv_root)
                opt.step()
                if phase == "input":
                    np.clip(x.data, lo, hi, out=x.data)

        # The round's objective, read from the forward that opens the next
        # round; mse_loss's bits, and the TV term's.
        set_phase("input")
        ahead = step_forward(lam)
        tv = ahead[1] if lam > 0 else tv_penalty(Tensor(x.data), TV_EPS)
        tv_now = float(tv.data)
        obj_now = float(np.float32(np.mean(diff.astype(np.float64) ** 2)))
        obj_now += lam * tv_now
        assert_finite(np.float32(obj_now), "inversion objective")
        metrics = RoundMetrics(rnd, obj_now, tv_now)
        if ground_truth is not None:
            metrics.mse_truth = float(np.mean((x.data - ground_truth) ** 2))
        history.append(metrics)

        if obj_now < best * (1.0 - cfg.plateau_rel):
            stale = 0
        else:
            stale += 1
        if obj_now < best:
            best = obj_now
            best_x = x.data.copy()
        if stale >= cfg.plateau_rounds:
            break

    set_phase("model")  # the clone is returned as its last step left it
    return InversionResult(x_est=best_x, clone=clone, history=history)


def make_client_clone(arch: str, depth: int, seed: int | list[int]) -> LayerStack:
    """Fresh random clone of the client part of a registered architecture,
    equal to layers [0, depth) of ``build_net(arch, seed)``."""
    return LayerStack(build_layers(arch, seed, 0, depth))


def unsplit_invert(
    tap_entries,
    arch: str,
    depth: int,
    cfg: InversionConfig | None = None,
    ground_truth: np.ndarray | None = None,
) -> InversionResult:
    """Run the inversion over the smashed tensors of a server tap.

    Every row of every entry, in order, is one example. All of them are
    optimized jointly: one input estimate per example, one shared
    parameter clone.
    """
    if not tap_entries:
        raise ConfigError("need at least one tap entry to invert")
    cfg = (cfg or InversionConfig()).validate()
    targets = np.concatenate([e.smashed for e in tap_entries])
    if cfg.tv_lambda is None:
        cfg = replace(cfg, tv_lambda=default_tv_lambda(depth))
    clone = make_client_clone(arch, depth, attacker_seed(cfg.seed, "inversion-clone"))
    return invert(targets, clone, ARCHS[arch].input_shape, cfg, ground_truth=ground_truth)

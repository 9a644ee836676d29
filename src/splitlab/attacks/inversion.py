"""Model inversion and stealing from captured cut activations.

Alternating block optimization from the server's vantage point: the
attacker holds an input estimate per captured activation and one shared
clone of the client architecture with random parameters. Each round runs
a fixed number of gradient steps on the input estimates (matching loss
plus a total-variation smoothness term) with the clone frozen, then a
fixed number of steps on the clone parameters (matching loss only) with
the inputs frozen. Only the activations and the architecture are used;
the true client parameters are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..autograd import (
    Tensor,
    add,
    assert_finite,
    backward,
    mse_loss,
    scale,
    tv_penalty,
)
from ..errors import ConfigError, NumericError
from ..layers import LayerStack
from ..models import ARCHS, build_net, split_at
from ..optim import Adam


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
    max_rounds: int = 1000
    plateau_rel: float = 1e-4
    plateau_rounds: int = 5
    seed: int = 0

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


def _set_requires_grad(params, flag: bool) -> None:
    for p in params:
        p.requires_grad = flag


def _objective(clone: LayerStack, x: Tensor, target: Tensor, lam: float) -> Tensor:
    loss = mse_loss(clone.forward(x), target)
    if lam > 0:
        loss = add(loss, scale(tv_penalty(x, TV_EPS), lam))
    return loss


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
    """
    lam = cfg.validate().tv_lambda
    if lam is None:
        raise ConfigError("tv_lambda unset; set one or use unsplit_invert")
    rng = np.random.default_rng(cfg.seed)
    b = targets.shape[0]
    lo, hi = CLAMP
    x = Tensor(
        rng.uniform(lo, hi, size=(b, *input_shape)).astype(np.float32),
        requires_grad=True,
    )
    target_t = Tensor(targets)
    opt_x = OPTIMIZER([x], INPUT_LR)
    opt_m = OPTIMIZER(clone.params(), MODEL_LR)

    history: list[RoundMetrics] = []
    best = np.inf
    stale = 0
    best_x = x.data.copy()
    for rnd in range(1, cfg.max_rounds + 1):
        # Input phase: clone parameters frozen, only x moves.
        _set_requires_grad(clone.params(), False)
        for _ in range(cfg.input_steps):
            opt_x.zero_grad()
            obj = _objective(clone, x, target_t, lam)
            if not np.isfinite(obj.data):
                raise NumericError(
                    f"inversion round {rnd}: non-finite objective in input phase"
                )
            backward(obj)
            opt_x.step()
            np.clip(x.data, lo, hi, out=x.data)
        _set_requires_grad(clone.params(), True)

        # Model phase: x frozen, only the clone parameters move. No TV term.
        x.requires_grad = False
        for _ in range(cfg.model_steps):
            opt_m.zero_grad()
            obj = mse_loss(clone.forward(x), target_t)
            if not np.isfinite(obj.data):
                raise NumericError(
                    f"inversion round {rnd}: non-finite objective in model phase"
                )
            backward(obj)
            opt_m.step()
        x.requires_grad = True

        tv_now = float(tv_penalty(Tensor(x.data), TV_EPS).data)
        obj_now = float(mse_loss(clone.forward(Tensor(x.data)), target_t).data)
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

    return InversionResult(x_est=best_x, clone=clone, history=history)


def make_client_clone(arch: str, depth: int, seed: int) -> LayerStack:
    """Fresh random clone of the client part of a registered architecture."""
    return split_at(build_net(arch, seed=seed), depth)[0]


def unsplit_invert(
    tap_entries,
    arch: str,
    depth: int,
    cfg: InversionConfig | None = None,
    ground_truth: np.ndarray | None = None,
) -> InversionResult:
    """Run the inversion over the smashed tensors of a server tap.

    All captured examples are optimized jointly: one input estimate per
    example, one shared parameter clone.
    """
    if not tap_entries:
        raise ConfigError("need at least one tap entry to invert")
    cfg = (cfg or InversionConfig()).validate()
    rows = []
    for e in tap_entries:
        if e.smashed.shape[0] != 1:
            raise ConfigError(
                "joint inversion expects batch-size-1 tap entries; "
                f"got batch {e.smashed.shape[0]}"
            )
        rows.append(e.smashed[0])
    targets = np.stack(rows)
    if cfg.tv_lambda is None:
        cfg = replace(cfg, tv_lambda=default_tv_lambda(depth))
    clone = make_client_clone(arch, depth, cfg.seed)
    return invert(targets, clone, ARCHS[arch].input_shape, cfg, ground_truth=ground_truth)

"""Coordinate-descent inversion: stationarity, descent, phase mechanics,
regularizer effect, recovery, and failure modes. Everything runs on the
tiny 8x8 architecture to stay fast."""

import numpy as np
import pytest

from splitlab import autograd as ag
from splitlab.attacks.inversion import (
    InversionConfig,
    default_tv_lambda,
    invert,
    make_client_clone,
    unsplit_invert,
)
from splitlab.autograd import Tensor
from splitlab.data import synth_dataset
from splitlab.errors import ConfigError, NumericError
from splitlab.models import build_net, split_at
from splitlab.optim import make_optimizer
from splitlab.protocol import ServerTap, SessionConfig, train_local


def true_client(depth=1, seed=0):
    return split_at(build_net("tiny8", seed=seed), depth)[0]


def copy_params(src, dst):
    for ps, pd in zip(src.params(), dst.params()):
        pd.data[...] = ps.data


class TestConfig:
    def test_defaults_validate(self):
        InversionConfig().validate()

    @pytest.mark.parametrize(
        "kw",
        [
            {"tv_lambda": -0.5},
            {"input_steps": 0},
            {"model_steps": 0},
            {"max_rounds": 0},
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ConfigError):
            InversionConfig(**kw).validate()

    def test_default_tv_lambda(self):
        assert default_tv_lambda(1) == 0.1
        assert default_tv_lambda(3) == 0.1
        assert default_tv_lambda(4) == 1.0
        assert default_tv_lambda(7) == 1.0

    def test_invert_requires_some_lambda(self):
        clone = make_client_clone("tiny8", 1, seed=0)
        with pytest.raises(ConfigError):
            invert(np.zeros((1, 4, 8, 8), np.float32), clone, (1, 8, 8),
                   InversionConfig())


class TestStationarity:
    def test_ground_truth_objective_exactly_zero(self):
        f1 = true_client()
        x = synth_dataset(3, (1, 8, 8), seed=1).images
        target = f1.forward(Tensor(x)).data
        clone = make_client_clone("tiny8", 1, seed=5)
        copy_params(f1, clone)
        xt = Tensor(x.copy(), requires_grad=True)
        loss = ag.mse_loss(clone.forward(xt), Tensor(target))
        assert float(loss.data) == 0.0
        ag.backward(loss)
        assert np.all(xt.grad == 0.0)
        for p in clone.params():
            assert np.all(p.grad == 0.0)


class TestPhaseMechanics:
    """Eq. 1/2 coordinate structure: each phase writes a disjoint set."""

    def test_input_phase_leaves_clone_untouched(self):
        clone = make_client_clone("tiny8", 1, seed=2)
        for p in clone.params():
            p.requires_grad = False
        x = Tensor(synth_dataset(2, (1, 8, 8), seed=2).images,
                   requires_grad=True)
        target = Tensor(np.zeros((2, 4, 8, 8), np.float32))
        before = [p.data.copy() for p in clone.params()]
        opt = make_optimizer("adam", [x], 0.01)
        loss = ag.mse_loss(clone.forward(x), target)
        ag.backward(loss)
        opt.step()
        assert x.grad is not None
        for p, b in zip(clone.params(), before):
            assert p.grad is None
            np.testing.assert_array_equal(p.data, b)

    def test_model_phase_leaves_input_untouched(self):
        clone = make_client_clone("tiny8", 1, seed=3)
        x = Tensor(synth_dataset(2, (1, 8, 8), seed=3).images,
                   requires_grad=False)
        target = Tensor(np.zeros((2, 4, 8, 8), np.float32))
        x_before = x.data.copy()
        p_before = [p.data.copy() for p in clone.params()]
        opt = make_optimizer("adam", clone.params(), 0.01)
        loss = ag.mse_loss(clone.forward(x), target)
        ag.backward(loss)
        opt.step()
        assert x.grad is None
        np.testing.assert_array_equal(x.data, x_before)
        assert any(
            not np.array_equal(p.data, b)
            for p, b in zip(clone.params(), p_before)
        )


def small_invert(lam, rounds=15, seed=0, steps=20, ground_truth=None,
                 targets=None):
    f1 = true_client(seed=7)
    if targets is None:
        x = synth_dataset(4, (1, 8, 8), seed=4).images
        targets = f1.forward(Tensor(x)).data
        ground_truth = x
    cfg = InversionConfig(tv_lambda=lam, input_steps=steps, model_steps=steps,
                          max_rounds=rounds, plateau_rounds=rounds + 1,
                          seed=seed)
    clone = make_client_clone("tiny8", 1, seed=99)
    return invert(targets, clone, (1, 8, 8), cfg, ground_truth=ground_truth)


class TestDescent:
    def test_objective_decreases_over_rounds(self):
        res = small_invert(lam=0.0)
        objs = [m.objective for m in res.history]
        assert objs[-1] < 0.5 * objs[0]
        # trend, not strict monotonicity: late rounds beat early rounds
        assert np.mean(objs[-5:]) < np.mean(objs[:5])

    def test_best_x_matches_best_round(self):
        res = small_invert(lam=0.1)
        best = min(m.objective for m in res.history)
        assert res.history[-1].objective <= best * 1.05

    def test_mse_truth_improves(self):
        res = small_invert(lam=0.1)
        assert res.history[-1].mse_truth < 0.15
        assert res.history[-1].mse_truth < res.history[0].mse_truth


class TestTvWeight:
    def test_lambda_controls_smoothness(self):
        tv0 = small_invert(lam=0.0, steps=100).history[-1].tv
        tv5 = small_invert(lam=5.0, steps=100).history[-1].tv
        assert tv5 < tv0 / 5.0


class TestRecovery:
    def test_model_phase_recovers_smashed_map(self):
        """With the true inputs known, fitting the clone alone drives the
        smashed-space MSE below 1e-3 well inside 2,000 steps."""
        f1 = true_client(seed=0)
        x = Tensor(synth_dataset(4, (1, 8, 8), seed=6).images)
        target = Tensor(f1.forward(x).data)
        clone = make_client_clone("tiny8", 1, seed=99)
        opt = make_optimizer("adam", clone.params(), 0.01)
        mse = np.inf
        for step in range(2000):
            opt.zero_grad()
            loss = ag.mse_loss(clone.forward(x), target)
            ag.backward(loss)
            opt.step()
            mse = float(loss.data)
            if mse < 1e-3:
                break
        assert mse < 1e-3
        assert step < 2000


class TestFailureModes:
    def test_nonfinite_objective_raises(self):
        clone = make_client_clone("tiny8", 1, seed=0)
        p = clone.params()[0]
        p.data *= np.float32(1e25)
        cfg = InversionConfig(tv_lambda=0.1, input_steps=2, model_steps=2,
                              max_rounds=2)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            invert(np.ones((1, 4, 8, 8), np.float32), clone, (1, 8, 8), cfg)

    def test_unsplit_invert_needs_entries(self):
        with pytest.raises(ConfigError):
            unsplit_invert([], "tiny8", 1)

    def test_unsplit_invert_rejects_batched_entries(self):
        tap = ServerTap()
        tap.record(1, np.zeros((2, 4, 8, 8), np.float32), None,
                   [np.zeros((2, 4, 8, 8), np.float32)])
        with pytest.raises(ConfigError):
            unsplit_invert(tap.entries, "tiny8", 1)


class TestPlateau:
    def test_stops_when_no_relative_progress(self):
        f1 = true_client(seed=1)
        x = synth_dataset(2, (1, 8, 8), seed=8).images
        targets = f1.forward(Tensor(x)).data
        cfg = InversionConfig(tv_lambda=0.1, input_steps=1, model_steps=1,
                              max_rounds=200, plateau_rel=10.0, plateau_rounds=3,
                              seed=0)
        clone = make_client_clone("tiny8", 1, seed=11)
        res = invert(targets, clone, (1, 8, 8), cfg)
        assert len(res.history) < cfg.max_rounds
        assert len(res.history) <= cfg.plateau_rounds + 1


class TestDeterminism:
    def test_same_seed_same_estimate(self):
        a = small_invert(lam=0.1, rounds=3, seed=5)
        b = small_invert(lam=0.1, rounds=3, seed=5)
        np.testing.assert_array_equal(a.x_est, b.x_est)
        assert [m.objective for m in a.history] == [m.objective for m in b.history]


class TestEndToEnd:
    def test_invert_from_tap(self):
        """Full path: protocol session with tap, then joint inversion."""
        ds = synth_dataset(4, (1, 8, 8), seed=9)
        cfg = SessionConfig(arch="tiny8", split_depth=1, batch_size=1,
                            epochs=1, seed=3).validate()
        tap = ServerTap()
        train_local(cfg, ds.images, ds.labels, tap=tap)
        assert len(tap) == 4
        icfg = InversionConfig(input_steps=20, model_steps=20, max_rounds=10,
                               plateau_rounds=11, seed=0)
        res = unsplit_invert(tap.entries, "tiny8", 1, icfg)
        assert res.x_est.shape == (4, 1, 8, 8)
        assert res.x_est.min() >= 0.0 and res.x_est.max() <= 1.0
        assert res.history[-1].objective < res.history[0].objective

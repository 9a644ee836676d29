"""Coordinate-descent inversion: stationarity, descent, phase mechanics,
regularizer effect, recovery, failure modes, and pinned output bytes.
Everything but the pinned mnist rounds runs on the tiny 8x8 architecture
to stay fast."""

import hashlib

import numpy as np
import pytest

from splitlab import autograd as ag
from splitlab import cli, data, harness
from splitlab.attacks import STREAM_TAGS, attacker_seed, inversion
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
from splitlab.layers import LayerStack
from splitlab.models import ARCHS, build_layers, build_net, layout, split_at
from splitlab.optim import make_optimizer
from splitlab.protocol import ServerTap, SessionConfig, TapEntry, train_local


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


class TestWorkPerCall:
    """One call with R rounds of I input and M model steps makes R*(I+M)
    backward walks and R*(I+M) + 1 clone forwards: each input step seeds
    its TV term in the walk through the clone, and each round's objective
    comes from the forward that opens the next round. The code before
    made R*(2I+M) walks at lambda > 0 and R*(I+M+1) forwards: at 2 rounds
    of 10 + 10 steps, as one bench inversion operation runs, 40 walks
    instead of 60 and 41 forwards instead of 42."""

    @pytest.mark.parametrize("lam", [0.1, 0.0])
    @pytest.mark.parametrize("rounds, steps_in, steps_model", [(2, 3, 2), (2, 10, 10)],
                             ids=["2x(3+2)", "bench-2x(10+10)"])
    def test_walks_and_forwards(self, monkeypatch, lam, rounds, steps_in, steps_model):
        x = synth_dataset(2, (1, 8, 8), seed=4).images
        targets = true_client(seed=7).forward(Tensor(x)).data
        clone = make_client_clone("tiny8", 1, seed=99)
        forwards, walks = [], []
        forward = clone.forward
        monkeypatch.setattr(clone, "forward", lambda t: forwards.append(1) or forward(t))
        backward = inversion.backward
        monkeypatch.setattr(inversion, "backward",
                            lambda *a: walks.append(len(a)) or backward(*a))
        cfg = InversionConfig(tv_lambda=lam, input_steps=steps_in,
                              model_steps=steps_model, max_rounds=rounds,
                              plateau_rounds=rounds + 1)
        res = invert(targets, clone, (1, 8, 8), cfg)
        assert len(res.history) == rounds
        assert len(forwards) == rounds * (steps_in + steps_model) + 1
        assert len(walks) == rounds * (steps_in + steps_model)
        # An input step at lambda > 0 seeds two roots: (out, seed), (tv, lam).
        roots = [3 if lam > 0 else 2] * steps_in + [2] * steps_model
        assert walks == roots * rounds
        assert [p.requires_grad for p in res.clone.params()] == [True] * 2


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

    @staticmethod
    def setup_tiny8(lam):
        clone = make_client_clone("tiny8", 1, seed=0)
        x0 = np.random.default_rng(1).uniform(size=(2, 1, 8, 8)).astype(np.float32)
        target = clone.forward(Tensor(x0)).data.copy()
        cfg = InversionConfig(tv_lambda=lam, input_steps=2, model_steps=2, max_rounds=2)
        return clone, target, cfg

    def test_nan_target_raises_at_the_first_input_step(self):
        clone, target, cfg = self.setup_tiny8(0.1)
        target[1, 2, 3, 4] = np.nan
        before = [p.data.copy() for p in clone.params()]
        with pytest.raises(NumericError, match="^inversion round 1: .* in input phase$"):
            invert(target, clone, (1, 8, 8), cfg)
        assert all(p.data.tobytes() == b.tobytes() for p, b in zip(clone.params(), before))

    def test_float32_sum_of_squares_overflow_alone_does_not_raise(self):
        # |diff| ~ 2e19 squares past float32's range, but the float64 mean
        # of the objective is finite in float32: no step raises.
        clone, target, cfg = self.setup_tiny8(0.1)
        target[0, 0, 0, 0] = 2e19
        res = invert(target, clone, (1, 8, 8), cfg)
        assert len(res.history) == 2
        assert all(np.isfinite(m.objective) for m in res.history)

    @pytest.mark.parametrize("mean, weighted_tv", [(2.5e38, 2.2e38), (0.0, 6.5e38)],
                             ids=["sum", "tv-term"])
    def test_objective_overflow_raises(self, mean, weighted_tv):
        # "sum": each term is finite in float32, their float32 sum is not.
        # "tv-term": the weighted TV term alone overflows.
        clone, target, cfg = self.setup_tiny8(0.1)
        target[0, 0, 0, 0] += np.sqrt(target.size * mean)
        cfg.tv_lambda = weighted_tv / 65.0  # the start's TV is about 65
        with pytest.raises(NumericError, match="^inversion round 1: .* in input phase$"):
            invert(target, clone, (1, 8, 8), cfg)

    def test_unsplit_invert_needs_entries(self):
        with pytest.raises(ConfigError):
            unsplit_invert([], "tiny8", 1)


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

    def test_batched_entry_matches_batch1_rows(self):
        """A batch-4 entry is inverted as its four rows, exactly as four
        batch-1 entries holding the same rows are."""
        x = synth_dataset(4, (1, 8, 8), seed=9).images
        smashed = true_client().forward(Tensor(x)).data
        icfg = InversionConfig(input_steps=3, model_steps=3, max_rounds=2, seed=0)
        batched = unsplit_invert([TapEntry(1, smashed, None, [])], "tiny8", 1, icfg,
                                 ground_truth=x)
        rows = unsplit_invert([TapEntry(i, smashed[i:i + 1], None, [])
                               for i in range(4)], "tiny8", 1, icfg, ground_truth=x)
        assert batched.x_est.shape == (4, 1, 8, 8)
        assert batched.x_est.tobytes() == rows.x_est.tobytes()
        assert batched.history == rows.history


class TestAttackerSeeds:
    """The server knows the client's architecture, not its weights: every
    attacker draw comes from a stream the session never draws."""

    @pytest.mark.parametrize("seed", [0, 2026])
    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_starting_clone_is_not_the_client(self, monkeypatch, arch, seed):
        """At every split depth the CLI accepts, ``unsplit_invert`` given the
        session's seed (as ``cli.inversion_config`` passes it) starts its
        clone away from the client's initial weights."""
        class Started(Exception):
            pass

        started = []

        def capture(targets, clone, *args, **kwargs):
            started.append([p.data.copy() for p in clone.params()])
            raise Started

        monkeypatch.setattr(inversion, "invert", capture)
        inv = cli.inversion_config({**cli.DEFAULTS, "seed": seed})
        entry = TapEntry(1, np.zeros((1, 1), np.float32), None, [])
        for depth in range(1, len(layout(arch))):
            with pytest.raises(Started):
                unsplit_invert([entry], arch, depth, inv)
            client = LayerStack(build_layers(arch, seed, 0, depth)).params()
            assert len(started[-1]) == len(client) > 0
            for clone_p, client_p in zip(started[-1], client):
                assert not np.array_equal(clone_p, client_p.data)

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_streams_differ_from_the_session_and_each_other(self, arch):
        seed = 3
        firsts = {"session": build_layers(arch, seed, 0, 1)[0].weight.data}
        firsts |= {stream: build_layers(arch, attacker_seed(seed, stream), 0, 1)[0].weight.data
                   for stream in STREAM_TAGS}
        firsts["epoch 1"] = build_layers(arch, [seed, 1], 0, 1)[0].weight.data
        values = list(firsts.values())
        for i, a in enumerate(values):
            for b in values[i + 1:]:
                assert not np.array_equal(a, b)

    def test_first_estimates_are_not_drawn_from_the_session(self):
        """The input estimates start from the attacker's stream: the
        session's stream would make them an affine image of the client's
        first conv weights. A target made from that start has zero loss and
        zero gradients, so the first round ends where it began."""
        cfg = InversionConfig(tv_lambda=0.0, input_steps=1, model_steps=1,
                              max_rounds=1, seed=0)
        clone = make_client_clone("tiny8", 1, 0)
        x0 = np.random.default_rng(attacker_seed(0, "inversion-input")).uniform(
            0.0, 1.0, size=(1, 1, 8, 8)).astype(np.float32)
        session = np.random.default_rng(0).uniform(0.0, 1.0, size=(1, 1, 8, 8))
        assert not np.array_equal(x0, session.astype(np.float32))
        target = clone.forward(Tensor(x0)).data
        res = invert(target, clone, (1, 8, 8), cfg)
        assert res.history[0].objective < 1e-10


def _result_digest(res) -> str:
    """sha256 over the estimates, every round's metrics and the clone's
    parameters."""
    h = hashlib.sha256(res.x_est.tobytes())
    h.update(np.array([(m.objective, m.tv, m.mse_truth) for m in res.history],
                      np.float64).tobytes())
    for p in res.clone.params():
        h.update(p.data.tobytes())
    return h.hexdigest()


class TestPinnedBytes:
    """Every output byte of short inversions, pinned: a speed-up of the
    inversion loop must leave them all as they are."""

    MNIST = {
        1: "a941336d92cd237ac068ad052a1e2d294ab99ebc6f7324257a33b05c4646c840",
        4: "4754813b705d41000385bfce89ab82a005027506c8743e89d4ea5b4e1082fabd",
    }
    TINY8 = {
        0.1: "fc2bb5d23ce78f81e56f4965453820a41f5c5dd04c8d4ce368c99df7812292c4",
        0.0: "c9d86b1258ffb3c62370ac56e0b98905847b6ef9ee1fb37e9bdb55738d6c2dc1",
    }

    @pytest.mark.parametrize("depth", sorted(MNIST))
    def test_mnist_unsplit_invert(self, depth):
        ds = data.synth_dataset(200, (1, 28, 28), seed=0)
        sample = data.sample_class_balanced(ds, 1, seed=0)
        f1, _ = split_at(build_net("mnist", seed=0), depth)
        cfg = InversionConfig(input_steps=3, model_steps=3, max_rounds=2, seed=1)
        res = unsplit_invert(harness.snapshot_tap(f1, sample.images), "mnist", depth, cfg,
                             ground_truth=sample.images)
        assert _result_digest(res) == self.MNIST[depth]

    @pytest.mark.parametrize("lam", sorted(TINY8))
    def test_tiny8_invert(self, lam):
        x = synth_dataset(4, (1, 8, 8), seed=4).images
        targets = true_client(seed=7).forward(Tensor(x)).data
        cfg = InversionConfig(tv_lambda=lam, input_steps=3, model_steps=3, max_rounds=2,
                              seed=2)
        res = invert(targets, make_client_clone("tiny8", 1, seed=99), (1, 8, 8), cfg,
                     ground_truth=x)
        assert _result_digest(res) == self.TINY8[lam]

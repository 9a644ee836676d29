"""Reference architectures, split-point handling, and shape arithmetic."""

import numpy as np
import pytest

from splitlab.autograd import Tensor
from splitlab.errors import ConfigError
from splitlab.layers import Conv2d, FullyConnected, LayerStack, MaxPool2x2
from splitlab.models import (
    ARCHS,
    build_net,
    split_at,
    split_three,
    tail_start_index,
)

MNIST_PARAM_COUNT = 236_394


class TestMnistNet:
    def test_forward_shape(self):
        net = build_net("mnist", seed=0)
        out = net.forward(Tensor(np.zeros((1, 1, 28, 28), dtype=np.float32)))
        assert out.data.shape == (1, 10)

    def test_output_sums_to_one(self):
        net = build_net("mnist", seed=1)
        rng = np.random.default_rng(0)
        out = net.forward(Tensor(rng.uniform(size=(4, 1, 28, 28)).astype(np.float32)))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_split_point_count(self):
        net = build_net("mnist", seed=0)
        assert len(net.layers) - 1 >= 6

    def test_param_count_documented(self):
        assert build_net("mnist", seed=0).param_count() == MNIST_PARAM_COUNT

    def test_depth1_is_first_conv(self):
        f1, _ = split_at(build_net("mnist", seed=0), 1)
        assert len(f1.layers) == 1
        assert isinstance(f1.layers[0], Conv2d)

    def test_depth3_cuts_after_first_pool_stage(self):
        net = build_net("mnist", seed=0)
        f1, _ = split_at(net, 3)
        assert any(isinstance(l, MaxPool2x2) for l in f1.layers)
        out = f1.forward(Tensor(np.zeros((2, 1, 28, 28), dtype=np.float32)))
        assert out.data.shape == (2, 8, 14, 14)

    def test_pool_relu_order_equivalent(self):
        # pool-then-relu (as built) computes the same function as
        # relu-then-pool for any input.
        from splitlab.layers import ReLU

        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 1, 8, 8)).astype(np.float32)
        a = LayerStack([MaxPool2x2(), ReLU()]).forward(Tensor(x))
        b = LayerStack([ReLU(), MaxPool2x2()]).forward(Tensor(x))
        np.testing.assert_array_equal(a.data, b.data)


class TestCifarNet:
    def test_forward_shape(self):
        net = build_net("cifar", seed=0)
        out = net.forward(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)))
        assert out.data.shape == (1, 10)

    def test_split_point_count(self):
        assert len(build_net("cifar", seed=0).layers) - 1 >= 8

    def test_pooled_dims(self):
        net = build_net("cifar", seed=0)
        flat_at = next(
            i for i, l in enumerate(net.layers) if l.kind == "flatten"
        )
        conv_part = LayerStack(net.layers[:flat_at])
        assert conv_part.out_shape((1, 3, 32, 32)) == (1, 128, 4, 4)


class TestSplitting:
    @pytest.mark.parametrize("arch", ["tiny8", "mnist"])
    def test_split_compose_identity_all_depths(self, arch):
        net = build_net(arch, seed=3)
        c, h, w = ARCHS[arch].input_shape
        rng = np.random.default_rng(4)
        xs = rng.uniform(size=(10, c, h, w)).astype(np.float32)
        full = net.forward(Tensor(xs)).data
        for depth in range(1, len(net.layers)):
            f1, f2 = split_at(net, depth)
            recomposed = f2.forward(f1.forward(Tensor(xs))).data
            assert np.max(np.abs(full - recomposed)) == 0.0

    def test_split_shares_parameters(self):
        net = build_net("tiny8", seed=0)
        f1, _ = split_at(net, 1)
        f1.params()[0].data[...] = 42.0
        assert np.all(net.params()[0].data == 42.0)

    def test_out_of_range_depth(self):
        net = build_net("tiny8", seed=0)
        for depth in (0, len(net.layers), -1):
            with pytest.raises(ConfigError):
                split_at(net, depth)

    def test_tail_start_counts_fc_from_end(self):
        net = build_net("mnist", seed=0)
        k1 = tail_start_index(net, 1)
        assert isinstance(net.layers[k1], FullyConnected)
        assert [l.kind for l in net.layers[k1:]] == ["fc", "softmax"]
        k2 = tail_start_index(net, 2)
        assert [l.kind for l in net.layers[k2:]] == ["fc", "relu", "fc", "softmax"]

    def test_tail_too_deep_rejected(self):
        with pytest.raises(ConfigError):
            tail_start_index(build_net("tiny8", seed=0), 5)

    def test_split_three_partition(self):
        net = build_net("mnist", seed=0)
        f1, f2, f3 = split_three(net, 2, tail_depth=1)
        assert len(f1.layers) + len(f2.layers) + len(f3.layers) == len(net.layers)
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(2, 1, 28, 28)).astype(np.float32)
        full = net.forward(Tensor(x)).data
        piecewise = f3.forward(f2.forward(f1.forward(Tensor(x)))).data
        np.testing.assert_array_equal(full, piecewise)

    def test_split_three_depth_clamped_by_tail(self):
        net = build_net("tiny8", seed=0)
        with pytest.raises(ConfigError):
            split_three(net, len(net.layers) - 1, tail_depth=1)


class TestBuild:
    def test_unknown_arch(self):
        with pytest.raises(ConfigError):
            build_net("lenet")

    def test_seeded_init_reproducible(self):
        a, b = build_net("tiny8", seed=9), build_net("tiny8", seed=9)
        for pa, pb in zip(a.params(), b.params()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self):
        a, b = build_net("tiny8", seed=1), build_net("tiny8", seed=2)
        assert any(
            not np.array_equal(pa.data, pb.data)
            for pa, pb in zip(a.params(), b.params())
        )

    def test_fanin_bound(self):
        net = build_net("mnist", seed=0)
        conv = net.layers[0]
        bound = 1.0 / np.sqrt(conv.in_ch * conv.kernel ** 2)
        assert np.all(np.abs(conv.weight.data) <= bound)

"""Reference architectures, split-point handling, and output shapes."""

import numpy as np
import pytest

from splitlab.autograd import Tensor
from splitlab.errors import ConfigError
from splitlab.layers import (Conv2d, FullyConnected, LayerStack, MaxPool2x2,
                             _uniform_f32)
from splitlab.models import (
    ARCHS,
    build_layers,
    build_net,
    build_part,
    layout,
    merge,
    split_at,
    tail_start_index,
)
from splitlab.protocol import TOPOLOGIES, SessionConfig, cut

from helpers import count_constructions, params_by_index, uniform_oracle

MNIST_PARAM_COUNT = 236_394


@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_forward_shape(arch):
    spec = ARCHS[arch]
    for rows in (0, 1):  # zero rows give the cut shapes without arithmetic
        out = build_net(arch, seed=0).forward(
            Tensor(np.zeros((rows, *spec.input_shape), dtype=np.float32)))
        assert out.data.shape == (rows, 10)


class TestMnistNet:
    def test_output_sums_to_one(self):
        net = build_net("mnist", seed=1)
        rng = np.random.default_rng(0)
        out = net.forward(Tensor(rng.uniform(size=(4, 1, 28, 28)).astype(np.float32)))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_split_point_count(self):
        net = build_net("mnist", seed=0)
        assert len(net.layers) - 1 >= 6

    def test_param_count_documented(self):
        net = build_net("mnist", seed=0)
        assert sum(p.data.size for p in net.params()) == MNIST_PARAM_COUNT

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
    def test_split_point_count(self):
        assert len(build_net("cifar", seed=0).layers) - 1 >= 8

    def test_pooled_dims(self):
        net = build_net("cifar", seed=0)
        flat_at = next(
            i for i, l in enumerate(net.layers) if l.kind == "flatten"
        )
        conv_part = LayerStack(net.layers[:flat_at])
        out = conv_part.forward(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)))
        assert out.data.shape == (1, 128, 4, 4)


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
        k1 = tail_start_index("mnist", 1)
        assert isinstance(net.layers[k1], FullyConnected)
        assert [l.kind for l in net.layers[k1:]] == ["fc", "softmax"]
        k2 = tail_start_index("mnist", 2)
        assert [l.kind for l in net.layers[k2:]] == ["fc", "relu", "fc", "softmax"]

    def test_tail_too_deep_rejected(self):
        with pytest.raises(ConfigError):
            tail_start_index("tiny8", 5)


class TestParts:
    """A model of some of a net's layers keeps each layer's net index."""

    def test_part_names_params_by_net_index(self):
        part = build_part("tiny8", 3, [(0, 1), (6, 8)])
        assert part.index == [0, 6, 7]
        full = params_by_index(build_net("tiny8", seed=3))
        assert params_by_index(part) == {i: full[i] for i in (0, 6, 7)}
        assert [len(full[i]) for i in (0, 6, 7)] == [2, 2, 0]

    def test_merge_puts_parts_in_net_order(self):
        head, tail = build_part("tiny8", 5, [(0, 1), (6, 8)]), build_part("tiny8", 5, [(1, 6)])
        merged = merge(tail, head)
        assert merged.index == list(range(8))
        assert merged.layers == [*head.layers[:1], *tail.layers, *head.layers[1:]]

    @pytest.mark.parametrize("ranges", [
        [[(0, 1)], [(2, 8)]],  # a gap
        [[(0, 2)], [(1, 8)]],  # an overlap
        [[(0, 8)], [(7, 8)]],  # a layer twice
    ])
    def test_merge_requires_an_exact_tiling(self, ranges):
        with pytest.raises(ConfigError, match="not each of the 8 layers"):
            merge(*(build_part("tiny8", 0, r) for r in ranges))

    def test_split_at_needs_the_client_layers(self):
        server = build_part("tiny8", 0, [(1, 8)])
        with pytest.raises(ConfigError, match="not layer 0 of the client part"):
            split_at(server, 2)
        f1, rest = split_at(build_part("tiny8", 0, [(0, 2), (6, 8)]), 2)
        assert (len(f1), len(rest)) == (2, 2)


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
        bound = 1.0 / np.sqrt(conv.weight.data[0].size)
        assert np.all(np.abs(conv.weight.data) <= bound)


class TestBuildLayers:
    """``build_layers`` skips the layers before its range by advancing the
    seed's stream, which relies on one 64-bit draw per parameter element."""

    def test_advance_matches_uniform_draws(self):
        # A numpy whose float64 uniform or random (which the weights are
        # drawn from) stops taking one draw per element fails here first.
        for draw in ("uniform", "random"):
            for n in (1, 7, 2100):
                drawn, skipped = np.random.default_rng(5), np.random.default_rng(5)
                if draw == "uniform":
                    drawn.uniform(-0.5, 0.5, size=n)
                else:
                    drawn.random(n)
                skipped.bit_generator.advance(n)
                np.testing.assert_array_equal(drawn.uniform(size=4),
                                              skipped.uniform(size=4))

    def test_draw_rule_matches_uniform_oracle(self):
        # Empty, 1-D bias, fc and 4-D conv weight shapes, at a weight bound
        # and at the inversion's [0, 1).
        shapes = [(0,), (1,), (128,), (10, 128), (256, 784), (0, 3, 3, 3),
                  (8, 1, 3, 3), (64, 3, 3, 3)]
        for seed in range(120):
            for shape in shapes:
                fan_in = int(np.prod(shape[1:], dtype=np.int64)) or 1
                for low, high in ((-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in)),
                                  (0.0, 1.0)):
                    want_rng, got_rng = (np.random.default_rng(seed),
                                         np.random.default_rng(seed))
                    want = uniform_oracle(want_rng, low, high, shape)
                    got = _uniform_f32(got_rng, low, high, shape)
                    assert got.dtype == np.float32 and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (seed, shape, low)
                    assert got_rng.random() == want_rng.random()  # same draws taken

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_every_range_equals_slice_of_full_build(self, arch):
        full = build_net(arch, seed=17).layers
        for start in range(len(full)):
            for stop in [*range(start + 1, len(full)), None]:  # None: to the end
                part = build_layers(arch, 17, start, stop)
                assert [l.kind for l in part] == [l.kind for l in full[start:stop]]
                got = LayerStack(part).params()
                want = LayerStack(full[start:stop]).params()
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.data.dtype == w.data.dtype
                    np.testing.assert_array_equal(g.data, w.data)

    @pytest.mark.parametrize("start,stop", [(-1, 3), (3, 3), (4, 2), (0, 99)])
    def test_bad_range_rejected(self, start, stop):
        with pytest.raises(ConfigError):
            build_layers("tiny8", 0, start, stop)

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_constructs_only_its_range(self, monkeypatch, arch):
        n = len(layout(arch))
        made = count_constructions(monkeypatch, arch)
        for start in range(n):
            for stop in range(start + 1, n + 1):
                made.clear()
                build_layers(arch, 3, start, stop)
                assert made == list(range(start, stop))


class TestLayout:
    """A net's layout is worked out once per arch; what reads only the
    layout constructs no layer."""

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_matches_a_full_build(self, arch):
        net = build_net(arch, seed=0)
        lay = layout(arch)
        assert len(lay) == len(net.layers)
        assert lay.fc == tuple(i for i, layer in enumerate(net.layers)
                               if isinstance(layer, FullyConnected))
        assert lay.sizes == tuple(sum(p.data.size for p in layer.params())
                                  for layer in net.layers)
        x = Tensor(np.zeros((1, *ARCHS[arch].input_shape), np.float32))
        for layer, shape in zip([None, *net.layers], lay.shapes):
            x = x if layer is None else layer.forward(x)
            assert x.data.shape[1:] == shape

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_warm_layout_readers_construct_nothing(self, monkeypatch, arch):
        net = build_net(arch, seed=0)
        k = tail_start_index(arch, 1)
        head, tail = build_part(arch, 0, [(0, k)]), build_part(arch, 0, [(k, len(net))])
        made = count_constructions(monkeypatch, arch)
        for tail_depth in (1, 2):
            tail_start_index(arch, tail_depth)
        for depth in range(1, len(net)):
            split_at(net, depth)
        merge(head, tail)
        for topology in TOPOLOGIES:
            cut(SessionConfig(arch=arch, topology=topology, split_depth=1))
        assert made == []

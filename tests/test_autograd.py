"""Autograd engine: op-level examples, analytic gradients, and the
finite-difference oracle."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splitlab import autograd as ag
from splitlab.autograd import Tensor
from splitlab.errors import GraphError, NumericError, ShapeError
from splitlab.models import ARCHS, build_layers, layout
from splitlab.optim import SGD, Adam

from helpers import (adam_oracle, add, col2im_copy_oracle, conv2d_oracle, fd_check,
                     finite_diff_grad, maxpool_mask_oracle, maxpool_oracle, pool_safe,
                     relu_mask_oracle, relu_oracle, relu_safe, sigmoid_halves_oracle, tsum,
                     tv_oracle)


class TestOps:
    def test_relu_values(self):
        out = ag.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_maxpool_window(self):
        x = Tensor(np.array([[1.0, 3.0], [2.0, 0.0]]).reshape(1, 1, 2, 2))
        out = ag.maxpool2x2(x)
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 3.0

    def test_maxpool_tie_first_slot_wins(self):
        x = Tensor(np.full((1, 1, 2, 2), 5.0), requires_grad=True)
        out = ag.maxpool2x2(x)
        ag.backward(tsum(out))
        np.testing.assert_array_equal(
            x.grad.reshape(4), [1.0, 0.0, 0.0, 0.0]
        )

    def test_conv_ones_kernel(self):
        x = Tensor(np.ones((1, 1, 5, 5), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        out = ag.conv2d(x, w, b)
        assert out.data.shape == (1, 1, 5, 5)
        assert out.data[0, 0, 2, 2] == 9.0
        assert out.data[0, 0, 0, 0] == 4.0
        assert out.data[0, 0, 0, 4] == 4.0
        assert out.data[0, 0, 0, 2] == 6.0

    def test_conv_channel_mismatch(self):
        x = Tensor(np.ones((1, 2, 4, 4), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        with pytest.raises(ShapeError):
            ag.conv2d(x, w, b)

    @pytest.mark.parametrize("wshape", [(1, 1, 2, 3), (1, 1, 3, 4)],
                             ids=["wshape0-1", "wshape1-1"])
    def test_conv_rejects_even_or_oversized_kernel(self, wshape):
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        with pytest.raises(ShapeError):
            ag.conv2d(x, Tensor(np.ones(wshape, dtype=np.float32)), b)

    def test_mse_identity_zero(self):
        a = Tensor([1.0, 2.0, 3.0])
        assert float(ag.mse_loss(a, Tensor([1.0, 2.0, 3.0])).data) == 0.0

    def test_mse_value(self):
        loss = ag.mse_loss(Tensor([0.0, 0.0]), Tensor([1.0, 3.0]))
        assert float(loss.data) == pytest.approx(5.0)

    def test_mse_gradient_analytic(self):
        a = Tensor([0.0, 0.0], requires_grad=True)
        ag.backward(ag.mse_loss(a, Tensor([2.0, 0.0])))
        np.testing.assert_allclose(a.grad, [-2.0, 0.0])

    @pytest.mark.parametrize("a_grad, b_grad", [(True, False), (False, True),
                                                (True, True)])
    def test_mse_vjp_skips_sides_without_grad(self, a_grad, b_grad):
        a = Tensor([1.0, 4.0], requires_grad=a_grad)
        b = Tensor([2.0, 0.5], requires_grad=b_grad)
        ga, gb = ag.mse_loss(a, b)._vjp(np.float32(1.0))
        assert (ga is None) == (not a_grad) and (gb is None) == (not b_grad)
        want = np.array([-1.0, 3.5], dtype=np.float32)
        for got, sign in ((ga, 1), (gb, -1)):
            assert got is None or got.tobytes() == (sign * want).tobytes()

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ag.mse_loss(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = ag.softmax(Tensor(rng.normal(size=(16, 10)).astype(np.float32)))
        np.testing.assert_allclose(p.data.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(p.data > 0)

    def test_cross_entropy_uniform(self):
        p = Tensor(np.full((4, 10), 0.1, dtype=np.float32))
        loss = ag.cross_entropy(p, np.array([0, 3, 7, 9]))
        assert float(loss.data) == pytest.approx(np.log(10.0), rel=1e-5)

    @pytest.mark.parametrize("n", [1, 3, 8, 64, 257])
    def test_cross_entropy_keeps_the_mean_bits(self, n):
        # The loss is np.mean's float32 sum and rounded division, not its call.
        rng = np.random.default_rng(n)
        p = rng.dirichlet(np.full(10, 0.3), size=n).astype(np.float32)
        p[0, 0] = 0.0  # clipped at 1e-12
        labels = rng.integers(0, 10, n)
        labels[0] = 0
        want = np.float32(-np.mean(np.log(np.clip(p[np.arange(n), labels], 1e-12, None))))
        assert ag.cross_entropy(Tensor(p), labels).data.tobytes() == want.tobytes()

    def test_cross_entropy_label_range(self):
        p = Tensor(np.full((1, 10), 0.1, dtype=np.float32))
        with pytest.raises(ShapeError):
            ag.cross_entropy(p, np.array([10]))


def _pool_grads(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """maxpool2x2's output and its input gradient for the seed ``g``."""
    t = Tensor(x, requires_grad=True)
    out = ag.maxpool2x2(t)
    ag.backward(out, seed_grad=g)
    return out.data, t.grad


@st.composite
def _pool_case(draw):
    """An input over a small value set with both signed zeros, so 2-, 3- and
    4-way ties occur, and a seed gradient holding -0.0."""
    shape = (draw(st.sampled_from([0, 1, 3])), draw(st.sampled_from([1, 4])),
             draw(st.sampled_from([2, 4, 6])), draw(st.sampled_from([2, 4, 6])))
    x = draw(arrays(np.float32, shape,
                    elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])))
    gshape = (shape[0], shape[1], shape[2] // 2, shape[3] // 2)
    g = draw(arrays(np.float32, gshape,
                    elements=st.sampled_from([-0.0, 0.0, -1.5, 3.0])))
    return x, g


_RELU_SPECIALS = [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45, -1e-45,
                  1.1754942e-38, -1.1754942e-38]


class TestReluBytes:
    """relu against the ``np.where`` oracle, byte for byte."""

    @given(arrays(np.float32, st.tuples(st.integers(1, 4), st.integers(1, 9)),
                  elements=st.one_of(st.sampled_from(_RELU_SPECIALS),
                                     st.floats(width=32, allow_nan=True,
                                               allow_subnormal=True))))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_where_oracle(self, x):
        for view in (x, x.T):  # a strided input too
            out = ag.relu(Tensor(view)).data
            want = relu_oracle(view)
            assert out.dtype == np.float32 and out.shape == want.shape
            assert out.tobytes() == want.tobytes()


class TestMaxPoolBytes:
    """maxpool2x2 against the argmax oracle, byte for byte."""

    @given(_pool_case())
    @example((  # a signed-zero tie: the first slot's -0.0 wins, and g is -0.0
        np.array([-0.0, 0.0, 0.0, -0.0], dtype=np.float32).reshape(1, 1, 2, 2),
        np.full((1, 1, 1, 1), -0.0, dtype=np.float32),
    ))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_argmax_oracle(self, case):
        x, g = case
        out, dx = _pool_grads(x, g)
        want_out, want_dx = maxpool_oracle(x, g)
        assert out.dtype == dx.dtype == np.float32
        assert out.shape == want_out.shape and dx.shape == want_dx.shape
        assert out.tobytes() == want_out.tobytes()
        assert dx.tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize("values", [
        (0.0, 1.0, 2.0),  # a ReLU output: ties of +0.0, and top holds zeros
        (-2.0, -1.0, 1.0, 2.0),  # no zero: ties of equal bits only
        (-1.0, -0.0, 0.0, 1.0),  # zeros of both signs tie
        (-0.0, 0.0, 1.0),  # as "relu", but with -0.0
        (0.0, 1.0, np.inf, np.nan),
    ], ids=["relu", "nonzero", "signed-zeros", "relu-and-minus-zero", "nan"])
    def test_value_sets_match_argmax_oracle(self, values):
        rng = np.random.default_rng(30)
        x = rng.choice(np.array(values, dtype=np.float32), size=(3, 4, 6, 8))
        g = _values(rng, (3, 4, 3, 4))
        out, dx = _pool_grads(x, g)
        want_out, want_dx = maxpool_oracle(x, g)
        assert out.tobytes() == want_out.tobytes()
        assert dx.tobytes() == want_dx.tobytes()

    def test_nan_window_outputs_nan_and_routes_to_first_nan(self):
        # Windows: [1, nan, nan, 5] | [nan, 0, 2, 1] | [-inf x 4] | [3, 1, 2, 0].
        x = np.array([
            [1.0, np.nan, np.nan, 0.0, -np.inf, -np.inf, 3.0, 1.0],
            [np.nan, 5.0, 2.0, 1.0, -np.inf, -np.inf, 2.0, 0.0],
        ], dtype=np.float32).reshape(1, 1, 2, 8)
        g = np.array([-1.5, 2.0, 4.0, 8.0], dtype=np.float32).reshape(1, 1, 1, 4)
        out, dx = _pool_grads(x, g)
        assert np.isnan(out[0, 0, 0, :2]).all()
        np.testing.assert_array_equal(out[0, 0, 0, 2:], [-np.inf, 3.0])
        np.testing.assert_array_equal(dx[0, 0], [
            [0.0, -1.5, 2.0, 0.0, 4.0, 0.0, 8.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ])
        want_out, want_dx = maxpool_oracle(x, g)
        assert out.tobytes() == want_out.tobytes()
        assert dx.tobytes() == want_dx.tobytes()


class TestTV:
    def test_constant_image_zero(self):
        x = Tensor(np.full((1, 1, 4, 4), 0.7, dtype=np.float32))
        assert float(ag.tv_penalty(x, eps=0.0).data) == 0.0

    def test_single_step_image(self):
        x = Tensor(np.array([[0.0, 1.0]]).reshape(1, 1, 1, 2))
        assert float(ag.tv_penalty(x, eps=0.0).data) == pytest.approx(1.0)

    def test_checkerboard_2x2(self):
        x = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]).reshape(1, 1, 2, 2))
        want = np.sqrt(2.0) + 2.0
        assert float(ag.tv_penalty(x, eps=0.0).data) == pytest.approx(want, rel=1e-6)

    def test_batch_and_channel_sum(self):
        one = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
        x = Tensor(np.stack([one, one])[None].repeat(3, axis=0).reshape(3, 2, 2, 2))
        want = 6 * (np.sqrt(2.0) + 2.0)
        assert float(ag.tv_penalty(x, eps=0.0).data) == pytest.approx(want, rel=1e-5)

    @given(st.floats(-0.5, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, c):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(1, 1, 5, 5)).astype(np.float32)
        a = float(ag.tv_penalty(Tensor(x), eps=0.0).data)
        b = float(ag.tv_penalty(Tensor(x + np.float32(c)), eps=0.0).data)
        assert a == pytest.approx(b, rel=1e-4, abs=1e-4)

    @pytest.mark.parametrize("eps", [1e-8, 0.0])
    @pytest.mark.parametrize("seed", [0.1, -2.0, np.inf])
    @pytest.mark.parametrize("shape", [(3, 2, 5, 4), (2, 1, 1, 6), (2, 3, 4, 1)])
    def test_matches_plane_by_plane_oracle(self, shape, seed, eps):
        # Repeated values make zero differences, where eps = 0 gives r = 0.
        # Where two NaNs meet, numpy's loops may keep either's sign bit, so
        # NaNs compare as NaNs and every other value by its bytes.
        rng = np.random.default_rng(31)
        x = rng.choice(np.array([0.0, 0.25, 1.0, 3.0], dtype=np.float32), size=shape)
        t = Tensor(x, requires_grad=True)
        with np.errstate(invalid="ignore"):
            out = ag.tv_penalty(t, eps)
            ag.backward(out, seed_grad=np.float32(seed))
            want_out, want_dx = tv_oracle(x, eps, np.float32(seed))
        assert out.data.tobytes() == want_out.tobytes()
        nan = np.isnan(want_dx)
        assert (np.isnan(t.grad) == nan).all()
        assert t.grad[~nan].tobytes() == want_dx[~nan].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_keeps_the_masked_divide(self, bad):
        # A NaN r (from a NaN, or inf - inf) gets zero from the masked
        # divide, NaN from a plain one: the total, not finite, keeps the mask.
        rng = np.random.default_rng(32)
        x = rng.choice(np.array([0.0, 0.25, 1.0, 3.0], dtype=np.float32), size=(2, 1, 5, 4))
        x[0, 0, 2, 1] = bad
        x[1, 0, 1, 1:3] = bad
        t = Tensor(x, requires_grad=True)
        with np.errstate(invalid="ignore"):
            out = ag.tv_penalty(t, 1e-8)
            ag.backward(out, seed_grad=np.float32(0.5))
            want_out, want_dx = tv_oracle(x, 1e-8, np.float32(0.5))
        assert np.isnan(out.data) == np.isnan(want_out)
        nan = np.isnan(want_dx)
        assert (np.isnan(t.grad) == nan).all() and not nan.all()
        assert t.grad[~nan].tobytes() == want_dx[~nan].tobytes()

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        # Keep neighbouring differences away from zero so the sqrt stays
        # well-conditioned for the finite-difference probe.
        x = np.cumsum(rng.uniform(0.1, 0.5, size=(1, 1, 4, 4)), axis=3)
        x = x.astype(np.float32)
        fd_check(lambda t: ag.tv_penalty(t, eps=1e-4), x, h=1e-3, rtol=5e-3)


class TestBackward:
    def test_mse_scalar_example(self):
        x = Tensor([3.0], requires_grad=True)
        ag.backward(ag.mse_loss(x, Tensor([0.0])))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GraphError):
            ag.backward(ag.relu(x))

    def test_double_backward_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        loss = ag.mse_loss(x, Tensor([0.0]))
        ag.backward(loss)
        with pytest.raises(GraphError):
            ag.backward(loss)

    def test_no_grad_path_rejected(self):
        loss = ag.mse_loss(Tensor([1.0]), Tensor([0.0]))
        with pytest.raises(GraphError):
            ag.backward(loss)

    def test_seed_grad_shape_checked(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        out = ag.relu(x)
        with pytest.raises(ShapeError):
            ag.backward(out, seed_grad=np.ones(3, dtype=np.float32))

    def test_grad_accumulates_across_graphs(self):
        x = Tensor([1.0], requires_grad=True)
        ag.backward(ag.mse_loss(x, Tensor([0.0])))
        ag.backward(ag.mse_loss(x, Tensor([0.0])))
        np.testing.assert_allclose(x.grad, [4.0])

    def test_shared_leaf_fanout(self):
        # x used twice in one graph: gradients from both paths add up.
        x = Tensor([1.0, 2.0], requires_grad=True)
        ag.backward(tsum(add(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_deterministic_replay(self):
        def run():
            rng = np.random.default_rng(11)
            x = Tensor(rng.uniform(size=(2, 1, 4, 4)).astype(np.float32),
                       requires_grad=True)
            w = Tensor(rng.uniform(-0.3, 0.3, size=(2, 1, 3, 3)).astype(np.float32),
                       requires_grad=True)
            b = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
            out = tsum(ag.relu(ag.conv2d(x, w, b)))
            ag.backward(out)
            return out.data.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


# Graphs of one leaf x (2, 1, 4, 4) for multi-root backward: each builds
# from x and leaves of its own, drawn from its rng, and returns its root,
# the root's seed (None for the default) and its own leaves.
def _tv_graph(x, rng):
    return ag.tv_penalty(x, 1e-8), np.float32(rng.normal()), []


def _conv_graph(x, rng):
    w = Tensor(rng.normal(size=(2, 1, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(size=2).astype(np.float32), requires_grad=True)
    out = ag.relu(ag.conv2d(x, w, b))
    return out, rng.normal(size=out.shape).astype(np.float32), [w, b]


def _pool_mse_graph(x, rng):
    target = Tensor(rng.normal(size=(2, 1, 2, 2)).astype(np.float32))
    return ag.mse_loss(ag.maxpool2x2(ag.sigmoid(x)), target), None, []


def _twice_graph(x, rng):  # x twice in one graph: two adds into its gradient
    return tsum(add(ag.relu(x), x)), np.float32(rng.normal()), []


_GRAPHS = {"tv": _tv_graph, "conv": _conv_graph, "pool_mse": _pool_mse_graph,
           "twice": _twice_graph}


def _roots_run(xd, start, kinds, seed, together):
    """x's gradient and every other leaf's after backward over one graph
    per kind: in one call when ``together``, else one call per root."""
    x = Tensor(xd, requires_grad=True)
    x.grad = None if start is None else start.copy()
    rng = np.random.default_rng(seed)
    graphs = [_GRAPHS[kind](x, rng) for kind in kinds]
    if together:
        ag.backward(*graphs[0][:2], *(root[:2] for root in graphs[1:]))
    else:
        for root, root_seed, _ in graphs:
            ag.backward(root, root_seed)
    return [x.grad] + [leaf.grad for *_, leaves in graphs for leaf in leaves]


class TestMultiRootBackward:
    @given(arrays(np.float32, (2, 1, 4, 4), elements=st.floats(-2, 2, width=32)),
           st.lists(st.sampled_from(sorted(_GRAPHS)), min_size=1, max_size=4),
           st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_graphs_sharing_a_leaf_match_one_call_per_root(self, xd, kinds, has_start,
                                                           seed):
        start = np.random.default_rng(seed).normal(size=xd.shape).astype(np.float32)
        start = start if has_start else None
        together = _roots_run(xd, start, kinds, seed, together=True)
        apart = _roots_run(xd, start, kinds, seed, together=False)
        assert len(together) == len(apart)
        for a, b in zip(together, apart):
            assert a.dtype == b.dtype == np.float32
            assert a.tobytes() == b.tobytes()

    def test_a_root_inside_another_roots_graph(self):
        # d(sum(y) + <y, g>)/dx: y's gradient is 1 + g, summed once.
        rng = np.random.default_rng(5)
        xd = rng.normal(size=(3, 4)).astype(np.float32)
        g = rng.normal(size=(3, 4)).astype(np.float32)
        for order in ("loss first", "y first"):
            x = Tensor(xd, requires_grad=True)
            y = ag.relu(x)
            roots = [(tsum(y), None), (y, g)]
            if order == "y first":
                roots.reverse()
            ag.backward(*roots[0], roots[1])
            want = Tensor(xd, requires_grad=True)
            ag.backward(ag.relu(want), np.float32(1) + g)
            assert x.grad.tobytes() == want.grad.tobytes(), order

    @pytest.mark.parametrize("bad", ["consumed", "seed_shape", "no_grad", "non_scalar"])
    def test_a_bad_further_root_raises_before_any_walk(self, bad):
        x = Tensor(np.array([1.0, -2.0], np.float32), requires_grad=True)
        loss = ag.mse_loss(ag.relu(x), Tensor(np.zeros(2, np.float32)))
        if bad == "consumed":
            other = ag.sigmoid(x)
            ag.backward(other, np.ones(2, np.float32))
            root, error = (other, np.ones(2, np.float32)), GraphError
        elif bad == "seed_shape":
            root, error = (ag.sigmoid(x), np.ones(3, np.float32)), ShapeError
        elif bad == "no_grad":
            root, error = (ag.sigmoid(Tensor(np.ones(2, np.float32))), None), GraphError
        else:
            root, error = (ag.sigmoid(x), None), GraphError
        before = None if x.grad is None else x.grad.copy()
        with pytest.raises(error):
            ag.backward(loss, None, root)
        # Nothing walked: x's gradient is as it was, and loss's graph is whole.
        assert (x.grad is None) == (before is None)
        if before is not None:
            assert x.grad.tobytes() == before.tobytes()
        ag.backward(loss)


def _conv_grads_reference(x, w, g, p):
    """(dx, dw, db) of a stride-1 convolution in float64, one kernel tap
    at a time, with no patch matrix."""
    x, w, g = (a.astype(np.float64) for a in (x, w, g))
    _, _, kh, kw = w.shape
    _, _, ho, wo = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i in range(kh):
        for j in range(kw):
            dw[:, :, i, j] = np.einsum("noyx,ncyx->oc", g, xp[:, :, i : i + ho, j : j + wo])
            dxp[:, :, i : i + ho, j : j + wo] += np.einsum("noyx,oc->ncyx", g, w[:, :, i, j])
    dx = dxp[:, :, p : xp.shape[2] - p, p : xp.shape[3] - p]
    return dx, dw, g.sum(axis=(0, 2, 3))


class TestConvBackward:
    """conv2d's VJP against an independent float64 reference, at shapes
    large enough for BLAS to block the products, and at the edges of the
    padding code."""

    @staticmethod
    def _check_against_reference(x, w, b, padding, rng):
        x, w, b = (Tensor(a.astype(np.float32), requires_grad=True) for a in (x, w, b))
        out = ag.conv2d(x, w, b)
        g = rng.normal(size=out.shape).astype(np.float32)
        ag.backward(out, seed_grad=g)
        for got, want in zip((x.grad, w.grad, b.grad),
                             _conv_grads_reference(x.data, w.data, g, padding)):
            assert got.dtype == np.float32 and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-5,
                                       atol=1e-5 * np.abs(want).max(initial=0.0))

    @pytest.mark.parametrize("padding", [1])
    def test_matches_float64_reference(self, padding):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 16, 13, 10))
        w = rng.normal(size=(8, 16, 3, 3))
        self._check_against_reference(x, w, rng.normal(size=8), padding, rng)

    @pytest.mark.parametrize("xshape, wshape, padding", [
        ((3, 5, 6, 7), (4, 5, 1, 1), 0),  # pointwise kernel, no padding
        ((0, 3, 6, 5), (2, 3, 3, 3), 1),  # zero rows, as build_parts runs
    ], ids=["xshape0-wshape0-0", "xshape2-wshape2-1"])
    def test_padding_edges(self, xshape, wshape, padding):
        rng = np.random.default_rng(13)
        x, w = rng.normal(size=xshape), rng.normal(size=wshape)
        self._check_against_reference(x, w, rng.normal(size=wshape[0]), padding, rng)

    def test_input_without_grad(self):
        rng = np.random.default_rng(12)
        xd = rng.normal(size=(4, 16, 9, 7)).astype(np.float32)
        wd = rng.normal(size=(8, 16, 3, 3)).astype(np.float32)
        bd = rng.normal(size=8).astype(np.float32)
        r = Tensor(rng.normal(size=(4, 8, 9, 7)).astype(np.float32))
        grads = []
        for x_needs_grad in (True, False):
            x = Tensor(xd, requires_grad=x_needs_grad)
            w, b = Tensor(wd, requires_grad=True), Tensor(bd, requires_grad=True)
            ag.backward(ag.mse_loss(ag.conv2d(x, w, b), r))
            grads.append((x.grad, w.grad, b.grad))
        (dx, dw, db), (dx_none, dw_only, db_only) = grads
        assert dx is not None and dx_none is None
        np.testing.assert_array_equal(dw_only, dw)
        np.testing.assert_array_equal(db_only, db)


def _conv_all_grads(x, w, b, g):
    """conv2d's output and its (dx, dw, db) for the seed ``g``."""
    ts = [Tensor(a, requires_grad=True) for a in (x, w, b)]
    out = ag.conv2d(*ts)
    ag.backward(out, seed_grad=g)
    return (out.data, *(t.grad for t in ts))


def _assert_same_bytes(got, want):
    for a, e in zip(got, want, strict=True):
        assert a.dtype == np.float32 and a.shape == e.shape
        assert a.tobytes() == e.tobytes()


def _values(rng, shape):
    """Normal float32 values, a fifth of them zeros of either sign."""
    v = rng.normal(size=shape).astype(np.float32)
    zero = rng.random(shape) < 0.2
    v[zero] = np.where(rng.random(shape) < 0.5, -0.0, 0.0)[zero]
    return v


@st.composite
def _conv_case(draw):
    """A small convolution over ``_values``, its seed gradient, a chunk
    size in samples (``None``: the whole batch), and the room left in the
    budget, in samples' ``dw`` products. Batch 10 is past the 8 terms from
    which numpy sums a contiguous axis pairwise, so the order of ``dw``'s
    sum shows. Widths up to 7 under a 5x5 kernel put wrapped columns 1 and
    2 wide at both row edges."""
    n = draw(st.sampled_from([0, 1, 2, 5, 10]))
    c, o = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    k = draw(st.sampled_from([3, 1, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, wt, b, g = (_values(rng, s) for s in ((n, c, h, w), (o, c, k, k), (o,), (n, o, h, w)))
    return x, wt, b, g, draw(st.sampled_from([1, 2, None])), draw(st.integers(0, 3))


def _net_convs():
    """(input shape, weight shape) of every conv layer of tiny8 at
    batch 8 and of mnist at batch 10, read from the registered nets."""
    for arch, batch in (("tiny8", 8), ("mnist", 10)):
        for i, (make, shape) in enumerate(zip(ARCHS[arch].layers, layout(arch).shapes)):
            layer = make()
            if layer.kind == "conv2d":
                yield pytest.param((batch, *shape), layer.weight.data.shape,
                                   id=f"{arch}-layer{i}")


class TestConvBytes:
    """conv2d against the whole-batch oracle, byte for byte, whatever the
    chunk size."""

    @given(_conv_case())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_oracle_at_every_chunk_size(self, case):
        x, w, b, g, samples, products = case
        # The oracle sums a one-element weight's products pairwise; the test
        # below holds conv2d to batch order there.
        assume(w.size > 1)
        per_sample = 4 * w[0].size * g.shape[2] * g.shape[3]  # patch bytes
        budget = (1 << 40 if samples is None
                  else samples * per_sample + products * 4 * w.size)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ag, "_CHUNK_BYTES", budget)
            got = _conv_all_grads(x, w, b, g)
        _assert_same_bytes(got, conv2d_oracle(x, w, b, g))

    def test_one_element_weight_sums_in_batch_order(self, monkeypatch):
        # A (N, 1, 1) stack of products summed by one .sum(axis=0) runs over
        # a contiguous axis, which numpy sums pairwise from 8 terms on: 19
        # here, where batch order gives 3 (1e8 + 3 rounds back to 1e8).
        x = np.array([1e8, 3, 3, 3, 3, 3, 3, 3, -1e8, 3], np.float32).reshape(10, 1, 1, 1)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        g = np.ones((10, 1, 1, 1), dtype=np.float32)
        got = []
        for samples in (1, 3, 10):  # 4 bytes of patches per sample
            monkeypatch.setattr(ag, "_CHUNK_BYTES", 4 * samples)
            got.append(_conv_all_grads(x, w, b, g))
        for grads in got:
            _assert_same_bytes(grads, got[0])
        assert got[0][2].ravel().tolist() == [3.0]

    @pytest.mark.parametrize("n, c", [(1, 3), (2, 5), (2, 8)])
    def test_one_by_one_plane_keeps_the_row_order(self, n, c):
        # At H*W = 1 dx's GEMM is a matrix-vector product, whose bits depend
        # on where a row sits: with the rows tap-major, dx differs here.
        rng = np.random.default_rng(32)
        x, w, b, g = (rng.normal(size=s).astype(np.float32)
                      for s in ((n, c, 1, 1), (4, c, 3, 3), (4,), (n, 4, 1, 1)))
        _assert_same_bytes(_conv_all_grads(x, w, b, g), conv2d_oracle(x, w, b, g))

    def test_cifar_layer_at_the_real_budget(self):
        # cifar's 64->64 layer at batch 8: 18 MiB of patches, one sample a chunk.
        rng = np.random.default_rng(21)
        x = rng.normal(size=(8, 64, 32, 32)).astype(np.float32)
        w = rng.normal(scale=0.05, size=(64, 64, 3, 3)).astype(np.float32)
        b = rng.normal(size=64).astype(np.float32)
        g = rng.normal(size=(8, 64, 32, 32)).astype(np.float32)
        assert 4 * 64 * 9 * 32 * 32 > ag._CHUNK_BYTES
        _assert_same_bytes(_conv_all_grads(x, w, b, g), conv2d_oracle(x, w, b, g))

    @pytest.mark.parametrize("xshape, wshape", _net_convs())
    @pytest.mark.parametrize("x_grad, w_grad", [(True, True), (True, False), (False, True)],
                             ids=["training", "invert-input", "invert-model"])
    def test_net_layers_match_oracle(self, xshape, wshape, x_grad, w_grad):
        rng = np.random.default_rng(28)
        x, w, b = _values(rng, xshape), _values(rng, wshape), _values(rng, wshape[:1])
        ts = [Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=w_grad),
              Tensor(b, requires_grad=w_grad)]
        out = ag.conv2d(*ts)
        g = _values(rng, out.shape)
        ag.backward(out, seed_grad=g)
        want = conv2d_oracle(x, w, b, g)
        _assert_same_bytes([out.data], want[:1])
        for t, e in zip(ts, want[1:], strict=True):
            if t.requires_grad:
                _assert_same_bytes([t.grad], [e])
            else:
                assert t.grad is None

    @pytest.mark.parametrize("budget", [1, 1 << 40])
    @pytest.mark.parametrize("w_grad, b_grad", [(False, True), (True, False),
                                                (False, False)])
    def test_frozen_params_get_no_gradient(self, monkeypatch, budget, w_grad, b_grad):
        monkeypatch.setattr(ag, "_CHUNK_BYTES", budget)
        rng = np.random.default_rng(22)
        xd = rng.normal(size=(3, 4, 6, 5)).astype(np.float32)
        wd = rng.normal(size=(5, 4, 3, 3)).astype(np.float32)
        bd = rng.normal(size=5).astype(np.float32)
        g = rng.normal(size=(3, 5, 6, 5)).astype(np.float32)

        def vjp(w_grad, b_grad):
            out = ag.conv2d(Tensor(xd, requires_grad=True),
                            Tensor(wd, requires_grad=w_grad),
                            Tensor(bd, requires_grad=b_grad))
            return out._vjp(g)

        dx, dw, db = vjp(w_grad, b_grad)
        want_dx, want_dw, want_db = vjp(True, True)
        assert (dw is None) == (not w_grad) and (db is None) == (not b_grad)
        assert dx.tobytes() == want_dx.tobytes()
        for got, want in ((dw, want_dw), (db, want_db)):
            assert got is None or got.tobytes() == want.tobytes()


_KERNEL_SPECIALS = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0, 2.0],
                            dtype=np.float32)


def _with_specials(rng, shape, share):
    """``_values`` with about ``share`` of them drawn from ``_KERNEL_SPECIALS``:
    both signed zeros, NaN of either sign, both infinities, and small
    integers that tie."""
    v = _values(rng, shape)
    pick = rng.random(shape) < share
    v[pick] = rng.choice(_KERNEL_SPECIALS, size=shape)[pick]
    return v


@st.composite
def _kernel_case(draw, pool=False):
    """An input and a seed gradient over ``_with_specials`` at batch 1 or
    more; for pooling, even planes and, half the time, a ReLU output as the
    input. The larger shares of specials make ties and all-zero windows."""
    n = draw(st.sampled_from([1, 2, 5]))
    c = draw(st.integers(1, 3))
    h, w = ((draw(st.sampled_from([2, 4, 6])), draw(st.sampled_from([2, 4, 6]))) if pool
            else (draw(st.integers(1, 5)), draw(st.integers(1, 5))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.1, 0.5, 1.0]))
    x = _with_specials(rng, (n, c, h, w), share)
    if pool and draw(st.booleans()):
        x = relu_oracle(x)
    gshape = (n, c, h // 2, w // 2) if pool else x.shape
    return x, _with_specials(rng, gshape, share)


def _assert_kernel_matches(op, oracle, x, g):
    """``op``'s output and input gradient for the seed ``g`` have the bytes
    of ``oracle(x, g)``. Specials make NaN of inf * 0 and inf - inf, with
    the same warning on both sides: it is silenced for both."""
    with np.errstate(invalid="ignore", over="ignore"):
        t = Tensor(x, requires_grad=True)
        out = op(t)
        ag.backward(out, seed_grad=g)
        want = oracle(x, g)
    _assert_same_bytes((out.data, t.grad), want)


class TestKernelsMatchTheMaskForms:
    """relu, sigmoid, maxpool2x2 and conv2d's col2im against the forms that
    built masks, halves or a tap-major copy, byte for byte, output and
    gradient, over signed zeros, NaN, infinities, ties and ReLU outputs."""

    @given(_kernel_case())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_relu(self, case):
        _assert_kernel_matches(ag.relu, relu_mask_oracle, *case)

    @given(_kernel_case())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_sigmoid(self, case):
        _assert_kernel_matches(ag.sigmoid, sigmoid_halves_oracle, *case)

    @given(_kernel_case(pool=True))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_maxpool2x2(self, case):
        _assert_kernel_matches(ag.maxpool2x2, maxpool_mask_oracle, *case)

    @given(st.sampled_from([1, 2, 3, 7]), st.integers(1, 3), st.integers(1, 3),
           st.one_of(st.just((1, 1)), st.tuples(st.integers(1, 6), st.integers(1, 6))),
           st.sampled_from([1, 3, 5]), st.sampled_from([1, 2, None]),
           st.sampled_from([0.0, 0.1]), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_col2im(self, n, c, o, hw, k, samples, share, seed):
        rng = np.random.default_rng(seed)
        x, g = (_with_specials(rng, s, share) for s in ((n, c, *hw), (n, o, *hw)))
        w, b = _values(rng, (o, c, k, k)), _values(rng, (o,))
        budget = 1 << 40 if samples is None else samples * 4 * c * k * k * hw[0] * hw[1]
        got = []
        with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore", over="ignore"):
            mp.setattr(ag, "_CHUNK_BYTES", budget)
            got.append(_conv_all_grads(x, w, b, g))
            mp.setattr(ag, "_col2im", col2im_copy_oracle)
            got.append(_conv_all_grads(x, w, b, g))
        _assert_same_bytes(*got)


class TestLinearBytes:
    @pytest.mark.parametrize("u, d", [(256, 784), (10, 256), (3, 1), (1, 5)])
    def test_batch_one_weight_gradient_is_the_matmul(self, u, d):
        """At batch 1 ``dw`` is not a matmul but has its bytes, signed
        zeros, NaN and infinities included."""
        rng = np.random.default_rng(29)

        def values(*shape):
            v = rng.normal(size=shape).astype(np.float32)
            v.ravel()[: 6 * v.size // 7] = rng.choice(
                np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0], np.float32),
                size=6 * v.size // 7)
            return rng.permuted(v, axis=-1)

        x, g = values(1, d), values(1, u)
        w = Tensor(rng.normal(size=(u, d)).astype(np.float32), requires_grad=True)
        with np.errstate(all="ignore"):
            out = ag.linear(Tensor(x), w, Tensor(np.zeros(u, np.float32)))
            _, dw, _ = out._vjp(g)
            want = g.T @ x
        assert dw.dtype == np.float32 and dw.shape == (u, d)
        assert dw.tobytes() == want.tobytes()


class TestBackwardFreesGraph:
    def test_interior_nodes_unlinked(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        h1 = ag.conv2d(x, w, b)
        h2 = ag.relu(h1)
        h3 = ag.maxpool2x2(h2)
        loss = ag.mse_loss(h3, Tensor(np.ones((2, 4, 3, 3), dtype=np.float32)))
        ag.backward(loss)
        for node in (h1, h2, h3, loss):
            assert node._vjp is None and node._parents == ()
        assert all(t.grad is not None for t in (x, w, b))
        with pytest.raises(GraphError):
            ag.backward(loss)
        with pytest.raises(GraphError):  # a new graph through a consumed node
            ag.backward(tsum(h2))

    def test_conv_peak_memory(self):
        # Whole-batch patches and their gradient were 2 x 18 MiB here.
        rng = np.random.default_rng(24)
        x = Tensor(rng.normal(size=(8, 64, 32, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(64, 64, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(64, dtype=np.float32), requires_grad=True)
        g = rng.normal(size=(8, 64, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            ag.backward(ag.conv2d(x, w, b), seed_grad=g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


def _cifar_server_forward(batch, keep_outputs):
    """Forward the cifar server part (layers 1 onward, split depth 1) from a
    fixed cut activation. Returns the loss, the part, the input, a (kind,
    weakref to the output, weakref to its data) per layer, and the outputs
    themselves if ``keep_outputs``."""
    rng = np.random.default_rng(25)
    part = build_layers("cifar", seed=3, start=1)
    x = Tensor(rng.normal(size=(batch, 64, 32, 32)).astype(np.float32), requires_grad=True)
    kept, refs = [], []
    h = x
    for layer in part:
        h = layer.forward(h)
        refs.append((layer.kind, weakref.ref(h), weakref.ref(h.data)))
        if keep_outputs:
            kept.append(h)
    loss = ag.cross_entropy(h, np.arange(batch) % 10)
    return loss, part, x, refs, kept


class TestForwardFreesActivations:
    def test_unsaved_outputs_die_before_backward(self):
        loss, part, x, refs, _ = _cifar_server_forward(2, keep_outputs=False)
        # The graph holds no Tensor at all.
        assert all(t() is None for _, t, _ in refs)
        kinds = [kind for kind, _, _ in refs]
        # No VJP reads a conv or fc output, nor a ReLU output that feeds a
        # pooling layer: their arrays are gone before backward starts.
        dead = [i for i, kind in enumerate(kinds) if kind in ("conv2d", "fc")
                or kind == "relu" and kinds[i + 1] == "maxpool2x2"]
        assert len(dead) == 10
        assert [i for i in dead if refs[i][2]() is not None] == []
        # sigmoid and softmax save their own outputs for backward.
        assert all(refs[i][2]() is not None for i, kind in enumerate(kinds)
                   if kind in ("sigmoid", "softmax"))

        loss_kept, part_kept, x_kept, _, kept = _cifar_server_forward(2, keep_outputs=True)
        assert len(kept) == len(part)
        assert loss.data.tobytes() == loss_kept.data.tobytes()
        ag.backward(loss)
        ag.backward(loss_kept)
        got = [x.grad] + [p.grad for layer in part for p in layer.params()]
        want = [x_kept.grad] + [p.grad for layer in part_kept for p in layer.params()]
        assert len(got) == len(want) == 15
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_live_bytes_after_forward(self):
        # Bytes live after a batch-8 forward: 21.7 MiB when every output
        # pinned its inputs and conv kept a padded copy, 9.0 MiB with only
        # what the VJPs read. One more pinned 2 MiB activation or padded
        # copy of one crosses the bound.
        rng = np.random.default_rng(26)
        part = build_layers("cifar", seed=3, start=1)
        x = Tensor(rng.normal(size=(8, 64, 32, 32)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            h = x
            for layer in part:
                h = layer.forward(h)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h.data.shape == (8, 10)
        assert live < 10.5 * 2**20


class TestFiniteDiff:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        g = finite_diff_grad(tsum, x, h=1e-3)
        np.testing.assert_allclose(g.data, np.ones((2, 3)), rtol=1e-3, atol=1e-4)

    def test_mse_scalar(self):
        g = finite_diff_grad(
            lambda t: ag.mse_loss(t, Tensor([0.0])), Tensor([3.0]), h=1e-3
        )
        np.testing.assert_allclose(g.data, [6.0], atol=1e-3)

    def test_tv_against_backward(self):
        rng = np.random.default_rng(5)
        x = np.cumsum(rng.uniform(0.1, 0.4, size=(1, 1, 3, 3)), axis=2)
        fd_check(lambda t: ag.tv_penalty(t, eps=1e-4), x.astype(np.float32),
                 h=1e-3, rtol=5e-3)


class TestOpGradients:
    """Per-op analytic-vs-numeric checks at well-conditioned points."""

    def test_relu(self):
        rng = np.random.default_rng(0)
        x = relu_safe(rng, (3, 7))
        fd_check(lambda t: tsum(ag.relu(t)), x, h=1e-2)

    def test_sigmoid(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, size=(4, 5)).astype(np.float32)
        fd_check(lambda t: tsum(ag.sigmoid(t)), x, h=1e-2)

    def test_softmax_weighted(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(3, 6)).astype(np.float32)
        r = Tensor(rng.uniform(-1, 1, size=(3, 6)).astype(np.float32))
        fd_check(lambda t: tsum(ag.mse_loss(ag.softmax(t), r)), x, h=1e-2)

    def test_linear_input_and_params(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(4, 6)).astype(np.float32)
        w = rng.uniform(-0.5, 0.5, size=(3, 6)).astype(np.float32)
        b = rng.uniform(-0.5, 0.5, size=3).astype(np.float32)
        r = Tensor(rng.uniform(size=(4, 3)).astype(np.float32))
        fd_check(lambda t: ag.mse_loss(ag.linear(t, Tensor(w), Tensor(b)), r),
                 x, h=1e-2)
        fd_check(lambda t: ag.mse_loss(ag.linear(Tensor(x), t, Tensor(b)), r),
                 w, h=1e-2)
        fd_check(lambda t: ag.mse_loss(ag.linear(Tensor(x), Tensor(w), t), r),
                 b, h=1e-2)

    def test_conv_input_and_params(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(2, 2, 5, 5)).astype(np.float32)
        w = rng.uniform(-0.3, 0.3, size=(3, 2, 3, 3)).astype(np.float32)
        b = rng.uniform(-0.3, 0.3, size=3).astype(np.float32)
        r = Tensor(rng.uniform(size=(2, 3, 5, 5)).astype(np.float32))
        fd_check(lambda t: ag.mse_loss(ag.conv2d(t, Tensor(w), Tensor(b)), r),
                 x, h=1e-2)
        fd_check(lambda t: ag.mse_loss(ag.conv2d(Tensor(x), t, Tensor(b)), r),
                 w, h=1e-2)
        fd_check(lambda t: ag.mse_loss(ag.conv2d(Tensor(x), Tensor(w), t), r),
                 b, h=1e-2)

    def test_maxpool(self):
        rng = np.random.default_rng(5)
        x = pool_safe(rng, (2, 2, 4, 4))
        r = Tensor(rng.uniform(size=(2, 2, 2, 2)).astype(np.float32))
        fd_check(lambda t: ag.mse_loss(ag.maxpool2x2(t), r), x, h=1e-2)

    def test_cross_entropy_through_softmax(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, size=(5, 10)).astype(np.float32)
        y = rng.integers(0, 10, size=5)
        fd_check(lambda t: ag.cross_entropy(ag.softmax(t), y), x, h=1e-2)


class TestOptim:
    def test_sgd_arithmetic(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([2.0], dtype=np.float32)
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.8], rtol=1e-6)

    def test_adam_first_step_magnitude(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([1.0], dtype=np.float32)
        Adam([p], lr=0.001).step()
        # Bias correction makes the very first update ~ lr exactly.
        assert float(p.data[0]) == pytest.approx(1.0 - 0.001, abs=1e-6)

    def test_sgd_zero_grad_no_change(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        p.grad = np.zeros(2, dtype=np.float32)
        SGD([p], lr=0.5).step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_adam_zero_grad_bounded_drift(self):
        p = Tensor([1.0], requires_grad=True)
        opt = Adam([p], lr=0.001)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        before = p.data.copy()
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        # Decayed first moment still moves p, but never by more than lr.
        assert abs(float(p.data[0] - before[0])) <= 0.001 + 1e-7

    def test_missing_grad_rejected(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(ShapeError):
            SGD([p], lr=0.1).step()

    def test_adam_groups_match_the_per_tensor_oracle(self):
        from splitlab.optim import GROUP_LIMIT

        # Sizes that fill a group exactly, spill over it, and stand alone.
        sizes = [(3, 5), (7,), (GROUP_LIMIT - 22,), (2,), (GROUP_LIMIT + 1,),
                 (4, 4), (GROUP_LIMIT // 2,), (GROUP_LIMIT // 2 + 1,), ()]
        rng = np.random.default_rng(5)
        start = [rng.normal(size=s).astype(np.float32) for s in sizes]
        grads = [[rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s).astype(np.float32)
                  for s in sizes] for _ in range(4)]
        grads[2][0][0, 0] = 0.0
        params = [Tensor(p.copy(), requires_grad=True) for p in start]
        opt = Adam(params, lr=0.01)
        assert [len(g) for g in opt.groups] == [3, 1, 1, 2, 2]
        for step_grads in grads:
            for p, g in zip(params, step_grads):
                p.grad = g
            opt.step()
        for p, want in zip(params, adam_oracle(start, grads, lr=0.01)):
            assert p.data.tobytes() == want.tobytes()

    def test_step_counter_increases(self):
        p = Tensor([1.0], requires_grad=True)
        opt = Adam([p], lr=0.001)
        for want in (1, 2, 3):
            p.grad = np.ones(1, dtype=np.float32)
            opt.step()
            assert opt.step_count == want


class TestNumericGuards:
    def test_assert_finite_passes(self):
        ag.assert_finite(Tensor([1.0, 2.0]))

    def test_assert_finite_raises(self):
        with pytest.raises(NumericError):
            ag.assert_finite(np.array([1.0, np.nan]))
        with pytest.raises(NumericError):
            ag.assert_finite(Tensor([np.inf]))

import math
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from prepromo import autodiff as ad
from prepromo.causal import ImputationConfig, ImputationModel
from prepromo.data import FeatureEncoder
from prepromo.errors import ConfigError, DataError, TrainingError, UsageError
from prepromo.model import DelayConfig, DelayModel
from prepromo.pretrain import PretrainConfig, PretrainedModel, pretrain_fit
from prepromo.synth import GenConfig, generate_dataset, sample_world

from oracles import finite_difference_grads, hand_written_minimize, max_grad_mismatch


def scalar(x):
    return ad.constant(np.asarray(x, dtype=np.float64))


class TestSigmoid:
    def test_symmetry_point(self):
        assert ad.sigmoid(scalar(0.0)).data == 0.5

    def test_saturation(self):
        v = float(ad.sigmoid(scalar(50.0)).data)
        assert v < 1.0
        assert v > 1.0 - 1e-6

    def test_mirror_sums_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=64) * 5
        s = ad.sigmoid(ad.constant(x)).data + ad.sigmoid(ad.constant(-x)).data
        assert np.all(np.abs(s - 1.0) < 1e-12)

    def test_never_nan_for_extreme_inputs(self):
        x = np.array([-1e4, -100.0, 0.0, 100.0, 1e4])
        out = ad.sigmoid(ad.constant(x)).data
        assert np.all(np.isfinite(out))
        assert np.all((out > 0) & (out < 1))


class TestBce:
    def test_half_on_positive(self):
        assert float(ad.bce(scalar(0.5), 1.0).data) == pytest.approx(math.log(2), abs=1e-12)

    def test_half_on_negative_symmetry(self):
        assert float(ad.bce(scalar(0.5), 0.0).data) == pytest.approx(math.log(2), abs=1e-12)

    def test_confident_correct_is_near_zero(self):
        eps = ad.PROB_EPS
        loss = float(ad.bce(scalar(1.0 - eps), 1.0).data)
        assert loss == pytest.approx(eps, rel=1e-3)

    def test_batched_is_mean(self):
        p = ad.constant(np.array([0.5, 0.9]))
        y = np.array([1.0, 1.0])
        expected = (math.log(2) - math.log(0.9)) / 2
        assert float(ad.bce(p, y).data) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = rng.uniform(-0.5, 1.5)  # deliberately allows out-of-range inputs
            y = float(rng.integers(0, 2))
            assert float(ad.bce(scalar(p), y).data) >= 0.0


class TestStopGradient:
    def test_forward_identity(self):
        assert float(ad.stop_gradient(scalar(3.2)).data) == 3.2

    def test_treated_as_constant(self):
        # f(x) = x * [[x]] at x=2: gradient is 2, not 4.
        x = ad.Parameter("x", 2.0)
        xn = x.node()
        f = ad.mul(xn, ad.stop_gradient(xn))
        grads = ad.backward(f, [x])
        assert float(grads["x"]) == 2.0

    def test_pure_stopped_loss_gives_zero_grads(self):
        w = ad.Parameter("w", np.array([[1.0], [2.0]]))
        x = ad.constant(np.array([[3.0, 4.0]]))
        out = ad.mean(ad.stop_gradient(ad.matmul(x, w.node())))
        grads = ad.backward(out, [w])
        assert np.all(grads["w"] == 0.0)


class TestBackward:
    def test_linear_gradient(self):
        w = ad.Parameter("w", 2.0)
        loss = ad.mul(w.node(), scalar(3.0))
        grads = ad.backward(loss, [w])
        assert float(grads["w"]) == 3.0

    def test_reused_parameter_accumulates(self):
        w = ad.Parameter("w", 3.0)
        loss = ad.add(ad.mul(w.node(), w.node()), w.node())  # w^2 + w
        grads = ad.backward(loss, [w])
        assert float(grads["w"]) == 7.0

    def test_non_scalar_loss_rejected(self):
        v = ad.constant(np.zeros(3))
        with pytest.raises(UsageError):
            ad.backward(ad.add(v, v))

    def test_unreachable_trainable_gets_zero(self):
        w = ad.Parameter("w", np.ones(2))
        other = ad.Parameter("other", np.ones(3))
        loss = ad.mean(w.node())
        grads = ad.backward(loss, [w, other])
        assert np.all(grads["other"] == 0.0)

    def test_each_node_visited_once(self):
        # Diamond graph: shared subexpression must not double-count.
        x = ad.Parameter("x", 2.0)
        xn = x.node()
        y = ad.mul(xn, xn)          # x^2
        loss = ad.add(y, y)         # 2x^2 -> d/dx = 4x = 8
        grads = ad.backward(loss, [x])
        assert float(grads["x"]) == 8.0


class TestPrimitiveGradients:
    """Every primitive against central finite differences."""

    def check(self, build, params, tol=1e-4):
        analytic = ad.backward(build(), params)
        numeric = finite_difference_grads(lambda: float(build().data), params)
        assert max_grad_mismatch(analytic, numeric) < tol

    def test_matmul_add_mean(self):
        rng = np.random.default_rng(7)
        w = ad.Parameter("w", rng.normal(size=(4, 3)))
        b = ad.Parameter("b", rng.normal(size=3))
        x = rng.normal(size=(5, 4))
        self.check(lambda: ad.mean(ad.add(ad.matmul(ad.constant(x), w.node()), b.node())), [w, b])

    def test_bce(self):
        # p spans the clamp on both sides; its entries sit at least 0.01 from
        # eps and 1 - eps, so the central differences never straddle a kink.
        rng = np.random.default_rng(8)
        p = ad.Parameter("p", rng.uniform(-0.5, 1.5, size=(40, 1)))
        y = rng.integers(0, 2, size=(40, 1)).astype(float)
        y[:8] = rng.uniform(size=(8, 1))
        assert np.all(np.minimum(np.abs(p.data - ad.PROB_EPS),
                                 np.abs(p.data - 1.0 + ad.PROB_EPS)) > 0.01)
        assert (p.data < 0).any() and (p.data > 1).any()
        self.check(lambda: ad.bce(p.node(), y), [p])

    def test_sigmoid_log_square(self):
        # The log is the one inside bce, fed by a squared sigmoid.
        rng = np.random.default_rng(8)
        w = ad.Parameter("w", rng.normal(size=(3, 2)))
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 2, size=(4, 2)).astype(float)

        def build():
            s = ad.sigmoid(ad.matmul(ad.constant(x), w.node()))
            return ad.bce(ad.square(s), y)
        self.check(build, [w])

    def test_clip_passthrough_region(self):
        # Inside (eps, 1 - eps) the clamp in bce passes the gradient through;
        # outside it the gradient is exactly zero.
        w = ad.Parameter("w", np.array([0.3, 0.7]))
        y = np.array([1.0, 0.0])
        self.check(lambda: ad.bce(w.node(), y), [w])
        assert np.all(ad.backward(ad.bce(w.node(), y), [w])["w"] != 0.0)
        out = ad.Parameter("out", np.array([-0.2, 1.2]))
        assert np.all(ad.backward(ad.bce(out.node(), y), [out])["out"] == 0.0)

    def test_concat_mul_sub(self):
        rng = np.random.default_rng(9)
        a = ad.Parameter("a", rng.normal(size=(4, 2)))
        b = ad.Parameter("b", rng.normal(size=(4, 3)))
        m = rng.normal(size=(4, 5))

        def build():
            c = ad.concat([a.node(), b.node()], axis=1)
            return ad.mean(ad.mul(ad.constant(m), ad.sub(c, ad.constant(1.0))))
        self.check(build, [a, b])

    def test_embedding_ops(self):
        rng = np.random.default_rng(10)
        table = ad.Parameter("table", rng.normal(size=(6, 3)))
        # The encoder's dtypes: int32 ids, bool masks.
        ids = np.array([0, 2, 2, 5], dtype=np.int32)
        bag_ids = np.array([[1, 2, 0], [3, 0, 0]], dtype=np.int32)
        bag_mask = np.array([[True, True, False], [True, False, False]])

        def build():
            single = ad.embedding(table.node(), ids)
            pooled = ad.embedding_bag(table.node(), bag_ids, bag_mask)
            return ad.add(ad.mean(ad.square(single)), ad.mean(pooled))
        self.check(build, [table])

    def test_broadcast_bias_gradient(self):
        rng = np.random.default_rng(11)
        b = ad.Parameter("b", rng.normal(size=3))
        x = rng.normal(size=(7, 3))
        self.check(lambda: ad.mean(ad.square(ad.add(ad.constant(x), b.node()))), [b])

    def test_tanh(self):
        rng = np.random.default_rng(12)
        w = ad.Parameter("w", rng.normal(size=(3, 2)))
        x = rng.normal(size=(4, 3)) * 2.0
        self.check(lambda: ad.mean(ad.square(ad.tanh(ad.matmul(ad.constant(x), w.node())))), [w])

    @pytest.mark.parametrize("act", ad.ACTIVATIONS)
    def test_dense(self, act):
        rng = np.random.default_rng(13)
        x = ad.Parameter("x", rng.normal(size=(5, 4)))
        w = ad.Parameter("w", rng.normal(size=(4, 3)))
        b = ad.Parameter("b", rng.normal(size=3))
        m = rng.normal(size=(5, 3))
        self.check(lambda: ad.mean(ad.mul(ad.dense(x.node(), w.node(), b.node(), act),
                                          ad.constant(m))), [x, w, b])

    def test_columns(self):
        rng = np.random.default_rng(14)
        a = ad.Parameter("a", rng.normal(size=(4, 6)))
        m = rng.normal(size=(4, 2))

        def build():
            left = ad.columns(a.node(), 0, 2)
            right = ad.columns(a.node(), 3, 5)
            return ad.mean(ad.add(ad.mul(ad.square(left), ad.constant(m)), right))
        self.check(build, [a])


# ---------------------------------------------------------------------------
# Reference implementations: the plain forms of the fast primitives (masked
# sigmoid, unfused dense layer, per-column bincount, allocating Adagrad, the
# 13-node BCE graph). The fast primitives must reproduce them bit for bit.
# tanh is np.tanh itself.
# ---------------------------------------------------------------------------

def ref_sigmoid_data(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return np.clip(out, ad._SIGMOID_LO, ad._SIGMOID_HI)


def ref_sigmoid(a):
    out = ref_sigmoid_data(a.data)

    def back(g):
        return (g * out * (1.0 - out),)
    return ad.Node(out, op="sigmoid", parents=(a,), backward=back)


def ref_dense(x, w, b, act):
    z = ad.add(ad.matmul(x, w), b)
    return ad.sigmoid(z) if act == "sigmoid" else z


def ref_log(a):
    def back(g):
        return (g / a.data,)
    return ad.Node(np.log(a.data), op="log", parents=(a,), backward=back)


def ref_clip(a, lo, hi):
    inside = (a.data > lo) & (a.data < hi)

    def back(g):
        return (g * inside,)
    return ad.Node(np.clip(a.data, lo, hi), op="clip", parents=(a,), backward=back)


def ref_bce(p, y, eps=ad.PROB_EPS):
    """-(y log(pc) + (1 - y) log(1 - pc)), averaged, from elementwise nodes."""
    y = np.asarray(y, dtype=np.float64)
    pc = ref_clip(p, eps, 1.0 - eps)
    s = ad.add(ad.mul(ad.constant(y), ref_log(pc)),
               ad.mul(ad.constant(1.0 - y), ref_log(ad.sub(ad.constant(1.0), pc))))
    return ad.mean(ad.mul(s, ad.constant(-1.0)))


def ref_scatter(ids, rows, shape):
    grad = np.zeros(shape)
    for k in range(shape[1]):
        grad[:, k] = np.bincount(ids, weights=rows[:, k], minlength=shape[0])
    return grad


def ref_adagrad_step(data, accum, g, lr, eps):
    accum += g * g
    data -= lr * g / (np.sqrt(accum) + eps)


def bits(a):
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64)).view(np.int64)


def assert_bitwise(a, b):
    assert np.shape(a) == np.shape(b)
    assert np.array_equal(bits(a), bits(b))


TINY = 5e-324
EDGE = np.array([0.0, -0.0, 40.0, -40.0, 800.0, -800.0, TINY, -TINY,
                 2.2e-308, -2.2e-308, 1e-300, -1e-300, 1e-17, -1e-17, 0.5, -0.5,
                 18.0, -18.0, 36.7, -36.7, 37.5, -37.5, 709.0, -709.0,
                 710.0, -710.0, 1e300, -1e300])


_rng = np.random.default_rng(2024)
GRID = {"edges": [EDGE],
        "0-d": [np.asarray(v) for v in EDGE],
        "256x32": [_rng.normal(size=(256, 32)) * 4.0],
        "64x512": [_rng.normal(size=(64, 512)) * 20.0],
        "transposed": [(_rng.normal(size=(32, 256)) * 4.0).T]}


class TestBitIdentity:
    """Fast primitives against the reference arithmetic, compared as int64 bits."""

    @pytest.mark.parametrize("case", GRID)
    def test_sigmoid_forward_and_backward(self, case):
        rng = np.random.default_rng(1)
        for x in GRID[case]:
            fast = ad.sigmoid(ad.constant(x))
            ref = ref_sigmoid(ad.constant(x))
            assert_bitwise(fast.data, ref.data)
            g = rng.normal(size=np.shape(x))
            assert_bitwise(fast._backward(g)[0], ref._backward(g)[0])

    @pytest.mark.parametrize("case", GRID)
    def test_tanh_forward_and_backward(self, case):
        # tanh is np.tanh and its gradient g * (1 - t^2).
        rng = np.random.default_rng(2)
        for x in GRID[case]:
            node = ad.tanh(ad.constant(x))
            t = np.tanh(x)
            assert_bitwise(node.data, t)
            g = rng.normal(size=np.shape(x))
            assert_bitwise(node._backward(g)[0], g * (1.0 - t * t))

    @staticmethod
    def dense_cases(case, rng):
        """2-D inputs with an identity layer (pre-activation == input) and a
        random one."""
        for x in GRID[case]:
            x = x.reshape(1, -1) if x.ndim < 2 else x
            k = x.shape[1]
            yield x, np.eye(k), np.zeros(k)
            yield x, rng.normal(size=(k, 7)), rng.normal(size=7)

    @pytest.mark.parametrize("act", ["sigmoid", "linear"])
    @pytest.mark.parametrize("case", GRID)
    def test_dense_equals_unfused(self, case, act):
        rng = np.random.default_rng(6)
        for x, w, b in self.dense_cases(case, rng):
            r = ad.constant(rng.normal(size=(x.shape[0], w.shape[1])))
            results = []
            for build in (ad.dense, ref_dense):
                params = [ad.Parameter(n, v.copy()) for n, v in (("x", x), ("w", w), ("b", b))]
                out = build(*(p.node() for p in params), act)
                results.append((out.data, ad.backward(ad.mean(ad.mul(out, r)))))
            (fast_out, fast_grads), (ref_out, ref_grads) = results
            assert_bitwise(fast_out, ref_out)
            assert fast_grads.keys() == ref_grads.keys() == {"x", "w", "b"}
            for name in fast_grads:
                assert_bitwise(fast_grads[name], ref_grads[name])

    @pytest.mark.parametrize("case", GRID)
    def test_dense_tanh(self, case):
        rng = np.random.default_rng(7)
        for x, w, b in self.dense_cases(case, rng):
            node = ad.dense(ad.constant(x), ad.constant(w), ad.constant(b), "tanh")
            t = np.tanh(x @ w + b)
            assert_bitwise(node.data, t)
            g = rng.normal(size=t.shape)
            gz = g * (1.0 - t * t)
            for got, want in zip(node._backward(g), (gz @ w.T, x.T @ gz, gz.sum(axis=0))):
                assert_bitwise(got, want)

    @pytest.mark.parametrize("shape", [(), (64, 1)])
    def test_bce_forward_and_backward(self, shape):
        eps = ad.PROB_EPS
        lo, hi = eps, 1.0 - eps
        near = [np.nextafter(lo, 0.0), lo, np.nextafter(lo, 1.0),
                np.nextafter(hi, 0.0), hi, np.nextafter(hi, 1.0)]
        rng = np.random.default_rng(8)
        edges = np.array([-0.5, -TINY, 0.0, TINY, 1e-9, 0.5, 1.0 - 1e-9, 1.0, 1.5, *near])
        cases = []
        for y in (0.0, 1.0, 0.3):
            if shape == ():
                cases += [(np.asarray(v), np.asarray(y)) for v in edges]
            else:
                p = rng.permutation(np.concatenate(
                    [edges, rng.uniform(-0.2, 1.2, size=64 - edges.size)])).reshape(shape)
                cases.append((p, np.full(shape, y)))
                cases.append((p, rng.integers(0, 2, size=shape).astype(float)))
        for p, y in cases:
            results = []
            for build in (ad.bce, ref_bce):
                param = ad.Parameter("p", p.copy())
                # An upstream gradient other than 1 reaches the loss node.
                loss = ad.mul(ad.constant(-2.75), build(param.node(), y))
                results.append((loss.data, ad.backward(loss)["p"]))
            (fast_loss, fast_grad), (ref_loss, ref_grad) = results
            assert_bitwise(fast_loss, ref_loss)
            assert_bitwise(fast_grad, ref_grad)

    def test_bce_is_one_node(self):
        p = ad.Parameter("p", np.full((3, 1), 0.4))
        loss = ad.bce(p.node(), np.ones((3, 1)))
        assert [n.op for n in ad.Tape.trace(loss).nodes] == ["param", "bce"]

    def test_bce_rejects_labels_wider_than_predictions(self):
        with pytest.raises(ConfigError, match="do not fit"):
            ad.bce(ad.constant(np.full((3, 1), 0.4)), np.ones(3))

    def test_tanh_is_one_node(self):
        x = ad.Parameter("x", np.zeros(3))
        loss = ad.mean(ad.tanh(x.node()))
        assert [n.op for n in ad.Tape.trace(loss).nodes] == ["param", "tanh", "mean"]

    @pytest.mark.parametrize("case", ["random", "repeated", "single_row", "edge_values"])
    def test_embedding_backward(self, case):
        rng = np.random.default_rng(3)
        table = ad.constant(rng.normal(size=(9, 5)))
        if case == "random":
            ids = rng.integers(0, 9, size=200)
        elif case == "repeated":
            ids = np.array([4] * 50 + [0] * 7 + [8])
        elif case == "single_row":
            ids = np.array([2])
        else:
            ids = rng.integers(0, 9, size=EDGE.size)
        g = rng.normal(size=(ids.size, 5)) * 10.0
        if case == "edge_values":
            g = np.repeat(EDGE[:, None], 5, axis=1)
        node = ad.embedding(table, ids)
        assert_bitwise(node._backward(g)[0], ref_scatter(ids, g, table.data.shape))

    @pytest.mark.parametrize("case", ["random", "repeated", "all_zero_masks", "edge_values"])
    def test_embedding_bag_backward(self, case):
        rng = np.random.default_rng(4)
        table = ad.constant(rng.normal(size=(7, 4)))
        n, length = 64, 10
        ids = rng.integers(0, 7, size=(n, length))
        mask = (rng.uniform(size=(n, length)) < 0.6).astype(float)
        if case == "repeated":
            ids[:] = 3
        elif case == "all_zero_masks":
            mask[::2] = 0.0
            mask[1::4] = 0.0
        g = rng.normal(size=(n, 4)) * 3.0
        if case == "edge_values":
            g = np.resize(EDGE, (n, 4))
        node = ad.embedding_bag(table, ids, mask)
        denom = np.maximum(mask.sum(axis=1), 1.0)
        contrib = (g / denom[:, None])[:, None, :] * mask[:, :, None]
        expected = ref_scatter(ids.reshape(-1), contrib.reshape(-1, 4), table.data.shape)
        assert_bitwise(node._backward(g)[0], expected)

    def test_compact_ids_and_bool_mask(self):
        # The encoder's int32 ids and bool masks give the bits of int64 ids
        # and 0.0/1.0 masks, forward and backward, with NaN and negative
        # rows (x * False is -0.0 for x < 0) under False entries.
        rng = np.random.default_rng(6)
        table = ad.constant(np.resize(np.append(EDGE, np.nan), (9, 4)))
        table.data[[2, 5]] *= -1.0
        n, length = 64, 10
        ids = rng.integers(0, 9, size=(n, length))
        mask = rng.uniform(size=(n, length)) < 0.6
        mask[::3] = False
        g = np.resize(EDGE, (n, 4))
        for narrow, wide in (((ids[:, 0].astype(np.int32),), (ids[:, 0],)),
                             ((ids.astype(np.int32), mask), (ids, mask.astype(float)))):
            op = ad.embedding if len(narrow) == 1 else ad.embedding_bag
            fast, ref = op(table, *narrow), op(table, *wide)
            assert_bitwise(fast.data, ref.data)
            assert_bitwise(fast._backward(g)[0], ref._backward(g)[0])
        assert np.isnan(fast.data).any()

    def test_float_ids_are_refused_not_truncated(self):
        table = ad.constant(np.arange(6.0).reshape(3, 2))
        for op, args in ((ad.embedding, ()), (ad.embedding_bag, (np.ones((1, 1)),))):
            ids = np.array([1.5]).reshape((1,) * (1 + len(args)))
            with pytest.raises((TypeError, IndexError)):
                op(table, ids, *args)

    def test_adagrad_matches_reference_formula(self):
        rng = np.random.default_rng(5)
        shapes = {"scalar": (), "vec": (7,), "mat": (256, 32), "wide": (64, 512)}
        params = [ad.Parameter(k, rng.normal(size=s)) for k, s in shapes.items()]
        ref = {p.name: (p.data.copy(), np.zeros_like(p.data)) for p in params}
        opt = ad.Adagrad(params, lr=0.05, eps=1e-10)
        for step in range(6):
            grads = {p.name: rng.normal(size=p.data.shape) * 10.0 ** (step - 3)
                     for p in params}
            grads["vec"][:3] = [0.0, -0.0, TINY]
            if step == 2:
                grads["mat"][:] = 0.0
            if step == 4:
                del grads["scalar"]
            for p in params:
                if p.name in grads:
                    opt.update(p, grads[p.name])
            for name, g in grads.items():
                ref_adagrad_step(*ref[name], g, 0.05, 1e-10)
            for p in params:
                assert_bitwise(p.data, ref[p.name][0])
                assert_bitwise(opt.accum[p.name], ref[p.name][1])


class TestRandomNetworkGradients:
    """Gradient-check property: random small nets, widths <= 8, depth <= 3."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_mlp(self, seed):
        rng = np.random.default_rng(1000 + seed)
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 9)) for _ in range(depth + 1)]
        acts = ["sigmoid"] * depth
        if rng.uniform() < 0.5:
            acts[-1] = "linear"
        mlp = ad.MLP(f"net{seed}", sizes, acts, rng)
        x = rng.normal(size=(3, sizes[0]))
        y = rng.integers(0, 2, size=(3, sizes[-1])).astype(float)

        def build():
            out = mlp.forward(ad.constant(x))[-1]
            return ad.bce(ad.sigmoid(out), y) if acts[-1] == "linear" else ad.mean(ad.square(out))

        analytic = ad.backward(build(), mlp.parameters())
        numeric = finite_difference_grads(lambda: float(build().data), mlp.parameters())
        assert max_grad_mismatch(analytic, numeric) < 1e-4


class TestMlp:
    def test_zero_weights_give_half_probability(self):
        rng = np.random.default_rng(0)
        mlp = ad.MLP("m", [4, 3, 1], ["sigmoid", "linear"], rng)
        for p in mlp.parameters():
            p.data[...] = 0.0
        x = rng.normal(size=(5, 4))
        outs = mlp.forward(ad.constant(x))
        assert np.all(outs[-1].data == 0.0)
        assert np.all(ad.sigmoid(outs[-1]).data == 0.5)

    def test_identity_network(self):
        rng = np.random.default_rng(0)
        mlp = ad.MLP("m", [1, 1], ["linear"], rng)
        mlp.weights[0].data[...] = 1.0
        mlp.biases[0].data[...] = 0.0
        x = np.array([[2.5], [-1.0]])
        assert np.array_equal(mlp.forward(ad.constant(x))[-1].data, x)

    def test_exposes_every_layer(self):
        rng = np.random.default_rng(1)
        mlp = ad.MLP("m", [4, 6, 5, 1], ["sigmoid", "sigmoid", "linear"], rng)
        outs = mlp.forward(ad.constant(rng.normal(size=(2, 4))))
        assert [o.data.shape[1] for o in outs] == [6, 5, 1]

    def test_dense_rejects_bad_shapes_and_activations(self):
        x, b = ad.constant(np.ones((2, 3))), ad.constant(np.ones(1))
        with pytest.raises(ConfigError, match="inner dimensions"):
            ad.dense(x, ad.constant(np.ones((4, 1))), b)
        with pytest.raises(ConfigError, match="unknown activation"):
            ad.dense(x, ad.constant(np.ones((3, 1))), b, "relu")

    def test_width_mismatch_names_layer(self):
        rng = np.random.default_rng(2)
        mlp = ad.MLP("m", [4, 3], ["sigmoid"], rng)
        with pytest.raises(ConfigError, match="layer 0"):
            mlp.forward(ad.constant(rng.normal(size=(2, 5))))


class TestAdagrad:
    def test_hand_arithmetic(self):
        w = ad.Parameter("w", 1.0)
        opt = ad.Adagrad([w], lr=0.001, eps=1e-10)
        opt.update(w, np.asarray(0.5))
        assert float(opt.accum["w"]) == 0.25
        assert float(w.data) == pytest.approx(0.999, abs=1e-9)

    def test_zero_gradient_is_a_no_op(self):
        w = ad.Parameter("w", 2.0)
        opt = ad.Adagrad([w])
        opt.update(w, np.asarray(0.0))
        assert float(w.data) == 2.0
        assert float(opt.accum["w"]) == 0.0

    def test_second_equal_step_is_smaller(self):
        w = ad.Parameter("w", 0.0)
        opt = ad.Adagrad([w], lr=0.1)
        opt.update(w, np.asarray(1.0))
        first = abs(float(w.data))
        opt.update(w, np.asarray(1.0))
        second = abs(float(w.data)) - first
        assert 0 < second < first

    def test_never_touches_frozen_parameters(self):
        frozen = ad.Parameter("frozen", np.array([1.0, 2.0]), trainable=False)
        live = ad.Parameter("live", np.array([1.0]))
        before = frozen.data.copy()
        opt = ad.Adagrad([frozen, live])
        opt.step(ad.mean(ad.mul(frozen.node(), live.node())))
        assert np.array_equal(frozen.data, before) and "frozen" not in opt.accum
        assert float(live.data[0]) != 1.0

    def test_accumulators_monotone(self):
        rng = np.random.default_rng(5)
        w = ad.Parameter("w", np.zeros(4))
        opt = ad.Adagrad([w])
        prev = opt.accum["w"].copy()
        for _ in range(20):
            opt.update(w, rng.normal(size=4))
            assert np.all(opt.accum["w"] >= prev)
            prev = opt.accum["w"].copy()


BLOCK = ad.ADAGRAD_BLOCK


def adagrad_scratch(opt) -> int:
    """Floats an Adagrad holds besides its accumulators."""
    return sum(v.size for v in vars(opt).values() if isinstance(v, np.ndarray))


class TestBlockedAdagrad:
    """Adagrad steps in blocks of ADAGRAD_BLOCK floats; the result is that of
    one pass over the whole array."""

    SHAPE = (17, 5783)  # 3 * BLOCK + 7 floats

    def test_blocks_match_the_whole_array_step(self):
        assert np.prod(self.SHAPE) == 3 * BLOCK + 7
        rng = np.random.default_rng(8)
        p = ad.Parameter("w", rng.normal(size=self.SHAPE))
        data, accum = p.data.copy(), np.zeros(self.SHAPE)
        opt = ad.Adagrad([p], lr=0.05, eps=1e-10)
        assert adagrad_scratch(opt) <= 2 * BLOCK
        for step in range(5):
            g = rng.normal(size=self.SHAPE) * 10.0 ** (step - 2)
            if step == 1:
                g = np.zeros(self.SHAPE)
            elif step == 2:
                # A split of a wider gradient, as concat's backward yields.
                g = np.split(rng.normal(size=(17, 2 * 5783)), [5783], axis=1)[0]
                assert not g.flags.c_contiguous
            else:
                # Signed zeros and subnormals across the first block boundary.
                g.reshape(-1)[BLOCK - 2:BLOCK + 2] = [0.0, -0.0, TINY, -TINY]
            before = p.data.copy()
            opt.update(p, g)
            ref_adagrad_step(data, accum, g, 0.05, 1e-10)
            assert_bitwise(p.data, data)
            assert_bitwise(opt.accum["w"], accum)
            if step == 1:
                assert_bitwise(p.data, before)

    def test_updates_the_parameter_in_place(self):
        # A parameter made from a transposed array is C-ordered, so the
        # step's flat views are views of it.
        p = ad.Parameter("w", np.ones(self.SHAPE[::-1]).T)
        assert p.data.flags.c_contiguous
        data = p.data
        ad.Adagrad([p]).update(p, np.ones(self.SHAPE))
        assert p.data is data and np.all(data < 1.0)

    def test_refuses_a_gradient_of_another_shape(self):
        p = ad.Parameter("w", np.ones(self.SHAPE))
        opt = ad.Adagrad([p])
        for shape in (self.SHAPE[::-1], self.SHAPE[1:]):
            with pytest.raises(UsageError, match="shape"):
                opt.update(p, np.ones(shape))
        assert np.all(p.data == 1.0) and not opt.accum["w"].any()

    def test_paper_width_scratch_is_two_blocks(self):
        # Two buffers as large as the largest parameter held 1.25 M floats.
        model, _ = paper_width_delay(1)
        params = model.parameters()
        assert max(p.data.size for p in params) > BLOCK
        assert adagrad_scratch(ad.Adagrad(params)) <= 2 * BLOCK


class Rows:
    """Features, labels and any further row arrays that minimize can draw
    batches from."""

    def __init__(self, x, y, **more):
        self.x, self.y, self.more = x, y, more
        for name, column in more.items():
            setattr(self, name, column)

    @property
    def n(self):
        return len(self.y)

    def take(self, rows):
        return Rows(self.x[rows], self.y[rows],
                    **{name: column[rows] for name, column in self.more.items()})


class TestMinimize:
    # 50 rows in batches of 16: the last batch of each epoch holds 2 rows.
    CONFIG = SimpleNamespace(learning_rate=0.05, batch_size=16, epochs=2)

    @staticmethod
    def problem():
        rng = np.random.default_rng(3)
        mlp = ad.MLP("m", [3, 5, 1], ["tanh", "linear"], rng)
        data = Rows(rng.normal(size=(50, 3)), rng.integers(0, 2, size=50).astype(float))
        return mlp, data

    @staticmethod
    def loss_of(mlp, data):
        def loss(batch, rows):
            assert np.array_equal(batch.y, data.y[rows])
            p = ad.sigmoid(mlp.forward(ad.constant(batch.x))[-1])
            return ad.bce(p, batch.y.reshape(-1, 1))
        return loss

    def test_matches_hand_written_loop_bitwise(self):
        runs = []
        for loop in (ad.minimize, hand_written_minimize):
            mlp, data = self.problem()
            trace, steps = loop(mlp.parameters(), data, self.loss_of(mlp, data),
                                self.CONFIG, np.random.default_rng(9), "test")
            runs.append((trace, steps, mlp.parameters()))
        (trace, steps, params), (ref_trace, ref_steps, ref_params) = runs
        assert steps == ref_steps == 2 * math.ceil(50 / 16)
        assert len(trace) == 2
        assert_bitwise(trace, ref_trace)
        for p, q in zip(params, ref_params):
            assert p.name == q.name
            assert_bitwise(p.data, q.data)

    def test_steps_write_weight_gradients_into_one_shared_buffer(self, monkeypatch):
        # Fresh arrays cost fresh pages whenever glibc has trimmed the heap.
        mlp, data = self.problem()
        seen, update = [], ad.Adagrad.update
        monkeypatch.setattr(ad.Adagrad, "update",
                            lambda opt, p, g: (seen.append((p, g)), update(opt, p, g)))
        ad.minimize(mlp.parameters(), data, self.loss_of(mlp, data), self.CONFIG,
                    np.random.default_rng(9), "test")
        weights = [g for p, g in seen if p.data.ndim == 2]
        assert len(seen) == 8 * 4 and len(weights) == 8 * 2
        buffer = weights[0].base
        assert buffer is not None and buffer.size == max(p.data.size for p, _ in seen)
        assert all(g.base is buffer and np.shares_memory(g, weights[0]) for g in weights)

    def test_calls_step_once_per_step_after_the_loss_check(self, monkeypatch):
        mlp, data = self.problem()
        events, step = [], ad.Adagrad.step
        monkeypatch.setattr(ad.Adagrad, "step",
                            lambda opt, loss: (events.append(loss), step(opt, loss)))
        _, steps = ad.minimize(mlp.parameters(), data, self.loss_of(mlp, data),
                               self.CONFIG, np.random.default_rng(9), "test")
        assert len(events) == steps == 8
        assert all(loss.data.shape == () for loss in events)

    def test_non_finite_loss_names_stage_and_step_before_stepping(self):
        mlp, data = self.problem()
        base = self.loss_of(mlp, data)
        calls, at_failure = [], []

        def loss(batch, rows):
            calls.append(None)
            if len(calls) == 4:
                at_failure.append(ad.param_hash(mlp.parameters()))
                return ad.constant(np.nan)
            return base(batch, rows)

        with pytest.raises(TrainingError, match=r"^test: non-finite loss nan at step 3$"):
            ad.minimize(mlp.parameters(), data, loss, self.CONFIG,
                        np.random.default_rng(9), "test")
        assert ad.param_hash(mlp.parameters()) == at_failure[0]

    def test_empty_training_set_is_a_data_error(self):
        mlp, data = self.problem()
        empty = data.take(np.arange(0))
        with pytest.raises(DataError, match="^test: empty training set$"):
            ad.minimize(mlp.parameters(), empty, self.loss_of(mlp, empty),
                        self.CONFIG, np.random.default_rng(9), "test")


class KitchenSink:
    """A small net with every structure a fused step must get right: an
    embedding and an embedding_bag table, a concatenated weight pair (as in
    model.gate_pair), a weight read through two nodes and a bias through
    three, one weight node with two consumers, a node with three consumers
    and a registered parameter the loss never reaches."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)

        def param(name, *shape):
            return ad.Parameter(name, rng.normal(scale=0.5, size=shape))

        self.params = [
            param("table", 6, 3), param("bag", 8, 3), param("inner", 9, 9),
            param("inner_b", 9), param("pair_a", 9, 4), param("pair_b", 9, 4),
            param("pair_ba", 4), param("pair_bb", 4), param("shared", 4, 4),
            param("shared_b", 4), param("tied", 4, 4), param("tied_b", 4),
            param("head", 4, 1), param("head_b", 1), param("unused", 5)]
        self.p = {q.name: q for q in self.params}

    @staticmethod
    def data(n=40, seed=4):
        rng = np.random.default_rng(seed)
        return Rows(rng.normal(size=(n, 3)), rng.integers(0, 2, size=n).astype(float),
                    ids=rng.integers(0, 6, size=n), seq=rng.integers(0, 8, size=(n, 4)),
                    mask=rng.uniform(size=(n, 4)) < 0.7)

    def loss(self, batch, rows=None):
        p = self.p
        x = ad.dense(ad.concat([ad.constant(batch.x),
                                ad.embedding(p["table"].node(), batch.ids),
                                ad.embedding_bag(p["bag"].node(), batch.seq, batch.mask)]),
                     p["inner"].node(), p["inner_b"].node(), "tanh")
        hidden = ad.dense(x, ad.concat([p["pair_a"].node(), p["pair_b"].node()]),
                          ad.concat([p["pair_ba"].node(), p["pair_bb"].node()]), "tanh")
        left = ad.dense(ad.columns(hidden, 0, 4), p["shared"].node(),
                        p["shared_b"].node(), "tanh")
        right = ad.dense(ad.columns(hidden, 4, 8), p["shared"].node(),
                         p["shared_b"].node(), "sigmoid")
        tied = p["tied"].node()
        mixed = ad.mul(ad.dense(left, tied, p["shared_b"].node(), "tanh"),
                       ad.dense(right, tied, p["tied_b"].node(), "linear"))
        prob = ad.sigmoid(ad.dense(mixed, p["head"].node(), p["head_b"].node()))
        y = batch.y.reshape(-1, 1)
        return ad.add(ad.add(ad.bce(prob, y),
                             ad.mean(ad.square(ad.sub(prob, ad.constant(0.3))))),
                      ad.mean(ad.mul(prob, ad.constant(0.5))))


def plain_trace(root):
    """Depth-first post-order with parents pushed in order, leaves included:
    the tape's order before leaves were moved next to their consumers."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((q, False) for q in node.parents if id(q) not in seen)
    return order


class TestFusedStep:
    """Adagrad.step(loss) updates inside the backward sweep; every bit is that
    of collecting the gradients with ad.backward and updating afterwards."""

    CONFIG = SimpleNamespace(learning_rate=0.05, batch_size=16, epochs=2)

    def test_minimize_matches_the_unfused_loop_bitwise(self):
        runs = []
        for loop in (ad.minimize, hand_written_minimize):
            net, data = KitchenSink(2), KitchenSink.data()
            trace, steps = loop(net.params, data, net.loss, self.CONFIG,
                                np.random.default_rng(9), "test")
            runs.append((trace, steps, net))
        (trace, steps, net), (ref_trace, ref_steps, ref) = runs
        assert steps == ref_steps == 6
        assert_bitwise(trace, ref_trace)
        for p in net.params:
            assert_bitwise(p.data, ref.p[p.name].data)
        assert_bitwise(net.p["unused"].data, KitchenSink(2).p["unused"].data)

    def test_one_step_matches_backward_then_update(self):
        fused, ref = KitchenSink(3), KitchenSink(3)
        batch = KitchenSink.data(n=16)
        opts = [ad.Adagrad(net.params, lr=0.05) for net in (fused, ref)]
        for _ in range(2):
            opts[0].step(fused.loss(batch))
            grads = ad.backward(ref.loss(batch))
            assert "unused" not in grads and len(grads) == len(ref.params) - 1
            for name, g in grads.items():
                opts[1].update(ref.p[name], g)
        for p in fused.params:
            assert_bitwise(p.data, ref.p[p.name].data)
            assert_bitwise(opts[0].accum[p.name], opts[1].accum[p.name])

    def test_backward_with_an_optimizer_returns_nothing(self):
        net = KitchenSink(3)
        loss = net.loss(KitchenSink.data(n=8))
        assert ad.Tape.trace(loss).backward(loss, net.params, ad.Adagrad(net.params)) == {}

    def test_leaves_sit_directly_before_their_consumer(self):
        loss = KitchenSink(3).loss(KitchenSink.data(n=8))
        nodes = ad.Tape.trace(loss).nodes
        pos = {id(n): i for i, n in enumerate(nodes)}
        consumers = {}
        for node in nodes:
            for parent in node.parents:
                consumers.setdefault(id(parent), []).append(node)
        moved = 0
        for node in nodes:
            for parent in node.parents:
                if not parent.parents and len(consumers[id(parent)]) == 1:
                    between = nodes[pos[id(parent)] + 1:pos[id(node)]]
                    assert all(not n.parents for n in between), node
                    moved += 1
        assert moved >= 15

    def test_only_leaves_move(self):
        loss = KitchenSink(3).loss(KitchenSink.data(n=8))
        nodes, ref = ad.Tape.trace(loss).nodes, plain_trace(loss)
        assert {id(n) for n in nodes} == {id(n) for n in ref}
        assert [n for n in nodes if n.parents] == [n for n in ref if n.parents]


def randomize(params, seed):
    """Normal draws for every parameter, so zero-initialized heads vary."""
    rng = np.random.default_rng(seed)
    for p in params:
        p.data = rng.normal(scale=0.5, size=p.data.shape)


class TestScore:
    """Chunked scoring against one unchunked pass, compared as bits."""

    @pytest.fixture(scope="class")
    def scored(self):
        world = sample_world(3, d=4)
        gen = GenConfig(n_users=100, n_items=200, n_categories=5, max_seq_len=3)
        daily = generate_dataset(world, 400, "daily", seed=7, gen=gen)
        pretrained = pretrain_fit(daily, PretrainConfig(
            tower_widths=(5, 3), embedding_dim=2, n_buckets=4, max_seq_len=3,
            batch_size=128, epochs=1), seed=2)
        data = pretrained.encoder.encode(generate_dataset(
            world, ad.SCORE_CHUNK + 3, "prepromo", seed=11, gen=gen))
        return pretrained, data

    def test_delay_predict(self, scored):
        pretrained, data = scored
        model = DelayModel(pretrained, DelayConfig(embedding_dim=2),
                           np.random.default_rng(5))
        randomize(model.parameters(), 6)
        scores = model.predict(data)
        with ad.no_grad():
            whole = model.forward(data)
        for key in ("p_delay", "p_all_raw", "p_ori_cvr"):
            assert_bitwise(scores[key], getattr(whole, key).data[:, 0])

    def test_imputation_mu(self, scored):
        _, data = scored
        model = ImputationModel(data.dense.shape[1], int(data.user_idx.max()) + 1,
                                ImputationConfig(widths=(6,)), np.random.default_rng(4))
        randomize(model.parameters(), 8)
        with ad.no_grad():
            whole = model._forward(data.dense, data.user_idx, np.ones(data.n))
        assert_bitwise(model.mu(data, arm=1), whole.data[:, 0])

    def test_empty_set_scores_to_empty_arrays(self, scored):
        pretrained, data = scored
        p_cvr, p_atc = pretrained.predict(data.take(np.arange(0)))
        assert p_cvr.shape == p_atc.shape == (0,)

    def test_narrow_models_score_full_chunks(self, scored, monkeypatch):
        pretrained, data = scored
        delay = DelayModel(pretrained, DelayConfig(embedding_dim=2), np.random.default_rng(5))
        imputation = ImputationModel(data.dense.shape[1], int(data.user_idx.max()) + 1,
                                     ImputationConfig(widths=(6,)), np.random.default_rng(4))
        lengths = []
        score = ad.score

        def spy(n, forward, params):
            def counted(rows):
                lengths.append(len(range(n)[rows]))
                return forward(rows)
            return score(n, counted, params)

        monkeypatch.setattr(ad, "score", spy)
        for run in (lambda: pretrained.predict(data), lambda: delay.predict(data),
                    lambda: imputation.mu(data, arm=1)):
            lengths.clear()
            run()
            assert lengths == [ad.SCORE_CHUNK, 3]


def chunk_rows(width):
    """The rows per scoring chunk that score's docstring states."""
    rows = ad.SCORE_CHUNK
    while rows > 1 and rows * width > ad.SCORE_FLOATS:
        rows //= 2
    return rows


def paper_width_delay(n):
    """A DelayModel at paper widths (512/256/128, embeddings 16, sequences 50),
    zero-started parameters randomized, and n encoded pre-promotion clicks."""
    world = sample_world(3, d=8)
    gen = GenConfig(n_users=300, n_items=600, n_categories=10, max_seq_len=50)
    pcfg = PretrainConfig(tower_widths=(512, 256, 128), embedding_dim=16,
                          n_buckets=16, max_seq_len=50)
    encoder = FeatureEncoder(pcfg.n_buckets, pcfg.max_seq_len).fit(
        generate_dataset(world, 1000, "daily", seed=7, gen=gen))
    rng = np.random.default_rng(5)
    pretrained = PretrainedModel(encoder, pcfg, rng).freeze()
    model = DelayModel(pretrained, DelayConfig(embedding_dim=16), rng)
    for p in model.parameters() + pretrained.parameters():
        if not p.data.any():
            p.data = rng.normal(scale=0.1, size=p.data.shape)
    return model, encoder.encode(generate_dataset(world, n, "prepromo", seed=11, gen=gen))


class TestScoreChunks:
    """score's chunk rule: SCORE_CHUNK rows, halved to fit SCORE_FLOATS floats."""

    @given(n=st.integers(0, 20000), widths=st.lists(st.integers(1, 1 << 16), max_size=3))
    @example(n=0, widths=[])
    @example(n=5, widths=[ad.SCORE_FLOATS + 1])
    def test_slices_cover_rows_once_in_order(self, n, widths):
        # Zero-row weights carry a width and no floats; the 1-D bias adds none.
        params = [ad.Parameter(f"w{i}", np.empty((0, w))) for i, w in enumerate(widths)]
        params.append(ad.Parameter("b", np.zeros(7)))
        width = sum(widths)
        limit = chunk_rows(width)
        assert limit == 1 or limit * width <= ad.SCORE_FLOATS
        seen = []

        def forward(rows):
            seen.append(range(n)[rows])
            return (ad.constant(np.arange(n, dtype=np.float64)[rows].reshape(-1, 1)),)

        (out,) = ad.score(n, forward, params)
        assert [i for chunk in seen for i in chunk] == list(range(n))
        assert all(len(chunk) == limit for chunk in seen[:-1])
        if n == 0:
            assert len(seen) == 1  # one pass over the empty slice
        else:
            assert 0 < len(seen[-1]) <= limit
        assert_bitwise(out, np.arange(n, dtype=np.float64))

    def test_paper_width_delay_predict_matches_one_pass(self):
        model, data = paper_width_delay(320)
        width = sum(p.data.shape[1] for p in
                    model.parameters() + model.pretrained.parameters() if p.data.ndim == 2)
        assert (width, chunk_rows(width)) == (6419, 128)
        # A last chunk of a few rows goes through BLAS's small-matrix kernels,
        # which may move its rows by an ulp or two against one pass (at
        # n = 131, rows 128 and 130 move); last chunks of 64 and 72 rows keep
        # every bit.
        for n in (320, 200):
            part = data.take(slice(0, n))
            scores = model.predict(part)
            with ad.no_grad():
                whole = model.forward(part)
            for key in ("p_delay", "p_all_raw", "p_ori_cvr"):
                assert_bitwise(scores[key], getattr(whole, key).data[:, 0])


# Run in a fresh process, so earlier tests' allocations do not set its peak.
# The peak is VmHWM, this process's own high-water mark: ru_maxrss also
# counts the RSS of the process that started it, which under pytest is
# hundreds of MB.
SCORE_PEAK = """
import sys
sys.path.insert(0, sys.argv[1])
from test_autodiff import paper_width_delay

def status_mb(key):
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith(key + ":"))
    return int(line.split()[1]) / 1024

model, data = paper_width_delay(4000)
before = status_mb("VmRSS")
model.predict(data)
print(status_mb("VmHWM") - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_paper_width_scoring_peak_memory():
    """Scoring 4 000 paper-width rows stays within a chunk's activations.

    With fixed 8 192-row chunks the whole set was one chunk, and its
    activations (about 46 KB a row) grew the peak by about 200 MB.
    """
    src = os.path.dirname(os.path.dirname(ad.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", SCORE_PEAK, os.path.dirname(__file__)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 80.0


# Scoring right after a fine-tune, as every delay variant of an experiment
# scores. Before any fit has freed its arrays, glibc's trim threshold is
# lower and scoring still faults (CHANGES.md).
SCORE_FAULTS = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from prepromo.model import finetune
from test_autodiff import paper_width_delay

model, data = paper_width_delay(4000)
model.config.batch_size, model.config.epochs, model.config.lambda_cm = 64, 1, 0.0
finetune(model, data.take(np.arange(640)))
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    model.predict(data)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[1])
"""


def test_paper_width_scoring_reuses_its_pages():
    """128-row paper-width chunks stay below glibc's trim threshold, so a
    predict call maps no fresh pages. With 512-row chunks (SCORE_FLOATS of
    1 << 22) the same call took about 12 000 minor faults."""
    src = os.path.dirname(os.path.dirname(ad.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", SCORE_FAULTS, os.path.dirname(__file__)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 5000


def test_paper_width_step_holds_no_gradient_set():
    """A paper-width step holds one weight's gradient at a time, not all
    13.8 MB of them: traced memory rises by the 4.75 MB shared scratch on the
    first step and by about 3 MB after it (19.8 MB with a whole gradient set)."""
    model, data = paper_width_delay(64)
    opt = ad.Adagrad(model.parameters(), lr=0.001)
    mu1 = np.full(data.n, 0.05)
    tracemalloc.start()
    try:
        for _ in range(3):
            loss, _ = model.loss(model.forward(data), data, mu1)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            opt.step(loss)
            rise = tracemalloc.get_traced_memory()[1] - before
            assert rise < 10 * 2**20, f"rise {rise / 2**20:.1f} MB"
    finally:
        tracemalloc.stop()


class TestDeterminism:
    def test_same_seed_same_parameters(self):
        def run():
            rng = np.random.default_rng(42)
            mlp = ad.MLP("m", [3, 4, 1], ["sigmoid", "linear"], rng)
            opt = ad.Adagrad(mlp.parameters(), lr=0.01)
            x = rng.normal(size=(8, 3))
            y = rng.integers(0, 2, size=(8, 1)).astype(float)
            for _ in range(10):
                loss = ad.bce(ad.sigmoid(mlp.forward(ad.constant(x))[-1]), y)
                opt.step(loss)
            return {p.name: p.data.copy() for p in mlp.parameters()}

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_param_hash_detects_change(self):
        w = ad.Parameter("w", np.array([1.0, 2.0]))
        before = ad.param_hash([w])
        assert ad.param_hash([w]) == before
        w.data[0] += 1e-12
        assert ad.param_hash([w]) != before


class TestTape:
    def test_topological_order(self):
        x = ad.Parameter("x", 1.0)
        xn = x.node()
        y = ad.add(xn, ad.constant(1.0))
        z = ad.mul(y, xn)
        tape = ad.Tape.trace(z)
        pos = {id(n): i for i, n in enumerate(tape.nodes)}
        for node in tape.nodes:
            for parent in node.parents:
                assert pos[id(parent)] < pos[id(node)]


class TestNoGrad:
    @staticmethod
    def recording():
        """Whether a node built here records its parents."""
        c = ad.constant(1.0)
        return ad.add(c, c).parents != ()

    def test_nodes_have_no_parents_or_rule(self):
        w = ad.Parameter("w", np.array([[1.0], [2.0]]))
        x = ad.constant(np.array([[3.0, 4.0]]))
        with ad.no_grad():
            out = ad.sigmoid(ad.matmul(x, w.node()))
        assert out.op == "sigmoid"
        assert out.parents == ()
        assert out._backward is None
        assert out.data[0, 0] == ad.sigmoid(ad.matmul(x, w.node())).data[0, 0]

    def test_nesting_restores_each_level(self):
        assert self.recording()
        with ad.no_grad():
            with ad.no_grad():
                assert not self.recording()
            assert not self.recording()
        assert self.recording()

    def test_exception_restores_state(self):
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside")
        assert self.recording()

    def test_backward_on_unrecorded_loss_rejected(self):
        w = ad.Parameter("w", np.ones(3))
        with ad.no_grad():
            loss = ad.mean(ad.mul(w.node(), w.node()))
        with pytest.raises(UsageError, match="no_grad"):
            ad.backward(loss, [w])
        with pytest.raises(UsageError, match="no_grad"):
            ad.Tape.trace(loss).backward(loss, [w])

    def test_unrecorded_input_is_a_constant(self):
        # A value computed without a graph feeds a recorded loss as a constant.
        w = ad.Parameter("w", 2.0)
        with ad.no_grad():
            c = ad.mul(w.node(), scalar(5.0))
        grads = ad.backward(ad.mul(w.node(), c), [w])
        assert float(grads["w"]) == 10.0


def ref_synth_sigmoid(z):
    """The synthetic generator's former logistic: the masked form, unclipped."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoidValues:
    """The generator's logistic is autodiff's; it differs from the former
    unclipped one only where the clip to (0, 1) binds, at |z| > 36.7."""

    @pytest.mark.parametrize("scale", [1.0, 5.0])
    def test_bitwise_equal_on_normals(self, scale):
        z = np.random.default_rng(7).normal(size=1_000_000) * scale
        assert_bitwise(ad.sigmoid_values(z), ref_synth_sigmoid(z))

    def test_differs_only_where_the_clip_binds(self):
        fast, ref = ad.sigmoid_values(EDGE), ref_synth_sigmoid(EDGE)
        assert_bitwise(fast, np.clip(ref, ad._SIGMOID_LO, ad._SIGMOID_HI))
        differ = bits(fast) != bits(ref)
        assert differ.any() and np.all(np.abs(EDGE[differ]) > 36.7)


class TestBceValues:
    def test_mean_equals_graph_bce(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(-0.2, 1.2, size=(64, 1))
        y = rng.integers(0, 2, size=(64, 1)).astype(float)
        assert float(np.mean(ad.bce_values(p, y))) == float(ref_bce(ad.constant(p), y).data)

    def test_clips_like_bce(self):
        out = ad.bce_values(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == -math.log(ad.PROB_EPS)
        assert out[1] == pytest.approx(-math.log(ad.PROB_EPS), rel=1e-6)

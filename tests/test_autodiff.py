import math

import numpy as np
import pytest

from prepromo import autodiff as ad
from prepromo.errors import ConfigError, UsageError

from oracles import finite_difference_grads, max_grad_mismatch


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
        ids = np.array([0, 2, 2, 5])
        bag_ids = np.array([[1, 2, 0], [3, 0, 0]])
        bag_mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])

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
            opt.step(grads)
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
        opt.step({"w": np.asarray(0.5)})
        assert float(opt.accum["w"]) == 0.25
        assert float(w.data) == pytest.approx(0.999, abs=1e-9)

    def test_zero_gradient_is_a_no_op(self):
        w = ad.Parameter("w", 2.0)
        opt = ad.Adagrad([w])
        opt.step({"w": np.asarray(0.0)})
        assert float(w.data) == 2.0
        assert float(opt.accum["w"]) == 0.0

    def test_second_equal_step_is_smaller(self):
        w = ad.Parameter("w", 0.0)
        opt = ad.Adagrad([w], lr=0.1)
        opt.step({"w": np.asarray(1.0)})
        first = abs(float(w.data))
        opt.step({"w": np.asarray(1.0)})
        second = abs(float(w.data)) - first
        assert 0 < second < first

    def test_never_touches_frozen_parameters(self):
        frozen = ad.Parameter("frozen", np.array([1.0, 2.0]), trainable=False)
        live = ad.Parameter("live", np.array([1.0]))
        before = frozen.data.copy()
        opt = ad.Adagrad([frozen, live])
        opt.step({"frozen": np.ones(2), "live": np.ones(1)})
        assert np.array_equal(frozen.data, before)
        assert float(live.data[0]) != 1.0

    def test_accumulators_monotone(self):
        rng = np.random.default_rng(5)
        w = ad.Parameter("w", np.zeros(4))
        opt = ad.Adagrad([w])
        prev = opt.accum["w"].copy()
        for _ in range(20):
            opt.step({"w": rng.normal(size=4)})
            assert np.all(opt.accum["w"] >= prev)
            prev = opt.accum["w"].copy()


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
                opt.step(ad.backward(loss, mlp.parameters()))
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

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from prepromo import autodiff as ad
from prepromo.causal import ImputationConfig, ImputationModel
from prepromo.data import ClickRow, FeatureEncoder
from prepromo.errors import ConfigError, DataError, TrainingError
from prepromo.model import (DelayConfig, DelayModel, DelayPrediction,
                            build_gated_input, delay_loss, finetune, gate_pair)
from prepromo.pretrain import PretrainConfig, PretrainedModel, pretrain_fit
from prepromo.synth import GenConfig, generate_dataset, sample_world

from oracles import finite_difference_grads, max_grad_mismatch
from tables import click_table


def tiny_world():
    return sample_world(3, d=4)


def tiny_samples(world, n, mode="prepromo", seed=1):
    return generate_dataset(world, n, mode, seed=seed,
                            gen=GenConfig(n_users=30, n_items=40, n_categories=5,
                                          max_seq_len=3))


def tiny_pretrained(world, seed=2, epochs=1):
    daily = tiny_samples(world, 400, mode="daily", seed=7)
    cfg = PretrainConfig(tower_widths=(5, 3), embedding_dim=2, n_buckets=4,
                         max_seq_len=3, learning_rate=0.05, epochs=epochs,
                         batch_size=128)
    return pretrain_fit(daily, cfg, seed=seed)


@pytest.fixture(scope="module")
def setup():
    world = tiny_world()
    pretrained = tiny_pretrained(world)
    samples = tiny_samples(world, 300, seed=11)
    data = pretrained.encoder.encode(samples)
    return world, pretrained, data


def make_model(pretrained, seed=5, **overrides):
    base = dict(embedding_dim=2, batch_size=64, learning_rate=0.05, epochs=2)
    base.update(overrides)
    return DelayModel(pretrained, DelayConfig(**base), np.random.default_rng(seed))


def randomize(params, seed, scale=0.5):
    """Overwrite parameters with normal draws, so zero-initialized heads vary."""
    rng = np.random.default_rng(seed)
    for p in params:
        p.data = rng.normal(scale=scale, size=p.data.shape)


class TestPoolSequence:
    """A cart history as the delay model pools it: encoded ids, then embedding_bag."""

    @staticmethod
    def pool(seq):
        table = ad.Parameter("t", np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]]))
        encoder = FeatureEncoder.from_dict({
            "n_buckets": 2, "max_seq_len": 3, "user_vocab": {"u": 1},
            "item_vocab": {"a": 1, "b": 2}, "cat_vocab": {"c": 1},
            "price_edges": [], "disc_edges": [], "dense_dim": 2})
        data = encoder.encode(click_table([ClickRow("u", "a", "c", 0, 0, 1.0, 0.0, atc_seq=seq)]))
        return ad.embedding_bag(table.node(), data.atc_seq, data.atc_mask).data[0]

    def test_empty_sequence_is_zero(self):
        assert np.array_equal(self.pool(()), np.zeros(2))

    def test_single_id(self):
        assert np.array_equal(self.pool(("a",)), [1.0, 2.0])

    def test_two_ids_mean(self):
        assert np.array_equal(self.pool(("a", "b")), [2.0, 3.0])

    def test_unknown_id_uses_reserved_row(self):
        assert np.array_equal(self.pool(("zzz",)), [0.0, 0.0])


def gate_nets(rng, zero_last=False):
    return [ad.MLP(f"g{k}", [6, 4, 4], ["tanh", "sigmoid"], rng, zero_last=zero_last)
            for k in range(2)]


class TestGateForward:
    def test_zero_initialized_gate_is_half(self):
        rng = np.random.default_rng(0)
        gc, ga = gate_nets(rng, zero_last=True)
        e = ad.constant(rng.normal(size=(3, 2)))
        for out in gate_pair(gc, ga, ad.concat([e, e, e])):
            assert np.all(out.data == 0.5)

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(1)
        gc, ga = gate_nets(rng)
        for _ in range(20):
            e = ad.constant(rng.normal(size=(2, 2)) * 10)
            for out in gate_pair(gc, ga, ad.concat([e, e, e])):
                assert np.all((out.data > 0) & (out.data < 1))

    def test_pair_equals_each_gates_own_forward(self):
        rng = np.random.default_rng(2)
        gc, ga = gate_nets(rng)
        randomize(gc.parameters() + ga.parameters(), 3)
        x = ad.constant(rng.normal(size=(50, 6)) * 3)
        for paired, net in zip(gate_pair(gc, ga, x), (gc, ga)):
            alone = net.forward(x)[-1].data
            assert np.max(np.abs(paired.data - alone) / np.abs(alone)) < 1e-12

    def test_pair_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        gc, ga = gate_nets(rng)
        params = gc.parameters() + ga.parameters()
        x = ad.constant(rng.normal(size=(5, 6)))
        w = rng.normal(size=(5, 4))

        def build():
            g_cvr, g_atc = gate_pair(gc, ga, x)
            return ad.mean(ad.mul(ad.sub(g_cvr, g_atc), ad.constant(w)))
        analytic = ad.backward(build(), params)
        numeric = finite_difference_grads(lambda: float(build().data), params)
        assert max_grad_mismatch(analytic, numeric) < 1e-4


class TestBuildGatedInput:
    def test_all_ones_gates_reduce_to_concat(self):
        rng = np.random.default_rng(2)
        h_cvr = ad.constant(rng.normal(size=(4, 3)))
        h_atc = ad.constant(rng.normal(size=(4, 3)))
        extra = ad.constant(rng.normal(size=(4, 2)))
        ones = ad.constant(np.ones((4, 3)))
        gated = build_gated_input(h_cvr, h_atc, ones, ones, [extra])
        plain = build_gated_input(h_cvr, h_atc, None, None, [extra])
        assert np.array_equal(gated.data, plain.data)
        assert np.array_equal(
            plain.data, np.concatenate([h_cvr.data, h_atc.data, extra.data], axis=1))

    def test_zero_gates_silence_transfer(self):
        rng = np.random.default_rng(3)
        h_cvr = ad.constant(rng.normal(size=(2, 3)))
        h_atc = ad.constant(rng.normal(size=(2, 3)))
        extra = ad.constant(rng.normal(size=(2, 2)))
        zeros = ad.constant(np.zeros((2, 3)))
        out = build_gated_input(h_cvr, h_atc, zeros, zeros, [extra])
        assert np.all(out.data[:, :6] == 0.0)
        assert np.array_equal(out.data[:, 6:], extra.data)


class TestForward:
    def test_additивity_to_machine_precision(self, setup):
        _, pretrained, data = setup
        model = make_model(pretrained)
        pred = model.forward(data.take(np.arange(50)))
        gap = pred.p_all_raw.data - pred.p_delay.data - pred.p_ori_cvr.data
        assert np.max(np.abs(gap)) < 1e-12

    def test_untrained_delay_head_outputs_half(self, setup):
        _, pretrained, data = setup
        model = make_model(pretrained)
        pred = model.forward(data.take(np.arange(10)))
        assert np.all(pred.p_delay.data == 0.5)
        assert np.allclose(pred.p_all_raw.data, pred.p_ori_cvr.data + 0.5)

    def test_forced_head_composition(self, setup):
        # Delay head forced to emit 0.1: p_all must be p_base + 0.1.
        _, pretrained, data = setup
        model = make_model(pretrained)
        model.head.biases[0].data[...] = math.log(0.1 / 0.9)
        pred = model.forward(data.take(np.arange(10)))
        assert np.allclose(pred.p_delay.data, 0.1, atol=1e-12)
        assert np.allclose(pred.p_all_raw.data, pred.p_ori_cvr.data + 0.1, atol=1e-12)

    def test_deterministic(self, setup):
        _, pretrained, data = setup
        model = make_model(pretrained)
        batch = data.take(np.arange(20))
        a = model.forward(batch)
        b = model.forward(batch)
        assert np.array_equal(a.p_delay.data, b.p_delay.data)

    def test_gates_disabled_equals_ones_gates(self, setup):
        _, pretrained, data = setup
        gated = make_model(pretrained, use_gates=True, seed=9)
        plain = make_model(pretrained, use_gates=False, seed=9)
        batch = data.take(np.arange(30))
        # Force every gate of the gated model to emit exactly 1.
        for gc, ga in gated.gates:
            for net in (gc, ga):
                net.weights[-1].data[...] = 0.0
                net.biases[-1].data[...] = 500.0  # sigmoid saturates to ~1
        a = gated.forward(batch)
        b = plain.forward(batch)
        assert np.allclose(a.p_delay.data, b.p_delay.data, atol=1e-12)

    def test_rejects_unfrozen_base(self, setup):
        world, _, _ = setup
        unfrozen = tiny_pretrained(world, epochs=0)
        for p in unfrozen.parameters():
            p.trainable = True
        unfrozen.frozen = False
        with pytest.raises(ConfigError):
            make_model(unfrozen)


class TestLoss:
    def pred(self, p_delay, p_all, p_ori=0.3):
        def col(v):
            return ad.constant(np.full((1, 1), v))
        return DelayPrediction(p_delay=col(p_delay), p_all_raw=col(p_all),
                               p_ori_cvr=col(p_ori))

    def test_weights_zero_leaves_delay_term_only(self):
        pred = self.pred(0.5, 0.8)
        total, parts = delay_loss(pred, np.array([1.0]), np.array([1.0]), None,
                                  lambda_all=0.0, lambda_cm=0.0)
        assert float(total.data) == pytest.approx(math.log(2), abs=1e-12)
        # lambda_all = 0 still evaluates the component for the breakdown.
        assert parts["all"] == pytest.approx(-math.log(0.8), abs=1e-12)

    def test_cm_component_vanishes_on_match(self):
        pred = self.pred(0.5, 0.8)
        _, parts = delay_loss(pred, np.array([1.0]), np.array([1.0]),
                              np.array([0.5]), lambda_all=1.0, lambda_cm=0.1)
        assert parts["cm"] == 0.0

    def test_hand_arithmetic(self):
        pred = self.pred(0.5, 0.8)
        total, parts = delay_loss(pred, np.array([1.0]), np.array([1.0]),
                                  np.array([0.4]), lambda_all=1.0, lambda_cm=0.1)
        want = math.log(2) + (-math.log(0.8)) + 0.1 * 0.01
        assert float(total.data) == pytest.approx(want, abs=1e-9)
        assert float(total.data) == pytest.approx(0.9173, abs=5e-5)

    def test_decomposition_identity(self, setup):
        _, pretrained, data = setup
        model = make_model(pretrained)
        batch = data.take(np.arange(40))
        mu1 = np.random.default_rng(0).uniform(0, 0.3, 40)
        total, parts = model.loss(model.forward(batch), batch, mu1)
        recomposed = parts["delay"] + model.config.lambda_all * parts["all"] \
            + model.config.lambda_cm * parts["cm"]
        assert abs(float(total.data) - recomposed) < 1e-12

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            DelayConfig(lambda_all=-1.0)
        pred = self.pred(0.5, 0.8)
        with pytest.raises(ConfigError):
            delay_loss(pred, np.array([1.0]), np.array([1.0]), None,
                       lambda_all=-0.5, lambda_cm=0.0)

    def test_missing_targets_rejected(self):
        pred = self.pred(0.5, 0.8)
        with pytest.raises(ConfigError):
            delay_loss(pred, np.array([1.0]), np.array([1.0]), None,
                       lambda_all=1.0, lambda_cm=0.1)

    def test_cm_on_atc_only_restricts_mean(self):
        p = ad.constant(np.array([[0.5], [0.5]]))
        pred = DelayPrediction(p_delay=p, p_all_raw=p, p_ori_cvr=p)
        mu1 = np.array([0.1, 0.5])
        a = np.array([1.0, 0.0])
        _, parts = delay_loss(pred, np.zeros(2), np.zeros(2), mu1,
                              lambda_all=0.0, lambda_cm=1.0,
                              cm_on_atc_only=True, a=a)
        assert parts["cm"] == pytest.approx(0.16, abs=1e-12)
        _, parts = delay_loss(pred, np.zeros(2), np.zeros(2), mu1,
                              lambda_all=0.0, lambda_cm=1.0)
        assert parts["cm"] == pytest.approx(0.08, abs=1e-12)


class TestStopGradientTotality:
    def test_no_gradient_reaches_frozen_base(self, setup):
        _, pretrained, data = setup
        model = make_model(pretrained)
        batch = data.take(np.arange(30))
        mu1 = np.full(30, 0.2)
        total, _ = model.loss(model.forward(batch), batch, mu1)
        grads = ad.backward(total, model.parameters())
        assert not any(name.startswith("pretrained/") for name in grads)
        # Even when explicitly asked about the frozen side: nothing flows.
        frozen_probe = [p for p in pretrained.parameters()]
        for p in frozen_probe:
            p.trainable = True
        try:
            grads = ad.backward(total, frozen_probe)
            for p in frozen_probe:
                assert np.all(grads[p.name] == 0.0), p.name
        finally:
            for p in frozen_probe:
                p.trainable = False

    def test_composite_loss_gradient_check(self, setup):
        _, pretrained, data = setup
        model = make_model(pretrained, seed=13)
        batch = data.take(np.arange(2))
        mu1 = np.array([0.15, 0.3])
        params = model.parameters()

        def build():
            total, _ = model.loss(model.forward(batch), batch, mu1)
            return total

        analytic = ad.backward(build(), params)
        numeric = finite_difference_grads(lambda: float(build().data), params)
        assert max_grad_mismatch(analytic, numeric) < 1e-4


class TestFinetune:
    def test_zero_epochs_is_identity(self, setup):
        _, pretrained, data = setup
        model = make_model(pretrained, epochs=0, lambda_cm=0.0)
        before = ad.param_hash(model.parameters())
        finetune(model, data, seed=3)
        assert ad.param_hash(model.parameters()) == before
        assert model.n_steps == 0

    def test_loss_descends(self, setup):
        _, pretrained, data = setup
        model = make_model(pretrained, lambda_cm=0.0, epochs=3)
        trace = finetune(model, data, seed=3)
        assert trace[-1] < trace[0]
        assert model.n_steps > 0

    def test_frozen_base_untouched(self, setup):
        _, pretrained, data = setup
        before = pretrained.param_hash()
        model = make_model(pretrained, lambda_cm=0.0)
        finetune(model, data, seed=4)
        assert pretrained.param_hash() == before

    def test_deterministic(self, setup):
        _, pretrained, data = setup
        runs = []
        for _ in range(2):
            model = make_model(pretrained, lambda_cm=0.0, seed=21)
            finetune(model, data, seed=9)
            runs.append(ad.param_hash(model.parameters()))
        assert runs[0] == runs[1]

    def test_requires_imputation_when_cm_active(self, setup):
        _, pretrained, data = setup
        model = make_model(pretrained, lambda_cm=0.1)
        with pytest.raises(ConfigError):
            finetune(model, data, imputation=None, seed=0)

    def test_non_finite_loss_names_stage_and_step(self, setup):
        _, pretrained, data = setup
        poisoned = data.take(np.arange(data.n))
        poisoned.dense[5, 0] = np.nan
        model = make_model(pretrained, lambda_cm=0.0)
        with pytest.raises(TrainingError, match=r"finetune: non-finite loss nan at step \d+"):
            finetune(model, poisoned, seed=3)
        assert all(np.isfinite(p.data).all() for p in model.parameters())

    def test_gate_values_differ_across_users(self, setup):
        world, pretrained, data = setup
        model = make_model(pretrained, lambda_cm=0.0, epochs=3)
        finetune(model, data, seed=5)
        # Two users with different cart/purchase histories.
        rows = data.take(np.arange(data.n))
        busy = np.where(rows.atc_mask.sum(axis=1) > 0)[0]
        idle = np.where(rows.atc_mask.sum(axis=1) == 0)[0]
        assert busy.size and idle.size
        pred = model.forward(data.take(np.array([busy[0], idle[0]])))
        g = pred.gate_values[0][0].data
        assert not np.allclose(g[0], g[1])


def desk_width_model(pretrained, **overrides):
    """A delay model at desk widths (32, 16, 8) over an untrained frozen base."""
    base = PretrainedModel(pretrained.encoder,
                           PretrainConfig(tower_widths=(32, 16, 8), embedding_dim=2,
                                          n_buckets=4, max_seq_len=3),
                           np.random.default_rng(0)).freeze()
    return DelayModel(base, DelayConfig(embedding_dim=4, **overrides),
                      np.random.default_rng(5))


class TestStepStructure:
    """What one training step builds and touches, pinned."""

    def test_initial_parameters_unchanged_by_gate_pairing(self, setup):
        # Digest of the same construction before the gates' first layers
        # were paired: same draws, same order, same names.
        _, pretrained, _ = setup
        model = desk_width_model(pretrained)
        assert len(model.parameters()) == 37
        assert ad.param_hash(model.parameters()) == (
            "b90a69910ea33de534421c4bf49aef4c1be1ba5133a2953078e69568a8cc19c7")

    def test_cmdcm_step_node_count(self, setup):
        _, pretrained, data = setup
        model = desk_width_model(pretrained, lambda_cm=0.1)
        batch = data.take(np.arange(64))
        total, _ = model.loss(model.forward(batch), batch, np.full(64, 0.2))
        assert len(ad.Tape.trace(total).nodes) <= 99

    def test_naive_finetune_step_touches_only_reachable_parameters(self, setup):
        _, pretrained, data = setup
        model = desk_width_model(pretrained, lambda_all=0.0, lambda_cm=0.0,
                                 use_gates=False)
        batch = data.take(np.arange(64))
        total, _ = model.loss(model.forward(batch), batch, None)
        grads = ad.backward(total)
        params = model.parameters()
        reachable = {p.name for p in params if not p.name.startswith(
            ("delay/gate_", "delay/emb_user"))}
        assert len(reachable) == 12 and set(grads) == reachable
        opt = ad.Adagrad(params, lr=0.05)
        opt.step({name: np.ones_like(g) for name, g in grads.items()})
        before = {p.name: (p.data.tobytes(), opt.accum[p.name].tobytes())
                  for p in params if p.name not in reachable}
        assert len(before) == 25
        opt.step(grads)
        for p in params:
            if p.name in before:
                assert before[p.name] == (p.data.tobytes(), opt.accum[p.name].tobytes())


class TestCheckpoint:
    def test_round_trip(self, setup, tmp_path):
        _, pretrained, data = setup
        model = make_model(pretrained, lambda_cm=0.0, epochs=1)
        finetune(model, data, seed=6)
        path = tmp_path / "delay.npz"
        model.save(path)
        back = DelayModel.load(path)
        assert ad.param_hash(back.parameters()) == ad.param_hash(model.parameters())
        assert back.pretrained.param_hash() == pretrained.param_hash()
        assert back.n_steps == model.n_steps
        a = model.predict(data.take(np.arange(20)))
        b = back.predict(data.take(np.arange(20)))
        assert np.array_equal(a["p_delay"], b["p_delay"])


    @pytest.fixture()
    def saved(self, setup, tmp_path):
        _, pretrained, _ = setup
        model = make_model(pretrained, lambda_cm=0.0, epochs=1)
        path = tmp_path / "delay.npz"
        model.save(path)
        return model, path

    def test_version_checked(self, saved, rewrite_checkpoint):
        _, path = saved
        rewrite_checkpoint(path, version=999)
        with pytest.raises(DataError, match="unsupported checkpoint version 999"):
            DelayModel.load(path)

    def test_missing_array_names_the_parameter(self, saved, rewrite_checkpoint):
        model, path = saved
        name = model.parameters()[0].name
        rewrite_checkpoint(path, drop=name)
        with pytest.raises(DataError, match=f"no array for parameter '{name}'"):
            DelayModel.load(path)

    def test_missing_base_array_names_the_parameter(self, saved, rewrite_checkpoint):
        model, path = saved
        name = model.pretrained.parameters()[0].name
        rewrite_checkpoint(path, drop=name)
        with pytest.raises(DataError, match=f"no array for parameter '{name}'"):
            DelayModel.load(path)

    def test_shape_mismatch_names_the_parameter(self, saved, rewrite_checkpoint):
        model, path = saved
        name = model.parameters()[-1].name
        rewrite_checkpoint(path, reshape=name)
        with pytest.raises(DataError, match=f"parameter '{name}' has shape"):
            DelayModel.load(path)


class TestGraphFreeScoring:
    """predict and mu build no graph and return the recorded forward's values."""

    def test_delay_predict_equals_recorded_forward(self, setup):
        _, pretrained, data = setup
        model = make_model(pretrained)
        randomize(model.parameters(), 1)
        scores = model.predict(data)
        pred = model.forward(data)
        assert pred.p_delay.parents  # recording is back on after predict
        assert scores.keys() == {"p_delay", "p_all_raw", "p_ori_cvr"}
        for key in scores:
            assert np.array_equal(scores[key], getattr(pred, key).data[:, 0]), key

    def test_pretrained_predict_equals_recorded_forward(self, setup):
        _, pretrained, data = setup
        p_cvr, p_atc = pretrained.predict(data)
        out = pretrained.forward(data)
        assert out.p_cvr.parents
        assert np.array_equal(p_cvr, out.p_cvr.data[:, 0])
        assert np.array_equal(p_atc, out.p_atc.data[:, 0])

    def test_mu_equals_recorded_forward(self, setup):
        _, pretrained, data = setup
        model = ImputationModel(data.dense.shape[1], pretrained.encoder.n_users,
                                ImputationConfig(widths=(6, 4)), np.random.default_rng(3))
        randomize(model.parameters(), 2)
        for arm in (None, 0, 1):
            a = data.A if arm is None else np.full(data.n, float(arm))
            recorded = model._forward(data.dense, data.user_idx, a)
            assert recorded.parents
            assert np.array_equal(model.mu(data, arm=arm), recorded.data[:, 0]), arm

    def test_delay_predict_peak_memory_at_paper_widths(self):
        # A recorded graph keeps every activation of the chunk alive until it
        # ends: about 450 MB here, against about 100 MB without the graph.
        world = sample_world(7)
        samples = generate_dataset(world, 2048, "prepromo", seed=1,
                                   gen=GenConfig(max_seq_len=50))
        encoder = FeatureEncoder(max_seq_len=50).fit(samples)
        data = encoder.encode(samples)
        rng = np.random.default_rng(0)
        pretrained = PretrainedModel(
            encoder, PretrainConfig(tower_widths=(512, 256, 128), embedding_dim=16,
                                    max_seq_len=50), rng).freeze()
        model = DelayModel(pretrained, DelayConfig(embedding_dim=16), rng)
        tracemalloc.start()
        try:
            model.predict(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 2**20, f"peak {peak / 2**20:.1f} MB"


def saved_and_loaded(model):
    buf = io.BytesIO()
    model.save(buf)
    buf.seek(0)
    return type(model).load(buf)


def same_parameter_bytes(a, b):
    assert [p.name for p in a] == [p.name for p in b]
    for p, q in zip(a, b):
        assert p.data.dtype == q.data.dtype and p.data.shape == q.data.shape, p.name
        assert p.data.tobytes() == q.data.tobytes(), p.name


# Parameter scales from subnormal to saturating, so every stored bit matters.
_SCALES = st.sampled_from([1e-310, 1e-3, 0.5, 40.0])


class TestCheckpointRoundTrip:
    """save then load restores every parameter byte and every score bit."""

    @given(seed=st.integers(0, 2**32 - 1), scale=_SCALES, frozen=st.booleans())
    def test_pretrained(self, setup, seed, scale, frozen):
        _, pretrained, data = setup
        model = PretrainedModel(pretrained.encoder, pretrained.config,
                                np.random.default_rng(0))
        randomize(model.parameters(), seed, scale)
        if frozen:
            model.freeze()
        back = saved_and_loaded(model)
        same_parameter_bytes(model.parameters(), back.parameters())
        assert back.frozen == frozen
        for got, want in zip(back.predict(data), model.predict(data)):
            assert np.array_equal(got, want)

    @given(seed=st.integers(0, 2**32 - 1), scale=_SCALES, use_gates=st.booleans(),
           steps=st.integers(0, 10**6))
    def test_delay(self, setup, seed, scale, use_gates, steps):
        _, pretrained, data = setup
        model = make_model(pretrained, use_gates=use_gates)
        randomize(model.parameters(), seed, scale)
        model.n_steps = steps
        back = saved_and_loaded(model)
        same_parameter_bytes(model.parameters(), back.parameters())
        same_parameter_bytes(model.pretrained.parameters(), back.pretrained.parameters())
        assert (back.n_steps, back.config) == (steps, model.config)
        got, want = back.predict(data), model.predict(data)
        for key in want:
            assert np.array_equal(got[key], want[key]), key
        got, want = back.forward(data).gate_values, model.forward(data).gate_values
        assert len(got) == len(want)
        for pair_got, pair_want in zip(got, want):
            for g, w in zip(pair_got, pair_want):
                assert np.array_equal(g.data, w.data)

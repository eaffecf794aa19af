import numpy as np
import pytest

from prepromo import autodiff as ad
from prepromo.data import ClickRow, FeatureEncoder
from prepromo.errors import DataError
from prepromo.metrics import auc_all
from prepromo.model import load_checkpoint, save_checkpoint
from prepromo.pretrain import PretrainConfig, PretrainedModel, pretrain_fit
from prepromo.synth import generate_dataset, sample_world

from tables import click_table

DESK = PretrainConfig(learning_rate=0.05, epochs=3)


@pytest.fixture(scope="module")
def world():
    return sample_world(7)


@pytest.fixture(scope="module")
def trained(world):
    daily = generate_dataset(world, 100_000, "daily", seed=41)
    return pretrain_fit(daily, DESK, seed=1)


class TestFit:
    def test_zero_epochs_equals_init(self, world):
        daily = generate_dataset(world, 500, "daily", seed=3)
        cfg = PretrainConfig(epochs=0)
        model = pretrain_fit(daily, cfg, seed=5)
        rng = np.random.default_rng(5)
        encoder = FeatureEncoder(n_buckets=cfg.n_buckets,
                                 max_seq_len=cfg.max_seq_len).fit(daily)
        fresh = PretrainedModel(encoder, cfg, rng)
        assert model.param_hash() == ad.param_hash(fresh.parameters())

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            pretrain_fit([], DESK, seed=0)

    def test_non_finite_feature_rejected_before_training(self, world):
        daily = generate_dataset(world, 500, "daily", seed=3)
        daily.features[42, 2] = np.nan
        with pytest.raises(DataError, match="sample 42 .*non-finite"):
            pretrain_fit(daily, DESK, seed=5)

    def test_loss_descends(self, trained):
        assert trained.loss_trace[-1] < trained.loss_trace[0]

    def test_heldout_auc_beats_065(self, world, trained):
        heldout = generate_dataset(world, 20_000, "daily", seed=42)
        data = trained.encoder.encode(heldout)
        p_cvr, p_atc = trained.predict(data)
        score = auc_all(p_cvr, data.y_all)
        print(f"pretrained held-out same-day AUC: {score:.4f}")
        assert score > 0.65

    def test_atc_head_learns_cart_propensity(self, world, trained):
        heldout = generate_dataset(world, 20_000, "daily", seed=43)
        data = trained.encoder.encode(heldout)
        _, p_atc = trained.predict(data)
        score = auc_all(p_atc, data.A)
        ceiling = auc_all(data.truth["p_a_true"], data.A)
        assert score > 0.55
        assert score > ceiling - 0.03


def _eight_clicks(rng):
    return click_table([ClickRow(f"u{i}", f"i{i}", "c", 100 + i, 0, 1.0, 0.5)
                        for i in range(8)], features=rng.normal(size=(8, 4)))


class TestForward:
    def test_zero_initialized_model_outputs_half(self):
        rng = np.random.default_rng(0)
        samples = _eight_clicks(rng)
        encoder = FeatureEncoder(n_buckets=4, max_seq_len=5).fit(samples)
        model = PretrainedModel(encoder, PretrainConfig(), rng)
        for p in model.parameters():
            p.data[...] = 0.0
        out = model.forward(encoder.encode(samples))
        assert np.all(out.p_cvr.data == 0.5)
        assert np.all(out.p_atc.data == 0.5)

    def test_untrained_heads_output_half(self):
        # Heads start at zero, so a freshly built model is calibrated at 0.5.
        rng = np.random.default_rng(0)
        samples = _eight_clicks(rng)
        encoder = FeatureEncoder(n_buckets=4, max_seq_len=5).fit(samples)
        model = PretrainedModel(encoder, PretrainConfig(), rng)
        out = model.forward(encoder.encode(samples))
        assert np.all(out.p_cvr.data == 0.5)

    def test_deterministic(self, world, trained):
        batch = trained.encoder.encode(generate_dataset(world, 50, "daily", seed=9))
        a = trained.forward(batch)
        b = trained.forward(batch)
        assert np.array_equal(a.p_cvr.data, b.p_cvr.data)
        assert np.array_equal(a.h_cvr[0].data, b.h_cvr[0].data)

    def test_out_of_vocabulary_ids_are_finite(self, trained):
        stranger = click_table([ClickRow("never-seen-user", "never-seen-item", "zzz",
                                         100, 0, 0.0, 0.5)],
                               features=np.zeros((1, trained.encoder.dense_dim - 2)))
        data = trained.encoder.encode(stranger)
        assert data.user_idx[0] == 0
        out = trained.forward(data)
        assert np.isfinite(out.p_cvr.data).all()
        assert np.isfinite(out.p_atc.data).all()

    def test_exposes_all_hidden_layers(self, trained):
        samples = click_table([ClickRow("u0", "i0", "c0", 100, 0, 0.0, 0.5)],
                              features=np.zeros((1, trained.encoder.dense_dim - 2)))
        out = trained.forward(trained.encoder.encode(samples))
        widths = trained.config.tower_widths
        assert [h.data.shape[1] for h in out.h_cvr] == list(widths)
        assert [h.data.shape[1] for h in out.h_atc] == list(widths)

    def test_forward_has_no_side_effects(self, world, trained):
        before = trained.param_hash()
        batch = trained.encoder.encode(generate_dataset(world, 100, "daily", seed=10))
        trained.forward(batch)
        trained.predict(batch)
        assert trained.param_hash() == before


class TestMultiTaskSharing:
    def test_user_embedding_feeds_both_heads(self, world):
        daily = generate_dataset(world, 3000, "daily", seed=11)
        model = pretrain_fit(daily, PretrainConfig(learning_rate=0.05, epochs=1), seed=2)
        batch = model.encoder.encode(daily[:64])
        base = model.forward(batch)
        # The user table is edited and restored; both heads must move.
        model.emb_user.data += 0.5
        bumped = model.forward(batch)
        model.emb_user.data -= 0.5
        assert not np.array_equal(base.p_cvr.data, bumped.p_cvr.data)
        assert not np.array_equal(base.p_atc.data, bumped.p_atc.data)


class TestCheckpoint:
    def test_round_trip_bitwise(self, trained, tmp_path):
        path = tmp_path / "pretrained.npz"
        save_checkpoint(trained, path)
        back = load_checkpoint(path)
        assert back.param_hash() == trained.param_hash()
        assert back.encoder.user_vocab == trained.encoder.user_vocab

    def test_wrong_kind_rejected(self, trained, tmp_path, rewrite_checkpoint):
        path = tmp_path / "pretrained.npz"
        save_checkpoint(trained, path)
        rewrite_checkpoint(path, kind="delay")
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_missing_array_names_the_parameter(self, trained, tmp_path,
                                               rewrite_checkpoint):
        path = tmp_path / "pretrained.npz"
        save_checkpoint(trained, path)
        name = trained.parameters()[0].name
        rewrite_checkpoint(path, drop=name)
        with pytest.raises(DataError, match=f"no array for parameter '{name}'"):
            load_checkpoint(path)

    def test_shape_mismatch_names_the_parameter(self, trained, tmp_path,
                                                rewrite_checkpoint):
        path = tmp_path / "pretrained.npz"
        save_checkpoint(trained, path)
        name = trained.parameters()[-1].name
        rewrite_checkpoint(path, reshape=name)
        with pytest.raises(DataError, match=f"parameter '{name}' has shape"):
            load_checkpoint(path)

    def test_missing_metadata_is_data_error(self, tmp_path):
        path = tmp_path / "bare.npz"
        np.savez(path, w=np.zeros(3))
        with pytest.raises(DataError, match="no checkpoint metadata"):
            load_checkpoint(path)


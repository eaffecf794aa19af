import numpy as np
import pytest

from prepromo import autodiff as ad
from prepromo.causal import (DEFAULT_PROPENSITY_CLIP, ImputationConfig,
                             dr_ate, dr_ate_from_model, dr_ice,
                             fit_imputation, naive_diff_in_means, propensity)
from prepromo.data import FeatureEncoder
from prepromo.errors import DataError, TrainingError, UsageError
from prepromo.metrics import nll_delay
from prepromo.pretrain import PretrainConfig, pretrain_fit
from prepromo.synth import generate_dataset, sample_world, true_ate

IMP_DESK = ImputationConfig(learning_rate=0.05, epochs=6)


@pytest.fixture(scope="module")
def world100k():
    world = sample_world(7)
    samples = generate_dataset(world, 100_000, "prepromo", seed=51)
    encoder = FeatureEncoder(max_seq_len=10).fit(samples)
    return world, samples, encoder.encode(samples)


class TestImputationFit:
    def test_zero_epoch_model_outputs_half(self, world100k):
        _, _, data = world100k
        cfg = ImputationConfig(epochs=0)
        model = fit_imputation(data.take(np.arange(2000)), cfg, seed=0)
        assert np.all(model.mu(data.take(np.arange(50)), arm=0) == 0.5)
        assert np.all(model.mu(data.take(np.arange(50)), arm=1) == 0.5)

    def test_no_treatment_variation_rejected(self, world100k):
        _, _, data = world100k
        idx = np.where(data.A == 1)[0][:500]
        with pytest.raises(DataError, match="no treatment variation"):
            fit_imputation(data.take(idx), IMP_DESK, seed=0)

    def test_non_finite_loss_names_stage_and_step(self, world100k):
        _, _, data = world100k
        poisoned = data.take(np.arange(2000))
        poisoned.dense[::50, 0] = np.nan  # some rows fall in the held-out slice
        with pytest.raises(TrainingError, match=r"imputation: non-finite loss nan at step \d+"):
            fit_imputation(poisoned, IMP_DESK, seed=0)

    def test_heldout_bce_near_bayes(self, world100k):
        _, _, data = world100k
        fit_idx = np.arange(80_000)
        held_idx = np.arange(80_000, 100_000)
        model = fit_imputation(data.take(fit_idx), IMP_DESK, seed=1)
        held = data.take(held_idx)
        got = nll_delay(model.mu(held), held.y_delay)
        q_true = np.where(held.A == 1, held.truth["mu1_true"], held.truth["mu0_true"])
        bayes = nll_delay(q_true, held.y_delay)
        print(f"imputation held-out bce {got:.4f} vs bayes {bayes:.4f}")
        assert got >= bayes - 3 * _bce_stderr(q_true, held.y_delay)
        assert got - bayes < 0.02
        assert np.isfinite(model.val_bce)

    def test_toggling_arm_changes_output(self, world100k):
        _, _, data = world100k
        model = fit_imputation(data.take(np.arange(60_000)), IMP_DESK, seed=2)
        probe = data.take(np.arange(2000))
        gap = np.abs(model.mu(probe, arm=1) - model.mu(probe, arm=0))
        assert gap.mean() > 0.001


def _bce_stderr(q, y, eps=1e-7):
    qc = np.clip(q, eps, 1 - eps)
    losses = -(y * np.log(qc) + (1 - y) * np.log(1 - qc))
    return losses.std(ddof=1) / np.sqrt(losses.size)


class TestPropensity:
    def test_clip_low(self):
        assert propensity(0.001, eps=0.05) == 0.05

    def test_passthrough(self):
        assert propensity(0.5) == 0.5

    def test_clip_high(self):
        assert propensity(0.999, eps=0.05) == pytest.approx(0.95)

    def test_ground_truth_source(self, world100k):
        _, _, data = world100k
        got = propensity(data.truth["p_a_true"][:100])
        want = np.clip(data.truth["p_a_true"][:100], DEFAULT_PROPENSITY_CLIP,
                       1 - DEFAULT_PROPENSITY_CLIP)
        assert np.array_equal(got, want)

    def test_constant_source(self):
        got = propensity(np.full(10, 0.5))
        assert got.dtype == np.float64 and np.all(got == 0.5)


class TestDrIce:
    def test_treated_hand_case(self):
        # [0.5-0.2] + 1*(1-0.5)/0.5 - 0 = 1.3
        assert float(dr_ice(1, 1, 0.5, 0.2, 0.5)) == pytest.approx(1.3, abs=1e-12)

    def test_control_hand_case(self):
        # [0.5-0.2] + 0 - (0-0.2)/0.5 = 0.7
        assert float(dr_ice(0, 0, 0.5, 0.2, 0.5)) == pytest.approx(0.7, abs=1e-12)

    def test_zero_residual_collapses_to_regression(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            mu1, mu0 = rng.uniform(0, 1, 2)
            a = float(rng.integers(0, 2))
            y = mu1 if a else mu0
            p = rng.uniform(0.05, 0.95)
            assert float(dr_ice(a, y, mu1, mu0, p)) == pytest.approx(mu1 - mu0, abs=1e-12)

    def test_boundedness_under_clipping(self, world100k):
        _, _, data = world100k
        sub = data.take(np.arange(20_000))
        eps = DEFAULT_PROPENSITY_CLIP
        tau = dr_ice(sub.A, sub.y_delay,
                     np.clip(sub.truth["mu1_true"], 0, 1),
                     np.clip(sub.truth["mu0_true"], 0, 1),
                     propensity(sub.truth["p_a_true"], eps))
        assert np.all(np.abs(tau) <= 1 + 1 / eps)


class TestDrAte:
    """Double robustness on the default world: right in all three regimes."""

    def test_true_nuisances(self, world100k):
        _, samples, data = world100k
        ate = true_ate(samples)
        est = dr_ate(data.A, data.y_delay, data.truth["mu1_true"],
                     data.truth["mu0_true"], propensity(data.truth["p_a_true"]))
        assert abs(est.mean - ate) < 3 * est.stderr

    def test_wrong_imputation_right_propensity(self, world100k):
        _, samples, data = world100k
        ate = true_ate(samples)
        const = np.full(data.n, 0.5)
        est = dr_ate(data.A, data.y_delay, const, const,
                     propensity(data.truth["p_a_true"]))
        assert abs(est.mean - ate) < 3 * est.stderr

    def test_right_imputation_wrong_propensity(self, world100k):
        _, samples, data = world100k
        ate = true_ate(samples)
        est = dr_ate(data.A, data.y_delay, data.truth["mu1_true"],
                     data.truth["mu0_true"], np.full(data.n, 0.5))
        assert abs(est.mean - ate) < 3 * est.stderr

    def test_naive_contrast_is_biased(self, world100k):
        _, samples, data = world100k
        ate = true_ate(samples)
        diff, se = naive_diff_in_means(data.A, data.y_delay)
        assert abs(diff - ate) > 3 * se

    def test_zero_effect_world(self):
        world = sample_world(5, tau=0.0)
        samples = generate_dataset(world, 60_000, "prepromo", seed=55)
        enc = FeatureEncoder(max_seq_len=10).fit(samples)
        data = enc.encode(samples)
        est = dr_ate(data.A, data.y_delay, data.truth["mu1_true"],
                     data.truth["mu0_true"], propensity(data.truth["p_a_true"]))
        assert abs(est.mean) < 3 * est.stderr

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            dr_ate(np.array([]), np.array([]), np.array([]), np.array([]),
                   np.array([]))

    def test_fitted_model_end_to_end(self, world100k):
        _, samples, data = world100k
        model = fit_imputation(data.take(np.arange(60_000)), IMP_DESK, seed=3)
        est = dr_ate_from_model(data, model, propensity(data.truth["p_a_true"]))
        ate = true_ate(samples)
        # Fitted nuisances are close but not exact; allow a wider band.
        assert abs(est.mean - ate) < max(6 * est.stderr, 0.01)


class TestCmTargets:
    """The counterfactual targets finetune takes: ImputationModel.mu(batch, arm=1)."""

    def test_zero_epoch_targets_are_half(self, world100k):
        _, _, data = world100k
        model = fit_imputation(data.take(np.arange(2000)),
                               ImputationConfig(epochs=0), seed=0)
        assert np.all(model.mu(data.take(np.arange(20)), arm=1) == 0.5)

    def test_targets_ignore_observed_action(self, world100k):
        _, _, data = world100k
        model = fit_imputation(data.take(np.arange(30_000)), IMP_DESK, seed=4)
        probe = data.take(np.arange(500))
        targets = model.mu(probe, arm=1)
        flipped = probe
        flipped.A = 1.0 - flipped.A
        assert np.array_equal(model.mu(flipped, arm=1), targets)

    def test_no_gradient_reaches_imputation(self, world100k):
        _, _, data = world100k
        model = fit_imputation(data.take(np.arange(5000)),
                               ImputationConfig(epochs=1, learning_rate=0.05), seed=5)
        probe = data.take(np.arange(16))
        targets = model.mu(probe, arm=1)
        p = ad.sigmoid(ad.constant(np.zeros((16, 1))))
        loss = ad.mean(ad.square(ad.sub(p, ad.constant(targets.reshape(-1, 1)))))
        grads = ad.backward(loss, model.parameters())
        for p_ in model.parameters():
            assert np.all(grads[p_.name] == 0.0)


class TestPretrainedPropensity:
    def test_scores_are_clipped_probabilities(self):
        world = sample_world(7)
        daily = generate_dataset(world, 20_000, "daily", seed=61)
        model = pretrain_fit(daily, PretrainConfig(learning_rate=0.05, epochs=2),
                             seed=7)
        prepromo = generate_dataset(world, 5000, "prepromo", seed=62)
        data = model.encoder.encode(prepromo)
        scores = propensity(model.predict(data)[1])
        assert np.all((scores >= 0.05) & (scores <= 0.95))

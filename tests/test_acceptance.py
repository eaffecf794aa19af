"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured values. The heavyweight five-seed experiment is shared by the
criteria that consume it; everything else builds its own fixture.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from prepromo import autodiff as ad
from prepromo.causal import dr_ate, naive_diff_in_means, propensity
from prepromo.data import FeatureEncoder, PromotionCalendar
from prepromo.experiment import make_config, run_experiment, stage_seed
from prepromo.metrics import auc, nll_delay
from prepromo.model import DelayConfig, DelayModel, finetune
from prepromo.pretrain import PretrainConfig, PretrainedModel, pretrain_fit
from prepromo.synth import GenConfig, generate_dataset, sample_world, true_ate

from oracles import (brute_force_auc, brute_force_labels,
                     finite_difference_grads, max_grad_mismatch)

BASELINES = ("pretrained_only", "naive_finetune", "reuse_relabel")
ABLATIONS = ("wo_allcvr", "wo_pg", "wo_cm")


def _report(criterion: str, detail: str):
    print(f"\n{criterion} PASS: {detail}")


@pytest.fixture(scope="module")
def five_seed_run(tmp_path_factory):
    """Desk-profile experiment: all variants, the five reference seeds."""
    cfg = make_config("desk")
    cfg.variants = BASELINES + ("cmdcm",) + ABLATIONS
    cfg.seeds = (1, 2, 3, 4, 5)
    cfg.out_dir = str(tmp_path_factory.mktemp("acceptance"))
    t0 = time.time()
    result = run_experiment(cfg)
    print(f"\n[acceptance experiment: {time.time() - t0:.0f}s]")
    return cfg, result


class TestAC1GradientCorrectness:
    def _tiny_instance(self, seed):
        rng = np.random.default_rng(seed)
        world = sample_world(int(rng.integers(1 << 16)), d=4,
                             direct_rate_pre=0.05, delayed_rate_pre=0.08)
        gen = GenConfig(n_users=12, n_items=15, n_categories=4, max_seq_len=3)
        daily = generate_dataset(world, 80, "daily", int(rng.integers(1 << 16)), gen)
        pcfg = PretrainConfig(tower_widths=(3, 2), embedding_dim=2, n_buckets=4,
                              max_seq_len=3, epochs=0)
        pretrained = pretrain_fit(daily, pcfg, seed=int(rng.integers(1 << 16)))
        # Randomize the frozen side so its activations are not degenerate.
        for p in pretrained.parameters():
            p.data = rng.normal(0, 0.4, p.data.shape)
        model = DelayModel(pretrained,
                           DelayConfig(embedding_dim=2, lambda_all=1.0,
                                       lambda_cm=0.1),
                           np.random.default_rng(int(rng.integers(1 << 16))))
        for p in model.parameters():
            p.data = p.data + rng.normal(0, 0.3, p.data.shape)
        prepromo = generate_dataset(world, 40, "prepromo",
                                    int(rng.integers(1 << 16)), gen)
        batch = pretrained.encoder.encode(prepromo[:2])
        mu1 = rng.uniform(0.05, 0.3, batch.n)
        return model, batch, mu1

    def test_ac1_analytic_gradients_match_finite_differences(self):
        t0 = time.time()
        worst = 0.0
        n_params = 0
        for k in range(50):
            model, batch, mu1 = self._tiny_instance(9000 + k)
            params = model.parameters()

            def build():
                total, _ = model.loss(model.forward(batch), batch, mu1)
                return total

            analytic = ad.backward(build(), params)
            numeric = finite_difference_grads(lambda: float(build().data),
                                              params, step=1e-5)
            err = max_grad_mismatch(analytic, numeric)
            n_params += sum(p.data.size for p in params)
            assert err < 1e-4, f"instance {k}: gradient mismatch {err:.2e}"
            worst = max(worst, err)
        elapsed = time.time() - t0
        assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 1 minute"
        _report("AC-1", f"50 composite-loss instances, {n_params} parameter "
                        f"entries checked, worst relative error {worst:.2e}, "
                        f"{elapsed:.1f}s")


class TestAC2FreezeInvariant:
    def test_ac2_pretrained_hash_unchanged_by_full_finetune(self):
        t0 = time.time()
        cfg = make_config("desk")
        world = sample_world(cfg.dataset.world_seed)
        gen = GenConfig(n_users=cfg.dataset.n_users, n_items=cfg.dataset.n_items,
                        n_categories=cfg.dataset.n_categories, max_seq_len=10)
        daily = generate_dataset(world, 100_000, "daily", stage_seed(1, "daily"), gen)
        pretrained = pretrain_fit(
            daily, PretrainConfig(learning_rate=0.1, epochs=3, max_seq_len=10),
            seed=stage_seed(1, "pretrain"))
        hash_before = pretrained.param_hash()

        prepromo = generate_dataset(world, 200_000, "prepromo",
                                    stage_seed(1, "prepromo"), gen)
        train = pretrained.encoder.encode(prepromo)
        model = DelayModel(pretrained,
                           DelayConfig(lambda_all=1.0, lambda_cm=0.0,
                                       learning_rate=0.1, epochs=3),
                           np.random.default_rng(stage_seed(1, "delay-init")))
        finetune(model, train, seed=stage_seed(1, "finetune"))
        hash_after = pretrained.param_hash()
        elapsed = time.time() - t0
        assert model.n_steps == 3 * math.ceil(train.n / 1024)
        assert hash_after == hash_before
        assert elapsed < 300, f"runtime {elapsed:.1f}s exceeds 5 minutes"
        _report("AC-2", f"sha256 {hash_before[:12]}.. identical after "
                        f"{model.n_steps} optimizer steps on {train.n} samples "
                        f"(3 epochs), {elapsed:.0f}s")


class TestAC3AucOracle:
    def test_ac3_rank_auc_equals_pair_counting_exactly(self):
        rng = np.random.default_rng(303)
        checked = 0
        for k in range(100):
            n_pos = int(rng.integers(1, 500))
            n_neg = int(rng.integers(1, 501))
            if n_pos + n_neg > 1000:
                n_neg = 1000 - n_pos
            if k % 3 == 0:
                pos = rng.integers(0, 8, n_pos) / 7.0   # heavy ties
                neg = rng.integers(0, 8, n_neg) / 7.0
            elif k % 3 == 1:
                pos = rng.normal(size=n_pos)
                neg = rng.normal(size=n_neg)
            else:
                pos = np.round(rng.uniform(size=n_pos), 2)
                neg = np.round(rng.uniform(size=n_neg), 2)
            fast = auc(pos, neg)
            slow = brute_force_auc(list(pos), list(neg))
            assert fast == slow, f"fixture {k}: {fast!r} != {slow!r}"
            checked += 1
        _report("AC-3", f"{checked} fixtures (n <= 1000, tie-heavy included), "
                        "rank-sum == O(n^2) pair counting, exact float equality")


class TestAC4DoublyRobust:
    def test_ac4_dr_valid_in_three_regimes_naive_biased(self):
        t0 = time.time()
        world = sample_world(7, d=16, tau=2.0, scale=0.3)
        samples = generate_dataset(world, 100_000, "prepromo", seed=404)
        enc = FeatureEncoder(max_seq_len=10).fit(samples)
        data = enc.encode(samples)
        ate = true_ate(samples)
        mu1, mu0 = data.truth["mu1_true"], data.truth["mu0_true"]
        p_true = propensity(data.truth["p_a_true"])
        const = np.full(data.n, 0.5)

        regimes = {
            "true nuisances": dr_ate(data.A, data.y_delay, mu1, mu0, p_true),
            "wrong imputation": dr_ate(data.A, data.y_delay, const, const, p_true),
            "wrong propensity": dr_ate(data.A, data.y_delay, mu1, mu0, const),
        }
        details = [f"true ATE {ate:.5f}"]
        for name, est in regimes.items():
            z = abs(est.mean - ate) / est.stderr
            assert z < 3, f"{name}: {est.mean:.5f} is {z:.1f} stderr from {ate:.5f}"
            details.append(f"{name} {est.mean:.5f}±{est.stderr:.5f} (z={z:.2f})")
        naive, naive_se = naive_diff_in_means(data.A, data.y_delay)
        z_naive = abs(naive - ate) / naive_se
        assert z_naive > 3, f"naive contrast unexpectedly unbiased (z={z_naive:.1f})"
        details.append(f"naive {naive:.5f}±{naive_se:.5f} off by z={z_naive:.1f}")
        elapsed = time.time() - t0
        assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds 2 minutes"
        _report("AC-4", "; ".join(details))


class TestAC5MainOrdinalClaim:
    @pytest.mark.slow
    def test_ac5_full_model_beats_every_baseline_every_seed(self, five_seed_run):
        cfg, result = five_seed_run
        by = {(r.variant, r.seed): r for r in result.reports}
        lines = []
        for seed in cfg.seeds:
            ours = by[("cmdcm", seed)].auc_delay
            for baseline in BASELINES:
                theirs = by[(baseline, seed)].auc_delay
                assert ours > theirs, (
                    f"seed {seed}: cmdcm auc_delay {ours:.4f} does not beat "
                    f"{baseline} {theirs:.4f}")
            lines.append(f"seed {seed}: cmdcm {ours:.4f} > "
                         + ", ".join(f"{b} {by[(b, seed)].auc_delay:.4f}"
                                     for b in BASELINES))

        means = {b: result.summary[b]["auc_delay"]["mean"] for b in BASELINES}
        best = max(means, key=means.get)
        comp = next(c for c in result.comparisons if c["variant"] == best)
        p = comp["auc_delay"]["p_value"]
        delta = comp["auc_delay"]["mean_delta"]
        assert delta > 0
        assert p < 0.05, f"paired t-test vs {best}: p={p:.4f}"
        _report("AC-5", f"cmdcm wins auc_delay on all 5 seeds; vs best baseline "
                        f"{best} mean delta {delta:+.4f}, paired p={p:.2e}\n  "
                        + "\n  ".join(lines))


class TestAC6AblationOrdering:
    @pytest.mark.slow
    def test_ac6_every_component_removal_hurts(self, five_seed_run):
        cfg, result = five_seed_run
        summary = result.summary
        table = "\n".join(
            f"  {name:<12} auc_delay mean {summary[name]['auc_delay']['mean']:.4f}"
            f" values {[round(v, 4) for v in summary[name]['auc_delay']['values']]}"
            for name in ("cmdcm",) + ABLATIONS)
        full = summary["cmdcm"]["auc_delay"]["mean"]
        for name in ABLATIONS:
            got = summary[name]["auc_delay"]["mean"]
            assert got <= full, (
                f"ordering violated: {name} mean auc_delay {got:.4f} exceeds "
                f"cmdcm {full:.4f}\ncomparison table:\n{table}")
        _report("AC-6", f"all removals rank at or below the full model\n{table}")


class TestAC7LabelOracle:
    def test_ac7_derive_labels_equals_brute_force_on_1000_logs(self):
        from prepromo.data import ActionEvent, EventLog, build_click_dataset

        calendar = PromotionCalendar(daily_train_range=(0, 3),
                                     pre_promo_range=(4, 6),
                                     promo_days=frozenset({7, 8}))
        rng = np.random.default_rng(707)
        day = 86400
        for k in range(1000):
            n_users = int(rng.integers(1, 12))
            n_items = int(rng.integers(1, 8))
            clicks = [ActionEvent(f"u{rng.integers(n_users)}",
                                  f"i{rng.integers(n_items)}", "c", "click",
                                  int(rng.integers(1, 10 * day)))
                      for _ in range(int(rng.integers(1, 50)))]
            buys = [ActionEvent(f"u{rng.integers(n_users)}",
                                f"i{rng.integers(n_items)}", "c", "buy",
                                int(rng.integers(1, 10 * day)))
                    for _ in range(int(rng.integers(0, 30)))]
            inter = bool(rng.integers(0, 2))
            got = {(s.user_id, s.item_id, s.click_ts): (s.y_all, s.y_delay)
                   for s in build_click_dataset(EventLog.of([*clicks, *buys]), calendar,
                                                count_intermediate_as_all=inter)}
            oracle = brute_force_labels(clicks, buys, calendar,
                                        count_intermediate_as_all=inter)
            want = {(c.user_id, c.item_id, c.timestamp): oracle[id(c)]
                    for c in clicks if id(c) in oracle}
            assert got == want, f"log {k}: labels diverge from oracle"
        _report("AC-7", "1000 random logs, grouped derivation == per-click "
                        "brute-force scan (both intermediate-day policies)")


class TestAC8NllSanity:
    @pytest.mark.slow
    def test_ac8_no_variant_beats_bayes_and_closed_form_holds(self, five_seed_run):
        cfg, result = five_seed_run
        checked = 0
        for seed in cfg.seeds:
            diag = result.diagnostics[seed]
            floor = diag["bayes_nll_delay"] - 3 * diag["bayes_nll_stderr"]
            for r in result.reports:
                if r.seed != seed:
                    continue
                assert r.nll_delay >= floor, (
                    f"{r.variant} seed {seed}: nll {r.nll_delay:.5f} beats the "
                    f"Bayes floor {floor:.5f}")
                checked += 1
        # Constant base-rate predictor reproduces the closed form to 1e-9.
        rng = np.random.default_rng(808)
        y = (rng.uniform(size=40_000) < 0.0123).astype(float)
        r = y.mean()
        got = nll_delay(np.full(y.size, r), y)
        want = -(r * math.log(r) + (1 - r) * math.log(1 - r))
        assert abs(got - want) < 1e-9
        _report("AC-8", f"{checked} variant/seed NLLs all >= Bayes - 3se; "
                        f"closed form reproduced to {abs(got - want):.1e}")


class TestAC9Determinism:
    def test_ac9_identical_runs_identical_bytes(self, tmp_path):
        def run(sub):
            cfg = make_config("desk")
            cfg.dataset = replace(cfg.dataset, n_daily=2000, n_prepromo=4000,
                                  feature_dim=4, n_users=80, n_items=120,
                                  n_categories=8, max_seq_len=3,
                                  direct_rate_pre=0.02, delayed_rate_pre=0.05)
            cfg.model = replace(cfg.model, widths=(6, 4), embedding_dim=2,
                                imputation_widths=(8,), n_buckets=4)
            cfg.training = replace(cfg.training, batch_size=256, epochs=1,
                                   pretrain_epochs=1, imputation_epochs=1)
            cfg.variants = ("pretrained_only", "reuse_relabel", "cmdcm")
            cfg.seeds = (1, 2)
            cfg.out_dir = str(tmp_path / sub)
            run_experiment(cfg)
            return (tmp_path / sub / "report.json").read_bytes()

        a, b = run("first"), run("second")
        assert a == b
        _report("AC-9", f"two identical experiment runs, report.json byte-equal "
                        f"({len(a)} bytes)")

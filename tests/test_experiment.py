import json
from dataclasses import fields, replace

import numpy as np
import pytest

from prepromo.data import build_click_dataset, ingest_csv, CsvSchema
from prepromo.errors import ConfigError
from prepromo.experiment import (_SECTION_PARSERS, ABLATION_VARIANTS, DatasetConfig,
                                 ExperimentConfig, ModelConfig, TrainingConfig,
                                 acquire_data, apply_variant,
                                 config_hash, format_ablation_table,
                                 load_config, make_config, run_ablation,
                                 run_experiment, stage_seed)


def tiny_config(**kw):
    cfg = make_config("desk")
    cfg.dataset = replace(cfg.dataset, n_daily=1500, n_prepromo=3000,
                          feature_dim=4, n_users=60, n_items=100,
                          n_categories=8, max_seq_len=3,
                          direct_rate_pre=0.02, delayed_rate_pre=0.05)
    cfg.model = replace(cfg.model, widths=(6, 4), embedding_dim=2,
                        imputation_widths=(8,), n_buckets=4)
    cfg.training = replace(cfg.training, batch_size=256, epochs=1,
                           pretrain_epochs=1, imputation_epochs=1)
    cfg.seeds = (1,)
    for key, value in kw.items():
        setattr(cfg, key, value)
    return cfg


class TestApplyVariant:
    def test_all_names_resolve(self):
        cfg = make_config("desk")
        for name in ("pretrained_only", "naive_finetune", "reuse_relabel",
                     "cmdcm", "wo_allcvr", "wo_pg", "wo_cm"):
            plan = apply_variant(cfg, name)
            assert plan.name == name

    def test_wo_cm_matches_cmdcm_except_counterfactual_weight(self):
        cfg = make_config("desk")
        full = apply_variant(cfg, "cmdcm")
        wo = apply_variant(cfg, "wo_cm")
        assert wo.lambda_cm == 0.0
        assert wo.lambda_all == full.lambda_all
        assert wo.use_gates == full.use_gates
        assert wo.needs_imputation  # the model is still fitted

    def test_naive_disables_everything_extra(self):
        plan = apply_variant(make_config("desk"), "naive_finetune")
        assert (plan.lambda_all, plan.lambda_cm, plan.use_gates) == (0.0, 0.0, False)
        assert not plan.needs_imputation

    def test_unknown_name_rejected(self):
        for name in ("wo_everything", "wo_ccra"):  # wo_ccra trained wo_cm's model
            with pytest.raises(ConfigError, match="unknown variant"):
                apply_variant(make_config("desk"), name)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[dataset]\n"
            "n_prepromo = 5000\n"
            "tau = 1.5\n"
            "[model]\n"
            "widths = 8,4\n"
            "lambda_cm = 0.25\n"
            "use_gates = false\n"
            "[training]\n"
            "epochs = 2\n"
            "[experiment]\n"
            "variants = pretrained_only,cmdcm\n"
            "seeds = 3,4\n"
            "out_dir = runs/test\n")
        cfg = load_config(path)
        assert cfg.dataset.n_prepromo == 5000
        assert cfg.dataset.tau == 1.5
        assert cfg.model.widths == (8, 4)
        assert cfg.model.lambda_cm == 0.25
        assert cfg.model.use_gates is False
        assert cfg.training.epochs == 2
        assert cfg.variants == ("pretrained_only", "cmdcm")
        assert cfg.seeds == (3, 4)
        assert cfg.out_dir == "runs/test"

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[model]\nwidht = 8\n")
        with pytest.raises(ConfigError, match="widht"):
            load_config(path)

    def test_unknown_section_named(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[serving]\nqps = 100\n")
        with pytest.raises(ConfigError, match="serving"):
            load_config(path)

    def test_bad_value_reported(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[training]\nepochs = few\n")
        with pytest.raises(ConfigError, match="epochs"):
            load_config(path)

    def test_unknown_variant_in_config(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nvariants = cmdcm,showcase\n")
        with pytest.raises(ConfigError, match="showcase"):
            load_config(path)

    def test_iso_dates_for_calendar(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[dataset]\nmode = csv\nevents_path = x.csv\n"
                        "daily_start = 2017-11-25\ndaily_end = 2017-11-28\n"
                        "pre_start = 2017-11-29\npre_end = 2017-12-01\n"
                        "promo_days = 2017-12-02,2017-12-03\n")
        cfg = load_config(path)
        cal = cfg.dataset.calendar()
        # 1511918000s is 2017-11-29 00:33 UTC, four days after daily_start.
        assert cal.day_of(1511918000) == cfg.dataset.daily_start + 4
        assert cal.pre_promo_range[0] == cal.day_of(1511918000)
        assert len(cal.promo_days) == 2

    def test_paper_profile(self):
        cfg = make_config("paper")
        assert cfg.model.widths == (512, 256, 128)
        assert cfg.training.learning_rate == 0.001
        assert cfg.dataset.max_seq_len == 50

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            make_config("laptop")

    def test_every_config_field_is_settable_from_a_file(self):
        sections = {"dataset": DatasetConfig, "model": ModelConfig,
                    "training": TrainingConfig}
        expected = {name: {f.name for f in fields(cls)} for name, cls in sections.items()}
        expected["experiment"] = {f.name for f in fields(ExperimentConfig)} - set(sections)
        assert {name: set(keys) for name, keys in _SECTION_PARSERS.items()} == expected

    def test_config_hash_ignores_out_dir(self):
        a, b = make_config("desk"), make_config("desk")
        b.out_dir = "elsewhere"
        assert config_hash(a) == config_hash(b)
        b.model = replace(b.model, lambda_cm=0.9)
        assert config_hash(a) != config_hash(b)


class TestStageSeeds:
    def test_stable_and_distinct(self):
        assert stage_seed(1, "daily") == stage_seed(1, "daily")
        assert stage_seed(1, "daily") != stage_seed(2, "daily")
        assert stage_seed(1, "daily") != stage_seed(1, "pretrain")


class TestAcquireData:
    def test_split_proportions_balanced(self):
        cfg = tiny_config()
        cfg.dataset = replace(cfg.dataset, n_prepromo=100_000, n_daily=2000,
                              n_users=1500, n_items=2000)
        split = acquire_data(cfg, run_seed=1)
        train_rate = np.mean([s.y_delay for s in split.prepromo_train])
        eval_rate = np.mean([s.y_delay for s in split.prepromo_eval])
        assert abs(train_rate - eval_rate) < 0.01
        n = len(split.prepromo_train) + len(split.prepromo_eval)
        assert abs(len(split.prepromo_train) - 0.8 * n) <= 1

    def test_csv_mode_round_trip(self, tmp_path):
        from prepromo.synth import (GenConfig, generate_dataset, sample_world,
                                    samples_to_events)
        from prepromo.data import write_events_csv

        world = sample_world(7, d=4, direct_rate_pre=0.02, delayed_rate_pre=0.05)
        gen = GenConfig(n_users=50, n_items=80, n_categories=8, max_seq_len=3)
        daily = generate_dataset(world, 800, "daily", seed=1, gen=gen)
        prepromo = generate_dataset(world, 1500, "prepromo", seed=2, gen=gen)
        events = samples_to_events(daily + prepromo, gen.calendar)
        path = tmp_path / "events.csv"
        schema = CsvSchema(price_col=5, discount_col=6)
        write_events_csv(events, path, schema)

        cfg = tiny_config()
        cfg.dataset = replace(
            cfg.dataset, mode="csv", events_path=str(path), price_col=5,
            discount_col=6, daily_start=0, daily_end=29, pre_start=30,
            pre_end=32, promo_days=(33,), max_seq_len=3)
        split = acquire_data(cfg, run_seed=1)
        assert len(split.daily_train) == 800
        n_pre = len(split.prepromo_train) + len(split.prepromo_eval)
        assert n_pre == 1500
        want_delay = sum(s.y_delay for s in prepromo)
        got_delay = sum(s.y_delay for s in split.prepromo_train) + \
            sum(s.y_delay for s in split.prepromo_eval)
        assert got_delay == want_delay

    def test_unknown_mode(self):
        cfg = tiny_config()
        cfg.dataset = replace(cfg.dataset, mode="parquet")
        with pytest.raises(ConfigError):
            acquire_data(cfg, run_seed=1)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = tiny_config(variants=("pretrained_only", "naive_finetune",
                                "reuse_relabel", "cmdcm"))
    cfg.out_dir = str(out)
    return cfg, run_experiment(cfg), out


class TestRunExperiment:
    def test_report_per_variant_per_seed(self, small_run):
        cfg, result, _ = small_run
        assert len(result.reports) == len(cfg.variants) * len(cfg.seeds)
        assert {r.variant for r in result.reports} == set(cfg.variants)

    def test_pretrained_only_never_steps(self, small_run):
        _, result, _ = small_run
        frozen = [r for r in result.reports if r.variant == "pretrained_only"]
        assert all(r.extras["finetune_steps"] == 0.0 for r in frozen)

    def test_trained_variants_step(self, small_run):
        _, result, _ = small_run
        for r in result.reports:
            if r.variant != "pretrained_only":
                assert r.extras["finetune_steps"] > 0

    def test_files_written(self, small_run):
        _, _, out = small_run
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()
        assert (out / "loss_traces.csv").exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["extra"]["config"]["dataset"]["mode"] == "synthetic"
        assert "1" in doc["extra"]["diagnostics"]

    def test_diagnostics_cover_oracle_values(self, small_run):
        _, result, _ = small_run
        diag = result.diagnostics[1]
        assert "bayes_nll_delay" in diag
        assert diag["bayes_nll_delay"] > 0
        # The generator's own probabilities are the ranking ceiling.
        assert diag["bayes_auc_delay"] > 0.5
        assert "naive_diff_in_means" in diag

    def test_stage_trace_shape(self, small_run):
        cfg, result, _ = small_run
        assert f"seed=1:data" in result.stage_trace
        assert f"seed=1:pretrain" in result.stage_trace
        # cmdcm requires the imputation stage
        assert f"seed=1:imputation" in result.stage_trace


def test_frozen_base_scores_the_eval_split_once(tmp_path, monkeypatch):
    # pretrained_only scores it, and seed_diagnostics reuses those scores
    # for its propensities.
    from prepromo import experiment as exp
    from prepromo.pretrain import PretrainedModel

    prepare, predict = exp.prepare_seed, PretrainedModel.predict
    prepared, scored = [], []

    def keep(*args):
        prepared.append(prepare(*args))
        return prepared[-1]

    def count(model, data):
        scored.append(data)
        return predict(model, data)

    monkeypatch.setattr(exp, "prepare_seed", keep)
    monkeypatch.setattr(PretrainedModel, "predict", count)
    result = run_experiment(tiny_config(variants=("pretrained_only", "cmdcm"),
                                        out_dir=str(tmp_path)))
    assert sum(data is prepared[0].enc_eval for data in scored) == 1
    assert "dr_ate" in result.diagnostics[1]


class TestVariantIsolation:
    def test_wo_cm_alone_builds_imputation(self, tmp_path):
        cfg = tiny_config(variants=("wo_cm",), out_dir=str(tmp_path))
        result = run_experiment(cfg)
        assert any("imputation" in s for s in result.stage_trace)

    # The two tests below keep the names they had while wo_ccra (wo_cm without
    # the imputation stage) existed; it trained the same model as wo_cm and is
    # gone, so they check the same properties on the variants that remain.
    def test_wo_ccra_alone_builds_no_imputation(self, tmp_path):
        cfg = tiny_config(variants=("reuse_relabel",), out_dir=str(tmp_path))
        result = run_experiment(cfg)
        assert not any("imputation" in s for s in result.stage_trace)

    def test_wo_cm_equals_wo_ccra_metrics(self, tmp_path):
        # Identical stage seeds: fitting the imputation model that cmdcm needs
        # must not perturb a variant that does not use it.
        naive = {}
        for variants in (("naive_finetune",), ("naive_finetune", "cmdcm")):
            cfg = tiny_config(variants=variants, out_dir=str(tmp_path / variants[-1]))
            result = run_experiment(cfg)
            imputed = any("imputation" in s for s in result.stage_trace)
            assert imputed == ("cmdcm" in variants)
            report = next(r for r in result.reports if r.variant == "naive_finetune")
            naive[variants] = {k: v for k, v in report.to_dict().items()
                               if k != "config_hash"}
        alone, beside_cmdcm = naive.values()
        assert alone == beside_cmdcm


class TestFailureHandling:
    def test_partial_reports_flushed_and_stage_named(self, tmp_path, monkeypatch):
        from prepromo import experiment as exp
        from prepromo.errors import TrainingError

        cfg = tiny_config(variants=("pretrained_only", "naive_finetune"))
        cfg.seeds = (1,)
        cfg.out_dir = str(tmp_path)
        original = exp.run_variant

        def explode_on_finetune(cfg_, seed_data, plan, run_seed, imputation, trace):
            if plan.kind == "delay":
                trace.append(f"seed={run_seed}:finetune:{plan.name}")
                raise FloatingPointError("simulated blowup")
            return original(cfg_, seed_data, plan, run_seed, imputation, trace)

        monkeypatch.setattr(exp, "run_variant", explode_on_finetune)
        with pytest.raises(TrainingError, match="finetune:naive_finetune"):
            exp.run_experiment(cfg)
        partial = json.loads((tmp_path / "report_partial.json").read_text())
        assert [r["variant"] for r in partial["reports"]] == ["pretrained_only"]


class TestNonFiniteLoss:
    def test_reuse_baseline_names_stage_and_step(self):
        from prepromo.errors import TrainingError
        from prepromo.experiment import prepare_seed, run_reuse_baseline

        cfg = tiny_config()
        seed_data = prepare_seed(cfg, 1, [])
        poisoned = seed_data.enc_train.take(np.arange(seed_data.enc_train.n))
        poisoned.dense[7, 1] = np.nan
        with pytest.raises(TrainingError, match=r"reuse_relabel: non-finite loss nan at step \d+"):
            run_reuse_baseline(seed_data.pretrained, poisoned, cfg.training, seed=0)


class TestReproducibility:
    def test_byte_identical_reports(self, tmp_path):
        cfg1 = tiny_config(variants=("pretrained_only", "cmdcm"))
        cfg1.seeds = (1, 2)
        cfg1.out_dir = str(tmp_path / "a")
        run_experiment(cfg1)
        cfg2 = tiny_config(variants=("pretrained_only", "cmdcm"))
        cfg2.seeds = (1, 2)
        cfg2.out_dir = str(tmp_path / "b")
        run_experiment(cfg2)
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b


class TestAblation:
    def test_structure(self, tmp_path):
        cfg = tiny_config()
        cfg.seeds = (1, 2)
        cfg.out_dir = str(tmp_path)
        result = run_ablation(cfg)
        assert [row["variant"] for row in result.table] == list(ABLATION_VARIANTS)
        assert (tmp_path / "ablation.csv").exists()
        lines = (tmp_path / "ablation.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + len(ABLATION_VARIANTS)
        parsed = [line.split(",")[0] for line in lines[1:]]
        assert parsed == list(ABLATION_VARIANTS)
        table = format_ablation_table(result.table)
        assert "cmdcm" in table
        # Tiny runs are noisy; the flag must exist and match the failures list.
        assert result.ordering_ok == (not result.failures)
